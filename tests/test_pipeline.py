"""Training pipeline: optimizer math against a scalar reference, stage
mechanics (schedules, determinism, copy integrity), target selection, and
the experiment driver's report grid. Everything here runs on a miniature
benchmark so the whole file stays in the single-digit seconds."""
import concurrent.futures
import functools
import multiprocessing
import os
import tracemalloc

import numpy as np
import pytest

import distillforge.pipeline as pipeline
import distillforge.tensor as tc
from distillforge.data import GeneratorParams, as_arrays, generate
from distillforge.losses import DistillConfig, softmax_loss
from distillforge.metrics import top1_accuracy
from distillforge.nets import Network, NetworkSpec, build, clone, load_network, save_network
from distillforge.pipeline import (
    ALIGNMENT,
    VERIFICATION,
    ExperimentPlan,
    OptimizerState,
    Run,
    StageConfig,
    StagePlan,
    TaskPlan,
    derive_seed,
    distill_student_cls,
    distill_student_task,
    evaluate_classification,
    init_student_cls,
    nag_step,
    pretrain_student_task,
    run_experiment,
    run_stage,
    select_targets,
    stage,
    stages,
    train_teacher_cls,
    train_teacher_task,
)
from distillforge.pipeline import _index_batches, _run_training, _teacher_targets, _train_arrays

GEN = GeneratorParams(num_identities=6, samples_per_identity=10, input_dim=16,
                      latent_dim=4, pose_dim=2, num_keypoints=3, seed=0)
SPEC = NetworkSpec(16, (32, 16), 8, 6, 6)
DCFG = DistillConfig()


@pytest.fixture(scope="module")
def data():
    return generate(GEN)


def _stage(epochs=2, lr=0.02, seed=0):
    return StageConfig(batch_size=16, lr_schedule=((lr, epochs),), seed=seed)


class _OneParamNet:
    def __init__(self, value):
        self.parameters = [tc.Tensor(np.array([value]), requires_grad=True)]


# ------------------------------------------------------------------ seeds

def test_derive_seed_stable_and_distinct():
    assert derive_seed(7, "teacher_cls") == derive_seed(7, "teacher_cls")
    assert derive_seed(7, "teacher_cls") != derive_seed(8, "teacher_cls")
    assert derive_seed(7, "teacher_cls") != derive_seed(7, "student8_cls_init")
    assert derive_seed(7, "teacher_cls") >= 0


# ------------------------------------------------------------------- nag

def test_nag_mu_zero_is_plain_gradient_descent():
    net = _OneParamNet(2.0)
    opt = OptimizerState.for_network(net, learning_rate=0.25, momentum=0.0)
    net.parameters[0].grad = np.array([4.0])
    nag_step(net, opt)
    np.testing.assert_allclose(net.parameters[0].data, [1.0], atol=1e-15)


def test_nag_lr_zero_keeps_parameters():
    net = _OneParamNet(3.0)
    opt = OptimizerState.for_network(net, learning_rate=0.0, momentum=0.9)
    net.parameters[0].grad = np.array([5.0])
    nag_step(net, opt)
    assert net.parameters[0].data[0] == 3.0


def test_nag_scalar_quadratic_reference():
    # f(theta) = theta^2 / 2, so grad = theta
    net = _OneParamNet(1.0)
    opt = OptimizerState.for_network(net, learning_rate=0.1, momentum=0.9)
    theta, v = 1.0, 0.0
    for _ in range(10):
        g = theta
        v = 0.9 * v - 0.1 * g
        theta = theta + 0.9 * v - 0.1 * g
        net.parameters[0].grad = net.parameters[0].data.copy()
        nag_step(net, opt)
        assert net.parameters[0].data[0] == pytest.approx(theta, abs=1e-12)


def test_nag_requires_gradients():
    net = _OneParamNet(1.0)
    opt = OptimizerState.for_network(net, 0.1)
    with pytest.raises(RuntimeError):
        nag_step(net, opt)


def test_nag_rejects_mismatched_state():
    net = _OneParamNet(1.0)
    net.parameters[0].grad = np.array([1.0])
    with pytest.raises(ValueError):
        nag_step(net, OptimizerState(0.1, 0.9, velocities=[]))


def test_nag_clears_gradients():
    net = _OneParamNet(1.0)
    opt = OptimizerState.for_network(net, 0.1)
    net.parameters[0].grad = np.array([1.0])
    nag_step(net, opt)
    assert net.parameters[0].grad is None


def test_nag_matches_allocating_reference(rng):
    # the update nag_step ran before it had scratch buffers, bit for bit
    shapes = [(7, 5), (5,), (1,)]
    net = type("Net", (), {})()
    net.parameters = [tc.Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
    opt = OptimizerState.for_network(net, learning_rate=0.03, momentum=0.9)
    theta = [p.data.copy() for p in net.parameters]
    vel = [np.zeros(s) for s in shapes]
    for _ in range(6):
        grads = [rng.normal(size=s) for s in shapes]
        for p, g in zip(net.parameters, grads):
            p.grad = g.copy()
        nag_step(net, opt)
        for i, g in enumerate(grads):
            lr_g = 0.03 * g
            vel[i] = 0.9 * vel[i] - lr_g
            theta[i] = theta[i] + (0.9 * vel[i] - lr_g)
            assert net.parameters[i].data.tobytes() == theta[i].tobytes()
            assert opt.velocities[i].tobytes() == vel[i].tobytes()


def test_nag_step_allocates_no_arrays(rng):
    net = type("Net", (), {})()
    net.parameters = [tc.Tensor(rng.normal(size=(256, 256)), requires_grad=True)]
    opt = OptimizerState.for_network(net, learning_rate=0.01)
    grad = rng.normal(size=(256, 256))
    net.parameters[0].grad = grad
    nag_step(net, opt)
    net.parameters[0].grad = grad
    tracemalloc.start()
    try:
        nag_step(net, opt)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < grad.nbytes // 16  # a 512 KiB temporary would show


# ----------------------------------------------------------------- stages

def test_stage_config_validation():
    with pytest.raises(ValueError):
        StageConfig(batch_size=8, lr_schedule=())
    with pytest.raises(ValueError):
        StageConfig(batch_size=8, lr_schedule=((0.0, 5),))
    with pytest.raises(ValueError):
        StageConfig(batch_size=0, lr_schedule=((0.1, 5),))
    assert StageConfig(batch_size=8, lr_schedule=((0.1, 3), (0.01, 2))).epochs == 5


def test_stage_plan_modes():
    plan = StagePlan(batch_size=8, epochs_per_phase=3, scratch_lr=0.1, continue_lr=0.01)
    scratch = plan.stage("scratch", seed=1)
    assert scratch.lr_schedule == ((0.1, 3), (0.01, 3))
    cont = plan.stage("continue", seed=1)
    assert cont.lr_schedule == ((0.01, 3),)
    with pytest.raises(ValueError):
        plan.stage("warm", seed=1)


def test_zero_epoch_stage_leaves_network_unchanged(data):
    stage = StageConfig(batch_size=16, lr_schedule=((0.1, 0),), seed=3)
    net = train_teacher_cls(SPEC, data, stage)
    fresh = build(SPEC, seed=3)
    feats, _, _ = as_arrays(data.train)
    fresh.set_normalizer(feats.mean(axis=0), feats.std(axis=0))
    for p, q in zip(net.parameters, fresh.parameters):
        assert np.array_equal(p.data, q.data)


def test_teacher_trains_above_threshold(data):
    net = train_teacher_cls(SPEC, data, _stage(epochs=20, lr=0.02))
    feats, ids, _ = as_arrays(data.train)
    assert top1_accuracy(net.forward(feats).logits.data, ids) > 0.9


def test_training_deterministic_per_seed(data):
    a = train_teacher_cls(SPEC, data, _stage(epochs=2, seed=11))
    b = train_teacher_cls(SPEC, data, _stage(epochs=2, seed=11))
    for p, q in zip(a.parameters, b.parameters):
        assert np.array_equal(p.data, q.data)
    c = train_teacher_cls(SPEC, data, _stage(epochs=2, seed=12))
    assert any(not np.array_equal(p.data, q.data) for p, q in zip(a.parameters, c.parameters))


def test_lr_schedule_honored(data):
    stage = StageConfig(batch_size=16, lr_schedule=((0.05, 1), (0.005, 1)), seed=0)
    net = train_teacher_cls(SPEC, data, stage)
    lrs = net.training_log.step_lrs
    half = len(lrs) // 2  # equal epochs per phase
    assert half > 0
    assert set(lrs[:half]) == {0.05}
    assert set(lrs[half:]) == {0.005}


def test_training_loss_trends_down(data):
    net = train_teacher_cls(SPEC, data, _stage(epochs=12, lr=0.02))
    losses = net.training_log.step_losses
    assert np.mean(losses[-10:]) < np.mean(losses[:10])


def test_distillation_does_not_touch_teacher(data):
    teacher = train_teacher_cls(SPEC, data, _stage(epochs=3))
    before = [p.data.copy() for p in teacher.parameters]
    distill_student_cls(teacher, data, DCFG, _stage(epochs=2), student_spec=SPEC.student(2))
    for p, b in zip(teacher.parameters, before):
        assert np.array_equal(p.data, b)


def test_task_distillation_copies_init(data):
    teacher = train_teacher_cls(SPEC, data, _stage(epochs=3))
    t_align = train_teacher_task(teacher, ALIGNMENT, data, DCFG, _stage(epochs=2))
    s_init = init_student_cls(SPEC.student(2), data, _stage(epochs=2))
    init_before = [p.data.copy() for p in s_init.parameters]
    tuned = distill_student_task(t_align, s_init, ALIGNMENT, data, DCFG, _stage(epochs=2))
    for p, b in zip(s_init.parameters, init_before):
        assert np.array_equal(p.data, b)
    assert any(not np.array_equal(p.data, q.data) for p, q in zip(tuned.parameters, s_init.parameters))


def test_teacher_task_zero_epochs_is_value_copy(data):
    teacher = train_teacher_cls(SPEC, data, _stage(epochs=2))
    stage = StageConfig(batch_size=16, lr_schedule=((0.01, 0),), seed=0)
    t_task = train_teacher_task(teacher, ALIGNMENT, data, DCFG, stage)
    for p, q in zip(t_task.parameters, teacher.parameters):
        assert np.array_equal(p.data, q.data)


def test_verification_stage_runs(data):
    net = pretrain_student_task(SPEC.student(2), VERIFICATION, data, DCFG,
                                _stage(epochs=2), triplets_per_epoch=30)
    assert len(net.training_log.step_losses) > 0


def test_teacher_cache_rows_match_per_batch_forward(rng):
    # distillation stages run the teacher once over the training features and
    # index the rows; that is exact only if this BLAS computes a row of a
    # product the same way whatever the batch size
    teacher_spec = ExperimentPlan().teacher
    teacher = build(teacher_spec, seed=5)
    feats = rng.normal(size=(1280, teacher_spec.input_dim)) * 3.0 + 1.0
    teacher.set_normalizer(feats.mean(axis=0), feats.std(axis=0))
    cached_logits, cached_emb = _teacher_targets(teacher, feats)
    for size in range(2, 129):
        idx = rng.choice(len(feats), size=size, replace=False)
        out = teacher.forward(feats[idx])
        for name, cached, fresh in (("logits", cached_logits, out.logits.data),
                                    ("embedding", cached_emb, out.embedding.data)):
            assert cached[idx].tobytes() == fresh.tobytes(), (
                f"teacher {name} for a {size}-row batch differ from the cached full-set rows: "
                "this BLAS build breaks the per-stage teacher cache")


def test_non_finite_loss_fails_before_backward(data):
    net = build(SPEC, seed=0)
    feats, ids, _ = as_arrays(data.train)
    n_batches = -(-len(data.train) // 16)
    fail_at = 2 * n_batches + 2  # phase 2, its second epoch, second step
    calls = []

    def step(idx):
        calls.append(idx)
        with tc.Tape():
            loss = softmax_loss(net.forward(feats[idx]).logits, ids[idx])
            return tc.mul(loss, np.nan) if len(calls) == fail_at else loss

    stage = StageConfig(batch_size=16, lr_schedule=((0.02, 1), (0.002, 3)), seed=0)
    with pytest.raises(RuntimeError) as err:
        _run_training(net, stage, _index_batches(len(data.train), 16), step)
    assert str(err.value) == ("non-finite training loss nan in learning-rate phase 2 (lr 0.002), "
                              "epoch 2, step 2")
    assert len(calls) == fail_at
    assert all(p.grad is None for p in net.parameters)  # backward never ran on the bad loss


# --------------------------------------------------------- select_targets

def test_select_targets_lower_better_row():
    metrics = {(0, 0): 3.29, (0, 1): 3.21, (1, 0): 3.54}
    assert select_targets(metrics, higher_is_better=False) == (0, 1)


def test_select_targets_higher_better_row():
    metrics = {(0, 0): 79.51, (0, 1): 77.63, (1, 0): 79.96}
    assert select_targets(metrics, higher_is_better=True) == (1, 0)


def test_select_targets_no_strict_improvement():
    assert select_targets({(0, 0): 5.0, (0, 1): 5.0, (1, 0): 5.0}, True) == (0, 0)


def test_select_targets_monotone_transform_invariant(rng):
    for _ in range(20):
        vals = rng.normal(size=3)
        metrics = {(0, 0): vals[0], (0, 1): vals[1], (1, 0): vals[2]}
        transformed = {k: float(np.exp(3 * v) + 1) for k, v in metrics.items()}
        for higher in (True, False):
            assert select_targets(metrics, higher) == select_targets(transformed, higher)


def test_select_targets_requires_all_probes():
    with pytest.raises(ValueError):
        select_targets({(0, 0): 1.0, (0, 1): 2.0}, True)


# ----------------------------------------------------------- experiments

def _tiny_plan(**overrides):
    kwargs = dict(
        generator=GEN,
        teacher=SPEC,
        distill=DCFG,
        cls_divisors=(2,),
        cls_inits=("full_init",),
        tasks=(TaskPlan(ALIGNMENT, (2,), inits=("distill",), grid=((0.0, 0.0), (0.0, 1.0))),),
        cls_stage=StagePlan(16, 1),
        alignment_stage=StagePlan(16, 1, scratch_lr=0.005, continue_lr=0.001),
        verification_stage=StagePlan(16, 1, scratch_lr=0.005, continue_lr=0.001),
        eval_pairs=10,
        seed=0,
    )
    kwargs.update(overrides)
    return ExperimentPlan(**kwargs)


def test_plan_validates_generator_against_teacher():
    with pytest.raises(ValueError):
        _tiny_plan(teacher=NetworkSpec(32, (32, 16), 8, 6, 6))
    with pytest.raises(ValueError):
        _tiny_plan(teacher=SPEC.student(2))


def test_experiment_report_covers_grid():
    report = run_experiment(_tiny_plan())
    keys = {key for key, _ in report.rows()}
    assert ("classification", "teacher", "scratch", 0.0, 0.0) in keys
    assert ("classification", "student/2", "full_init", DCFG.alpha, 0.0) in keys
    assert ("alignment", "teacher", "transfer", 0.0, 0.0) in keys
    assert ("alignment", "student/2", "distill", 0.0, 0.0) in keys
    assert ("alignment", "student/2", "distill", 0.0, 1.0) in keys
    assert len(keys) == 5


def test_experiment_empty_divisors_reports_teachers_only():
    report = run_experiment(_tiny_plan(cls_divisors=(), tasks=(TaskPlan(ALIGNMENT, ()),)))
    networks = {key[1] for key, _ in report.rows()}
    assert networks == {"teacher"}


def _rich_plan():
    # scratch and pretrain task inits beside the distilled one, and a joint
    # verification table: every kind of stage and dependency
    return _tiny_plan(tasks=(
        TaskPlan(ALIGNMENT, (2,), inits=("scratch", "pretrain", "distill")),
        TaskPlan(VERIFICATION, (2,), inits=("scratch", "distill"), include_softmax=True),
    ), alignment_stage=StagePlan(16, 3, scratch_lr=0.005, continue_lr=0.001))


def test_experiment_checkpoints_match_stages_trained_alone(tmp_path):
    plan = _rich_plan()
    run_experiment(plan, tmp_path / "run")
    data = generate(plan.generator)
    for node in stages(plan):
        nets = {dep: load_network(tmp_path / "run" / f"{dep}.ckpt") for dep in node.deps}
        net, _ = run_stage(node, Run(plan, data), nets)
        save_network(net, tmp_path / "alone.ckpt")
        assert ((tmp_path / "alone.ckpt").read_bytes()
                == (tmp_path / "run" / f"{node.key}.ckpt").read_bytes()), node.key


def test_experiment_bytes_do_not_depend_on_worker_count(tmp_path):
    plan = _rich_plan()
    reports = {workers: run_experiment(plan, tmp_path / str(workers), workers=workers).to_json()
               for workers in (1, 2, 5)}
    assert reports[2] == reports[1] and reports[5] == reports[1]
    for node in stages(plan):
        serial = (tmp_path / "1" / f"{node.key}.ckpt").read_bytes()
        for workers in (2, 5):
            assert (tmp_path / str(workers) / f"{node.key}.ckpt").read_bytes() == serial, node.key
    assert multiprocessing.active_children() == []


def test_experiment_caps_workers_at_the_stage_count(monkeypatch):
    plan = _tiny_plan(cls_divisors=(), tasks=(TaskPlan(ALIGNMENT, ()),))
    n_stages = len(stages(plan))
    sizes = []

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            sizes.append(max_workers)
            assert max_workers == n_stages == 2  # checked before any worker starts
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    assert run_experiment(plan, workers=64).to_json() == run_experiment(plan).to_json()
    assert sizes == [2]
    with pytest.raises(ValueError, match="workers"):
        run_experiment(plan, workers=0)


def test_pool_failures_name_the_stage_and_leave_no_worker(monkeypatch):
    plan = _tiny_plan()

    def fail(*args):
        raise ValueError("boom")

    # workers are forked after the patch, so they run the patched task body
    monkeypatch.setattr(pipeline, "_train_task", fail)
    with pytest.raises(ValueError, match="^stage teacher_alignment: boom$"):
        run_experiment(plan, workers=2)
    assert multiprocessing.active_children() == []

    monkeypatch.setattr(pipeline, "_train_task", lambda *args: os._exit(3))
    with pytest.raises(RuntimeError, match="worker process died while running stages .*teacher_alignment"):
        run_experiment(plan, workers=2)
    assert multiprocessing.active_children() == []



def test_pool_workers_share_the_run_constants(tmp_path, monkeypatch):
    # the training arrays and evaluation pairs are computed once, before the
    # fork; a file collects the calls of every process
    log = tmp_path / "calls"
    for name in ("_train_arrays", "make_pairs"):
        def logged(*args, _inner=getattr(pipeline, name), _name=name):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{_name} {os.getpid()}\n")
            return _inner(*args)

        monkeypatch.setattr(pipeline, name, logged)
    run_experiment(_tiny_plan(), workers=2)
    assert log.read_text().splitlines() == [f"_train_arrays {os.getpid()}",
                                            f"make_pairs {os.getpid()}"]


def test_wrapped_run_stage_walks_in_process(monkeypatch):
    # a tracer's wrapper keeps its records in the process it runs in, so a
    # wrapped run_stage must see every stage here, not in a pool worker
    plan = _tiny_plan()
    seen = []
    inner = pipeline.run_stage

    @functools.wraps(inner)
    def traced(node, run, nets):
        seen.append((os.getpid(), node.key))
        return inner(node, run, nets)

    monkeypatch.setattr(pipeline, "run_stage", traced)
    run_experiment(plan, workers=2)
    assert seen == [(os.getpid(), node.key) for node in stages(plan)]


def test_stage_graph_of_default_plan():
    plan = ExperimentPlan()
    listed = stages(plan)
    expected = {"teacher_cls"}
    expected |= {f"student{d}_cls_{kind}" for d in (2, 4, 8) for kind in ("init", "scratch", "full_init")}
    for label, d in (("alignment", 8), ("verification", 2), ("verification_joint", 2)):
        expected |= {f"teacher_{label}", f"student{d}_{label}_pretrain_base"}
        expected |= {f"student{d}_{label}_{init}_a{a}_b{b}"
                     for init in ("pretrain", "distill") for a, b in ((0, 0), (0, 1), (1, 0))}
    keys = [node.key for node in listed]
    assert len(keys) == 34 and set(keys) == expected
    done = set()
    for node in listed:
        assert set(node.deps) <= done, f"{node.key} is listed before a dependency"
        done.add(node.key)
        assert stage(plan, node.key) == node
    rows = [node.row for node in listed if node.row is not None]
    assert len(rows) == len(set(rows)) == 28  # 1 + 3 * 2 classification rows, 3 tables of 7


def test_stage_resolves_keys_outside_the_plan_and_rejects_unknown_keys():
    plan = ExperimentPlan()
    node = stage(plan, "student3_cls_scratch")
    assert (node.deps, node.label, node.row) == (("teacher_cls",), "cls", None)
    node = stage(plan, "student2_alignment_distill_a0.5_b2")
    assert node.deps == ("teacher_alignment", "student2_cls_full_init") and node.row is None
    assert stage(plan, "student8_alignment_distill_a0_b1").row == ("alignment", "student/8", "distill",
                                                                   0.0, 1.0)
    for key in ("teacher_cls_scratch", "student2_cls", "student2_cls_pretrain_base",
                "student2_alignment_init", "student2_alignment_distill_a1e_b0"):
        with pytest.raises(ValueError, match=key):
            stage(plan, key)


def test_plan_rejects_ambiguous_run_keys():
    with pytest.raises(ValueError, match="label"):
        _tiny_plan(tasks=(TaskPlan(ALIGNMENT, (2,)), TaskPlan(ALIGNMENT, (4,))))
    with pytest.raises(ValueError, match="grid weights"):
        TaskPlan(ALIGNMENT, (2,), grid=((0.1234567, 0.0),))


def test_experiment_runs_each_teacher_once_on_shared_read_only_targets(monkeypatch):
    plan = _tiny_plan(tasks=(
        TaskPlan(ALIGNMENT, (2,), inits=("pretrain", "distill")),
        TaskPlan(VERIFICATION, (2,), inits=("distill",)),
    ))
    n_train = len(generate(GEN).train)
    full_passes, targets = [], []
    forward, teacher_targets = Network.forward, pipeline._teacher_targets

    def counting_forward(self, batch):
        if len(batch) == n_train:  # training batches are smaller; evaluation uses the test split
            full_passes.append(id(self))
        return forward(self, batch)

    def recording_targets(teacher, feats):
        targets.append(teacher_targets(teacher, feats))
        return targets[-1]

    monkeypatch.setattr(Network, "forward", counting_forward)
    monkeypatch.setattr(pipeline, "_teacher_targets", recording_targets)
    run_experiment(plan)
    assert len(full_passes) == 1 + len(plan.tasks)
    assert len(set(full_passes)) == len(full_passes)
    assert len(targets) == len(full_passes)
    for logits, embedding in targets:
        for array in (logits, embedding):
            with pytest.raises(ValueError):
                array[0, 0] = 1.0


def test_training_arrays_are_read_only(data):
    for array in _train_arrays(data):
        with pytest.raises(ValueError):
            array[0] = 0


# ------------------------------------------------------------- evaluation

def test_evaluate_classification_consistent_with_metrics(data):
    net = train_teacher_cls(SPEC, data, _stage(epochs=2))
    feats, ids, _ = as_arrays(data.test)
    got = evaluate_classification(net, data.test)
    assert got["top1"] == top1_accuracy(net.forward(feats).logits.data, ids)
