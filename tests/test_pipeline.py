"""Training pipeline: optimizer math against a scalar reference, stage
mechanics (schedules, determinism, copy integrity), target selection, and
the experiment driver's report grid. Everything here runs on a miniature
benchmark so the whole file stays in the single-digit seconds."""
import sys
import tracemalloc

import numpy as np
import pytest

import distillforge.pipeline as pipeline
import distillforge.tensor as tc
from distillforge.data import GeneratorParams, as_arrays, generate
from distillforge.losses import DistillConfig, softmax_loss
from distillforge.metrics import top1_accuracy
from distillforge.nets import Network, NetworkSpec, build, clone
from distillforge.pipeline import (
    ALIGNMENT,
    VERIFICATION,
    ExperimentPlan,
    OptimizerState,
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
    select_targets,
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


def test_experiment_threaded_matches_serial():
    a = run_experiment(_tiny_plan())
    b = run_experiment(_tiny_plan(), threads=2)
    assert a.rows() == b.rows()


def test_experiment_report_bytes_do_not_depend_on_worker_count():
    # many concurrent jobs per table, with thread switches forced as often
    # as the interpreter allows, share one set of teacher targets
    plan = _tiny_plan(tasks=(
        TaskPlan(ALIGNMENT, (2,), inits=("scratch", "pretrain", "distill")),
        TaskPlan(VERIFICATION, (2,), inits=("scratch", "distill"), include_softmax=True),
    ), alignment_stage=StagePlan(16, 3, scratch_lr=0.005, continue_lr=0.001))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        blobs = [run_experiment(plan, threads=n).to_json() for n in (1, 2, 5)]
    finally:
        sys.setswitchinterval(interval)
    assert blobs[0] == blobs[1] == blobs[2]


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


def test_experiment_rejects_bad_thread_env(monkeypatch):
    monkeypatch.setenv("DISTILLFORGE_THREADS", "many")
    with pytest.raises(ValueError):
        run_experiment(_tiny_plan())


# ------------------------------------------------------------- evaluation

def test_evaluate_classification_consistent_with_metrics(data):
    net = train_teacher_cls(SPEC, data, _stage(epochs=2))
    feats, ids, _ = as_arrays(data.test)
    got = evaluate_classification(net, data.test)
    assert got["top1"] == top1_accuracy(net.forward(feats).logits.data, ids)
