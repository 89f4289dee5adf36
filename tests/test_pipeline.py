"""Training pipeline: optimizer math against a scalar reference, stage
mechanics (schedules, determinism, copy integrity), target selection, and
the experiment driver's report grid. Everything here runs on a miniature
benchmark so the whole file stays in the single-digit seconds."""
import concurrent.futures
import functools
import hashlib
import multiprocessing
import os
import pickle
import shutil
import tempfile
import time
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

import distillforge.pipeline as pipeline
import distillforge.tensor as tc
from distillforge._atomic import atomic_write
from distillforge.config import experiment_plan, load_config
from distillforge.data import GeneratorParams, generate
from distillforge.losses import (DistillConfig, alignment_distill_loss, classification_distill_loss,
                                 euclidean_loss, hard_term, objective, one_hot, soft_predictions,
                                 soft_targets, softmax_loss, verification_distill_loss)
from distillforge.metrics import (nrmse, pair_verification_accuracy, reference_distances,
                                  top1_accuracy, verification_top1)
from distillforge.nets import Network, NetworkOutputs, NetworkSpec, build, load_network, save_network
from distillforge.pipeline import (
    ALIGNMENT,
    VERIFICATION,
    ExperimentPlan,
    OptimizerState,
    Run,
    StagePlan,
    TaskPlan,
    derive_seed,
    nag_step,
    run_experiment,
    run_stage,
    select_targets,
    stage,
    stages,
)
from distillforge.pipeline import _teacher_targets

GEN = GeneratorParams(num_identities=6, samples_per_identity=10, input_dim=16,
                      latent_dim=4, pose_dim=2, num_keypoints=3, seed=0)
SPEC = NetworkSpec(16, (32, 16), 8, 6, 6)


@pytest.fixture(scope="module")
def data():
    return generate(GEN)


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
    opt = OptimizerState.for_network(net, 0.1, 0.9)
    with pytest.raises(RuntimeError):
        nag_step(net, opt)


def test_nag_rejects_mismatched_state():
    net = _OneParamNet(1.0)
    net.parameters[0].grad = np.array([1.0])
    for other in ([], _OneParamNet(1.0).parameters, net.parameters * 2):
        with pytest.raises(ValueError):
            nag_step(net, OptimizerState(other, 0.1, 0.9))


def test_nag_clears_gradients():
    net = _OneParamNet(1.0)
    opt = OptimizerState.for_network(net, 0.1, 0.9)
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
        assert opt.velocity.tobytes() == np.concatenate([v.ravel() for v in vel]).tobytes()


def test_nag_step_allocates_no_arrays(rng):
    net = type("Net", (), {})()
    net.parameters = [tc.Tensor(rng.normal(size=(256, 256)), requires_grad=True)]
    opt = OptimizerState.for_network(net, learning_rate=0.01, momentum=0.9)
    grad = rng.normal(size=(256, 256))
    net.parameters[0].grad = grad
    nag_step(net, opt)
    net.parameters[0].grad = grad
    tracemalloc.start()
    try:
        nag_step(net, opt)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        opt.zero_grad()  # the training loop's path: the gradient is already in the flat buffer
        net.parameters[0].grad += grad
        nag_step(net, opt)
        _, peak_flat = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert max(peak, peak_flat) < grad.nbytes // 16  # a 512 KiB temporary would show


def test_nag_step_leaves_a_copied_in_gradient_unmodified(rng):
    # the step consumes the flat gradient buffer, never a gradient set by hand
    net = _OneParamNet(0.0)
    net.parameters = [tc.Tensor(rng.normal(size=(4, 3)), requires_grad=True)]
    opt = OptimizerState.for_network(net, learning_rate=0.1, momentum=0.9)
    grad = rng.normal(size=(4, 3))
    before = grad.tobytes()
    net.parameters[0].grad = grad
    nag_step(net, opt)
    assert grad.tobytes() == before
    assert net.parameters[0].grad is None


def test_optimizer_state_allocates_four_flat_buffers(rng):
    # params, grad, velocity and one scratch buffer; the step's lr*g lives in grad
    net = _OneParamNet(0.0)
    net.parameters = [tc.Tensor(rng.normal(size=(256, 256)), requires_grad=True),
                      tc.Tensor(rng.normal(size=256), requires_grad=True)]
    nbytes = sum(p.data.nbytes for p in net.parameters)
    tracemalloc.start()
    try:
        opt = OptimizerState.for_network(net, learning_rate=0.01, momentum=0.9)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 4 * nbytes <= held < 4.25 * nbytes
    assert opt.scratch.nbytes == nbytes


def test_loaded_network_frees_its_payload_once_its_parameters_move(tmp_path):
    # run_stage trains a start network as loaded: once OptimizerState has moved
    # its parameters, nothing may keep the checkpoint's payload buffer alive
    path = tmp_path / "start.ckpt"
    save_network(build(SPEC, seed=1), path)
    net = load_network(path)
    payload = weakref.ref(net.parameters[0].data.base)
    opt = OptimizerState.for_network(net, learning_rate=0.01, momentum=0.9)
    assert payload() is None
    assert all(p.data.base is opt.params for p in net.parameters)


def test_nag_over_flat_buffers_matches_per_parameter_update(rng):
    # the training loop's path: backward accumulates into the zeroed views
    # zero_grad hands out and the step runs over whole buffers; the reference
    # backpropagates into fresh gradients, gives the untouched head zeros and
    # runs the update per parameter, as training did before flat buffers
    net, ref = build(SPEC, seed=1), build(SPEC, seed=1)
    opt = OptimizerState.for_network(net, learning_rate=0.03, momentum=0.9)
    assert all(p.data.base is opt.params for p in net.parameters)
    vel = [np.zeros_like(p.data) for p in ref.parameters]
    x, labels = rng.normal(size=(9, 16)), rng.integers(0, 6, size=9)
    for _ in range(5):
        opt.zero_grad()
        with tc.Tape():
            loss = softmax_loss(net.forward(x).logits, labels)
        tc.backward(loss)
        nag_step(net, opt)
        with tc.Tape():
            loss = softmax_loss(ref.forward(x).logits, labels)
        tc.backward(loss)
        for p, v in zip(ref.parameters, vel):
            g = np.zeros_like(p.data) if p.grad is None else p.grad
            lr_g = 0.03 * g
            v[...] = 0.9 * v - lr_g
            p.data = p.data + (0.9 * v - lr_g)
            p.grad = None
        for p, q in zip(net.parameters, ref.parameters):
            assert p.data.tobytes() == q.data.tobytes()
            assert p.grad is None
        assert opt.velocity.tobytes() == np.concatenate([v.ravel() for v in vel]).tobytes()


# ----------------------------------------------------------------- stages

def test_stage_config_validation():
    with pytest.raises(ValueError):
        StagePlan(batch_size=8, epochs_per_phase=3, scratch_lr=0.0)
    with pytest.raises(ValueError):
        StagePlan(batch_size=8, epochs_per_phase=3, continue_lr=0.0)
    with pytest.raises(ValueError):
        StagePlan(batch_size=0, epochs_per_phase=3)
    assert stage(_tiny_plan(cls_stage=StagePlan(8, 0)), "teacher_cls").phases == ((0.02, 0), (0.002, 0))


def test_stage_plan_modes():
    # a fresh build runs the scratch rate, then the continuation rate; a copied
    # start the continuation rate only
    plan = _tiny_plan(cls_stage=StagePlan(batch_size=8, epochs_per_phase=3, scratch_lr=0.1,
                                          continue_lr=0.01))
    assert stage(plan, "student2_cls_init").phases == ((0.1, 3), (0.01, 3))
    assert stage(plan, "student2_cls_full_init").phases == ((0.01, 3),)


def test_fresh_builds_run_two_phases_and_copied_starts_one():
    plan = ExperimentPlan()
    fresh = {"teacher_cls"} | {f"student{d}_cls_{kind}" for d in plan.cls_divisors
                               for kind in ("init", "scratch")}
    for node in stages(plan):
        splan = {"cls": plan.cls_stage, ALIGNMENT: plan.alignment_stage}.get(
            node.label, plan.verification_stage)
        n = splan.epochs_per_phase
        assert (node.batch_size, node.momentum) == (splan.batch_size, plan.momentum), node.key
        if node.key in fresh or node.key.endswith("_pretrain_base"):
            assert node.start is None, node.key
            assert node.phases == ((splan.scratch_lr, n), (splan.continue_lr, n)), node.key
        else:
            assert node.start is not None, node.key
            assert node.phases == ((splan.continue_lr, n),), node.key
    assert sum(len(node.phases) == 2 for node in stages(plan)) == 10  # 7 cls stages, 3 pretrain bases


def test_stage_records_are_equal_exactly_when_they_train_alike():
    # a copied start never runs its family's scratch rate, so that rate is not
    # part of its record; a fresh build runs it
    p = ExperimentPlan()
    for family, copied, fresh in (("cls_stage", "student4_cls_full_init", "student4_cls_scratch"),
                                  ("verification_stage", "student2_verification_distill_a0_b1",
                                   "student2_verification_pretrain_base")):
        q = replace(p, **{family: replace(getattr(p, family), scratch_lr=0.05)})
        assert stage(p, copied) == stage(q, copied), family
        assert hash(stage(p, copied)) == hash(stage(q, copied)), family
        assert stage(p, fresh) != stage(q, fresh), family
    # only verification labels read the margin, and only a soft term (alpha > 0) reads tau
    reads = {"lambda_margin": lambda node: node.label.startswith("verification"),
             "tau": lambda node: node.distill.alpha != 0}
    for name, value, n_alike in (("lambda_margin", 0.9, 18), ("tau", 5.0, 22)):
        q = replace(p, **{name: value})
        alike = [node.key for node in stages(p) if stage(q, node.key) == node]
        assert alike == [node.key for node in stages(p) if not reads[name](node)], name
        assert len(alike) == n_alike and all(hash(stage(q, key)) == hash(stage(p, key)) for key in alike)
    # whether a plan reports a stage is no part of its record: the release
    # gate's test_05 plan reports this stage and its test_06 plan does not
    reported = ExperimentPlan(cls_divisors=(8,), tasks=())
    unreported = ExperimentPlan(cls_divisors=(), cls_inits=("full_init",),
                                tasks=(TaskPlan(ALIGNMENT, (8,), inits=("distill",)),))
    key = "student8_cls_full_init"
    assert key in dict(pipeline._report_rows(reported))
    assert key not in dict(pipeline._report_rows(unreported))
    assert stage(reported, key) == stage(unreported, key)
    assert hash(stage(reported, key)) == hash(stage(unreported, key))


def _planned_steps(node, n_train: int) -> int:
    """The optimizer steps of stage ``node`` over ``n_train`` training rows,
    from its record alone: one per batch of every epoch of every phase."""
    return sum(epochs for _, epochs in node.phases) * -(-n_train // node.batch_size)


def _n_train(plan) -> int:
    return plan.generator.split_sizes[0] * plan.generator.num_identities


def test_planned_step_counts_of_the_default_and_benchmark_plans():
    plan = ExperimentPlan()
    assert _n_train(plan) == 1280
    assert sum(_planned_steps(node, 1280) for node in stages(plan)) == 26_700
    # perfbench/run.py's optimizer_steps for its scaled grid
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    grid = experiment_plan(load_config(os.path.join(root, "perfbench", "configs", "grid.cfg")))
    assert sum(_planned_steps(node, _n_train(grid)) for node in stages(grid)) == 1_780


def _recording(monkeypatch, name, read):
    """A list that gets ``read(result, *args)`` of each call of ``pipeline.<name>``."""
    seen, fn = [], getattr(pipeline, name)

    def wrapper(*args):
        result = fn(*args)
        seen.append(read(result, *args))
        return result
    monkeypatch.setattr(pipeline, name, wrapper)
    return seen


def test_planned_step_counts_match_the_steps_taken(monkeypatch, tmp_path):
    plan = _digest_plan()
    steps = _recording(monkeypatch, "nag_step", lambda *_: None)
    run = Run(plan, generate(plan.generator))
    for node in stages(plan):
        steps.clear()
        run_stage(node, run, tmp_path)
        assert len(steps) == _planned_steps(node, len(run.data.train)) > 0, node.key


def test_a_stage_trains_the_phases_of_its_record(data, monkeypatch, tmp_path):
    # _train reads the rates and epochs from the record, not from its start
    plan = _tiny_plan()
    lrs = _recording(monkeypatch, "nag_step", lambda _, net, opt: opt.learning_rate)
    _saved({"teacher_cls": build(SPEC, 1), "student2_cls_init": build(SPEC.student(2), 2)}, tmp_path)
    for key in ("teacher_cls", "student2_cls_scratch", "student2_cls_full_init"):
        lrs.clear()
        run_stage(replace(stage(plan, key), phases=((0.05, 1),)), Run(plan, data), tmp_path)
        assert lrs == [0.05] * -(-len(data.train) // 16), key


def test_run_reloads_the_targets_of_another_or_a_replaced_teacher(data, tmp_path):
    # a Run reused for another checkpoint directory, or after the teacher's
    # checkpoint is replaced, trains on the teacher in that file, as a fresh Run does
    plan, key = _tiny_plan(), "student2_cls_scratch"
    a, b, alone = tmp_path / "a", tmp_path / "b", tmp_path / "alone"
    for ckpt_dir, seed in ((a, 0), (b, 5)):
        ckpt_dir.mkdir()
        _saved({"teacher_cls": _train(replace(plan, seed=seed), "teacher_cls", data)}, ckpt_dir)
    alone.mkdir()
    shutil.copy(b / "teacher_cls.ckpt", alone)
    run_stage(stage(plan, key), Run(plan, data), alone)
    expected = (alone / f"{key}.ckpt").read_bytes()
    run = Run(plan, data)
    run_stage(stage(plan, key), run, a)
    assert (a / f"{key}.ckpt").read_bytes() != expected
    run_stage(stage(plan, key), run, b)
    assert (b / f"{key}.ckpt").read_bytes() == expected
    save_network(load_network(b / "teacher_cls.ckpt"), a / "teacher_cls.ckpt")  # an atomic replace
    run_stage(stage(plan, key), run, a)
    assert (a / f"{key}.ckpt").read_bytes() == expected


def test_a_trained_network_carries_only_its_values(data, tmp_path):
    plan = _tiny_plan(tasks=(TaskPlan(ALIGNMENT, (2,)), TaskPlan(VERIFICATION, (2,)),
                             TaskPlan(VERIFICATION, (2,), include_softmax=True)))
    run = Run(plan, data)
    for key in ("teacher_cls", "teacher_alignment", "teacher_verification",
                "teacher_verification_joint"):
        net, _ = run_stage(stage(plan, key), run, tmp_path)
        assert sorted(vars(net)) == ["norm_mean", "norm_std", "parameters", "spec"], key


def _saved(nets, ckpt_dir):
    """``ckpt_dir``, now holding each network of ``nets`` as ``<key>.ckpt``."""
    for key, net in nets.items():
        save_network(net, os.path.join(ckpt_dir, f"{key}.ckpt"))
    return ckpt_dir


def _train(plan, key, data, nets=None):
    """The network of stage ``key``, trained as ``reproduce`` trains it from
    the networks ``nets`` of its dependencies."""
    with tempfile.TemporaryDirectory() as ckpt_dir:
        return run_stage(stage(plan, key), Run(plan, data), _saved(nets or {}, ckpt_dir))[0]


def test_zero_epoch_stage_leaves_network_unchanged(data):
    plan = _tiny_plan(cls_stage=StagePlan(16, 0, scratch_lr=0.1))
    net = _train(plan, "teacher_cls", data)
    fresh = build(SPEC, seed=derive_seed(plan.seed, "teacher_cls"))
    feats = data.train.features
    fresh.set_normalizer(feats.mean(axis=0), feats.std(axis=0))
    for p, q in zip(net.parameters, fresh.parameters):
        assert np.array_equal(p.data, q.data)


def test_teacher_trains_above_threshold(data):
    net = _train(_tiny_plan(cls_stage=StagePlan(16, 10, scratch_lr=0.02, continue_lr=0.02)),
                 "teacher_cls", data)
    feats, ids = data.train.features, data.train.ids
    assert top1_accuracy(net.forward(feats).logits.data, ids) > 0.9


def test_training_deterministic_per_seed(data):
    a = _train(_tiny_plan(cls_stage=StagePlan(16, 1), seed=11), "teacher_cls", data)
    b = _train(_tiny_plan(cls_stage=StagePlan(16, 1), seed=11), "teacher_cls", data)
    for p, q in zip(a.parameters, b.parameters):
        assert np.array_equal(p.data, q.data)
    c = _train(_tiny_plan(cls_stage=StagePlan(16, 1), seed=12), "teacher_cls", data)
    assert any(not np.array_equal(p.data, q.data) for p, q in zip(a.parameters, c.parameters))


def test_lr_schedule_honored(data, monkeypatch):
    lrs = _recording(monkeypatch, "nag_step", lambda _, net, opt: opt.learning_rate)
    _train(_tiny_plan(cls_stage=StagePlan(16, 1, scratch_lr=0.05, continue_lr=0.005)),
           "teacher_cls", data)
    half = len(lrs) // 2  # equal epochs per phase
    assert half > 0
    assert set(lrs[:half]) == {0.05}
    assert set(lrs[half:]) == {0.005}


def test_training_loss_trends_down(data, monkeypatch):
    losses = _recording(monkeypatch, "objective", lambda loss, *_: loss.item())
    _train(_tiny_plan(cls_stage=StagePlan(16, 6, scratch_lr=0.02, continue_lr=0.02)),
           "teacher_cls", data)
    assert np.mean(losses[-10:]) < np.mean(losses[:10])


def test_distillation_does_not_touch_teacher(data, tmp_path):
    # a stage reads its teacher's checkpoint and leaves it as it was
    plan = _tiny_plan()
    _saved({"teacher_cls": _train(plan, "teacher_cls", data)}, tmp_path)
    before = (tmp_path / "teacher_cls.ckpt").read_bytes()
    run_stage(stage(plan, "student2_cls_scratch"), Run(plan, data), tmp_path)
    assert (tmp_path / "teacher_cls.ckpt").read_bytes() == before


def test_task_distillation_copies_init(data, tmp_path):
    plan = _tiny_plan()
    teacher = _train(plan, "teacher_cls", data)
    _saved({"teacher_alignment": _train(plan, "teacher_alignment", data, {"teacher_cls": teacher}),
            "student2_cls_full_init": _train(plan, "student2_cls_init", data)}, tmp_path)
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    tuned, _ = run_stage(stage(plan, "student2_alignment_distill_a1_b1"), Run(plan, data), tmp_path)
    assert {name: (tmp_path / name).read_bytes() for name in before} == before
    s_init = load_network(tmp_path / "student2_cls_full_init.ckpt")
    assert any(not np.array_equal(p.data, q.data) for p, q in zip(tuned.parameters, s_init.parameters))


def test_teacher_task_zero_epochs_is_value_copy(data):
    plan = _tiny_plan(alignment_stage=StagePlan(16, 0))
    teacher = _train(plan, "teacher_cls", data)
    t_task = _train(plan, "teacher_alignment", data, {"teacher_cls": teacher})
    assert t_task is not teacher
    for p, q in zip(t_task.parameters, teacher.parameters):
        assert np.array_equal(p.data, q.data)


@pytest.mark.parametrize("key", ["student2_alignment_distill_a1_b0",
                                 "student2_verification_joint_distill_a0_b1"])
def test_task_stage_rejects_a_teacher_of_another_width(data, key, tmp_path):
    # alpha alone reads only the logits and beta fails deep in the loss, so the body checks first
    plan = _rich_plan()
    node = stage(plan, key)
    narrow_teacher, student = build(replace(SPEC, embedding_dim=4), 1), build(SPEC.student(2), 2)
    nets = {dep: narrow_teacher if dep.startswith("teacher") else student for dep in node.deps}
    with pytest.raises(ValueError, match=f"^stage {key}: student and teacher must share embedding_dim"):
        run_stage(node, Run(plan, data), _saved(nets, tmp_path))


def test_verification_stage_runs(data, monkeypatch):
    losses = _recording(monkeypatch, "objective", lambda loss, *_: loss.item())
    _train(_tiny_plan(verification_stage=StagePlan(16, 1)), "student2_verification_pretrain_base", data)
    assert len(losses) == 2 * -(-len(data.train) // 16) and all(np.isfinite(losses))


def _teacher_and_features(rng):
    teacher_spec = ExperimentPlan().teacher
    teacher = build(teacher_spec, seed=5)
    feats = rng.normal(size=(1280, teacher_spec.input_dim)) * 3.0 + 1.0
    teacher.set_normalizer(feats.mean(axis=0), feats.std(axis=0))
    return teacher, feats


def test_teacher_cache_rows_match_per_batch_forward(rng):
    # distillation stages run the teacher over the training features in
    # 128-row blocks and index the rows; that is exact only if this BLAS
    # computes a row of a product the same way whatever the batch size
    teacher, feats = _teacher_and_features(rng)
    cached_logits, cached_emb = _teacher_targets(teacher, feats)
    for size in range(2, 129):
        idx = rng.choice(len(feats), size=size, replace=False)
        out = teacher.forward(feats[idx])
        for name, cached, fresh in (("logits", cached_logits, out.logits.data),
                                    ("embedding", cached_emb, out.embedding.data)):
            assert cached[idx].tobytes() == fresh.tobytes(), (
                f"teacher {name} for a {size}-row batch differ from the cached full-set rows: "
                "this BLAS build breaks the per-stage teacher cache")


def test_blocked_teacher_targets_match_one_whole_split_forward(rng):
    teacher, feats = _teacher_and_features(rng)
    logits, embedding = _teacher_targets(teacher, feats)
    out = teacher.forward(feats)
    assert logits.tobytes() == out.logits.data.tobytes()
    assert embedding.tobytes() == out.embedding.data.tobytes()


def test_teacher_targets_hold_only_their_tables(rng):
    # one forward over all 1,280 rows peaked at 7.87 MB; blocks of 128 rows
    # keep the pass near the size of its two output tables
    teacher, feats = _teacher_and_features(rng)
    tracemalloc.start()
    try:
        logits, embedding = _teacher_targets(teacher, feats)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < logits.nbytes + embedding.nbytes + 2 ** 20


def test_teacher_targets_record_nothing_on_an_active_tape(rng):
    # the teacher is frozen by structure, not by convention: its forward runs
    # on parameters without requires_grad, so even an active tape stays empty
    teacher, feats = _teacher_and_features(rng)
    outside = _teacher_targets(teacher, feats)
    with tc.Tape() as tape:
        inside = _teacher_targets(teacher, feats)
    assert len(tape) == 0
    assert [t.tobytes() for t in inside] == [t.tobytes() for t in outside]
    assert all(p.requires_grad and p.grad is None for p in teacher.parameters)


def test_stage_table_rows_match_per_batch_builds(rng):
    # a stage standardizes its features, one-hot encodes its labels and
    # softens its teacher's logits once, over the whole training split; each
    # batch's rows must be bitwise what the batch alone would give
    teacher, feats = _teacher_and_features(rng)
    labels = rng.integers(0, teacher.spec.num_classes, size=len(feats))
    t_logits, _ = _teacher_targets(teacher, feats)
    cfg = DistillConfig(tau=3.0)
    x, onehot, soft = teacher.standardize(feats), one_hot(labels, 32), soft_targets(t_logits, cfg)
    for size in range(2, 129):
        idx = rng.choice(len(feats), size=size, replace=False)
        batch = feats[idx]
        per_batch = {"standardized": (batch - teacher.norm_mean) * (1.0 / teacher.norm_std),
                     "one-hot": one_hot(labels[idx], 32),
                     "softened": soft_predictions(tc.detach(t_logits[idx]), cfg.tau).data}
        for name, table in (("standardized", x), ("one-hot", onehot), ("softened", soft)):
            assert table[idx].tobytes() == per_batch[name].tobytes(), (
                f"{name} rows for a {size}-row batch differ from the stage table's rows")


def test_triplet_steps_forward_each_distinct_row_once(data, monkeypatch):
    # a triplet batch runs the network once over its distinct rows, however
    # often a row recurs among its anchors, positives and negatives
    drawn = _recording(monkeypatch, "make_triplets", lambda triplets, *_: triplets)
    forward, seen = Network._forward, []

    def counting(self, h, *args, **kwargs):
        if tc.active_tape() is not None:  # a training step, not targets or evaluation
            seen.append(len(h))
        return forward(self, h, *args, **kwargs)

    monkeypatch.setattr(Network, "_forward", counting)
    teacher, student = build(SPEC, seed=1), build(SPEC.student(2), 2)
    plan, n = _tiny_plan(verification_stage=StagePlan(16, 2)), len(data.train)
    for key in ("student2_verification_distill_a1_b1", "student2_verification_joint_distill_a1_b1"):
        drawn.clear()
        seen.clear()
        _train(plan, key, data, {dep: teacher if dep.startswith("teacher") else student
                                 for dep in stage(plan, key).deps})
        want = [np.unique(np.concatenate([t[start:start + 16] for t in triplets])).size
                for triplets in drawn for start in range(0, n, 16)]
        assert len(drawn) == 2 and seen == want, key
        assert sum(want) < 3 * 2 * n, key  # rows do recur within batches


def _objective_cases(rng, n, spec):
    """(name, heads it reads, its loss over the full forward through the public
    wrappers, and over the skipped-head forward through ``objective`` with the
    task term a training step computes)."""
    c, e = spec.num_classes, spec.embedding_dim
    t_logits, t_emb = rng.normal(size=(n, c)) * 2, rng.normal(size=(n, e))
    labels, kps = rng.integers(0, c, size=n), rng.normal(size=(n, spec.num_keypoint_coords))
    trips = tuple(rng.integers(0, n, size=n) for _ in range(3))
    onehot = one_hot(labels, c)
    for alpha, beta in ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)):
        cfg = DistillConfig(alpha=alpha, beta=beta)
        soft = soft_targets(t_logits, cfg)
        if beta == 0.0:
            yield (f"cls a{alpha:g}", (True, False),
                   lambda o, cfg=cfg: classification_distill_loss(o.logits, t_logits, labels, cfg),
                   lambda o, cfg=cfg, soft=soft: objective(
                       hard_term(o.logits, onehot), o.logits, o.embedding, soft, None, cfg))
        yield (f"alignment a{alpha:g} b{beta:g}", (alpha != 0, True),
               lambda o, cfg=cfg: alignment_distill_loss(o, (t_logits, t_emb), kps, cfg),
               lambda o, cfg=cfg, soft=soft: objective(
                   euclidean_loss(o.regression, kps), o.logits, o.embedding, soft, t_emb, cfg))
        for joint in (False, True):
            yield (f"verification a{alpha:g} b{beta:g} joint={joint}", (alpha != 0 or joint, False),
                   lambda o, cfg=cfg, joint=joint: verification_distill_loss(
                       o, (t_logits, t_emb), trips, cfg, joint, labels),
                   lambda o, cfg=cfg, soft=soft, joint=joint: objective(
                       tc.triplet_hinge(o.embedding, *trips, cfg.lambda_margin), o.logits, o.embedding,
                       soft, t_emb, cfg, onehot if joint else None))


def _every_head_forward(net, batch):
    """The forward that ran every head, logits before regression, in every step."""
    h, params = net.standardize(batch), net.parameters
    for i in range(0, len(params) - 4, 2):
        h = tc.affine(h, params[i], params[i + 1], rectify=True)
    return NetworkOutputs(tc.affine(h, *params[-4:-2], rectify=False), h,
                          tc.affine(h, *params[-2:], rectify=False))


def test_skipping_unread_heads_changes_no_gradient_bit(rng):
    spec = SPEC.student(2)
    net = build(spec, seed=0)
    for p in net.parameters:  # random heads too: a zero head would hide a reordered sum
        p.data = rng.normal(size=p.data.shape) * 0.5
    net.set_normalizer(rng.normal(size=spec.input_dim), rng.uniform(0.5, 2.0, size=spec.input_dim))
    opt = OptimizerState.for_network(net, 0.1, 0.9)
    batch = rng.normal(size=(24, spec.input_dim))
    head_params = {"logits": net.parameters[-4:-2], "regression": net.parameters[-2:]}

    def grads(loss_of, forward):
        opt.zero_grad()
        with tc.Tape():
            loss = loss_of(forward())
        tc.backward(loss)
        return loss.data.tobytes(), opt.grad.copy()

    for name, (logits, regression), wrapper, body in _objective_cases(rng, len(batch), spec):
        full = grads(wrapper, lambda: _every_head_forward(net, batch))
        skipped = grads(body, lambda: net._forward(net.standardize(batch), logits, regression))
        assert full[0] == skipped[0], name
        assert full[1].tobytes() == skipped[1].tobytes(), name
        for head, read in (("logits", logits), ("regression", regression)):
            if not read:
                assert not any(np.any(p.grad) for p in head_params[head]), (name, head)
    opt.zero_grad()


def test_stage_tables_are_built_once_per_stage(data, monkeypatch):
    # the tables a stage indexes per batch are built once, however long it runs
    counts = {}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("one_hot", "soft_targets"):
        monkeypatch.setattr(pipeline, name, counting(name, getattr(pipeline, name)))
    monkeypatch.setattr(Network, "standardize", counting("standardize", Network.standardize))
    taken = _recording(monkeypatch, "nag_step", lambda *_: None)
    teacher, student = build(SPEC, seed=1), build(SPEC.student(2), 2)
    families = {"cls distill": "student2_cls_scratch",
                "alignment grid": "student2_alignment_distill_a1_b1",
                "verification grid": "student2_verification_distill_a1_b1",
                "joint": "student2_verification_joint_distill_a1_b1"}
    expected = {"cls distill": {"one_hot", "soft_targets", "standardize"},
                "alignment grid": {"soft_targets", "standardize"},
                "verification grid": {"soft_targets", "standardize"},
                "joint": {"one_hot", "soft_targets", "standardize"}}
    for family, key in families.items():
        built, steps = [], []
        for epochs in (1, 3):
            splan = StagePlan(16, epochs)
            plan = _tiny_plan(cls_stage=splan, alignment_stage=splan, verification_stage=splan)
            deps = stage(plan, key).deps
            counts.clear()
            taken.clear()
            _train(plan, key, data, {dep: teacher if dep.startswith("teacher") else student
                                     for dep in deps})
            steps.append(len(taken))
            built.append(dict(counts))
        assert steps[1] == 3 * steps[0] > 0, family
        assert built[0] == built[1], (family, built)
        assert set(built[0]) == expected[family], (family, built[0])


def test_non_finite_loss_fails_before_backward(data, monkeypatch):
    plan = _tiny_plan(cls_stage=StagePlan(16, 3))  # phases (0.02, 3 epochs), (0.002, 3 epochs)
    n_batches = -(-len(data.train) // 16)
    fail_at = 4 * n_batches + 2  # phase 2, its second epoch, second step
    losses, stepped = [], []

    def failing_objective(*args):
        losses.append(objective(*args))
        return tc.mul(losses[-1], np.nan) if len(losses) == fail_at else losses[-1]

    def counting_step(net, opt):
        stepped.append(net)
        nag_step(net, opt)

    monkeypatch.setattr(pipeline, "objective", failing_objective)
    monkeypatch.setattr(pipeline, "nag_step", counting_step)
    with pytest.raises(RuntimeError) as err:
        _train(plan, "teacher_cls", data)
    assert str(err.value) == ("stage teacher_cls: non-finite training loss nan in learning-rate "
                              "phase 2 (lr 0.002), epoch 2, step 2")
    assert len(losses) == fail_at
    # neither backward nor a step ran on the bad loss
    assert len(stepped) == fail_at - 1
    assert all(p.grad is None for p in stepped[-1].parameters)


def test_step_and_triplet_counters_see_every_call(data, monkeypatch):
    # the benchmark's traced pipeline.steps and data.make_triplets.calls wrap
    # these two module globals, so every step and draw must go through them
    counts = dict.fromkeys(("nag_step", "make_triplets"), 0)

    def counting(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    for name in counts:
        monkeypatch.setattr(pipeline, name, counting(name, getattr(pipeline, name)))
    n = len(data.train)
    cases = {"teacher_cls": StagePlan(7, 2),
             "student2_verification_pretrain_base": StagePlan(10, 2),
             "student2_verification_joint_pretrain_base": StagePlan(10, 1)}
    for key, splan in cases.items():
        assert n % splan.batch_size, key  # every epoch ends on a short batch
        plan = _tiny_plan(cls_stage=splan, verification_stage=splan)
        counts.update(nag_step=0, make_triplets=0)
        _train(plan, key, data)
        epochs, batches = 2 * splan.epochs_per_phase, -(-n // splan.batch_size)
        assert counts["nag_step"] == epochs * batches, key
        assert counts["make_triplets"] == (0 if key == "teacher_cls" else epochs), key


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
        hidden_widths=SPEC.hidden_widths,
        embedding_dim=SPEC.embedding_dim,
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


def test_plan_derives_the_teacher_from_the_dataset():
    # the dataset gives the input, class and keypoint widths; the plan the rest
    assert ExperimentPlan().teacher == NetworkSpec(64, (256, 256, 128), 16, 32, 10)
    assert _tiny_plan().teacher == SPEC


@pytest.mark.parametrize("field, value", [("eval_pairs", 0), ("cls_divisors", (0,)),
                                          ("cls_divisors", (2, -2))], ids=["pairs", "zero", "negative"])
def test_plan_rejects_nonpositive_counts_naming_the_field(field, value):
    # before the check these failed late: eval_pairs=0 after training
    # teacher_cls, a divisor of 0 as an unknown run key 'student0_cls_scratch'
    with pytest.raises(ValueError, match=f"^{field} must be >= 1"):
        _tiny_plan(**{field: value})


@pytest.mark.parametrize("make, field", [
    (lambda: _tiny_plan(cls_divisors=(2.0,)), "cls_divisors"),
    (lambda: _tiny_plan(cls_divisors=(True,)), "cls_divisors"),
    (lambda: _tiny_plan(eval_pairs=2.5), "eval_pairs"),
    (lambda: TaskPlan(ALIGNMENT, (8.0,)), "divisors"),
    (lambda: StagePlan(16.5, 1), "batch_size"),
    (lambda: StagePlan(16, 1.5), "epochs_per_phase"),
    (lambda: StagePlan(16, -1), "epochs_per_phase"),
], ids=["float-divisor", "bool-divisor", "float-pairs", "float-task-divisor", "float-plan-batch",
        "float-plan-epochs", "negative-plan-epochs"])
def test_plan_sizes_must_be_integers_in_range(make, field):
    # before the check these failed late as an unknown run key or a bare
    # TypeError, or were silently truncated (1.5 epochs trained 1) or read as 0
    with pytest.raises(ValueError, match=f"^{field} must be >= [01] and integral"):
        make()


def test_plans_accept_numpy_integer_sizes():
    plan = _tiny_plan(cls_divisors=(np.int64(2),), cls_stage=StagePlan(np.int64(16), np.int64(2)))
    assert "student2_cls_full_init" in [node.key for node in stages(plan)]
    (rate, epochs), = stage(plan, "student2_cls_full_init").phases
    assert (rate, epochs) == (0.002, 2) and type(epochs) is int


def test_plans_store_values_as_their_declared_types():
    # a list of divisors once made an unequal, unhashable plan
    plan = ExperimentPlan(cls_divisors=[2, 4, 8])
    assert plan == ExperimentPlan() and hash(plan) == hash(ExperimentPlan())


@pytest.mark.parametrize("divisors", [(0,), (2, -2)], ids=["zero", "negative"])
def test_task_plan_rejects_nonpositive_divisors(divisors):
    with pytest.raises(ValueError, match="^divisors must be >= 1"):
        TaskPlan(ALIGNMENT, divisors)


def test_experiment_report_covers_grid():
    report = run_experiment(_tiny_plan())
    keys = {key for key, _ in report.rows()}
    assert ("classification", "teacher", "scratch", 0.0, 0.0) in keys
    assert ("classification", "student/2", "full_init", 1.0, 0.0) in keys
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
    data, alone = generate(plan.generator), tmp_path / "alone"
    for node in stages(plan):
        alone.mkdir()
        for dep in node.deps:
            shutil.copy(tmp_path / "run" / f"{dep}.ckpt", alone)
        run_stage(node, Run(plan, data), alone)
        assert ((alone / f"{node.key}.ckpt").read_bytes()
                == (tmp_path / "run" / f"{node.key}.ckpt").read_bytes()), node.key
        shutil.rmtree(alone)


# sha256 of every checkpoint of _digest_plan(), recorded with per-parameter
# optimizer arrays and the unfused objective chains
CHECKPOINT_SHA256 = {
    "student2_alignment_distill_a0_b0": "044ae8bb4b7c5a11d63ab9056e98312880cf468f92a45c2d5ee35aeabd32eb04",
    "student2_alignment_distill_a0_b1": "da041c068137f52caccffbca781c23739263f0926ba0f9df7410239939d4e7e4",
    "student2_alignment_distill_a1_b0": "aa0097c90e5d892d4fc2f75794b2488d94bb92cab53fc60d8932fb45cda0d68f",
    "student2_alignment_pretrain_a0_b0": "f20ac7fb9a2c8df56fa60a8f2ecd9cb3143a8d4ab453d7fbcc08bba80e63ec76",
    "student2_alignment_pretrain_a0_b1": "46dd0e9b66e2a7344121882c0480a7505af8862c6533c31cf4d4e4bc7e192c90",
    "student2_alignment_pretrain_a1_b0": "bec3b4bf13b2e234db62c8bddd6c90f5aa517fee782b47b040d32f7d26d51c0b",
    "student2_alignment_pretrain_base": "74afc93e95d8621c02a2ef5cd5594f65d78e7e606fbdd9e4cd2021d0fc8b890e",
    "student2_alignment_scratch_a0_b0": "10f3430fcb536f35c78c9f5e5750d3d1051e86611da0f6a40b5c9635d63f9661",
    "student2_alignment_scratch_a0_b1": "198ba4d6b1885313b5f19ed08f73bc73515a3d5a48b09a44829f23704bf58c02",
    "student2_alignment_scratch_a1_b0": "9ec1b8476d2e19df0ebd07173a6a5b6bbd8caf07d78b0b8953477c37d408ed45",
    "student2_cls_full_init": "a199de1f96b544a033bdc96d570c7de09ba90a13afd5c27517d18bd5bc34f4a8",
    "student2_cls_init": "57090b7ae6ae3d184d24272370f2184d38b91e1c6dfc583e42c0c631b82f5622",
    "student2_cls_scratch": "49d0cf4bfb9ea4c67bc46c919a703ca73164d73c8835b34aea5306d72a02912d",
    "student2_verification_distill_a0_b0": "92f3ef24f979949a4e1ee075619124d9014e46f963dedcc967c5bc2a88d90621",
    "student2_verification_distill_a0_b1": "b2b9b02f852f5d0e4cf04b6cbeb076afa0e47dccc3b5d272b0d36c46123e2d42",
    "student2_verification_distill_a1_b0": "00e30308971656a482c982de13f81343881ad1e756796ac3313aa63421993e9f",
    "student2_verification_joint_scratch_a0_b0": "7bdfab100d85068789a8b9a4464061cd76a7f546928d6627c92afd65730bc085",
    "student2_verification_joint_scratch_a0_b1": "67ccf67cdde6345dbf02dcd280bb41064086a8e3b4e4e06c4148add806762817",
    "student2_verification_joint_scratch_a1_b0": "ff7279b6a496adc82fb127f133f4bba730afbdee245cb6e2e475b5a387e7094c",
    "student2_verification_pretrain_a0_b0": "6031cc9570f1fbe745310e61d5d09482ccf97ce64bed682679b01de0d9d72cad",
    "student2_verification_pretrain_a0_b1": "21e79b021b4d8944b706dd66777dd2b9095c91cd3baae48a1aa11986386edd7f",
    "student2_verification_pretrain_a1_b0": "4292c13aa75f9852edda1dc5364005eaeaf2afe559f9e0fd617f098f8e857c65",
    "student2_verification_pretrain_base": "5ef7328c4aae91bcc5801456353727a0c41be1a9be3c32ef1729b6a1a56c1b58",
    "teacher_alignment": "00aa12eecd137af09173048ca7b3fca7868c39736334c3e191cd10b8088f5059",
    "teacher_cls": "fc25e19b2c6c983cb64dc2cb79dabd5a13eac81a70e6b8d2561768cb62a5b7e2",
    "teacher_verification": "e31b9348e9157890d628eca9d63ef4d7744321009a836121308d75866870f279",
    "teacher_verification_joint": "ababb4319f771cd04c7942aadf1998a38ab7c1d3e01bb375731b4857ed677456",
}


def _digest_plan():
    # both verification tables and every task init, so each objective and
    # each fused op takes part
    return _tiny_plan(
        cls_inits=("scratch", "full_init"),
        tasks=(TaskPlan(ALIGNMENT, (2,), inits=("scratch", "pretrain", "distill")),
               TaskPlan(VERIFICATION, (2,), inits=("pretrain", "distill")),
               TaskPlan(VERIFICATION, (2,), inits=("scratch",), include_softmax=True)),
        cls_stage=StagePlan(16, 2),
        alignment_stage=StagePlan(16, 3, scratch_lr=0.005, continue_lr=0.001),
        verification_stage=StagePlan(16, 2, scratch_lr=0.005, continue_lr=0.001))


def test_checkpoints_match_recorded_digests(tmp_path):
    plan = _digest_plan()
    run_experiment(plan, tmp_path)
    assert sorted(node.key for node in stages(plan)) == sorted(CHECKPOINT_SHA256)
    for key, expected in CHECKPOINT_SHA256.items():
        assert hashlib.sha256((tmp_path / f"{key}.ckpt").read_bytes()).hexdigest() == expected, key


def test_serial_walk_holds_one_trained_network_at_a_time(tmp_path, monkeypatch):
    # stages hand networks over as checkpoint files, so each network is gone
    # before the next stage starts; no functools.wraps, so the walk stays serial
    plan = _digest_plan()
    refs = []
    real = pipeline.run_stage

    def recording(node, run, ckpt_dir):
        assert [ref() for ref in refs if ref() is not None] == []
        net, metrics = real(node, run, ckpt_dir)
        refs.append(weakref.ref(net))
        return net, metrics

    monkeypatch.setattr(pipeline, "run_stage", recording)
    run_experiment(plan, tmp_path)
    assert len(refs) == len(stages(plan)) and all(ref() is None for ref in refs)
    for key, expected in CHECKPOINT_SHA256.items():
        assert hashlib.sha256((tmp_path / f"{key}.ckpt").read_bytes()).hexdigest() == expected, key


def test_checkpoint_stages_load_a_memoised_teacher_once(tmp_path, monkeypatch):
    plan = _tiny_plan(tasks=(TaskPlan(ALIGNMENT, (2,), inits=("distill",),
                                      grid=((0.0, 1.0), (1.0, 0.0))),))
    run_experiment(plan, tmp_path)
    keys = ["student2_alignment_distill_a0_b1", "student2_alignment_distill_a1_b0"]
    written = {key: (tmp_path / f"{key}.ckpt").read_bytes() for key in keys}
    loads, load = [], pipeline.load_network

    def counting(path):
        loads.append(os.path.basename(path))
        return load(path)

    monkeypatch.setattr(pipeline, "load_network", counting)
    run = Run(plan, generate(plan.generator))
    for key in keys:
        run_stage(stage(plan, key), run, tmp_path)
        assert (tmp_path / f"{key}.ckpt").read_bytes() == written[key], key
    # the start network for each stage, the teacher only for the first
    assert sorted(loads) == ["student2_cls_full_init.ckpt"] * 2 + ["teacher_alignment.ckpt"]
    # a missing dependency still fails before any training, memo or not
    os.remove(tmp_path / "teacher_alignment.ckpt")
    for name in ("load_network", "_train"):
        monkeypatch.setattr(pipeline, name, lambda *args, name=name: pytest.fail(name))
    with pytest.raises(FileNotFoundError, match="train 'teacher_alignment' first"):
        run_stage(stage(plan, keys[0]), run, tmp_path)


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
    sizes, made = [], []

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            sizes.append(max_workers)
            assert max_workers == n_stages == 2  # checked before any worker starts
            super().__init__(max_workers, **kwargs)

    class RecordingDir(tempfile.TemporaryDirectory):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self.name)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    monkeypatch.setattr(tempfile, "TemporaryDirectory", RecordingDir)
    assert run_experiment(plan, workers=64).to_json() == run_experiment(plan).to_json()
    assert sizes == [2]
    # both walks handed their networks over in a temporary directory, now removed
    assert len(made) == 2 and not any(os.path.exists(name) for name in made)
    with pytest.raises(ValueError, match="workers"):
        run_experiment(plan, workers=0)
    # checked before the dataset is drawn; 2.5 once started a pool and "2" raised a TypeError
    monkeypatch.setattr(pipeline, "generate", lambda *args: pytest.fail("drew the dataset"))
    for workers in (2.5, True, "2"):
        with pytest.raises(ValueError, match=f"^workers must be >= 1 and integral, got {workers!r}$"):
            run_experiment(plan, workers=workers)


def test_pool_failures_name_the_stage_and_leave_no_worker(tmp_path, monkeypatch):
    plan = _tiny_plan()
    serial = tmp_path / "serial"
    run_experiment(plan, serial)
    cls_keys = {"teacher_cls", "student2_cls_init", "student2_cls_full_init"}

    def kept_only_finished_checkpoints(out):
        names = os.listdir(out)
        assert "teacher_cls.ckpt" in names  # teacher_alignment started after it finished
        for name in names:  # no temporary file, no stage that calls the task body
            assert name.endswith(".ckpt") and name[:-len(".ckpt")] in cls_keys, name
            assert (out / name).read_bytes() == (serial / name).read_bytes(), name

    train_body = pipeline._train

    def task_stages_run(body):
        # classification stages train as before; a task stage runs ``body``
        def train(net, node, *args):
            return train_body(net, node, *args) if node.label == "cls" else body()
        return train

    def fail():
        raise ValueError("boom")

    # workers are forked after the patch, so they run the patched training body
    monkeypatch.setattr(pipeline, "_train", task_stages_run(fail))
    with pytest.raises(ValueError, match="^stage teacher_alignment: boom$"):
        run_experiment(plan, tmp_path / "failed", workers=2)
    assert multiprocessing.active_children() == []
    kept_only_finished_checkpoints(tmp_path / "failed")

    # the pool kills its other worker in the middle of a checkpoint write,
    # which leaves the write's temporary file behind
    writing, save = tmp_path / "writing", pipeline.save_network

    def stalled_save(net, path):
        if not str(path).endswith("student2_cls_full_init.ckpt"):
            return save(net, path)
        with atomic_write(path, "wb") as fh:
            fh.write(b"partial")
            fh.flush()
            writing.touch()
            time.sleep(60)

    def die_during_that_write():
        deadline = time.monotonic() + 60
        while not writing.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        os._exit(3)

    monkeypatch.setattr(pipeline, "save_network", stalled_save)
    monkeypatch.setattr(pipeline, "_train", task_stages_run(die_during_that_write))
    with pytest.raises(RuntimeError, match="worker process died while running stages .*teacher_alignment"):
        run_experiment(plan, tmp_path / "died", workers=2)
    assert writing.exists()
    assert multiprocessing.active_children() == []
    kept_only_finished_checkpoints(tmp_path / "died")


def test_pool_hands_networks_over_as_checkpoint_files(tmp_path, monkeypatch):
    # workers load their dependencies from the checkpoints and return only
    # metrics, so a pool run pickles no network
    plan = _rich_plan()
    serial = run_experiment(plan, tmp_path / "serial").to_json()

    def unpicklable(self, protocol):
        raise TypeError("a Network was pickled")

    # forked workers inherit the patch
    monkeypatch.setattr(Network, "__reduce_ex__", unpicklable)
    assert run_experiment(plan, tmp_path / "pool", workers=2).to_json() == serial
    for node in stages(plan):
        assert ((tmp_path / "pool" / f"{node.key}.ckpt").read_bytes()
                == (tmp_path / "serial" / f"{node.key}.ckpt").read_bytes()), node.key
    assert multiprocessing.active_children() == []



def test_pool_workers_share_the_run_constants(tmp_path, monkeypatch):
    # the evaluation pairs and the stage records are made once, before the
    # fork, and the workers train on the parent's training arrays, not on
    # copies; a file collects the calls of every process
    log = tmp_path / "calls"
    pairs, fresh, resolve = pipeline.make_pairs, pipeline._fresh, pipeline.stage

    def logged_pairs(*args):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"make_pairs {os.getpid()}\n")
        return pairs(*args)

    def logged_fresh(spec, seed, feats):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"_fresh {os.getpid()} {feats.__array_interface__['data'][0]}\n")
        return fresh(spec, seed, feats)

    def logged_stage(plan, key):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"stage {os.getpid()}\n")
        return resolve(plan, key)

    monkeypatch.setattr(pipeline, "make_pairs", logged_pairs)
    monkeypatch.setattr(pipeline, "_fresh", logged_fresh)
    monkeypatch.setattr(pipeline, "stage", logged_stage)
    plan = _tiny_plan()
    data = generate(plan.generator)
    run_experiment(plan, workers=2, data=data)
    calls = [line.split() for line in log.read_text().splitlines()]
    assert [call for call in calls if call[0] == "make_pairs"] == [["make_pairs", str(os.getpid())]]
    stage_calls = [call for call in calls if call[0] == "stage"]
    assert stage_calls and all(pid == str(os.getpid()) for _, pid in stage_calls)
    fresh_calls = [call for call in calls if call[0] == "_fresh"]
    assert fresh_calls and all(pid != str(os.getpid()) for _, pid, _ in fresh_calls)
    address = str(data.train.features.__array_interface__["data"][0])
    assert {addr for _, _, addr in fresh_calls} == {address}


def test_wrapped_run_stage_walks_in_process(monkeypatch):
    # a tracer's wrapper keeps its records in the process it runs in, so a
    # wrapped run_stage must see every stage here, not in a pool worker
    plan = _tiny_plan()
    seen = []
    inner = pipeline.run_stage

    @functools.wraps(inner)
    def traced(node, run, ckpt_dir):
        seen.append((os.getpid(), node.key))
        return inner(node, run, ckpt_dir)

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
    rows = dict(pipeline._report_rows(plan))
    assert len(rows) == len(set(rows.values())) == 28  # 1 + 3 * 2 classification rows, 3 tables of 7
    for key, (_, _, _, alpha, beta) in rows.items():  # a row states the weights its stage trains with
        assert (alpha, beta) == (stage(plan, key).distill.alpha, stage(plan, key).distill.beta), key


def test_a_repeated_divisor_or_grid_point_is_one_stage_and_one_row():
    default = ExperimentPlan()
    plan = replace(default, cls_divisors=(8, 8), tasks=(TaskPlan(ALIGNMENT, (8, 8)), *default.tasks[1:]))
    keys = [key for key, _ in pipeline._report_rows(plan)]
    assert (len(keys), len(set(keys))) == (32, 24)
    once = replace(default, cls_divisors=(8,))
    assert [node.key for node in stages(plan)] == [node.key for node in stages(once)]
    tiny = _tiny_plan(cls_divisors=(2, 2), tasks=(
        TaskPlan(ALIGNMENT, (2, 2), inits=("distill",), grid=((0.0, 0.0), (0.0, 1.0), (0.0, 0.0))),))
    report = run_experiment(tiny)
    assert report.keys() == set(dict(pipeline._report_rows(tiny)).values())
    assert len(report.rows()) == 1 + 1 + 1 + 2


def test_a_stage_is_a_value():
    # a stage holds everything it trains: it survives a pickle round trip, and
    # plans that train it differently give unequal stages
    for node in stages(_rich_plan()):
        copy = pickle.loads(pickle.dumps(node))
        assert copy == node and hash(copy) == hash(node), node.key
    plan = ExperimentPlan()
    assert stage(plan, "teacher_cls") != stage(replace(plan, seed=1), "teacher_cls")
    for key, family in (("student4_cls_scratch", "cls_stage"),
                        ("student8_alignment_pretrain_base", "alignment_stage"),
                        ("student2_verification_pretrain_base", "verification_stage")):
        faster = replace(plan, **{family: replace(getattr(plan, family), scratch_lr=0.05)})
        assert stage(plan, key) != stage(faster, key), key


def test_stage_resolves_keys_outside_the_plan_and_rejects_unknown_keys():
    plan = ExperimentPlan()
    rows = dict(pipeline._report_rows(plan))
    node = stage(plan, "student3_cls_scratch")
    assert (node.deps, node.label) == (("teacher_cls",), "cls") and node.key not in rows
    node = stage(plan, "student2_alignment_distill_a0.5_b2")
    assert node.deps == ("teacher_alignment", "student2_cls_full_init") and node.key not in rows
    assert rows["student8_alignment_distill_a0_b1"] == ("alignment", "student/8", "distill", 0.0, 1.0)
    # a stage that reads no target has no teacher
    assert stage(plan, "student8_alignment_pretrain_a0_b0").deps == ("student8_alignment_pretrain_base",)
    assert stage(plan, "student2_verification_distill_a0_b0").deps == ("student2_cls_full_init",)
    no_soft = replace(plan, cls_alpha=0.0)
    assert stage(no_soft, "student2_cls_scratch").deps == ()
    assert stage(no_soft, "student2_cls_full_init").deps == ("student2_cls_init",)
    for key in ("teacher_cls_scratch", "student2_cls", "student0_cls_scratch",
                "student2_cls_pretrain_base", "student2_alignment_init",
                "student2_alignment_distill_a1e_b0", "student2_alignment_distill_a1e999_b0"):
        with pytest.raises(ValueError, match=key):
            stage(plan, key)


def test_plan_rejects_ambiguous_run_keys():
    with pytest.raises(ValueError, match="label"):
        _tiny_plan(tasks=(TaskPlan(ALIGNMENT, (2,)), TaskPlan(ALIGNMENT, (4,))))
    with pytest.raises(ValueError, match="grid weights"):
        TaskPlan(ALIGNMENT, (2,), grid=((0.1234567, 0.0),))
    # once these built, or raised a bare TypeError, and failed in stages()
    for grid in (((0.0,),), (0.5,), ((0.0, 1.0, 1.0),), 0.5):
        with pytest.raises(ValueError, match=r"^grid points must be \(alpha, beta\) pairs"):
            TaskPlan(ALIGNMENT, (2,), grid=grid)


def test_experiment_runs_each_teacher_once_on_shared_read_only_targets(monkeypatch):
    plan = _tiny_plan(tasks=(
        TaskPlan(ALIGNMENT, (2,), inits=("pretrain", "distill")),
        TaskPlan(VERIFICATION, (2,), inits=("distill",)),
    ))
    teachers, targets = [], []
    teacher_targets = pipeline._teacher_targets

    def recording_targets(teacher, feats):
        teachers.append(teacher)
        targets.append(teacher_targets(teacher, feats))
        return targets[-1]

    monkeypatch.setattr(pipeline, "_teacher_targets", recording_targets)
    run_experiment(plan)
    # one build per teacher: teacher_cls and the two task teachers
    assert len(targets) == 1 + len(plan.tasks)
    assert len({id(teacher) for teacher in teachers}) == len(teachers)
    for logits, embedding in targets:
        for array in (logits, embedding):
            with pytest.raises(ValueError):
                array[0, 0] = 1.0


def test_training_arrays_are_read_only(data):
    for split in (data.train, data.test):
        for array in (split.features, split.ids, split.keypoints):
            assert array.flags.c_contiguous
            with pytest.raises(ValueError):
                array[0] = 0


# ------------------------------------------------------------- evaluation

def test_run_evaluate_matches_the_metrics_on_one_forward(data, monkeypatch):
    # every label's scores are the metrics functions on the test-split forward
    plan = _rich_plan()
    run, net = Run(plan, data), _train(plan, "teacher_cls", data)
    out, test = net.forward(data.test.features), data.test
    pair_acc = pair_verification_accuracy(out.embedding, *run.pairs)
    verif = {"verif_top1": verification_top1(out.embedding, test.ids), "pair_acc": pair_acc}
    expected = {
        "cls": {"top1": top1_accuracy(out.logits.data, test.ids), "pair_acc": pair_acc},
        ALIGNMENT: {"nrmse": nrmse(out.regression, test.keypoints,
                                   reference_distances(test.keypoints))},
        VERIFICATION: verif,
        f"{VERIFICATION}_joint": verif,
    }
    for label, metrics in expected.items():
        assert run.evaluate(net, label) == metrics, label
    # several labels: one forward, and each metric computed once
    calls = []
    monkeypatch.setattr(net, "forward", lambda batch, _f=net.forward: calls.append("forward") or _f(batch))
    monkeypatch.setattr(pipeline, "pair_verification_accuracy",
                        lambda *args, _f=pair_verification_accuracy: calls.append("pair_acc") or _f(*args))
    assert run.evaluate(net, "cls", VERIFICATION, ALIGNMENT) == {
        **expected["cls"], **expected[VERIFICATION], **expected[ALIGNMENT]}
    assert calls == ["forward", "pair_acc"]
