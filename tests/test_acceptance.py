"""Release gate for the package.

Eleven checks: finite-difference gradient coverage of every loss, bitwise
weight-zero reductions, frozen value examples, target selection, three
directional training orderings on the default benchmark, byte-determinism
of ``reproduce``, metric oracles, the optimizer oracle, and the recorded
``report.json`` digest of the benchmark's scaled grid. The terminal
summary prints one PASS/FAIL line per check (see conftest).

The ordering checks train real networks, on as many worker processes as
``reproduce`` starts, and dominate the runtime; each asserts its own
wall-clock budget so regressions in speed fail loudly.
"""
import hashlib
import json
import math
import time
from pathlib import Path
from statistics import median

import numpy as np
import pytest

import distillforge.tensor as tc
from distillforge.cli import _workers, main as cli_main
from distillforge.data import GeneratorParams
from distillforge.losses import (DistillConfig, alignment_distill_loss,
                                 classification_distill_loss, cross_entropy,
                                 euclidean_loss, general_distill_loss,
                                 hidden_match_loss, soft_predictions, softmax_loss,
                                 triplet_loss, verification_distill_loss)
from distillforge.metrics import (nrmse, pair_verification_accuracy,
                                  verification_top1)
from distillforge.pipeline import (ALIGNMENT, VERIFICATION, ExperimentPlan,
                                   OptimizerState, TaskPlan, nag_step,
                                   run_experiment, select_targets)

POINTS = 20          # random base points per gradient-checked op
STEP, TOL = 1e-5, 1e-4
B, C, E, R = 3, 4, 3, 4   # batch, classes, embedding dim, regression dim


def _checked(fn, x):
    res = tc.grad_check(fn, x, step=STEP, tol=TOL)
    assert res.passed, f"max rel error {res.max_rel_error:.3e} at {res.worst_index}"


def _away_from_hinge(rng, draw, hinge_args, clearance=0.05):
    """Redraw until every hinge argument is at least ``clearance`` from its kink."""
    while True:
        x = draw(rng)
        if np.abs(hinge_args(x)).min() > clearance:
            return x


# ---------------------------------------------------------------- 1: gradients

def test_01_loss_gradients_match_finite_differences():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    cfg = DistillConfig(alpha=1.0, beta=1.0, tau=3.0, lambda_margin=0.4)

    # column selectors let one probe tensor carry several loss inputs
    sel = np.eye(C + E + R)
    sel_logits, sel_emb, sel_reg = sel[:, :C], sel[:, C:C + E], sel[:, C + E:]

    for _ in range(POINTS):
        labels = rng.integers(0, C, size=B)
        w = rng.normal(size=(B, C))
        _checked(lambda p: tc.tsum(tc.mul(soft_predictions(p, 3.0), w)),
                 rng.normal(size=(B, C)))
        ce_target = rng.uniform(0.0, 1.0, (B, C))
        _checked(lambda p: cross_entropy(p, ce_target), rng.uniform(0.1, 1.0, (B, C)))
        _checked(lambda p: softmax_loss(p, labels), rng.normal(size=(B, C)))
        t_logits = rng.normal(size=(B, C))
        _checked(lambda p: classification_distill_loss(p, t_logits, labels, cfg),
                 rng.normal(size=(B, C)))
        euc_target = rng.normal(size=(B, R))
        _checked(lambda p: euclidean_loss(p, euc_target), rng.normal(size=(B, R)))
        hid_target = rng.normal(size=(B, E))
        _checked(lambda p: hidden_match_loss(p, hid_target), rng.normal(size=(B, E)))

        t_out = (rng.normal(size=(B, C)), rng.normal(size=(B, E)))
        targets = rng.normal(size=(B, R))

        def align(p):
            triple = (tc.matmul(p, sel_logits), tc.matmul(p, sel_emb), tc.matmul(p, sel_reg))
            return alignment_distill_loss(triple, t_out, targets, cfg)

        _checked(align, rng.normal(size=(B, C + E + R)))

        rows = np.arange(B)
        x_trip = _away_from_hinge(
            rng,
            lambda r: r.normal(size=(3 * B, E)),
            lambda x: (((x[:B] - x[B:2 * B]) ** 2).sum(axis=1)
                       - ((x[:B] - x[2 * B:]) ** 2).sum(axis=1) + cfg.lambda_margin))
        _checked(lambda p: triplet_loss(tc.take_rows(p, rows), tc.take_rows(p, B + rows),
                                        tc.take_rows(p, 2 * B + rows), cfg.lambda_margin),
                 x_trip)

        # verification losses run on a deduplicated batch with index triplets
        uniq = 5
        a_idx, p_idx, n_idx = np.array([0, 1, 2]), np.array([1, 2, 3]), np.array([2, 3, 4])
        vt_out = (rng.normal(size=(uniq, C)), rng.normal(size=(uniq, E)))
        v_labels = rng.integers(0, C, size=uniq)
        v_sel = np.eye(C + E)

        def hinge_args(x):
            emb = x[:, C:]
            return (((emb[a_idx] - emb[p_idx]) ** 2).sum(axis=1)
                    - ((emb[a_idx] - emb[n_idx]) ** 2).sum(axis=1) + cfg.lambda_margin)

        x_verif = _away_from_hinge(rng, lambda r: r.normal(size=(uniq, C + E)), hinge_args)

        def verif(p, joint=False):
            outs = (tc.matmul(p, v_sel[:, :C]), tc.matmul(p, v_sel[:, C:]))
            return verification_distill_loss(outs, vt_out, (a_idx, p_idx, n_idx), cfg,
                                             include_softmax=joint,
                                             labels=v_labels if joint else None)

        _checked(verif, x_verif)
        _checked(lambda p: verif(p, joint=True), x_verif)

        _checked(lambda p: general_distill_loss(tc.take_rows(p, np.array([0])),
                                                tc.take_rows(p, np.array([1])),
                                                tc.take_rows(p, np.array([2])), cfg),
                 rng.uniform(0.5, 2.0, (3, 1)))

    assert time.perf_counter() - start < 30.0


# --------------------------------------------------------------- 2: reductions

def test_02_weight_zero_reductions_are_bitwise():
    rng = np.random.default_rng(7)
    off = DistillConfig(alpha=0.0, beta=0.0)
    for _ in range(5):
        s_logits = rng.normal(size=(B, C))
        t_logits = rng.normal(size=(B, C))
        labels = rng.integers(0, C, size=B)
        got = classification_distill_loss(s_logits, t_logits, labels, off)
        want = softmax_loss(s_logits, labels)
        assert np.array_equal(got.data, want.data)

        s_out = (s_logits, rng.normal(size=(B, E)), rng.normal(size=(B, R)))
        targets = rng.normal(size=(B, R))
        got = alignment_distill_loss(s_out, (t_logits, rng.normal(size=(B, E))), targets, off)
        assert np.array_equal(got.data, euclidean_loss(s_out[2], targets).data)

        emb = rng.normal(size=(6, E))
        idx = (np.array([0, 1]), np.array([2, 3]), np.array([4, 5]))
        got = verification_distill_loss((rng.normal(size=(6, C)), emb), (t_logits, t_logits),
                                        idx, off, include_softmax=False)
        want = triplet_loss(emb[idx[0]], emb[idx[1]], emb[idx[2]], off.lambda_margin)
        assert np.array_equal(got.data, want.data)

        x = rng.normal(size=(B, C))
        assert np.array_equal(soft_predictions(x, 1.0).data, tc.softmax_rows(x).data)


# -------------------------------------------------------------- 3: spot values

def test_03_frozen_value_examples():
    # uniform prediction rows against any target distribution: exactly ln C
    pred = np.full((3, 7), 1.0 / 7.0)
    target = np.full((3, 7), 1.0 / 7.0)
    assert float(cross_entropy(pred, target).data) == pytest.approx(math.log(7), abs=1e-12)

    # single triplet with d(a,p)^2 = 4, d(a,n)^2 = 1, margin 0.4: hinge = 3.4
    a, p, n = np.array([[0.0, 0.0]]), np.array([[2.0, 0.0]]), np.array([[1.0, 0.0]])
    assert float(triplet_loss(a, p, n, 0.4).data) == 3.4

    # Frozen reference for the one-sample distillation example (student
    # logits [1, 0], teacher logits [3, 0], label 0, tau 3, alpha 1).
    # Direct evaluation under the conventions pinned by the other examples
    # in this file -- hard term -ln(sigmoid(1)) = 0.313262..., soft term =
    # cross-entropy between the tau-3 softened pairs = 0.629953... -- gives
    # 0.94321440266429633 (tests/test_losses.py re-derives it from pure
    # Python math). The frozen constant below is not reachable within its
    # own tolerance under any argument-order or temperature convention that
    # keeps the other examples exact, so this assertion is expected to
    # fail; it is kept as written rather than silently adjusted. See
    # README, "Known discrepancy".
    got = classification_distill_loss(np.array([[1.0, 0.0]]), np.array([[3.0, 0.0]]),
                                      np.array([0]), DistillConfig(alpha=1.0, tau=3.0))
    assert float(got.data) == pytest.approx(0.93540, abs=1e-3)


# --------------------------------------------------------- 4: target selection

def test_04_target_selection_from_probe_metrics():
    lower = {(0, 0): 3.29, (0, 1): 3.21, (1, 0): 3.54}
    assert select_targets(lower, higher_is_better=False) == (0, 1)
    higher = {(0, 0): 79.51, (0, 1): 77.63, (1, 0): 79.96}
    assert select_targets(higher, higher_is_better=True) == (1, 0)


# ------------------------------------------------- 5-7: training orderings

def _bench_plan(seed: int, **kw) -> ExperimentPlan:
    """Default benchmark and stage sizing, restricted to one table."""
    return ExperimentPlan(generator=GeneratorParams(seed=seed), seed=seed, **kw)


def test_05_full_init_classification_beats_scratch():
    start = time.perf_counter()
    full, scratch = [], []
    for seed in range(5):
        report = run_experiment(_bench_plan(seed, cls_divisors=(8,), tasks=()), workers=_workers())
        full.append(report.get("classification", "student/8", "full_init", 1.0, 0.0)["top1"])
        scratch.append(report.get("classification", "student/8", "scratch", 1.0, 0.0)["top1"])
    assert median(full) >= median(scratch), (full, scratch)
    assert time.perf_counter() - start < 120.0


def test_06_alignment_hidden_target_helps_soft_target_hurts():
    start = time.perf_counter()
    by_grid = {(0.0, 0.0): [], (0.0, 1.0): [], (1.0, 0.0): []}
    for seed in range(5):
        plan = _bench_plan(seed, cls_divisors=(), cls_inits=("full_init",),
                           tasks=(TaskPlan(ALIGNMENT, (8,), inits=("distill",)),))
        report = run_experiment(plan, workers=_workers())
        for alpha, beta in by_grid:
            row = report.get("alignment", "student/8", "distill", alpha, beta)
            by_grid[(alpha, beta)].append(row["nrmse"])
    base = median(by_grid[(0.0, 0.0)])
    assert median(by_grid[(0.0, 1.0)]) <= base, by_grid
    assert median(by_grid[(1.0, 0.0)]) >= base, by_grid
    assert time.perf_counter() - start < 120.0


def test_07_verification_init_and_joint_orderings():
    start = time.perf_counter()
    single = {"pretrain": [], "distill": []}
    joint = {(0.0, 0.0): [], (0.0, 1.0): [], (1.0, 0.0): []}
    for seed in range(5):
        plan = _bench_plan(
            seed, cls_divisors=(), cls_inits=("full_init",),
            tasks=(TaskPlan(VERIFICATION, (2,), inits=("pretrain", "distill"),
                            grid=((0.0, 0.0),)),
                   TaskPlan(VERIFICATION, (2,), inits=("distill",),
                            include_softmax=True)))
        report = run_experiment(plan, workers=_workers())
        for init in single:
            single[init].append(
                report.get("verification", "student/2", init, 0.0, 0.0)["verif_top1"])
        for alpha, beta in joint:
            joint[(alpha, beta)].append(
                report.get("verification_joint", "student/2", "distill", alpha, beta)["verif_top1"])
    assert median(single["distill"]) >= median(single["pretrain"]), single
    base = median(joint[(0.0, 0.0)])
    assert median(joint[(1.0, 0.0)]) >= base, joint
    assert median(joint[(0.0, 1.0)]) <= base, joint
    assert time.perf_counter() - start < 180.0


# ------------------------------------------------------------- 8: determinism

def test_08_reproduce_is_byte_deterministic(tmp_path, capsys):
    blobs = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert cli_main(["reproduce", "--seed", "0", "--out", str(out)]) == 0
        capsys.readouterr()
        files = sorted(f.name for f in out.iterdir() if f.name.startswith("report"))
        assert "report.json" in files
        blobs.append({f: (out / f).read_bytes() for f in files})
    assert blobs[0] == blobs[1]


# ----------------------------------------------------------- 9: metric oracles

def test_09_metric_oracles():
    rng = np.random.default_rng(99)
    emb = rng.normal(size=(200, 8))
    ids = rng.integers(0, 16, size=200)
    hits = 0
    for i in range(200):  # independent brute-force nearest-neighbor reference
        d = np.sqrt(((emb - emb[i]) ** 2).sum(axis=1))
        d[i] = np.inf
        hits += int(ids[np.argmin(d)] == ids[i])
    assert verification_top1(emb, ids) == hits / 200

    emb2 = rng.normal(size=(60, 4))
    same = rng.integers(0, 60, size=(40, 2))
    diff = rng.integers(0, 60, size=(40, 2))
    d_same = np.linalg.norm(emb2[same[:, 0]] - emb2[same[:, 1]], axis=1)
    d_diff = np.linalg.norm(emb2[diff[:, 0]] - emb2[diff[:, 1]], axis=1)
    # accuracy is piecewise constant in the threshold and right-continuous,
    # so sweeping every observed distance plus sentinels is exhaustive
    best = 0.0
    for t in np.concatenate([[-1.0], np.concatenate([d_same, d_diff]),
                             [max(d_same.max(), d_diff.max()) + 1.0]]):
        acc = (np.count_nonzero(d_same <= t) + np.count_nonzero(d_diff > t)) / 80
        best = max(best, acc)
    assert pair_verification_accuracy(emb2, same, diff) == best

    # hand values: one keypoint off by (3,4) and one exact, reference 10:
    # per-keypoint errors (5, 0) -> mean 2.5 -> 0.25
    assert nrmse([[3.0, 4.0, 0.0, 0.0]], [[0.0] * 4], [10.0]) == pytest.approx(0.25, abs=1e-12)
    # two samples: errors 1 and 3 against references 2 and 3 -> mean 0.75
    assert nrmse([[1.0, 0.0], [0.0, 3.0]], [[0.0, 0.0], [0.0, 0.0]],
                 [2.0, 3.0]) == pytest.approx(0.75, abs=1e-12)
    # exact prediction is exactly zero
    assert nrmse([[1.0, 2.0]], [[1.0, 2.0]], [3.0]) == 0.0


# --------------------------------------------------------- 10: optimizer oracle

def test_10_optimizer_matches_scalar_reference():
    class _Scalar:
        def __init__(self):
            self.parameters = [tc.Tensor(np.array([1.0]), requires_grad=True)]

    net = _Scalar()
    opt = OptimizerState(net.parameters, learning_rate=0.1, momentum=0.9)
    theta_ref, v = 1.0, 0.0
    for _ in range(10):
        with tc.Tape():
            th = net.parameters[0]
            loss = tc.mul(tc.tsum(tc.mul(th, th)), 0.5)  # f(theta) = theta^2 / 2
            tc.backward(loss)
        nag_step(opt)
        g = theta_ref
        v = 0.9 * v - 0.1 * g
        theta_ref = theta_ref + 0.9 * v - 0.1 * g
        assert float(net.parameters[0].data[0]) == pytest.approx(theta_ref, abs=1e-12)


# ------------------------------------------------- 11: recorded report digest

def test_11_reproduce_matches_recorded_digest(tmp_path, capsys):
    # test_08 only compares two runs with each other; this pins the bytes
    # themselves to the digest recorded for the benchmark's scaled grid
    root = Path(__file__).resolve().parents[1]
    with open(root / "perfbench" / "digests.json", encoding="utf-8") as fh:
        expected = json.load(fh)["reproduce"]["0"]["report.json"]
    out = tmp_path / "grid"
    assert cli_main(["reproduce", "--seed", "0", "--config",
                     str(root / "perfbench" / "configs" / "grid.cfg"), "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256((out / "report.json").read_bytes()).hexdigest() == expected
