"""Evaluation metrics against brute-force oracles, plus the report container."""
import json
import math

import numpy as np
import pytest

from distillforge.metrics import (
    MetricsReport,
    nrmse,
    pair_verification_accuracy,
    reference_distances,
    top1_accuracy,
    verification_top1,
)


# ------------------------------------------------------------------ top1

def test_top1_perfect_and_zero():
    labels = np.array([0, 2, 1])
    onehot = np.zeros((3, 3))
    onehot[np.arange(3), labels] = 10.0
    assert top1_accuracy(onehot, labels) == 1.0
    shifted = np.roll(onehot, 1, axis=1)
    assert top1_accuracy(shifted, labels) == 0.0


def test_top1_counting():
    logits = np.array([[9.0, 0.0], [9.0, 0.0], [9.0, 0.0], [0.0, 9.0]])
    assert top1_accuracy(logits, np.array([0, 0, 0, 0])) == 0.75


def test_top1_monotone_transform_invariance(rng):
    logits = rng.normal(size=(40, 6))
    labels = rng.integers(0, 6, size=40)
    base = top1_accuracy(logits, labels)
    assert top1_accuracy(np.exp(logits), labels) == base
    assert top1_accuracy(3 * logits + 7, labels) == base


# ----------------------------------------------------------------- nrmse

def test_nrmse_zero_when_equal(rng):
    kp = rng.normal(size=(4, 6))
    ref = np.full(4, 2.0)
    assert nrmse(kp.copy(), kp.copy(), ref) == 0.0


def test_nrmse_definitional_one():
    true = np.zeros((3, 4))
    pred = np.zeros((3, 4))
    pred[:, 0] = 5.0  # keypoint 0 off by exactly 5, keypoint 1 off by 5 too
    pred[:, 2] = 5.0
    assert nrmse(pred, true, np.full(3, 5.0)) == pytest.approx(1.0, abs=1e-12)


def test_nrmse_reference_value():
    # keypoint errors (3,4) -> 5 and (0,0) -> 0; mean 2.5; / 10 = 0.25
    true = np.zeros((1, 4))
    pred = np.array([[3.0, 4.0, 0.0, 0.0]])
    assert nrmse(pred, true, np.array([10.0])) == pytest.approx(0.25, abs=1e-12)


def test_nrmse_scale_invariance(rng):
    true = rng.normal(size=(5, 8))
    pred = true + rng.normal(size=(5, 8))
    ref = np.abs(rng.normal(size=5)) + 0.5
    a = nrmse(pred, true, ref)
    b = nrmse(pred * 3, true * 3, ref * 3)
    assert a == pytest.approx(b, rel=1e-12)


def test_nrmse_input_validation(rng):
    with pytest.raises(ValueError):
        nrmse(rng.normal(size=(2, 4)), rng.normal(size=(2, 6)), np.ones(2))
    with pytest.raises(ValueError):
        nrmse(rng.normal(size=(2, 4)), rng.normal(size=(2, 4)), np.ones(3))
    with pytest.raises(ValueError):
        nrmse(rng.normal(size=(2, 4)), rng.normal(size=(2, 4)), np.array([1.0, 0.0]))


def test_reference_distances_and_fallback():
    kp = np.array([[0.0, 0.0, 3.0, 4.0, 9.0, 9.0],
                   [1.0, 1.0, 1.0, 1.0, 0.0, 0.0]])  # second row degenerate
    np.testing.assert_allclose(reference_distances(kp), [5.0, 5.0])
    with pytest.raises(ValueError):
        reference_distances(np.array([[1.0, 1.0, 1.0, 1.0]]))


# ----------------------------------------------------- verification_top1

def _brute_force_top1(emb, ids):
    n = len(ids)
    hits = 0
    for i in range(n):
        best_j, best_d = None, None
        for j in range(n):
            if j == i:
                continue
            d = float(((emb[i] - emb[j]) ** 2).sum())
            if best_d is None or d < best_d:  # strict: ties keep the lowest index
                best_j, best_d = j, d
        hits += int(ids[best_j] == ids[i])
    return hits / n


def test_verification_top1_separated_clusters(rng):
    a = rng.normal(size=(10, 3)) * 0.01
    b = rng.normal(size=(10, 3)) * 0.01 + 100.0
    emb = np.vstack([a, b])
    ids = np.array([0] * 10 + [1] * 10)
    assert verification_top1(emb, ids) == 1.0


def test_verification_top1_matches_brute_force(rng):
    emb = rng.normal(size=(60, 4))
    ids = rng.integers(0, 7, size=60)
    assert verification_top1(emb, ids) == _brute_force_top1(emb, ids)


def test_verification_top1_degenerate_ties():
    # all embeddings identical: the nearest other sample is the lowest index,
    # so sample 0 pairs with sample 1 and everyone else pairs with sample 0
    emb = np.ones((3, 2))
    assert verification_top1(emb, np.array([0, 0, 1])) == pytest.approx(2 / 3)
    assert verification_top1(emb, np.array([0, 1, 1])) == 0.0
    assert verification_top1(emb, np.array([1, 0, 1])) == pytest.approx(1 / 3)


def test_verification_top1_two_samples_same_identity():
    assert verification_top1(np.array([[0.0], [9.0]]), np.array([4, 4])) == 1.0


def test_verification_top1_isometry_invariance(rng):
    emb = rng.normal(size=(30, 5))
    ids = rng.integers(0, 5, size=30)
    base = verification_top1(emb, ids)
    q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
    moved = emb @ q + rng.normal(size=5)
    assert abs(verification_top1(moved, ids) - base) <= 1e-9


# ------------------------------------------- pair_verification_accuracy

def _brute_force_pair_acc(emb, same, diff):
    ds = np.linalg.norm(emb[same[:, 0]] - emb[same[:, 1]], axis=1)
    dd = np.linalg.norm(emb[diff[:, 0]] - emb[diff[:, 1]], axis=1)
    candidates = np.concatenate([ds, dd, [np.inf, -np.inf]])
    best = 0.0
    for t in candidates:
        acc = ((ds <= t).sum() + (dd > t).sum()) / (len(ds) + len(dd))
        best = max(best, acc)
    return best


def test_pair_accuracy_separated():
    emb = np.array([[0.0], [1.0], [2.0], [3.0], [4.0], [5.0], [6.0]])
    same = np.array([[0, 1], [0, 2], [0, 3]])  # distances 1, 2, 3
    diff = np.array([[0, 4], [0, 5], [0, 6]])  # distances 4, 5, 6
    assert pair_verification_accuracy(emb, same, diff) == 1.0


def test_pair_accuracy_chance_level():
    emb = np.array([[0.0], [1.0], [2.0]])
    same = np.array([[0, 1], [0, 2]])  # distances 1, 2
    diff = np.array([[0, 1], [0, 2]])  # identical distribution
    assert pair_verification_accuracy(emb, same, diff) == 0.5


def test_pair_accuracy_matches_threshold_enumeration(rng):
    emb = rng.normal(size=(40, 3))
    same = rng.integers(0, 40, size=(25, 2))
    diff = rng.integers(0, 40, size=(35, 2))
    got = pair_verification_accuracy(emb, same, diff)
    assert got == _brute_force_pair_acc(emb, same, diff)


def _threshold_loop_pair_acc(emb, same, diff):
    # the per-threshold loop pair_verification_accuracy replaced, kept as its oracle
    d_same = np.linalg.norm(emb[same[:, 0]] - emb[same[:, 1]], axis=1)
    d_diff = np.linalg.norm(emb[diff[:, 0]] - emb[diff[:, 1]], axis=1)
    d_all = np.sort(np.concatenate([d_same, d_diff]))
    midpoints = (d_all[:-1] + d_all[1:]) / 2.0
    thresholds = np.concatenate([[d_all[0] - 1.0], midpoints, [d_all[-1] + 1.0]])
    total = d_same.size + d_diff.size
    best = 0.0
    for t in thresholds:
        acc = (np.count_nonzero(d_same <= t) + np.count_nonzero(d_diff > t)) / total
        best = max(best, acc)
    return float(best)


def test_pair_accuracy_matches_threshold_loop(rng):
    for trial in range(200):
        n = int(rng.integers(2, 30))
        if trial % 3 == 0:  # integer points: many exactly tied distances
            emb = rng.integers(-2, 3, size=(n, 2)).astype(np.float64)
        else:
            emb = rng.normal(size=(n, 3))
        same = rng.integers(0, n, size=(int(rng.integers(1, 40)), 2))
        diff = rng.integers(0, n, size=(int(rng.integers(1, 40)), 2))
        assert pair_verification_accuracy(emb, same, diff) == _threshold_loop_pair_acc(emb, same, diff)


def test_pair_accuracy_all_distances_equal():
    emb = np.zeros((5, 3))  # every distance is 0
    same = np.array([[0, 1], [1, 2], [2, 3]])
    diff = np.array([[0, 4], [3, 4]])
    got = pair_verification_accuracy(emb, same, diff)
    assert got == _threshold_loop_pair_acc(emb, same, diff) == 0.6
    # equal nonzero distances between unit-spaced points on a line
    emb = np.arange(6, dtype=np.float64)[:, None]
    same = np.array([[0, 1], [2, 3]])
    diff = np.array([[4, 5], [1, 2], [3, 4]])
    got = pair_verification_accuracy(emb, same, diff)
    assert got == _threshold_loop_pair_acc(emb, same, diff) == 0.6


def test_pair_accuracy_at_least_max_prior(rng):
    for trial in range(5):
        emb = rng.normal(size=(20, 2))
        same = rng.integers(0, 20, size=(11, 2))
        diff = rng.integers(0, 20, size=(4, 2))
        prior = max(len(same), len(diff)) / (len(same) + len(diff))
        assert pair_verification_accuracy(emb, same, diff) >= prior


# --------------------------------------------------------------- report

def test_report_round_trip_and_order():
    r = MetricsReport()
    r.add("verification", "student/2", "distill", 1.0, 0.0, verif_top1=0.5, pair_acc=0.75)
    r.add("alignment", "teacher", "transfer", 0.0, 0.0, nrmse=0.25)
    back = MetricsReport.from_json(r.to_json())
    assert back.rows() == r.rows()
    tasks = [key[0] for key, _ in r.rows()]
    assert tasks == sorted(tasks)


def test_report_rejects_duplicates():
    r = MetricsReport()
    r.add("alignment", "teacher", "scratch", 0.0, 0.0, nrmse=0.5)
    with pytest.raises(ValueError):
        r.add("alignment", "teacher", "scratch", 0.0, 0.0, nrmse=0.6)


@pytest.mark.parametrize("metric", ["top1", "verif_top1", "pair_acc", "nrmse", "custom"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_report_rejects_non_finite_metrics(metric, value):
    r = MetricsReport()
    with pytest.raises(ValueError, match="finite"):
        r.add("alignment", "teacher", "scratch", 0.0, 0.0, **{metric: value})
    assert not r.keys()


def test_report_text_and_json_numbers_agree():
    r = MetricsReport()
    r.add("alignment", "student/8", "distill", 0.0, 1.0, nrmse=0.272198744883)
    r.add("alignment", "teacher", "transfer", 0.0, 0.0, nrmse=0.207884067255)
    data = json.loads(r.to_json())
    text = r.to_text()
    for row in data["rows"]:
        for value in row["metrics"].values():
            assert f"{value:.12g}" in text


def test_report_tables_are_each_tasks_own_report_text():
    # reproduce writes each table as report_<task>.txt; its bytes are those of
    # a report holding only that task's rows
    r = MetricsReport()
    r.add("verification", "student/2", "distill", 1.0, 0.0, verif_top1=0.5, pair_acc=0.75)
    r.add("alignment", "student/8", "distill", 0.0, 1.0, nrmse=0.272198744883)
    r.add("alignment", "teacher", "transfer", 0.0, 0.0, nrmse=0.207884067255)
    tables = r.tables()
    assert list(tables) == ["alignment", "verification"]
    for task, table in tables.items():
        sub = MetricsReport()
        for key, metrics in r.rows():
            if key[0] == task:
                sub.add(*key, **metrics)
        assert table + "\n" == sub.to_text()
    assert r.to_text() == "\n\n".join(tables.values()) + "\n"
