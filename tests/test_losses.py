"""Loss definitions: frozen examples against independently derived scalar
oracles (pure-python math routes), exact reduction identities, and the
teacher-detachment / monotone-composition invariants."""
import math

import numpy as np
import pytest

import distillforge.tensor as tc
from distillforge import losses
from distillforge.losses import (
    DistillConfig,
    alignment_distill_loss,
    classification_distill_loss,
    cross_entropy,
    euclidean_loss,
    general_distill_loss,
    hidden_match_loss,
    soft_predictions,
    softmax_loss,
    triplet_loss,
    verification_distill_loss,
)


def sigmoid(z):
    return 1.0 / (1.0 + math.exp(-z))


# ------------------------------------------------------------ soft_predictions

def test_soft_predictions_tau_one_is_softmax(rng):
    logits = tc.as_tensor(rng.normal(size=(6, 9)) * 4)
    a = soft_predictions(logits, tau=1.0).data
    b = tc.softmax_rows(logits).data
    assert np.array_equal(a, b)


def test_soft_predictions_symmetry():
    out = soft_predictions(tc.as_tensor(np.array([[0.0, 0.0, 0.0]])), tau=7.0).data
    np.testing.assert_allclose(out, [[1 / 3] * 3], atol=1e-15)


def test_soft_predictions_reference_value():
    # softmax([3,0]/3) = softmax([1,0]) = [sigma(1), 1-sigma(1)]
    out = soft_predictions(tc.as_tensor(np.array([[3.0, 0.0]])), tau=3.0).data[0]
    np.testing.assert_allclose(out, [sigmoid(1.0), 1 - sigmoid(1.0)], atol=1e-5)


def test_soft_predictions_argmax_invariant_in_tau(rng):
    logits = tc.as_tensor(rng.normal(size=(20, 8)) * 5)
    base = np.argmax(soft_predictions(logits, tau=1.0).data, axis=1)
    for tau in (1.5, 3.0, 10.0, 100.0):
        cur = np.argmax(soft_predictions(logits, tau=tau).data, axis=1)
        assert np.array_equal(base, cur), f"argmax changed at tau={tau}"


# -------------------------------------------------------------- cross_entropy

def test_cross_entropy_one_hot_match():
    p = tc.as_tensor(np.array([[0.0, 1.0, 0.0]]))
    t = np.array([[0.0, 1.0, 0.0]])
    assert cross_entropy(p, t).data == pytest.approx(0.0, abs=1e-12)


def test_cross_entropy_uniform_equals_log_c():
    for c in (2, 5, 32):
        p = tc.as_tensor(np.full((1, c), 1.0 / c))
        t = np.zeros((1, c))
        t[0, 0] = 1.0
        assert cross_entropy(p, t).data == pytest.approx(math.log(c), abs=1e-12)


def test_cross_entropy_reference_value():
    p = tc.as_tensor(np.array([[0.73106, 0.26894]]))
    t = np.array([[1.0, 0.0]])
    assert cross_entropy(p, t).data == pytest.approx(0.31326, abs=1e-4)


def test_cross_entropy_batch_mean(rng):
    rows = rng.dirichlet(np.ones(4), size=3)
    targets = rng.dirichlet(np.ones(4), size=3)
    whole = cross_entropy(tc.as_tensor(rows), targets).data
    singles = [cross_entropy(tc.as_tensor(rows[i:i + 1]), targets[i:i + 1]).data for i in range(3)]
    assert whole == pytest.approx(np.mean(singles), abs=1e-14)


def test_cross_entropy_finite_on_degenerate_prediction():
    # an exact zero in pred must clamp, not produce -inf
    p = tc.as_tensor(np.array([[1.0, 0.0]]))
    t = np.array([[0.0, 1.0]])
    v = cross_entropy(p, t).data
    assert np.isfinite(v)
    assert v == pytest.approx(-math.log(1e-12), rel=1e-9)


def test_cross_entropy_rejects_bad_input():
    # (2, 3) against (3,) would broadcast per row in the chain; the loss refuses it
    for pred, target in (((2, 3), (3, 2)), ((3,), (3,)), ((2, 3), (3,))):
        with pytest.raises(ValueError, match="^cross_entropy: need matching 2-D shapes"):
            cross_entropy(np.ones(pred), np.ones(target))
    with pytest.raises(ValueError, match="^cross_entropy: target rows must be nonnegative"):
        cross_entropy(np.ones((2, 3)), -np.ones((2, 3)))


def test_grad_check_cross_entropy(rng, monkeypatch):
    monkeypatch.setattr(losses, "LOG_EPS", 0.05)  # a floor the finite differences can see
    target = rng.uniform(0.0, 1.0, (3, 4))
    pred = rng.uniform(0.1, 1.0, (3, 4))
    pred[0, 1] = pred[2, 3] = 0.01  # well below the floor: zero gradient there
    assert tc.grad_check(lambda t: cross_entropy(t, target), pred).passed
    assert tc.grad_check(lambda t: cross_entropy(pred, t), target).passed


# --------------------------------------------------------------- softmax_loss

def test_softmax_loss_peaked():
    logits = tc.as_tensor(np.array([[20.0, 0.0, 0.0]]))
    assert softmax_loss(logits, np.array([0])).data < 0.01


def test_softmax_loss_uniform():
    logits = tc.as_tensor(np.zeros((2, 6)))
    assert softmax_loss(logits, np.array([3, 1])).data == pytest.approx(math.log(6), abs=1e-12)


def test_softmax_loss_gradient_closed_form(rng):
    raw = rng.normal(size=(5, 7))
    labels = rng.integers(0, 7, size=5)
    a = tc.Tensor(raw.copy(), requires_grad=True)
    with tc.Tape():
        loss = softmax_loss(a, labels)
    tc.backward(loss)
    sm = tc.softmax_rows(tc.as_tensor(raw)).data
    onehot = np.zeros((5, 7))
    onehot[np.arange(5), labels] = 1.0
    np.testing.assert_allclose(a.grad, (sm - onehot) / 5, atol=1e-10)


# ------------------------------------------------- classification_distill_loss

def test_distill_cls_alpha_zero_is_softmax_loss_bitwise(rng):
    cfg = DistillConfig(alpha=0.0)
    s = tc.as_tensor(rng.normal(size=(4, 5)))
    t = tc.as_tensor(rng.normal(size=(4, 5)))
    labels = rng.integers(0, 5, size=4)
    a = classification_distill_loss(s, t, labels, cfg).data
    b = softmax_loss(s, labels).data
    assert a == b  # bitwise


def test_distill_cls_self_distillation_soft_term_is_entropy(rng):
    cfg = DistillConfig(alpha=1.0, tau=3.0)
    raw = rng.normal(size=(1, 6))
    logits = tc.as_tensor(raw)
    labels = np.array([2])
    total = classification_distill_loss(logits, logits, labels, cfg).data
    hard = softmax_loss(logits, labels).data
    p = soft_predictions(logits, 3.0).data[0]
    entropy = -sum(float(q) * math.log(float(q)) for q in p)
    assert total == pytest.approx(hard + entropy, abs=1e-10)


def test_distill_cls_single_sample_derived_value():
    # hard term: -ln sigma(1); soft term: H(softmax([1,0]/3), softmax([3,0]/3))
    cfg = DistillConfig(alpha=1.0, tau=3.0)
    s = tc.as_tensor(np.array([[1.0, 0.0]]))
    t = tc.as_tensor(np.array([[3.0, 0.0]]))
    hard = -math.log(sigmoid(1.0))
    ps, pt = sigmoid(1.0 / 3.0), sigmoid(1.0)
    soft = -(pt * math.log(ps) + (1 - pt) * math.log(1 - ps))
    got = classification_distill_loss(s, t, np.array([0]), cfg).data
    assert got == pytest.approx(hard + soft, abs=1e-12)
    assert got == pytest.approx(0.94321440266429633, abs=1e-12)


def test_distill_cls_teacher_receives_no_gradient(rng):
    cfg = DistillConfig(alpha=1.0)
    s = tc.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    t = tc.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    with tc.Tape():
        loss = classification_distill_loss(s, t, np.array([0, 1, 2]), cfg)
    tc.backward(loss)
    assert s.grad is not None
    assert t.grad is None or not np.any(t.grad)


# ------------------------------------------------------------- euclidean_loss

def test_euclidean_zero_and_unit():
    y = np.array([[1.0, 2.0, 3.0]])
    assert euclidean_loss(tc.as_tensor(y.copy()), y).data == 0.0
    off = y + np.array([[1.0, 0.0, 0.0]])
    assert euclidean_loss(tc.as_tensor(off), y).data == pytest.approx(1.0, abs=1e-14)


def test_euclidean_reference_value():
    r = tc.as_tensor(np.array([[1.0, 2.0]]))
    y = np.array([[4.0, 6.0]])
    assert euclidean_loss(r, y).data == pytest.approx(25.0, abs=1e-12)


def test_euclidean_batch_mean():
    r = tc.as_tensor(np.array([[1.0, 2.0], [0.0, 0.0]]))
    y = np.array([[4.0, 6.0], [0.0, 0.0]])
    assert euclidean_loss(r, y).data == pytest.approx(12.5, abs=1e-12)


# ----------------------------------------------------------- hidden_match_loss

def test_hidden_match_zero_when_equal(rng):
    k = rng.normal(size=(4, 8))
    assert hidden_match_loss(tc.as_tensor(k.copy()), tc.as_tensor(k.copy())).data == 0.0


def test_hidden_match_reference_value():
    ks = tc.as_tensor(np.array([[0.0, 0.0]]))
    kt = tc.as_tensor(np.array([[1.0, 1.0]]))
    assert hidden_match_loss(ks, kt).data == pytest.approx(2.0, abs=1e-14)


def test_hidden_match_gradient_quadratic_form(rng):
    ks_raw = rng.normal(size=(5, 3))
    kt_raw = rng.normal(size=(5, 3))
    ks = tc.Tensor(ks_raw.copy(), requires_grad=True)
    with tc.Tape():
        loss = hidden_match_loss(ks, tc.as_tensor(kt_raw))
    tc.backward(loss)
    np.testing.assert_allclose(ks.grad, 2 * (ks_raw - kt_raw) / 5, atol=1e-12)


# ------------------------------------------------------- alignment_distill_loss

def _align_inputs(rng, b=4, c=5, e=6, k=8):
    s = (tc.as_tensor(rng.normal(size=(b, c))), tc.as_tensor(rng.normal(size=(b, e))),
         tc.as_tensor(rng.normal(size=(b, k))))
    t = (tc.as_tensor(rng.normal(size=(b, c))), tc.as_tensor(rng.normal(size=(b, e))))
    y = rng.normal(size=(b, k))
    return s, t, y


def test_alignment_distill_reduces_to_euclidean(rng):
    s, t, y = _align_inputs(rng)
    cfg = DistillConfig(alpha=0.0, beta=0.0)
    assert alignment_distill_loss(s, t, y, cfg).data == euclidean_loss(s[2], y).data


def test_alignment_distill_zero_at_perfect_match(rng):
    cfg = DistillConfig(alpha=0.0, beta=1.0)
    emb = rng.normal(size=(3, 4))
    y = rng.normal(size=(3, 6))
    s = (tc.as_tensor(rng.normal(size=(3, 5))), tc.as_tensor(emb.copy()), tc.as_tensor(y.copy()))
    t = (tc.as_tensor(rng.normal(size=(3, 5))), tc.as_tensor(emb.copy()))
    assert alignment_distill_loss(s, t, y, cfg).data == 0.0


def test_alignment_distill_compositional_oracle(rng):
    s, t, y = _align_inputs(rng)
    cfg = DistillConfig(alpha=1.0, beta=1.0, tau=3.0)
    whole = alignment_distill_loss(s, t, y, cfg).data
    parts = (euclidean_loss(s[2], y).data
             + cross_entropy(soft_predictions(s[0], 3.0), soft_predictions(t[0], 3.0).data).data
             + hidden_match_loss(s[1], t[1]).data)
    assert whole == pytest.approx(parts, abs=1e-12)


# ---------------------------------------------------------------- triplet_loss

def test_triplet_all_equal_gives_margin(rng):
    k = rng.normal(size=(3, 4))
    t = tc.as_tensor(k.copy())
    v = triplet_loss(t, tc.as_tensor(k.copy()), tc.as_tensor(k.copy()), margin=0.4).data
    assert v == pytest.approx(0.4, abs=1e-14)


def test_triplet_inactive_hinge():
    a = tc.as_tensor(np.array([[0.0, 0.0]]))
    p = tc.as_tensor(np.array([[1.0, 0.0]]))
    n = tc.as_tensor(np.array([[10.0, 0.0]]))
    assert triplet_loss(a, p, n, margin=0.4).data == 0.0


def test_triplet_reference_value():
    a = tc.as_tensor(np.array([[0.0, 0.0]]))
    p = tc.as_tensor(np.array([[2.0, 0.0]]))
    n = tc.as_tensor(np.array([[1.0, 0.0]]))
    assert triplet_loss(a, p, n, margin=0.4).data == 3.4  # 4 - 1 + 0.4, exact


def test_triplet_subgradient_zero_at_kink():
    # d_ap^2 - d_an^2 + margin == 0 exactly: convention pins the gradient to 0
    a = tc.Tensor(np.array([[0.0, 0.0]]), requires_grad=True)
    p = tc.as_tensor(np.array([[1.0, 0.0]]))
    n = tc.as_tensor(np.array([[1.0, 0.0]]))
    with tc.Tape():
        loss = triplet_loss(a, p, n, margin=0.0)
    tc.backward(loss)
    assert loss.data == 0.0
    assert a.grad is None or not np.any(a.grad)


# ---------------------------------------------------- verification_distill_loss

def _verif_inputs(rng, n=7, c=5, e=6):
    s = (tc.as_tensor(rng.normal(size=(n, c))), tc.as_tensor(rng.normal(size=(n, e))), None)
    t = (tc.as_tensor(rng.normal(size=(n, c))), tc.as_tensor(rng.normal(size=(n, e))))
    trips = (np.array([0, 1]), np.array([2, 3]), np.array([4, 5]))
    return s, t, trips


def test_verification_distill_reduces_to_triplet(rng):
    s, t, trips = _verif_inputs(rng)
    cfg = DistillConfig(alpha=0.0, beta=0.0, lambda_margin=0.4)
    got = verification_distill_loss(s, t, trips, cfg).data
    want = triplet_loss(tc.take_rows(s[1], trips[0]), tc.take_rows(s[1], trips[1]),
                        tc.take_rows(s[1], trips[2]), 0.4).data
    assert got == want


def test_verification_distill_compositional_oracle(rng):
    s, t, trips = _verif_inputs(rng)
    cfg = DistillConfig(alpha=1.0, beta=1.0, tau=3.0, lambda_margin=0.4)
    whole = verification_distill_loss(s, t, trips, cfg).data
    parts = (triplet_loss(tc.take_rows(s[1], trips[0]), tc.take_rows(s[1], trips[1]),
                          tc.take_rows(s[1], trips[2]), 0.4).data
             + cross_entropy(soft_predictions(s[0], 3.0), soft_predictions(t[0], 3.0).data).data
             + hidden_match_loss(s[1], t[1]).data)
    assert whole == pytest.approx(parts, abs=1e-12)


def test_verification_distill_joint_softmax_term_last(rng):
    s, t, trips = _verif_inputs(rng)
    labels = rng.integers(0, 5, size=7)
    cfg = DistillConfig(alpha=0.0, beta=0.0)
    base = verification_distill_loss(s, t, trips, cfg).data
    joint = verification_distill_loss(s, t, trips, cfg, include_softmax=True, labels=labels).data
    assert joint == pytest.approx(base + softmax_loss(s[0], labels).data, abs=1e-12)


def test_verification_distill_teacher_detached(rng):
    n = 6
    s_logits = tc.Tensor(rng.normal(size=(n, 4)), requires_grad=True)
    s_emb = tc.Tensor(rng.normal(size=(n, 5)), requires_grad=True)
    t_logits = tc.Tensor(rng.normal(size=(n, 4)), requires_grad=True)
    t_emb = tc.Tensor(rng.normal(size=(n, 5)), requires_grad=True)
    trips = (np.array([0]), np.array([1]), np.array([2]))
    cfg = DistillConfig(alpha=1.0, beta=1.0)
    with tc.Tape():
        loss = verification_distill_loss((s_logits, s_emb, None), (t_logits, t_emb), trips, cfg)
    tc.backward(loss)
    assert s_emb.grad is not None
    for teacher_side in (t_logits, t_emb):
        assert teacher_side.grad is None or not np.any(teacher_side.grad)


# --------------------------------------------------------- general_distill_loss

def test_general_distill_alpha_beta_zero_is_task():
    cfg = DistillConfig(alpha=0.0, beta=0.0)
    out = general_distill_loss(tc.as_tensor(np.float64(2.5)), tc.as_tensor(np.float64(9.0)),
                               tc.as_tensor(np.float64(7.0)), cfg)
    assert out.data == 2.5


def test_general_distill_arithmetic():
    cfg = DistillConfig(alpha=2.0, beta=0.0)
    out = general_distill_loss(tc.as_tensor(np.float64(0.0)), tc.as_tensor(np.float64(0.5)),
                               tc.as_tensor(np.float64(3.0)), cfg)
    assert out.data == pytest.approx(1.0, abs=1e-15)


def test_general_distill_matches_alignment_instantiation(rng):
    s, t, y = _align_inputs(rng)
    cfg = DistillConfig(alpha=1.5, beta=2.5, tau=2.0)
    whole = alignment_distill_loss(s, t, y, cfg).data
    composed = general_distill_loss(
        euclidean_loss(s[2], y),
        cross_entropy(soft_predictions(s[0], 2.0), soft_predictions(t[0], 2.0).data),
        hidden_match_loss(s[1], t[1]), cfg).data
    assert whole == pytest.approx(composed, abs=1e-12)


# ------------------------------------------------------------------ invariants

def test_monotone_composition_in_alpha_beta(rng):
    s, t, y = _align_inputs(rng)
    values = {}
    for alpha in (0.0, 0.5, 1.0, 2.0):
        for beta in (0.0, 0.5, 1.0, 2.0):
            values[(alpha, beta)] = alignment_distill_loss(
                s, t, y, DistillConfig(alpha=alpha, beta=beta)).data
    for (a1, b1), v1 in values.items():
        for (a2, b2), v2 in values.items():
            if a2 >= a1 and b2 >= b1:
                assert v2 >= v1 - 1e-12


def test_distill_config_validation():
    with pytest.raises(ValueError):
        DistillConfig(alpha=-0.1)
    with pytest.raises(ValueError):
        DistillConfig(beta=-1.0)
    with pytest.raises(ValueError):
        DistillConfig(tau=0.5)
    with pytest.raises(ValueError):
        DistillConfig(lambda_margin=-0.4)
    for bad in ({"alpha": float("nan")}, {"alpha": float("inf")}, {"beta": float("inf")},
                {"tau": float("nan")}, {"lambda_margin": float("inf")}):
        with pytest.raises(ValueError, match="finite"):
            DistillConfig(**bad)
