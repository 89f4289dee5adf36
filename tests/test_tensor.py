"""Autodiff core: forward values, reverse-mode gradients, tape scoping,
and the finite-difference checker itself (including a negative control)."""
import math

import numpy as np
import pytest

import distillforge.tensor as tc


# ---------------------------------------------------------------- forward ops

def test_matmul_identity():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = tc.matmul(tc.as_tensor(np.eye(2)), tc.as_tensor(a))
    assert np.array_equal(out.data, a)


def test_matmul_projector():
    p = tc.as_tensor(np.array([[1.0, 0.0], [0.0, 0.0]]))
    v = tc.as_tensor(np.array([[5.0], [7.0]]))
    assert np.array_equal(tc.matmul(p, v).data, [[5.0], [0.0]])


def test_matmul_direct_arithmetic():
    a = tc.as_tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    b = tc.as_tensor(np.array([[5.0, 6.0], [7.0, 8.0]]))
    assert np.array_equal(tc.matmul(a, b).data, [[19.0, 22.0], [43.0, 50.0]])


def test_relu_values():
    assert np.array_equal(tc.relu(tc.as_tensor([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])
    assert np.array_equal(tc.relu(tc.as_tensor([-3.0, -0.5])).data, [0.0, 0.0])


def test_relu_subgradient_zero_at_kink():
    x = tc.Tensor(np.array([-1.0, 3.0]), requires_grad=True)
    with tc.Tape():
        loss = tc.tsum(tc.relu(x))
    tc.backward(loss)
    assert np.array_equal(x.grad, [0.0, 1.0])


def test_softmax_rows_symmetry():
    out = tc.softmax_rows(tc.as_tensor(np.array([[0.0, 0.0]])))
    assert np.array_equal(out.data, [[0.5, 0.5]])


def test_softmax_rows_overflow_stability():
    out = tc.softmax_rows(tc.as_tensor(np.array([[1000.0, 0.0]]))).data
    assert np.all(np.isfinite(out))
    assert out[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert out[0, 1] == pytest.approx(0.0, abs=1e-12)


def test_softmax_rows_reference_values():
    # independent scalar route: math.exp on plain floats
    z = [1.0, 2.0, 3.0]
    den = sum(math.exp(v) for v in z)
    expected = [math.exp(v) / den for v in z]
    out = tc.softmax_rows(tc.as_tensor(np.array([z]))).data[0]
    np.testing.assert_allclose(out, expected, atol=1e-5)


def test_softmax_rows_are_distributions(rng):
    out = tc.softmax_rows(tc.as_tensor(rng.normal(size=(7, 5)) * 10)).data
    np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(out >= 0)


def test_clamp_min_forward_and_grad():
    x = tc.Tensor(np.array([0.5, -2.0]), requires_grad=True)
    with tc.Tape():
        loss = tc.tsum(tc.clamp_min(x, 0.0))
    assert np.array_equal(loss.data, 0.5)
    tc.backward(loss)
    assert np.array_equal(x.grad, [1.0, 0.0])


# ------------------------------------------------------------------ backward

def test_backward_sum_gives_ones(rng):
    x = tc.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    with tc.Tape():
        loss = tc.tsum(x)
    tc.backward(loss)
    assert np.array_equal(x.grad, np.ones((3, 4)))


def test_backward_quadratic():
    x = tc.Tensor(np.array([3.0, 4.0]), requires_grad=True)
    with tc.Tape():
        loss = tc.mul(tc.tsum(tc.mul(x, x)), 0.5)
    tc.backward(loss)
    np.testing.assert_allclose(x.grad, [3.0, 4.0], atol=1e-14)


def test_backward_softmax_cross_entropy_closed_form(rng):
    # d/da of -sum(onehot * log softmax(a)) = softmax(a) - onehot
    a = tc.Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    onehot = np.zeros((4, 6))
    onehot[np.arange(4), [1, 0, 5, 2]] = 1.0
    with tc.Tape():
        p = tc.softmax_rows(a)
        loss = tc.mul(tc.tsum(tc.mul(tc.as_tensor(onehot), tc.log(p))), -1.0)
    tc.backward(loss)
    sm = tc.softmax_rows(tc.as_tensor(a.data)).data
    np.testing.assert_allclose(a.grad, sm - onehot, atol=1e-10)


def test_backward_releases_the_graph():
    # recorded tensors point back at their tape; a spent tape that kept its
    # records would hold the whole graph until the cyclic collector ran
    x = tc.Tensor(np.array([3.0, 4.0]), requires_grad=True)
    with tc.Tape() as tape:
        loss = tc.tsum(tc.mul(x, x))
    assert len(tape) == 2
    tc.backward(loss)
    assert len(tape) == 0
    np.testing.assert_array_equal(x.grad, [6.0, 8.0])
    with pytest.raises(RuntimeError, match="already consumed"):
        tc.backward(loss)


def test_backward_outside_tape_rejected():
    x = tc.Tensor(np.array([1.0]), requires_grad=True)
    y = tc.tsum(x)
    with pytest.raises(ValueError):
        tc.backward(y)


def test_ops_outside_tape_record_nothing():
    x = tc.Tensor(np.array([2.0]), requires_grad=True)
    y = tc.mul(x, x)
    assert y._tape is None


def test_detach_blocks_gradient():
    x = tc.Tensor(np.array([2.0]), requires_grad=True)
    with tc.Tape():
        # one factor detached: analytic grad is x, not 2x
        loss = tc.tsum(tc.mul(x, tc.detach(x)))
    tc.backward(loss)
    np.testing.assert_allclose(x.grad, [2.0])


def test_grad_accumulates_across_uses():
    x = tc.Tensor(np.array([1.0, 2.0]), requires_grad=True)
    with tc.Tape():
        loss = tc.add(tc.tsum(x), tc.tsum(x))
    tc.backward(loss)
    assert np.array_equal(x.grad, [2.0, 2.0])


def test_take_rows_routes_gradient():
    x = tc.Tensor(np.arange(6, dtype=np.float64).reshape(3, 2), requires_grad=True)
    with tc.Tape():
        loss = tc.tsum(tc.take_rows(x, np.array([0, 0, 2])))
    tc.backward(loss)
    assert np.array_equal(x.grad, [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]])


# ---------------------------------------------------------------- grad_check

def test_grad_check_sum_of_squares(rng):
    x = rng.normal(size=(5,))
    result = tc.grad_check(lambda t: tc.tsum(tc.mul(t, t)), x, tol=1e-6)
    assert result.passed


def test_grad_check_locates_corrupted_rule():
    # deliberately wrong analytic gradient via a detached factor
    x = np.array([1.0, 2.0, 3.0])
    result = tc.grad_check(lambda t: tc.tsum(tc.mul(t, tc.detach(t))), x)
    assert not result.passed
    assert result.worst_index is not None
    assert result.max_rel_error > 1e-2


def test_grad_check_each_primitive(rng):
    cases = {
        "add": lambda t: tc.tsum(tc.add(t, t)),
        "sub": lambda t: tc.tsum(tc.sub(t, tc.as_tensor(np.ones(4)))),
        "mul": lambda t: tc.tsum(tc.mul(t, t)),
        "div_scalar": lambda t: tc.tsum(tc.div_scalar(t, 3.0)),
        "log": lambda t: tc.tsum(tc.log(tc.add(tc.mul(t, t), tc.as_tensor(np.full(4, 0.5))))),
        "mean": lambda t: tc.mean(tc.mul(t, t)),
        "sum_rows": lambda t: tc.tsum(tc.mul(tc.sum_rows(tc.mul(t, t)), 2.0)),
        "softmax": lambda t: tc.tsum(tc.mul(tc.softmax_rows(t), tc.as_tensor(np.arange(4.0)))),
    }
    for name, f in cases.items():
        x = rng.normal(size=(3, 4)) if name in ("softmax", "sum_rows") else rng.normal(size=(4,))
        result = tc.grad_check(f, x)
        assert result.passed, f"{name}: max rel err {result.max_rel_error}"


def test_grad_check_matmul(rng):
    w = rng.normal(size=(3, 2))

    def f(t):
        return tc.tsum(tc.relu(tc.matmul(t, tc.as_tensor(w))))

    x = rng.normal(size=(5, 3))
    # resample away from relu kinks
    while np.any(np.abs(x @ w) < 1e-3):
        x = rng.normal(size=(5, 3))
    assert tc.grad_check(f, x).passed


# ------------------------------------------------------------------ fused ops

def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _taped(build, leaves, grad_mask):
    """Run ``build`` on fresh leaf copies under a tape and backpropagate;
    returns the loss value and each leaf's gradient (None for constants)."""
    ts = [tc.Tensor(x.copy(), requires_grad=flag) for x, flag in zip(leaves, grad_mask)]
    with tc.Tape():
        loss = build(*ts)
    tc.backward(loss)
    return loss.data, [t.grad for t in ts]


def _assert_bitwise(build_fused, build_ref, leaves, grad_mask):
    v_f, g_f = _taped(build_fused, leaves, grad_mask)
    v_r, g_r = _taped(build_ref, leaves, grad_mask)
    assert _same_bits(v_f, v_r), (v_f, v_r)
    for i, (a, b) in enumerate(zip(g_f, g_r)):
        if a is None or b is None:
            assert a is None and b is None, f"gradient of leaf {i} missing on one side"
            continue
        assert _same_bits(a, b), f"gradient of leaf {i} differs"


def _unfused_affine(h, w, b, rectify):
    z = tc.add(tc.matmul(h, w), b)
    return tc.relu(z) if rectify else z


def _affine_case(rng, m, n_in, n_emb, n_out, bias_kind):
    h = rng.normal(size=(m, n_in))
    h[rng.random(m) < 0.3] = 0.0              # zero rows
    w1 = rng.normal(size=(n_in, n_emb))
    w1[:, rng.random(n_emb) < 0.3] = 0.0      # zero columns
    bias_shape = {"row": (n_emb,), "full": (m, n_emb), "scalar": ()}[bias_kind]
    b1 = rng.normal(size=bias_shape)
    if bias_kind == "row":
        b1[w1.any(axis=0) == 0] = 0.0         # exact-zero pre-activations
    w2, b2 = rng.normal(size=(n_emb, n_out)), rng.normal(size=(n_out,))
    w3, b3 = rng.normal(size=(n_emb, n_out)), rng.normal(size=(n_out,))
    c1, c2, c3 = rng.normal(size=(m, n_out)), rng.normal(size=(m, n_out)), rng.normal(size=(m, n_emb))
    return [h, w1, b1, w2, b2, w3, b3], (c1, c2, c3)


def test_affine_matches_unfused_bitwise(rng):
    # trunk layer feeding two heads plus a direct term, as in Network.forward
    for trial in range(60):
        m, n_in, n_emb, n_out = (int(v) for v in rng.integers(1, 9, size=4))
        bias_kind = ("row", "full", "scalar")[trial % 3]
        leaves, (c1, c2, c3) = _affine_case(rng, m, n_in, n_emb, n_out, bias_kind)

        def graph(op):
            def build(h, w1, b1, w2, b2, w3, b3):
                k = op(h, w1, b1, True)
                y1, y2 = op(k, w2, b2, False), op(k, w3, b3, True)
                return tc.add(tc.add(tc.tsum(tc.mul(y1, c1)), tc.tsum(tc.mul(y2, c2))),
                              tc.tsum(tc.mul(k, c3)))
            return build

        for input_needs_grad in (False, True):
            mask = [input_needs_grad] + [True] * 6
            _assert_bitwise(graph(tc.affine), graph(_unfused_affine), leaves, mask)


def test_affine_forward_values_and_kink():
    h = tc.as_tensor(np.array([[1.0, -1.0], [0.0, 0.0]]))
    w = tc.as_tensor(np.array([[1.0, 2.0], [1.0, -1.0]]))
    b = tc.as_tensor(np.array([0.0, -1.0]))
    assert np.array_equal(tc.affine(h, w, b, rectify=False).data, [[0.0, 2.0], [0.0, -1.0]])
    assert np.array_equal(tc.affine(h, w, b, rectify=True).data, [[0.0, 2.0], [0.0, 0.0]])
    x = tc.Tensor(h.data, requires_grad=True)
    with tc.Tape():
        loss = tc.tsum(tc.affine(x, w, b, rectify=True))
    tc.backward(loss)
    # pre-activation exactly 0 at [0, 0]: subgradient 0 there
    assert np.array_equal(x.grad, [[2.0, -1.0], [0.0, 0.0]])


def test_affine_rejects_bad_shapes():
    with pytest.raises(ValueError):
        tc.affine(np.ones((2, 3)), np.ones((2, 3)), np.ones(3), rectify=True)
    with pytest.raises(ValueError):
        tc.affine(np.ones((2, 3)), np.ones((3, 4)), np.ones(3), rectify=False)


def test_grad_check_affine(rng):
    h0, w0, b0 = rng.normal(size=(5, 3)), rng.normal(size=(3, 4)), rng.normal(size=(4,))
    while np.any(np.abs(h0 @ w0 + b0) < 1e-3):  # away from relu kinks
        h0 = rng.normal(size=(5, 3))
    c = rng.normal(size=(5, 4))
    for rectify in (False, True):
        def f_h(t):
            return tc.tsum(tc.mul(tc.affine(t, w0, b0, rectify), c))

        def f_w(t):
            return tc.tsum(tc.mul(tc.affine(h0, t, b0, rectify), c))

        def f_b(t):
            return tc.tsum(tc.mul(tc.affine(h0, w0, t, rectify), c))

        for f, x in ((f_h, h0), (f_w, w0), (f_b, b0)):
            assert tc.grad_check(f, x).passed


def _unfused_ce(pred, target, floor):
    logp = tc.log(tc.clamp_min(pred, floor))
    return tc.mul(tc.tsum(tc.mul(target, logp)), -1.0 / pred.shape[0])


def test_clamped_cross_entropy_matches_unfused_bitwise(rng):
    floor = 1e-12
    for _ in range(60):
        m, n = (int(v) for v in rng.integers(1, 8, size=2))
        logits = rng.normal(size=(m, n)) * rng.choice([1.0, 40.0])  # large spread: clamp active
        target = rng.uniform(0.0, 1.0, (m, n))
        target[rng.random((m, n)) < 0.2] = 0.0
        c = rng.normal(size=(m, n))

        def via_softmax(ce):
            # the prediction also feeds a second term, so its gradient accumulates twice
            def build(x, t):
                p = tc.softmax_rows(x)
                return tc.add(ce(p, t, floor), tc.tsum(tc.mul(p, c)))
            return build

        def on_pred(ce):
            return lambda p, t: ce(p, t, floor)

        def self_target(ce):
            return lambda p, _t: ce(p, p, floor)

        pred = rng.uniform(0.0, 1.0, (m, n))
        pred.flat[rng.integers(0, pred.size, 2)] = (0.0, floor)
        pred[rng.random((m, n)) < 0.2] = 1e-14
        for build, leaves in ((via_softmax, [logits, target]), (on_pred, [pred, target]),
                              (self_target, [pred, target])):
            for mask in ([True, False], [True, True]):
                _assert_bitwise(build(tc.clamped_cross_entropy), build(_unfused_ce), leaves, mask)


def test_clamped_cross_entropy_rejects_bad_input():
    with pytest.raises(ValueError):
        tc.clamped_cross_entropy(np.ones((2, 3)), np.ones((3, 2)), 1e-12)
    with pytest.raises(ValueError):
        tc.clamped_cross_entropy(np.ones(3), np.ones(3), 1e-12)
    with pytest.raises(ValueError):
        tc.clamped_cross_entropy(np.ones((2, 3)), np.ones((2, 3)), 0.0)


def test_grad_check_clamped_cross_entropy(rng):
    target = rng.uniform(0.0, 1.0, (3, 4))
    pred = rng.uniform(0.1, 1.0, (3, 4))
    pred[0, 1] = pred[2, 3] = 0.01  # well below the floor: zero gradient there
    floor = 0.05
    assert tc.grad_check(lambda t: tc.clamped_cross_entropy(t, target, floor), pred).passed
    assert tc.grad_check(lambda t: tc.clamped_cross_entropy(pred, t, floor), target).passed


def test_first_accumulation_is_positive_zero():
    x = tc.Tensor(np.array([1.0, -2.0]), requires_grad=True)
    with tc.Tape():
        loss = tc.tsum(tc.mul(tc.relu(x), -1.0))
    tc.backward(loss)
    # relu's backward yields -1 * 0 = -0.0 at the negative input; zeros + g is +0.0
    assert _same_bits(x.grad, np.array([-1.0, 0.0]))


def _unfused_soft(x, t, tau, floor):
    # at tau 1 the chain has no division, as in losses.softmax_loss before fusing
    p = tc.softmax_rows(x if tau == 1.0 else tc.div_scalar(x, tau))
    return _unfused_ce(p, tc.detach(t), floor)


def test_softmax_cross_entropy_matches_unfused_bitwise(rng):
    floor = 1e-12
    for trial in range(60):
        m, n = (int(v) for v in rng.integers(1, 8, size=2))
        tau = (1.0, 3.0, 7.5)[trial % 3]
        # a large spread drives predictions under the floor and softened
        # targets to exact zeros; one-hot targets are the hard-label case
        logits = rng.normal(size=(m, n)) * rng.choice([1.0, 200.0])
        soft = tc.softmax_rows(rng.normal(size=(m, n)) * rng.choice([1.0, 5000.0]) / tau).data
        onehot = np.eye(n)[rng.integers(0, n, size=m)]

        def with_hard_term(ce):
            # the logits also feed a hard-label term: two accumulations, in tape order
            def build(x, t):
                hard = _unfused_ce(tc.softmax_rows(x), onehot, floor)
                return tc.add(hard, tc.mul(ce(x, t, tau, floor), 0.7))
            return build

        def alone(ce):
            return lambda x, t: ce(x, t, tau, floor)

        for build in (with_hard_term, alone):
            for target in (soft, onehot):
                for mask in ([True, False], [True, True]):
                    _assert_bitwise(build(tc.softmax_cross_entropy), build(_unfused_soft),
                                    [logits, target], mask)


def test_softmax_cross_entropy_rejects_bad_input():
    for args in ((np.ones((2, 3)), np.ones((3, 2)), 3.0), (np.ones(3), np.ones(3), 3.0),
                 (np.ones((2, 3)), np.ones((2, 3)), 0.0)):
        with pytest.raises(ValueError):
            tc.softmax_cross_entropy(*args, 1e-12)


def test_grad_check_softmax_cross_entropy(rng):
    for _ in range(5):
        m, n = (int(v) for v in rng.integers(1, 6, size=2))
        target = tc.softmax_rows(rng.normal(size=(m, n))).data
        tau = float(rng.uniform(1.0, 4.0))
        f = lambda t: tc.softmax_cross_entropy(t, target, tau, 1e-12)
        assert tc.grad_check(f, rng.normal(size=(m, n)) * 2.0).passed


def _unfused_squared_error(p, t):
    d = tc.sub(p, t)
    return tc.div_scalar(tc.tsum(tc.mul(d, d)), p.shape[0])


def test_squared_error_mean_matches_unfused_bitwise(rng):
    for _ in range(60):
        m, n = (int(v) for v in rng.integers(1, 8, size=2))
        pred, target = rng.normal(size=(m, n)), rng.normal(size=(m, n))
        same = rng.random((m, n)) < 0.3
        target[same] = pred[same]          # exact-zero differences
        c = rng.normal(size=(m, n))

        def shared(sq):
            # pred also feeds a second term, recorded before the squared error
            return lambda p, t: tc.add(tc.tsum(tc.mul(p, c)), tc.mul(sq(p, t), 1.5))

        for build in (shared, lambda sq: sq):
            for mask in ([True, False], [True, True], [False, True]):
                _assert_bitwise(build(tc.squared_error_mean), build(_unfused_squared_error),
                                [pred, target], mask)


def test_squared_error_mean_rejects_bad_input():
    for a, b in ((np.ones((2, 3)), np.ones((3, 2))), (np.ones(3), np.ones(3)),
                 (np.ones((0, 3)), np.ones((0, 3)))):
        with pytest.raises(ValueError):
            tc.squared_error_mean(a, b)


def test_grad_check_squared_error_mean(rng):
    for _ in range(5):
        m, n = (int(v) for v in rng.integers(1, 6, size=2))
        pred, target = rng.normal(size=(m, n)), rng.normal(size=(m, n))
        assert tc.grad_check(lambda t: tc.squared_error_mean(t, target), pred).passed
        assert tc.grad_check(lambda t: tc.squared_error_mean(pred, t), target).passed


def _unfused_triplet(e, ia, ip, in_, margin):
    a, p, n = tc.take_rows(e, ia), tc.take_rows(e, ip), tc.take_rows(e, in_)
    d_ap, d_an = tc.sub(a, p), tc.sub(a, n)
    s_ap, s_an = tc.sum_rows(tc.mul(d_ap, d_ap)), tc.sum_rows(tc.mul(d_an, d_an))
    return tc.mean(tc.relu(tc.add(tc.sub(s_ap, s_an), float(margin))))


def test_triplet_hinge_matches_unfused_bitwise(rng):
    for trial in range(60):
        rows, dim, k = (int(v) for v in rng.integers(1, 9, size=3))
        emb = rng.normal(size=(rows, dim))
        emb[rng.random(rows) < 0.2] = 0.0
        ia, ip, in_ = (rng.integers(0, rows, size=k) for _ in range(3))  # duplicates included
        ip[: k // 3] = in_[: k // 3]       # equal distances: the hinge sits at margin
        margin = (0.0, 0.4, 2.0)[trial % 3]  # margin 0 puts those triplets on the kink
        c = rng.normal(size=(rows, dim))

        def shared(hinge):
            # the embedding also feeds terms recorded before and after the hinge
            def build(e):
                before = tc.tsum(tc.mul(e, c))
                loss = tc.add(before, hinge(e, ia, ip, in_, margin))
                return tc.add(loss, tc.mul(tc.tsum(tc.mul(e, e)), 0.25))
            return build

        for build in (shared, lambda hinge: lambda e: hinge(e, ia, ip, in_, margin)):
            _assert_bitwise(build(tc.triplet_hinge), build(_unfused_triplet), [emb], [True])


def test_triplet_hinge_rejects_bad_input():
    emb = np.ones((4, 2))
    good = np.array([0, 1])
    for ia, ip, in_ in ((good, good, np.array([0])), (good, good, np.array([0, 4])),
                        (good, good, np.array([0.0, 1.0])), (good[:0], good[:0], good[:0])):
        with pytest.raises((ValueError, IndexError)):
            tc.triplet_hinge(emb, ia, ip, in_, 0.4)
    with pytest.raises(ValueError):
        tc.triplet_hinge(np.ones(4), good, good, good, 0.4)


def test_grad_check_triplet_hinge(rng):
    for _ in range(5):
        rows, dim, k = (int(v) for v in rng.integers(2, 7, size=3))
        ia, ip, in_ = (rng.integers(0, rows, size=k) for _ in range(3))
        emb = rng.normal(size=(rows, dim))
        z = lambda e: ((e[ia] - e[ip]) ** 2).sum(axis=1) - ((e[ia] - e[in_]) ** 2).sum(axis=1) + 0.4
        while np.any(np.abs(z(emb)) < 1e-3):  # away from the hinge's kink
            emb = rng.normal(size=(rows, dim))
        assert tc.grad_check(lambda t: tc.triplet_hinge(t, ia, ip, in_, 0.4), emb).passed


def test_grad_check_take_rows(rng):
    for _ in range(5):
        rows, dim, k = (int(v) for v in rng.integers(2, 7, size=3))
        idx = rng.integers(0, rows, size=k + 1)
        idx[-1] = idx[0]  # at least one duplicate, whose gradients must accumulate
        w = rng.normal(size=(k + 1, dim))
        f = lambda t: tc.tsum(tc.mul(tc.mul(tc.take_rows(t, idx), tc.take_rows(t, idx)), w))
        assert tc.grad_check(f, rng.normal(size=(rows, dim))).passed


def test_grad_check_clamp_min(rng):
    for _ in range(5):
        shape = tuple(int(v) for v in rng.integers(1, 6, size=2))
        floor = float(rng.normal())
        x = rng.normal(size=shape)
        while np.any(np.abs(x - floor) < 1e-3):  # away from the floor's kink
            x = rng.normal(size=shape)
        w = rng.normal(size=shape)
        f = lambda t: tc.tsum(tc.mul(tc.mul(tc.clamp_min(t, floor), tc.clamp_min(t, floor)), w))
        assert tc.grad_check(f, x).passed
