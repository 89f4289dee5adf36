"""Network construction, width division, forward semantics and atomic
checkpoint writes. The trunk is input -> hidden widths -> embedding (all rectified);
logits and regression heads are affine maps off the embedding."""
import tracemalloc

import numpy as np
import pytest

from distillforge._atomic import atomic_write
from distillforge.nets import (
    NetworkSpec,
    build,
    load_network,
    num_parameters,
    save_network,
)


SPEC = NetworkSpec(64, (256, 256, 128), 16, 32, 10)


def test_divided_widths_examples():
    assert NetworkSpec(4, (256, 256, 128), 8, 5).student(2).divided_widths() == (128, 128, 64)
    assert NetworkSpec(4, (256, 256, 128), 8, 5).student(8).divided_widths() == (32, 32, 16)


def test_divided_widths_ceil_and_floor_one():
    assert NetworkSpec(4, (10, 7), 3, 5).student(4).divided_widths() == (3, 2)
    assert NetworkSpec(4, (3,), 3, 5).student(8).divided_widths() == (1,)


def test_embedding_and_classes_not_divided():
    s = SPEC.student(8)
    assert s.embedding_dim == SPEC.embedding_dim
    assert s.num_classes == SPEC.num_classes
    assert s.num_keypoint_coords == SPEC.num_keypoint_coords


def test_build_deterministic_per_seed():
    a = build(SPEC.student(4), seed=9)
    b = build(SPEC.student(4), seed=9)
    for pa, pb in zip(a.parameters, b.parameters):
        assert np.array_equal(pa.data, pb.data)
    c = build(SPEC.student(4), seed=10)
    assert any(not np.array_equal(pa.data, pc.data) for pa, pc in zip(a.parameters, c.parameters))


def test_regression_head_starts_at_zero():
    net = build(SPEC, seed=3)
    assert not np.any(net.parameters[-2].data)
    assert not np.any(net.parameters[-1].data)
    out = net.forward(np.random.default_rng(0).normal(size=(4, 64)))
    assert not np.any(out.regression.data)


def test_zero_weight_heads_give_zero_outputs(rng):
    net = build(NetworkSpec(5, (6,), 4, 3, 2), seed=0)
    for p in net.parameters[-4:]:
        p.data[...] = 0.0
    out = net.forward(rng.normal(size=(7, 5)))
    assert not np.any(out.logits.data)
    assert not np.any(out.regression.data)


def test_batch_independence(rng):
    net = build(NetworkSpec(5, (6,), 4, 3, 2), seed=1)
    row = rng.normal(size=(1, 5))
    single = net.forward(row)
    double = net.forward(np.vstack([row, row]))
    for field in ("logits", "embedding", "regression"):
        # identical rows of one batch are bitwise equal; across batch sizes
        # the BLAS summation order may differ at the last ulp
        np.testing.assert_array_equal(getattr(double, field).data[0], getattr(double, field).data[1])
        np.testing.assert_allclose(getattr(double, field).data[0], getattr(single, field).data[0],
                                   rtol=0, atol=1e-12)


def test_hand_built_forward():
    net = build(NetworkSpec(2, (2,), 2, 2, 0), seed=0)
    w1, b1, w2, b2, wl, bl = (p.data for p in net.parameters[:6])
    w1[...] = np.eye(2); b1[...] = [0.5, -3.0]
    w2[...] = 2 * np.eye(2); b2[...] = [0.0, 1.0]
    wl[...] = [[1.0, 2.0], [3.0, 4.0]]; bl[...] = 0.0
    out = net.forward(np.array([[1.0, 2.0]]))
    # h = relu([1.5, -1]) = [1.5, 0]; K = relu([3, 1]) = [3, 1]; logits = K @ wl
    np.testing.assert_allclose(out.embedding.data, [[3.0, 1.0]], atol=1e-15)
    np.testing.assert_allclose(out.logits.data, [[6.0, 10.0]], atol=1e-15)


def test_forward_shapes():
    net = build(SPEC.student(2), seed=0)
    out = net.forward(np.zeros((5, 64)))
    assert out.logits.data.shape == (5, 32)
    assert out.embedding.data.shape == (5, 16)
    assert out.regression.data.shape == (5, 10)


def test_forward_is_pure(rng):
    net = build(SPEC.student(8), seed=2)
    x = rng.normal(size=(6, 64))
    a = net.forward(x)
    b = net.forward(x)
    assert np.array_equal(a.logits.data, b.logits.data)
    assert np.array_equal(a.embedding.data, b.embedding.data)


def test_heads_depend_on_input_only_through_embedding(rng):
    net = build(SPEC.student(4), seed=5)
    out = net.forward(rng.normal(size=(3, 64)))
    emb = out.embedding.data
    wl, bl, wr, br = (p.data for p in net.parameters[-4:])
    np.testing.assert_allclose(out.logits.data, emb @ wl + bl, atol=1e-12)
    np.testing.assert_allclose(out.regression.data, emb @ wr + br, atol=1e-12)


def test_compression_monotonicity():
    counts = [num_parameters(build(SPEC.student(d), seed=0)) for d in (1, 2, 4, 8)]
    assert all(a > b for a, b in zip(counts, counts[1:]))


def test_normalizer_applied(rng):
    net = build(NetworkSpec(3, (4,), 2, 2, 0), seed=0)
    x = rng.normal(size=(5, 3))
    raw = net.forward(x).embedding.data
    net.set_normalizer(x.mean(axis=0), x.std(axis=0))
    normed = net.forward(x).embedding.data
    assert not np.array_equal(raw, normed)
    # standardized input equals raw forward of the standardized batch
    net2 = build(NetworkSpec(3, (4,), 2, 2, 0), seed=0)
    z = (x - x.mean(axis=0)) / x.std(axis=0)
    np.testing.assert_allclose(normed, net2.forward(z).embedding.data, atol=1e-12)


def test_save_load_round_trip(tmp_path, rng):
    net = build(SPEC.student(4), seed=11)
    net.set_normalizer(rng.normal(size=64), np.abs(rng.normal(size=64)) + 0.1)
    path = tmp_path / "net.ckpt"
    save_network(net, path)
    back = load_network(path)
    assert back.spec == net.spec
    x = rng.normal(size=(3, 64))
    np.testing.assert_array_equal(net.forward(x).logits.data, back.forward(x).logits.data)
    np.testing.assert_array_equal(net.forward(x).regression.data, back.forward(x).regression.data)


def test_load_holds_the_payload_once(tmp_path):
    # the parameters are views of one buffer the payload is read into
    net = build(SPEC, seed=3)
    path = tmp_path / "teacher.ckpt"
    save_network(net, path)
    payload = 8 * (2 * SPEC.input_dim + num_parameters(net))
    tracemalloc.start()
    try:
        back = load_network(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * payload
    assert all(p.data.base is back.parameters[0].data.base for p in back.parameters)


@pytest.mark.parametrize("mode,old,part", [("w", "old text\n", "new te"),
                                            ("wb", b"old bytes", b"new by")])
def test_atomic_write_failure_keeps_old_file(tmp_path, mode, old, part):
    path = tmp_path / "artifact"
    (path.write_text if mode == "w" else path.write_bytes)(old)
    with pytest.raises(RuntimeError):
        with atomic_write(path, mode) as fh:
            fh.write(part)
            fh.flush()
            raise RuntimeError("writer failed midway")
    assert (path.read_text() if mode == "w" else path.read_bytes()) == old
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]


def test_failed_checkpoint_save_keeps_old_checkpoint(tmp_path):
    net = build(SPEC.student(8), seed=2)
    path = tmp_path / "net.ckpt"
    save_network(net, path)
    before = path.read_bytes()
    broken = load_network(path)
    broken.parameters[-1].data = np.array(["not a number"])  # fails after the header is written
    with pytest.raises(ValueError):
        save_network(broken, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["net.ckpt"]


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        NetworkSpec(0, (4,), 2, 2)
    with pytest.raises(ValueError):
        NetworkSpec(4, (), 2, 2)
    with pytest.raises(ValueError):
        NetworkSpec(4, (4,), 2, 2).student(0)
    # int(divisor) once truncated 2.5 to 2 and trained the /2 student
    with pytest.raises(ValueError, match="^width_divisor must be >= 1 and integral, got 2.5$"):
        NetworkSpec(4, (4,), 2, 2).student(2.5)


def test_numpy_integer_spec_round_trips_a_checkpoint(tmp_path):
    # the spec stores plain ints, so its checkpoint header is JSON
    i = np.int64
    spec = NetworkSpec(i(4), [i(6), i(5)], i(3), i(2), i(2), i(2))
    assert spec == NetworkSpec(4, (6, 5), 3, 2, 2, 2) and type(spec.hidden_widths[0]) is int
    save_network(build(spec, seed=0), tmp_path / "net.ckpt")
    assert load_network(tmp_path / "net.ckpt").spec == spec
