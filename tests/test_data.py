"""Synthetic dataset generator: determinism, split discipline, the latent
factor structure, triplet/pair sampling, and file round-trips."""
import collections
import hashlib
import json
import os
import re
import tracemalloc

import numpy as np
import pytest

import distillforge.data as data
from distillforge.data import (
    GeneratorParams,
    LatentModel,
    Split,
    SplitDataset,
    _bounded_draws,
    generate,
    load_dataset,
    make_pairs,
    make_triplets,
    save_dataset,
)


SMALL = GeneratorParams(num_identities=6, samples_per_identity=10, seed=5)


def _columns(split):
    return split.features, split.ids, split.keypoints


def test_generate_deterministic():
    a = generate(SMALL)
    b = generate(SMALL)
    for part in ("train", "test"):
        for x, y in zip(_columns(getattr(a, part)), _columns(getattr(b, part))):
            assert np.array_equal(x, y)


def test_generate_seed_changes_data():
    a = generate(SMALL)
    b = generate(GeneratorParams(num_identities=6, samples_per_identity=10, seed=6))
    assert not np.array_equal(a.train.features, b.train.features)


def test_split_ratio_per_identity():
    ds = generate(SMALL)
    train_counts = collections.Counter(ds.train.ids.tolist())
    test_counts = collections.Counter(ds.test.ids.tolist())
    for i in range(SMALL.num_identities):
        assert train_counts[i] == 8
        assert test_counts[i] == 2
    assert SMALL.split_sizes == (8, 2)


def test_split_sizes_match_generated_rows():
    # one sample per identity leaves no positive pair, so the generator rejects it
    with pytest.raises(ValueError, match="^samples_per_identity must be >= 2"):
        GeneratorParams(num_identities=3, samples_per_identity=1, seed=1)
    for n, sizes in ((2, (2, 0)), (5, (4, 1)), (7, (6, 1)), (8, (6, 2)), (50, (40, 10))):
        params = GeneratorParams(num_identities=3, samples_per_identity=n, seed=1)
        ds = generate(params)
        assert params.split_sizes == sizes
        assert (len(ds.train), len(ds.test)) == (3 * sizes[0], 3 * sizes[1])


def test_split_disjoint():
    ds = generate(SMALL)
    train_keys = {row.tobytes() for row in ds.train.features}
    test_keys = {row.tobytes() for row in ds.test.features}
    assert not train_keys & test_keys


def test_sample_shapes_and_ranges():
    ds = generate(SMALL)
    for split in (ds.train, ds.test):
        n = len(split)
        assert split.features.shape == (n, SMALL.input_dim) and split.features.dtype == np.float64
        assert split.ids.shape == (n,) and split.ids.dtype == np.int64
        assert split.keypoints.shape == (n, 2 * SMALL.num_keypoints)
        assert np.all((split.ids >= 0) & (split.ids < SMALL.num_identities))


def test_split_rejects_mismatched_columns():
    with pytest.raises(ValueError):
        Split(np.zeros((3, 2)), np.zeros(2, dtype=np.int64), np.zeros((3, 0)))
    with pytest.raises(ValueError):
        Split(np.zeros(3), np.zeros(3, dtype=np.int64), np.zeros((3, 0)))


def test_nearest_centroid_beats_chance():
    # raw-feature identity signal, checked with a brute-force centroid oracle
    ds = generate(GeneratorParams())
    feats, ids, _ = _columns(ds.train)
    tf, ti, _ = _columns(ds.test)
    centroids = np.stack([feats[ids == i].mean(axis=0) for i in range(32)])
    d2 = ((tf[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    top1 = float((d2.argmin(axis=1) == ti).mean())
    assert top1 > 1 / 32


def test_degenerate_generator_equal_pose_equal_keypoints():
    params = GeneratorParams(noise_std=0.0, identity_keypoint_scale=0.0)
    model = LatentModel(params, np.random.default_rng(params.seed))
    pose = np.linspace(-1, 1, params.pose_dim)
    kp_a = model.observe(np.zeros(params.latent_dim), [pose])[1]
    kp_b = model.observe(np.full(params.latent_dim, 3.0), [pose])[1]
    assert np.array_equal(kp_a, kp_b)


def test_pose_dominates_keypoints():
    params = GeneratorParams(noise_std=0.0)
    model = LatentModel(params, np.random.default_rng(params.seed))
    z = np.ones(params.latent_dim)
    base, pose_moved = model.observe(z, [np.zeros(params.pose_dim), np.ones(params.pose_dim)])[1]
    id_moved = model.observe(z * 3, [np.zeros(params.pose_dim)])[1][0]
    assert np.linalg.norm(pose_moved - base) > np.linalg.norm(id_moved - base)


def test_generator_params_validation():
    for kwargs, message in (
            ({"pose_keypoint_scale": 0.05, "identity_keypoint_scale": 0.1}, "pose_keypoint_scale must exceed"),
            ({"num_identities": 0}, "num_identities must be >= 2"),
            ({"num_identities": 2.5}, "num_identities must be >= 2 and integral"),
            ({"num_identities": True}, "num_identities must be >= 2 and integral"),
            ({"noise_std": -0.1}, "noise_std must be >= 0"),
            ({"noise_std": float("nan")}, "noise_std must be >= 0 and finite"),
            ({"pose_keypoint_scale": float("inf")}, "pose_keypoint_scale must be > 0 and finite")):
        with pytest.raises(ValueError, match=f"^{message}"):
            GeneratorParams(**kwargs)


# -------------------------------------------------------------------- triplets

def test_triplets_satisfy_identity_constraints():
    ds = generate(SMALL)
    anchors, positives, negatives = make_triplets(ds.train, 200, seed=3)
    ids = ds.train.ids
    assert len(anchors) == 200
    assert np.all(anchors != positives)
    assert np.array_equal(ids[anchors], ids[positives])
    assert np.all(ids[anchors] != ids[negatives])


def test_triplets_empty_and_deterministic():
    ds = generate(SMALL)
    assert all(len(part) == 0 for part in make_triplets(ds.train, 0, seed=1))
    a = make_triplets(ds.train, 50, seed=9)
    b = make_triplets(ds.train, 50, seed=9)
    for pa, pb in zip(a, b):
        assert np.array_equal(pa, pb)


def test_triplets_need_two_samples_per_identity():
    ds = generate(GeneratorParams(num_identities=2, samples_per_identity=5, seed=0))
    ids = ds.train.ids
    rows = np.concatenate([np.flatnonzero(ids == 0)[:1], np.flatnonzero(ids == 1)])
    lonely = Split(ds.train.features[rows], ids[rows], ds.train.keypoints[rows])
    with pytest.raises(ValueError):
        make_triplets(lonely, 4, seed=0)


def _reference_triplets(split, count, seed):
    # the scalar-draw loop make_triplets replays, kept as its oracle
    identities = split.ids
    groups = {}
    for i, identity in enumerate(identities):
        groups.setdefault(int(identity), []).append(i)
    groups = {k: np.asarray(v) for k, v in groups.items()}
    rng = np.random.default_rng(seed)
    n = len(identities)
    anchors = np.empty(count, dtype=np.int64)
    positives = np.empty(count, dtype=np.int64)
    negatives = np.empty(count, dtype=np.int64)
    for t in range(count):
        a = int(rng.integers(n))
        own = groups[identities[a]]
        p = a
        while p == a:
            p = int(own[rng.integers(own.size)])
        neg = a
        while identities[neg] == identities[a]:
            neg = int(rng.integers(n))
        anchors[t], positives[t], negatives[t] = a, p, neg
    return anchors, positives, negatives


def _uneven_samples():
    # identities of 2, 3, 9 and 40 samples, interleaved
    sizes = {0: 2, 1: 3, 2: 9, 3: 40}
    ids = np.array([i for i, k in sizes.items() for _ in range(k)])
    ids = ids[np.random.default_rng(0).permutation(len(ids))]
    return Split(np.zeros((len(ids), 1)), ids, np.zeros((len(ids), 0)))


@pytest.mark.parametrize("samples", [generate(GeneratorParams()).train, _uneven_samples()],
                         ids=["default", "uneven"])
def test_triplets_match_scalar_draw_reference(samples):
    for seed in range(50):
        for count in (0, 1, 7, 1280):
            got = make_triplets(samples, count, seed)
            want = _reference_triplets(samples, count, seed)
            for g, w in zip(got, want):
                assert g.dtype == np.int64 and g.shape == (count,)
                assert np.array_equal(g, w), (seed, count)


@pytest.mark.parametrize("bound", [1, 40, 1280, 2 ** 31 + 1, 3 * 2 ** 30, 2 ** 32 - 5])
def test_bounded_draws_replay_scalar_integers(bound):
    # 2**31 + 1, 3 * 2**30 and 2**32 - 5 reject a large share of words
    for seed in range(20):
        scalar = np.random.default_rng(seed)
        draw = _bounded_draws(np.random.default_rng(seed), chunk=7)
        for _ in range(300):
            assert draw(bound) == int(scalar.integers(bound))


def test_bounded_draws_replay_mixed_bounds():
    bounds = [1, 40, 1280, 2 ** 31 + 1, 3 * 2 ** 30, 2 ** 32 - 5]
    pick = np.random.default_rng(3)
    for chunk in (1, 2, 64):
        scalar = np.random.default_rng(11)
        draw = _bounded_draws(np.random.default_rng(11), chunk)
        for _ in range(2000):
            bound = bounds[int(pick.integers(len(bounds)))]
            assert draw(bound) == int(scalar.integers(bound))


def test_bounded_draws_reject_unreplayable_bounds():
    draw = _bounded_draws(np.random.default_rng(0), chunk=4)
    for bound in (0, 2 ** 32 + 1):
        with pytest.raises(ValueError):
            draw(bound)


def test_pairs_structure():
    ds = generate(SMALL)
    same, diff = make_pairs(ds.test, 30, seed=2)
    ids = ds.test.ids
    assert same.shape == (30, 2) and diff.shape == (30, 2)
    assert np.array_equal(ids[same[:, 0]], ids[same[:, 1]])
    assert np.all(ids[diff[:, 0]] != ids[diff[:, 1]])


def _reference_pairs(split, count_per_class, seed):
    # the scalar-draw loop make_pairs replays, kept as its oracle
    groups = {}
    for i, identity in enumerate(split.ids.tolist()):
        groups.setdefault(identity, []).append(i)
    multi = [idx for idx in groups.values() if len(idx) >= 2]
    rng = np.random.default_rng(seed)
    n = len(split)
    same = np.empty((count_per_class, 2), dtype=np.int64)
    diff = np.empty((count_per_class, 2), dtype=np.int64)
    for t in range(count_per_class):
        idx = multi[int(rng.integers(len(multi)))]
        i = idx[rng.integers(len(idx))]
        j = i
        while j == i:
            j = idx[rng.integers(len(idx))]
        same[t] = (i, j)
        i = int(rng.integers(n))
        j = i
        while split.ids[j] == split.ids[i]:
            j = int(rng.integers(n))
        diff[t] = (i, j)
    return same, diff


def _one_pairable_identity():
    # only identity 2 has two samples, so the identity draw has bound 1
    ids = np.array([0, 1, 2, 3, 2, 4])
    return Split(np.zeros((len(ids), 1)), ids, np.zeros((len(ids), 0)))


@pytest.mark.parametrize("samples", [generate(SMALL).test, generate(GeneratorParams()).test,
                                     _one_pairable_identity()],
                         ids=["small", "default", "one-pairable"])
def test_pairs_match_scalar_draw_reference(samples):
    for seed in range(30):
        for count in (1, 7, 200):
            for g, w in zip(make_pairs(samples, count, seed), _reference_pairs(samples, count, seed)):
                assert g.dtype == np.int64 and g.shape == (count, 2)
                assert np.array_equal(g, w), (seed, count)


# ------------------------------------------------------------------- file I/O

def test_save_load_round_trip(tmp_path):
    ds = generate(SMALL)
    path = tmp_path / "data.txt"
    save_dataset(ds, path)
    back = load_dataset(path)
    for part in ("train", "test"):
        for orig, loaded in zip(_columns(getattr(ds, part)), _columns(getattr(back, part))):
            assert orig.dtype == loaded.dtype and loaded.flags.c_contiguous
            np.testing.assert_array_equal(orig, loaded)


def test_save_is_byte_deterministic(tmp_path):
    ds = generate(SMALL)
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    save_dataset(ds, p1)
    save_dataset(ds, p2)
    assert p1.read_bytes() == p2.read_bytes()


def _per_value_lines(ds):
    # the container's row format, spelled out: one shortest round-trip repr
    # per value, joined by spaces
    n, d, kc = len(ds.train) + len(ds.test), ds.train.features.shape[1], ds.train.keypoints.shape[1]
    lines = [f"distillforge-dataset v1 {n} {d} {kc}"]
    for flag, split in (("train", ds.train), ("test", ds.test)):
        lines += [" ".join([flag, str(identity), *map(repr, feats.tolist()), *map(repr, kps.tolist())])
                  for identity, feats, kps in zip(split.ids.tolist(), split.features, split.keypoints)]
    return "\n".join(lines) + "\n"


def test_save_matches_per_value_format(tmp_path, rng):
    edges = np.array([-0.0, 0.0, 1e16, -1e16, 1e-5, 5e-324, -5e-324, 1e22, 0.1, -2.5, 1.0, 123456789.0])
    feats = rng.choice(edges, size=(7, 5)) * rng.choice([1.0, -1.0, 0.5], size=(7, 5))
    feats[0] = edges[:5]
    kps = rng.choice(edges, size=(7, 3))
    kps[0] = edges[5:8]
    odd = Split(feats[:4], np.array([0, 3, 1, 2**31 - 1]), kps[:4])
    ds = SplitDataset(odd, Split(feats[4:], np.array([0, 0, 9]), kps[4:]))
    no_kps = SplitDataset(*(Split(s.features, s.ids, s.keypoints[:, :0]) for s in (ds.train, ds.test)))
    for case in (ds, no_kps, generate(SMALL)):
        path = tmp_path / "d.txt"
        save_dataset(case, path)
        assert path.read_text() == _per_value_lines(case)


def test_save_streams_rows(tmp_path):
    # building and joining all 1,600 lines first peaked at 7.07 MB
    ds = generate(GeneratorParams())
    tracemalloc.start()
    try:
        save_dataset(ds, tmp_path / "d.txt")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 19


def test_load_rejects_bad_header(tmp_path):
    path = tmp_path / "junk.txt"
    path.write_text("not a dataset\n")
    with pytest.raises(ValueError):
        load_dataset(path)


@pytest.mark.parametrize("input_dim, kc", [(-1, 1), (0, 1), (2, -1)])
def test_load_rejects_nonpositive_input_dim_and_negative_keypoint_count(tmp_path, input_dim, kc):
    # each row has the 2 + input_dim + kc fields the header declares, so only
    # the header check can object
    path = tmp_path / "d.txt"
    values = " 1.0" * (input_dim + kc)
    path.write_text(f"distillforge-dataset v1 2 {input_dim} {kc}\ntrain 0{values}\ntest 1{values}\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:1: input_dim must be positive"):
        load_dataset(path)


def test_save_load_save_is_byte_identical(tmp_path):
    first, second = tmp_path / "a.txt", tmp_path / "b.txt"
    save_dataset(generate(SMALL), first)
    back = load_dataset(first)
    save_dataset(back, second)
    assert first.read_bytes() == second.read_bytes()
    for split in (back.train, back.test):
        for array in _columns(split):
            with pytest.raises(ValueError):
                array[0] = 0


def test_text_parse_is_bitwise_at_float_edges(tmp_path):
    edges = [-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e+308, 0.1, 1e-05]
    feats = np.array([edges, edges[::-1], [-v for v in edges]])
    ds = SplitDataset(Split(feats[:2, :4], np.array([0, 2 ** 31 - 1]), feats[:2, 4:]),
                      Split(feats[2:, :4], np.array([7]), feats[2:, 4:]))
    path = tmp_path / "d.txt"
    save_dataset(ds, path)
    _assert_same_dataset(data._parse_text(path), ds)


def test_text_parse_skips_blank_lines(tmp_path):
    path = tmp_path / "d.txt"
    save_dataset(generate(SMALL), path)
    want = data._parse_text(path)
    header, first, *rows = path.read_text().splitlines(keepends=True)
    path.write_text("".join([header, first, "\n", " \t \n", *rows]))
    _assert_same_dataset(data._parse_text(path), want)


@pytest.mark.parametrize("body, message", [("", "header declares 2 samples, file holds 0"),
                                           ("\n \n\n", "header declares 2 samples, file holds 0"),
                                           (None, "no train rows")])
def test_text_without_rows_raises_one_error_and_no_warning(tmp_path, recwarn, body, message):
    # numpy's reader warns on input without rows; the parse refuses it silently
    path = tmp_path / "d.txt"
    path.write_text(f"distillforge-dataset v1 {0 if body is None else 2} 3 1\n{body or ''}")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}$"):
        data._parse_text(path)
    assert not recwarn.list


_BAD_ROWS = {
    "id not an integer": lambda f: [f[0], "1_0", *f[2:]],
    "value not a number": lambda f: [*f[:-1], "x"],
    "field dropped": lambda f: f[:-1],
    "field added": lambda f: [*f, "0.5"],
    "unknown split flag": lambda f: ["valid", *f[1:]],
    "identity out of range": lambda f: [f[0], str(2 ** 31), *f[2:]],
    "non-finite value": lambda f: [*f[:-1], "inf"],
}


@pytest.mark.parametrize("kind", sorted(_BAD_ROWS))
@pytest.mark.parametrize("row", [1, 3])
def test_every_parse_error_counts_data_rows_from_1(tmp_path, kind, row):
    # numpy's reader counts the row of a token it cannot convert from 0, and
    # its other rows, like the parse's own checks, from 1
    path = tmp_path / "d.txt"
    save_dataset(generate(SMALL), path)
    header, *rows = path.read_text().splitlines(keepends=True)
    rows[row - 1] = " ".join(_BAD_ROWS[kind](rows[row - 1].split())) + "\n"
    path.write_text("".join([header, rows[0], "\n", *rows[1:]]))  # a blank line is no data row
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: .* data row {row}\b"):
        data._parse_text(path)


def test_text_cut_inside_its_last_number_is_refused(tmp_path):
    path = tmp_path / "d.txt"
    save_dataset(generate(SMALL), path)
    text = path.read_text()
    assert text[-3:-1].isdigit() and text[-1] == "\n"  # the cut row still parses
    path.write_text(text[:-2])
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: truncated last line$"):
        data._parse_text(path)


# ------------------------------------------------------------- binary sidecar

def _counting_text_parses(monkeypatch) -> list:
    calls = []

    def parse(path):
        calls.append(path)
        return parse_text(path)

    parse_text = data._parse_text
    monkeypatch.setattr(data, "_parse_text", parse)
    return calls


def _assert_same_dataset(got, want):
    for part in ("train", "test"):
        for g, w in zip(_columns(getattr(got, part)), _columns(getattr(want, part))):
            assert (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes())
            assert not g.flags.writeable and not w.flags.writeable
            assert g.flags.c_contiguous and w.flags.c_contiguous


@pytest.mark.parametrize("params", [SMALL, GeneratorParams(num_keypoints=1, seed=3)],
                         ids=["small", "one-keypoint"])
def test_sidecar_load_equals_text_parse(tmp_path, monkeypatch, params):
    path = tmp_path / "dataset.txt"
    save_dataset(generate(params), path)
    assert sorted(os.listdir(tmp_path)) == ["dataset.txt", "dataset.txt.bin"]
    parses = _counting_text_parses(monkeypatch)
    loaded = load_dataset(path)
    assert parses == []
    _assert_same_dataset(loaded, data._parse_text(path))


def test_sidecar_header_states_the_text_digest_and_counts(tmp_path):
    path = tmp_path / "dataset.txt"
    save_dataset(generate(SMALL), path)
    magic, header, payload = _sidecar_parts((tmp_path / "dataset.txt.bin").read_bytes())
    assert magic == b"distillforge-dataset-cache v2"
    assert header == {"text_sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
                      "payload_sha256": hashlib.sha256(payload).hexdigest(),
                      "n_train": 48, "n_test": 12, "input_dim": 64, "num_keypoint_coords": 10}
    assert len(payload) == 8 * 60 * (1 + 64 + 10)


def _sidecar_parts(blob: bytes):
    magic, header, payload = blob.split(b"\n", 2)
    return magic, json.loads(header), payload


def _with_header(blob: bytes, drop=(), **changes) -> bytes:
    magic, header, payload = _sidecar_parts(blob)
    header = {key: value for key, value in {**header, **changes}.items() if key not in drop}
    return b"\n".join([magic, json.dumps(header).encode(), payload])


def _with_payload(magic: bytes, header: dict, payload: bytes) -> bytes:
    """A sidecar whose header hashes ``payload``, so only its other checks can reject it."""
    header = {**header, "payload_sha256": hashlib.sha256(payload).hexdigest()}
    return b"\n".join([magic, json.dumps(header).encode(), payload])


def _with_value(blob: bytes, index: int, value, dtype) -> bytes:
    magic, header, payload = _sidecar_parts(blob)
    values = np.frombuffer(payload, dtype=dtype).copy()
    values[index] = value
    return _with_payload(magic, header, values.tobytes())


def _without_last_test_row(blob: bytes, other: bytes) -> bytes:
    # a well-formed sidecar of one row fewer, under the text's own digest:
    # only the comparison with the text header's count can reject it
    magic, header, payload = _sidecar_parts(blob)
    n_train, n_test = header["n_train"], header["n_test"]
    widths = (1, header["input_dim"], header["num_keypoint_coords"])
    at = 8 * n_train * sum(widths)
    kept = [payload[:at]]
    for width in widths:
        kept.append(payload[at:at + 8 * (n_test - 1) * width])
        at += 8 * n_test * width
    return _with_payload(magic, {**header, "n_test": n_test - 1}, b"".join(kept))


def _flipped(split: str, block: str):
    """A corruption that flips the lowest bit of the first value of one payload
    block: the value stays a valid identity or a finite number, so only the
    payload's digest can reject it."""
    def corrupt(blob: bytes, other: bytes) -> bytes:
        magic, header, payload = _sidecar_parts(blob)
        widths = {"ids": 1, "features": header["input_dim"], "keypoints": header["num_keypoint_coords"]}
        at = 8 * header["n_train"] * sum(widths.values()) if split == "test" else 0
        before = list(widths)[:list(widths).index(block)]
        at += 8 * header[f"n_{split}"] * sum(widths[name] for name in before)
        flipped = bytearray(payload)
        flipped[at] ^= 1
        return b"\n".join([magic, json.dumps(header).encode(), bytes(flipped)])
    return corrupt


_SIDECAR_CORRUPTIONS = {
    **{f"flipped {split} {block} bit": _flipped(split, block)
       for split in ("train", "test") for block in ("ids", "features", "keypoints")},
    "truncated": lambda blob, other: blob[:-8],
    "wrong magic": lambda blob, other: blob.replace(b"cache v2", b"cache v3", 1),
    # what save_dataset wrote before the payload had a digest
    "v1 sidecar": lambda blob, other: _with_header(blob.replace(b"cache v2", b"cache v1", 1),
                                                   drop=("payload_sha256",)),
    "bad JSON": lambda blob, other: blob.replace(b"{", b"[", 1),
    "another text's digest": lambda blob, other: _with_header(
        blob, text_sha256=_sidecar_parts(other)[1]["text_sha256"]),
    "another text's sidecar": lambda blob, other: other,
    "counts disagree with the text": _without_last_test_row,
    "count not an integer": lambda blob, other: _with_header(blob, input_dim="64"),
    "header key missing": lambda blob, other: _with_header(blob, drop=("n_test",)),
    "non-finite value": lambda blob, other: _with_value(blob, 60, np.nan, "<f8"),
    "non-finite keypoint": lambda blob, other: _with_value(blob, -1, -np.inf, "<f8"),
    "id out of range": lambda blob, other: _with_value(blob, 5, 2 ** 31, "<i8"),
    "negative id": lambda blob, other: _with_value(blob, 0, -1, "<i8"),
    "trailing bytes": lambda blob, other: blob + b"\0" * 8,
    "empty": lambda blob, other: b"",
}


@pytest.mark.parametrize("kind", sorted(_SIDECAR_CORRUPTIONS))
def test_corrupt_sidecar_falls_back_to_the_text_parse(tmp_path, monkeypatch, kind):
    path, other = tmp_path / "dataset.txt", tmp_path / "other.txt"
    save_dataset(generate(SMALL), path)
    save_dataset(generate(GeneratorParams(num_identities=6, samples_per_identity=10, seed=6)), other)
    sidecar = tmp_path / "dataset.txt.bin"
    blob = _SIDECAR_CORRUPTIONS[kind](sidecar.read_bytes(), (tmp_path / "other.txt.bin").read_bytes())
    assert blob != sidecar.read_bytes()
    sidecar.write_bytes(blob)
    parses = _counting_text_parses(monkeypatch)
    loaded = load_dataset(path)
    assert len(parses) == 1
    _assert_same_dataset(loaded, data._parse_text(path))
    assert sidecar.read_bytes() == blob  # a reader never rewrites the sidecar


def test_load_leaves_the_directory_listing_unchanged(tmp_path):
    path = tmp_path / "dataset.txt"
    save_dataset(generate(SMALL), path)
    sidecar = tmp_path / "dataset.txt.bin"
    for state in ("fresh", "stale", "missing"):
        if state == "stale":
            sidecar.write_bytes(sidecar.read_bytes()[:-1])
        elif state == "missing":
            sidecar.unlink()
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        load_dataset(path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before, state


def test_sidecar_load_holds_less_than_the_text(tmp_path):
    # the text (2.3 MB) is hashed through one 1 MB buffer, freed before the
    # arrays (0.96 MB) are read, so the load holds one of the two at a time
    path = tmp_path / "dataset.txt"
    save_dataset(generate(GeneratorParams()), path)
    peaks = {}
    for name, load in (("sidecar", load_dataset), ("text", data._parse_text)):
        tracemalloc.start()
        try:
            load(path)
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["sidecar"] < min(peaks["text"], path.stat().st_size, 1.1 * 2 ** 20), peaks
