"""Synthetic dataset generator: determinism, split discipline, the latent
factor structure, triplet/pair sampling, and file round-trips."""
import collections
import re
import tracemalloc

import numpy as np
import pytest

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
    for n, sizes in ((1, (1, 0)), (2, (2, 0)), (5, (4, 1)), (7, (6, 1)), (8, (6, 2)), (50, (40, 10))):
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
    kp_a = model.keypoints(np.zeros(params.latent_dim), pose)
    kp_b = model.keypoints(np.full(params.latent_dim, 3.0), pose)
    assert np.array_equal(kp_a, kp_b)


def test_pose_dominates_keypoints():
    params = GeneratorParams(noise_std=0.0)
    model = LatentModel(params, np.random.default_rng(params.seed))
    z = np.ones(params.latent_dim)
    base = model.keypoints(z, np.zeros(params.pose_dim))
    pose_moved = model.keypoints(z, np.ones(params.pose_dim))
    id_moved = model.keypoints(z * 3, np.zeros(params.pose_dim))
    assert np.linalg.norm(pose_moved - base) > np.linalg.norm(id_moved - base)


def test_generator_params_validation():
    with pytest.raises(ValueError):
        GeneratorParams(pose_keypoint_scale=0.05, identity_keypoint_scale=0.1)
    with pytest.raises(ValueError):
        GeneratorParams(num_identities=0)
    with pytest.raises(ValueError):
        GeneratorParams(noise_std=-0.1)


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
