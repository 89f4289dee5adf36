"""Synthetic dataset generator: determinism, split discipline, the latent
factor structure, triplet/pair sampling, and file round-trips."""
import collections

import numpy as np
import pytest

from distillforge.data import (
    GeneratorParams,
    LatentModel,
    Sample,
    _bounded_draws,
    as_arrays,
    generate,
    load_dataset,
    make_pairs,
    make_triplets,
    save_dataset,
)


SMALL = GeneratorParams(num_identities=6, samples_per_identity=10, seed=5)


def test_generate_deterministic():
    a = generate(SMALL)
    b = generate(SMALL)
    fa, ia, ka = as_arrays(a.train)
    fb, ib, kb = as_arrays(b.train)
    assert np.array_equal(fa, fb) and np.array_equal(ia, ib) and np.array_equal(ka, kb)


def test_generate_seed_changes_data():
    a = generate(SMALL)
    b = generate(GeneratorParams(num_identities=6, samples_per_identity=10, seed=6))
    fa, _, _ = as_arrays(a.train)
    fb, _, _ = as_arrays(b.train)
    assert not np.array_equal(fa, fb)


def test_split_ratio_per_identity():
    ds = generate(SMALL)
    train_counts = collections.Counter(s.identity for s in ds.train)
    test_counts = collections.Counter(s.identity for s in ds.test)
    for i in range(SMALL.num_identities):
        assert train_counts[i] == 8
        assert test_counts[i] == 2


def test_split_disjoint():
    ds = generate(SMALL)
    train_keys = {s.features.tobytes() for s in ds.train}
    test_keys = {s.features.tobytes() for s in ds.test}
    assert not train_keys & test_keys


def test_sample_shapes_and_ranges():
    ds = generate(SMALL)
    for s in ds.train + ds.test:
        assert s.features.shape == (SMALL.input_dim,)
        assert 0 <= s.identity < SMALL.num_identities
        assert s.keypoints.shape == (2 * SMALL.num_keypoints,)
        assert len(s.keypoints) % 2 == 0


def test_nearest_centroid_beats_chance():
    # raw-feature identity signal, checked with a brute-force centroid oracle
    ds = generate(GeneratorParams())
    feats, ids, _ = as_arrays(ds.train)
    tf, ti, _ = as_arrays(ds.test)
    centroids = np.stack([feats[ids == i].mean(axis=0) for i in range(32)])
    d2 = ((tf[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    top1 = float((d2.argmin(axis=1) == ti).mean())
    assert top1 > 1 / 32


def test_degenerate_generator_equal_pose_equal_keypoints():
    params = GeneratorParams(noise_std=0.0, identity_keypoint_scale=0.0)
    model = LatentModel.from_params(params)
    pose = np.linspace(-1, 1, params.pose_dim)
    kp_a = model.keypoints(np.zeros(params.latent_dim), pose)
    kp_b = model.keypoints(np.full(params.latent_dim, 3.0), pose)
    assert np.array_equal(kp_a, kp_b)


def test_pose_dominates_keypoints():
    params = GeneratorParams(noise_std=0.0)
    model = LatentModel.from_params(params)
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
    _, ids, _ = as_arrays(ds.train)
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
    lonely = [s for s in ds.train if s.identity == 0][:1] + [s for s in ds.train if s.identity == 1]
    with pytest.raises(ValueError):
        make_triplets(lonely, 4, seed=0)


def _reference_triplets(samples, count, seed):
    # the scalar-draw loop make_triplets replays, kept as its oracle
    groups = {}
    for i, s in enumerate(samples):
        groups.setdefault(s.identity, []).append(i)
    groups = {k: np.asarray(v) for k, v in groups.items()}
    rng = np.random.default_rng(seed)
    identities = np.array([s.identity for s in samples])
    n = len(samples)
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
    ids = [i for i, k in sizes.items() for _ in range(k)]
    order = np.random.default_rng(0).permutation(len(ids))
    return [Sample(np.zeros(1), ids[j], np.zeros(0)) for j in order]


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
    _, ids, _ = as_arrays(ds.test)
    assert same.shape == (30, 2) and diff.shape == (30, 2)
    assert np.array_equal(ids[same[:, 0]], ids[same[:, 1]])
    assert np.all(ids[diff[:, 0]] != ids[diff[:, 1]])


# ------------------------------------------------------------------- file I/O

def test_save_load_round_trip(tmp_path):
    ds = generate(SMALL)
    path = tmp_path / "data.txt"
    save_dataset(ds, path)
    back = load_dataset(path)
    assert back.generator is None  # the file stores samples, not parameters
    for part in ("train", "test"):
        orig, loaded = getattr(ds, part), getattr(back, part)
        assert len(orig) == len(loaded)
        for a, b in zip(orig, loaded):
            assert a.identity == b.identity
            np.testing.assert_array_equal(a.features, b.features)
            np.testing.assert_array_equal(a.keypoints, b.keypoints)


def test_save_is_byte_deterministic(tmp_path):
    ds = generate(SMALL)
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    save_dataset(ds, p1)
    save_dataset(ds, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_rejects_bad_header(tmp_path):
    path = tmp_path / "junk.txt"
    path.write_text("not a dataset\n")
    with pytest.raises(ValueError):
        load_dataset(path)
