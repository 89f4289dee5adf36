"""Synthetic identity/pose benchmark generator and its text container.

Samples follow a linear-Gaussian latent model. Each identity owns a latent
code z; each sample additionally draws a pose p. Features mix both
(identity is the dominant, class-defining factor), while keypoints sit on
a fixed template displaced mostly by pose and only weakly by identity:

    features  = M_id @ z + M_pose @ p + noise_std * eps
    keypoints = template + pose_scale * (A @ p) + id_scale * (B @ z) + noise_std * eps

Projection matrices are scaled by 1/sqrt(source dim) so the scale knobs
are directly comparable. The train/test split is 80/20 within every
identity (``GeneratorParams.split_sizes``). Each split is one read-only
``Split`` of columns, one row per sample; triplets and pairs index its rows.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._atomic import atomic_write

__all__ = [
    "GeneratorParams",
    "Split",
    "SplitDataset",
    "LatentModel",
    "generate",
    "make_triplets",
    "make_pairs",
    "save_dataset",
    "load_dataset",
]

_FORMAT_NAME = "distillforge-dataset"
_FORMAT_VERSION = "v1"


@dataclass(frozen=True)
class GeneratorParams:
    num_identities: int = 32
    samples_per_identity: int = 50
    input_dim: int = 64
    latent_dim: int = 8
    pose_dim: int = 4
    num_keypoints: int = 5
    identity_keypoint_scale: float = 0.1
    pose_keypoint_scale: float = 1.0
    noise_std: float = 0.1
    seed: int = 0

    def __post_init__(self):
        for name in ("num_identities", "samples_per_identity", "input_dim",
                     "latent_dim", "pose_dim", "num_keypoints"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive integer, got {getattr(self, name)}")
        if self.identity_keypoint_scale < 0:
            raise ValueError("identity_keypoint_scale must be nonnegative")
        if self.pose_keypoint_scale <= self.identity_keypoint_scale:
            raise ValueError(
                "pose_keypoint_scale must exceed identity_keypoint_scale "
                f"(got {self.pose_keypoint_scale} vs {self.identity_keypoint_scale}): "
                "keypoints are a pose-dominated signal")
        if self.noise_std < 0:
            raise ValueError("noise_std must be nonnegative")

    @property
    def num_keypoint_coords(self) -> int:
        return 2 * self.num_keypoints

    @property
    def split_sizes(self) -> tuple[int, int]:
        """(train, test) samples per identity: 80/20, at least one train sample."""
        n_train = max(1, int(round(0.8 * self.samples_per_identity)))
        return n_train, self.samples_per_identity - n_train


@dataclass(frozen=True, eq=False)
class Split:
    """One split, one row per sample: ``features`` [N,D] float64, ``ids`` [N]
    int64 and ``keypoints`` [N,KC] float64. The arrays are C-contiguous and
    made read-only when the split is built, so every stage of a run, forked
    workers included, shares them unchanged."""

    features: np.ndarray
    ids: np.ndarray
    keypoints: np.ndarray

    def __post_init__(self):
        for name, dtype in (("features", np.float64), ("ids", np.int64), ("keypoints", np.float64)):
            array = np.ascontiguousarray(getattr(self, name), dtype=dtype)
            array.setflags(write=False)
            object.__setattr__(self, name, array)
        if (self.ids.ndim != 1 or self.features.ndim != 2 or self.keypoints.ndim != 2
                or not len(self.features) == len(self.keypoints) == len(self.ids)):
            raise ValueError("a split needs [N,D] features, [N] ids and [N,KC] keypoints, got "
                             f"{self.features.shape}, {self.ids.shape} and {self.keypoints.shape}")

    def __len__(self) -> int:
        return len(self.ids)


@dataclass
class SplitDataset:
    train: Split
    test: Split


class LatentModel:
    """The deterministic part of the generator: latent codes to observations."""

    def __init__(self, params: GeneratorParams, rng: np.random.Generator):
        d, l, p, kc = params.input_dim, params.latent_dim, params.pose_dim, params.num_keypoint_coords
        self.params = params
        self.m_id = rng.normal(size=(d, l)) / math.sqrt(l)
        self.m_pose = rng.normal(size=(d, p)) / math.sqrt(p)
        self.a_pose = rng.normal(size=(kc, p)) / math.sqrt(p)
        self.b_id = rng.normal(size=(kc, l)) / math.sqrt(l)
        # fixed template: keypoints evenly spaced on the unit circle, so the
        # first two keypoints keep a stable separation for error normalization
        angles = 2.0 * math.pi * np.arange(params.num_keypoints) / params.num_keypoints
        self.template = np.stack([np.cos(angles), np.sin(angles)], axis=1).reshape(-1)

    def features(self, z: np.ndarray, pose: np.ndarray) -> np.ndarray:
        return self.m_id @ z + self.m_pose @ pose

    def keypoints(self, z: np.ndarray, pose: np.ndarray) -> np.ndarray:
        return (self.template
                + self.params.pose_keypoint_scale * (self.a_pose @ pose)
                + self.params.identity_keypoint_scale * (self.b_id @ z))


def generate(params: GeneratorParams) -> SplitDataset:
    """Draw the benchmark deterministically from params.seed. Both splits
    list the identities in order, each in one random order of its draws."""
    rng = np.random.default_rng(params.seed)
    model = LatentModel(params, rng)
    k, n_per = params.num_identities, params.samples_per_identity
    d, kc = params.input_dim, params.num_keypoint_coords
    feats, kps = np.empty((k, n_per, d)), np.empty((k, n_per, kc))
    rows = np.empty((k, n_per), dtype=np.int64)
    for identity in range(k):
        z = rng.normal(size=params.latent_dim)
        for j in range(n_per):
            pose = rng.normal(size=params.pose_dim)
            feats[identity, j] = model.features(z, pose) + params.noise_std * rng.normal(size=d)
            kps[identity, j] = model.keypoints(z, pose) + params.noise_std * rng.normal(size=kc)
        rows[identity] = identity * n_per + rng.permutation(n_per)
    feats, kps = feats.reshape(k * n_per, d), kps.reshape(k * n_per, kc)
    ids = np.repeat(np.arange(k, dtype=np.int64), n_per)
    n_train, _ = params.split_sizes
    train, test = rows[:, :n_train].ravel(), rows[:, n_train:].ravel()
    return SplitDataset(Split(feats[train], ids[train], kps[train]),
                        Split(feats[test], ids[test], kps[test]))


def _ids_by_identity(ids: np.ndarray) -> dict[int, list[int]]:
    """Row indices per identity, identities in order of first appearance."""
    groups: dict[int, list[int]] = {}
    for i, identity in enumerate(ids.tolist()):
        groups.setdefault(identity, []).append(i)
    return groups


def _bounded_draws(rng: np.random.Generator, chunk: int):
    """``draw(bound)`` equal to ``int(rng.integers(bound))`` call for call.

    numpy's Generator maps one 32-bit word ``w`` to ``(w * bound) >> 32``
    for a scalar ``integers(bound)`` with ``bound <= 2**32`` (Lemire's
    multiply-shift), drawing again while the low 32 bits of the product fall
    below ``2**32 % bound``; a bound of 1 draws no word. The words are those
    of ``rng.integers(0, 2**32, size=k, dtype=np.uint64)``, so they are drawn
    here in bulk, ``chunk`` at a time, and replayed without a numpy call per
    draw. ``tests/test_data.py`` pins the equality on the installed numpy.
    """
    words: list[int] = []
    pos = 0

    def draw(bound: int) -> int:
        nonlocal words, pos
        if not 1 <= bound <= 1 << 32:
            raise ValueError(f"bound must lie in [1, 2**32], got {bound}")
        if bound == 1:
            return 0
        threshold = (1 << 32) % bound
        while True:
            if pos == len(words):
                words = rng.integers(0, 1 << 32, size=chunk, dtype=np.uint64).tolist()
                pos = 0
            m = words[pos] * bound
            pos += 1
            if m & 0xFFFF_FFFF >= threshold:
                return m >> 32

    return draw


def make_triplets(split: Split, count: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Uniform (anchor, positive, negative) row-index triples over ``split``.

    Anchor and positive share an identity and differ as samples; the
    negative comes from a different identity.
    """
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    groups = _ids_by_identity(split.ids)
    if len(groups) < 2:
        raise ValueError("triplets need at least two identities")
    for identity, idx in groups.items():
        if len(idx) < 2:
            raise ValueError(f"identity {identity} has fewer than 2 samples; cannot form positives")
    # the draws replay the scalar rng.integers calls of this seed; a triple
    # takes about three words, so one bulk draw nearly always suffices
    draw = _bounded_draws(np.random.default_rng(seed), 4 * count + 16)
    identities = split.ids.tolist()
    n = len(split)
    triples = []
    for _ in range(count):
        a = draw(n)
        own = groups[identities[a]]
        p = a
        while p == a:
            p = own[draw(len(own))]
        neg = a
        while identities[neg] == identities[a]:
            neg = draw(n)
        triples.append((a, p, neg))
    anchors, positives, negatives = np.array(triples, dtype=np.int64).reshape(count, 3).T
    return anchors, positives, negatives


def make_pairs(split: Split, count_per_class: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-index pairs for pair verification: ``count_per_class``
    same-identity pairs and as many different-identity pairs, shapes (count, 2)."""
    if count_per_class < 1:
        raise ValueError("count_per_class must be positive")
    groups = _ids_by_identity(split.ids)
    if len(groups) < 2:
        raise ValueError("pairs need at least two identities")
    multi = [idx for idx in groups.values() if len(idx) >= 2]
    if not multi:
        raise ValueError("no identity has 2 samples; cannot form same-identity pairs")
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


def save_dataset(ds: SplitDataset, path) -> None:
    """Plain-text container: a header line, then one line per row (split
    flag, identity, features, keypoints), train rows first; floats print
    with shortest round-trip repr. Rows are formatted and written one at a
    time, so the write holds one line of text, never the whole file."""
    n = len(ds.train) + len(ds.test)
    if not n:
        raise ValueError("refusing to save an empty dataset")
    input_dim, kc = ds.train.features.shape[1], ds.train.keypoints.shape[1]
    with atomic_write(path, "w") as fh:
        fh.write(f"{_FORMAT_NAME} {_FORMAT_VERSION} {n} {input_dim} {kc}\n")
        for flag, split in (("train", ds.train), ("test", ds.test)):
            for identity, feats, kps in zip(split.ids.tolist(), split.features, split.keypoints):
                fh.write(" ".join([flag, str(identity), *map(repr, feats.tolist()),
                                   *map(repr, kps.tolist())]) + "\n")


def load_dataset(path) -> SplitDataset:
    """Inverse of save_dataset. A file that is malformed or truncated, or
    that leaves a split without rows, raises ValueError."""
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 5 or header[0] != _FORMAT_NAME or header[1] != _FORMAT_VERSION:
            raise ValueError(f"{path}:1: bad header; expected '{_FORMAT_NAME} {_FORMAT_VERSION} "
                             "<num_samples> <input_dim> <num_keypoint_coords>'")
        try:
            n, input_dim, kc = (int(tok) for tok in header[2:])
        except ValueError as exc:
            raise ValueError(f"{path}:1: non-integer header counts") from exc
        if input_dim < 1 or kc < 0:
            raise ValueError(f"{path}:1: input_dim must be positive and num_keypoint_coords "
                             f"nonnegative, got {input_dim} and {kc}")
        is_train: list[bool] = []
        ids: list[int] = []
        rows: list[np.ndarray] = []
        for lineno, raw in enumerate(fh, start=2):
            if not raw.strip():
                continue
            if not raw.endswith("\n"):  # save_dataset ends every line
                raise ValueError(f"{path}:{lineno}: truncated line")
            tok = raw.split()
            if len(tok) != 2 + input_dim + kc:
                raise ValueError(f"{path}:{lineno}: expected {2 + input_dim + kc} fields, got {len(tok)}")
            if tok[0] not in ("train", "test"):
                raise ValueError(f"{path}:{lineno}: unknown split flag {tok[0]!r}")
            try:
                ids.append(int(tok[1]))
                rows.append(np.fromiter(map(float, tok[2:]), np.float64, len(tok) - 2))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: unparseable number: {exc}") from exc
            if not 0 <= ids[-1] < 2 ** 31:
                raise ValueError(f"{path}:{lineno}: identity {ids[-1]} out of range")
            is_train.append(tok[0] == "train")
    if len(ids) != n:
        raise ValueError(f"{path}: header declares {n} samples, file holds {len(ids)}")
    is_train = np.array(is_train, dtype=bool)
    for flag, take in (("train", is_train), ("test", ~is_train)):
        if not take.any():
            raise ValueError(f"{path}: no {flag} rows")
    table, ids = np.stack(rows), np.array(ids)
    if not np.isfinite(table).all():
        raise ValueError(f"{path}: non-finite value in data row {np.isfinite(table).all(1).argmin() + 1}")
    return SplitDataset(*(Split(table[take, :input_dim], ids[take], table[take, input_dim:])
                          for take in (is_train, ~is_train)))
