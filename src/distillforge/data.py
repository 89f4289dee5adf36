"""Synthetic identity/pose benchmark generator and its text container.

Samples follow a linear-Gaussian latent model. Each identity owns a latent
code z; each sample additionally draws a pose p. Features mix both
(identity is the dominant, class-defining factor), while keypoints sit on
a fixed template displaced mostly by pose and only weakly by identity:

    features  = M_id @ z + M_pose @ p + noise_std * eps
    keypoints = template + pose_scale * (A @ p) + id_scale * (B @ z) + noise_std * eps

Projection matrices are scaled by 1/sqrt(source dim) so the scale knobs
are directly comparable. The train/test split is 80/20 within every
identity.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ._atomic import atomic_write

__all__ = [
    "GeneratorParams",
    "Sample",
    "SplitDataset",
    "LatentModel",
    "generate",
    "as_arrays",
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


@dataclass(eq=False)
class Sample:
    features: np.ndarray
    identity: int
    keypoints: np.ndarray

    def __eq__(self, other):
        if not isinstance(other, Sample):
            return NotImplemented
        return (self.identity == other.identity
                and np.array_equal(self.features, other.features)
                and np.array_equal(self.keypoints, other.keypoints))


@dataclass
class SplitDataset:
    train: list[Sample]
    test: list[Sample]
    generator: GeneratorParams | None = None

    def __eq__(self, other):
        if not isinstance(other, SplitDataset):
            return NotImplemented
        return self.train == other.train and self.test == other.test


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

    @classmethod
    def from_params(cls, params: GeneratorParams) -> "LatentModel":
        return cls(params, np.random.default_rng(params.seed))

    def features(self, z: np.ndarray, pose: np.ndarray) -> np.ndarray:
        return self.m_id @ z + self.m_pose @ pose

    def keypoints(self, z: np.ndarray, pose: np.ndarray) -> np.ndarray:
        return (self.template
                + self.params.pose_keypoint_scale * (self.a_pose @ pose)
                + self.params.identity_keypoint_scale * (self.b_id @ z))


def generate(params: GeneratorParams) -> SplitDataset:
    """Draw the benchmark deterministically from params.seed."""
    rng = np.random.default_rng(params.seed)
    model = LatentModel(params, rng)
    n_per = params.samples_per_identity
    train: list[Sample] = []
    test: list[Sample] = []
    for identity in range(params.num_identities):
        z = rng.normal(size=params.latent_dim)
        samples = []
        for _ in range(n_per):
            pose = rng.normal(size=params.pose_dim)
            feats = model.features(z, pose) + params.noise_std * rng.normal(size=params.input_dim)
            kps = model.keypoints(z, pose) + params.noise_std * rng.normal(size=params.num_keypoint_coords)
            samples.append(Sample(feats, identity, kps))
        order = rng.permutation(n_per)
        n_train = max(1, int(round(0.8 * n_per)))
        for j in order[:n_train]:
            train.append(samples[j])
        for j in order[n_train:]:
            test.append(samples[j])
    return SplitDataset(train, test, params)


def as_arrays(samples: Iterable[Sample]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(features [N,D], identities [N], keypoints [N,KC]) for a sample list."""
    samples = list(samples)
    if not samples:
        raise ValueError("empty sample list")
    feats = np.stack([s.features for s in samples])
    ids = np.array([s.identity for s in samples], dtype=np.int64)
    kps = np.stack([s.keypoints for s in samples])
    return feats, ids, kps


def _ids_by_identity(samples: list[Sample]) -> dict[int, np.ndarray]:
    groups: dict[int, list[int]] = {}
    for i, s in enumerate(samples):
        groups.setdefault(s.identity, []).append(i)
    return {k: np.asarray(v) for k, v in groups.items()}


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


def make_triplets(samples: list[Sample], count: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Uniform (anchor, positive, negative) index triples over ``samples``.

    Anchor and positive share an identity and differ as samples; the
    negative comes from a different identity.
    """
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    groups = _ids_by_identity(samples)
    if len(groups) < 2:
        raise ValueError("triplets need at least two identities")
    for identity, idx in groups.items():
        if idx.size < 2:
            raise ValueError(f"identity {identity} has fewer than 2 samples; cannot form positives")
    # the draws replay the scalar rng.integers calls of this seed; a triple
    # takes about three words, so one bulk draw nearly always suffices
    draw = _bounded_draws(np.random.default_rng(seed), 4 * count + 16)
    identities = [s.identity for s in samples]
    members = {identity: idx.tolist() for identity, idx in groups.items()}
    n = len(samples)
    triples = []
    for _ in range(count):
        a = draw(n)
        own = members[identities[a]]
        p = a
        while p == a:
            p = own[draw(len(own))]
        neg = a
        while identities[neg] == identities[a]:
            neg = draw(n)
        triples.append((a, p, neg))
    anchors, positives, negatives = np.array(triples, dtype=np.int64).reshape(count, 3).T
    return anchors, positives, negatives


def make_pairs(samples: list[Sample], count_per_class: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs for pair verification: ``count_per_class`` same-identity
    pairs and as many different-identity pairs, shapes (count, 2)."""
    if count_per_class < 1:
        raise ValueError("count_per_class must be positive")
    groups = _ids_by_identity(samples)
    if len(groups) < 2:
        raise ValueError("pairs need at least two identities")
    multi = [idx for idx in groups.values() if idx.size >= 2]
    if not multi:
        raise ValueError("no identity has 2 samples; cannot form same-identity pairs")
    rng = np.random.default_rng(seed)
    identities = np.array([s.identity for s in samples])
    n = len(samples)
    same = np.empty((count_per_class, 2), dtype=np.int64)
    diff = np.empty((count_per_class, 2), dtype=np.int64)
    for t in range(count_per_class):
        idx = multi[int(rng.integers(len(multi)))]
        i = int(idx[rng.integers(idx.size)])
        j = i
        while j == i:
            j = int(idx[rng.integers(idx.size)])
        same[t] = (i, j)
        i = int(rng.integers(n))
        j = i
        while identities[j] == identities[i]:
            j = int(rng.integers(n))
        diff[t] = (i, j)
    return same, diff


def save_dataset(ds: SplitDataset, path) -> None:
    """Plain-text container; floats print with shortest round-trip repr."""
    rows = [("train", s) for s in ds.train] + [("test", s) for s in ds.test]
    if not rows:
        raise ValueError("refusing to save an empty dataset")
    input_dim = rows[0][1].features.size
    kc = rows[0][1].keypoints.size
    lines = [f"{_FORMAT_NAME} {_FORMAT_VERSION} {len(rows)} {input_dim} {kc}"]
    for flag, s in rows:
        feats = " ".join(repr(float(v)) for v in s.features)
        kps = " ".join(repr(float(v)) for v in s.keypoints)
        line = f"{flag} {s.identity} {feats}"
        if kc:
            line += f" {kps}"
        lines.append(line)
    with atomic_write(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_dataset(path) -> SplitDataset:
    """Inverse of save_dataset; the generator parameters are not stored, so
    the loaded dataset's ``generator`` is None."""
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 5 or header[0] != _FORMAT_NAME or header[1] != _FORMAT_VERSION:
            raise ValueError(f"{path}:1: bad header; expected '{_FORMAT_NAME} {_FORMAT_VERSION} "
                             "<num_samples> <input_dim> <num_keypoint_coords>'")
        try:
            n, input_dim, kc = (int(tok) for tok in header[2:])
        except ValueError as exc:
            raise ValueError(f"{path}:1: non-integer header counts") from exc
        train: list[Sample] = []
        test: list[Sample] = []
        for lineno, raw in enumerate(fh, start=2):
            if not raw.strip():
                continue
            tok = raw.split()
            if len(tok) != 2 + input_dim + kc:
                raise ValueError(f"{path}:{lineno}: expected {2 + input_dim + kc} fields, got {len(tok)}")
            flag = tok[0]
            if flag not in ("train", "test"):
                raise ValueError(f"{path}:{lineno}: unknown split flag {flag!r}")
            try:
                identity = int(tok[1])
                values = np.array([float(v) for v in tok[2:]])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: unparseable number: {exc}") from exc
            sample = Sample(values[:input_dim], identity, values[input_dim:])
            (train if flag == "train" else test).append(sample)
    if len(train) + len(test) != n:
        raise ValueError(f"{path}: header declares {n} samples, file holds {len(train) + len(test)}")
    return SplitDataset(train, test, None)
