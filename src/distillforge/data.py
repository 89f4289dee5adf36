"""Synthetic identity/pose benchmark generator, its text container and sidecar.

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

The text is the only source of truth. ``save_dataset`` alone also writes the
sidecar ``<path>.bin``, the split arrays in binary under the text's sha256,
which ``load_dataset`` reads instead of parsing the text while they match. A
missing, stale or damaged sidecar only costs the parse: it is safe to delete.
The parse is one ``np.loadtxt`` call, which reads each number to the double
``float()`` gives, and then checks whole columns.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from ._atomic import atomic_write
from ._schema import check_fields, setting

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
_SIDECAR_MAGIC = b"distillforge-dataset-cache v1\n"
_SIDECAR_KEYS = ("input_dim", "n_test", "n_train", "num_keypoint_coords", "text_sha256")


@dataclass(frozen=True)
class GeneratorParams:
    num_identities: int = setting(int, 32, ge=2)
    samples_per_identity: int = setting(int, 50, ge=2)
    input_dim: int = setting(int, 64, ge=1)
    latent_dim: int = setting(int, 8, ge=1)
    pose_dim: int = setting(int, 4, ge=1)
    num_keypoints: int = setting(int, 5, ge=1)
    identity_keypoint_scale: float = setting(float, 0.1, ge=0)
    pose_keypoint_scale: float = setting(float, 1.0, gt=0)
    noise_std: float = setting(float, 0.1, ge=0)
    seed: int = setting(int, 0, ge=0)

    def __post_init__(self):
        check_fields(self)
        if self.pose_keypoint_scale <= self.identity_keypoint_scale:
            raise ValueError(
                "pose_keypoint_scale must exceed identity_keypoint_scale "
                f"(got {self.pose_keypoint_scale} vs {self.identity_keypoint_scale}): "
                "keypoints are a pose-dominated signal")

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

    def observe(self, z: np.ndarray, poses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Noise-free features and keypoints of identity ``z`` in each of
        ``poses``, one row per pose. The identity terms are computed once;
        each pose gets its own matrix-vector products, so a row is bitwise
        what one sample drawn alone gives."""
        m_z = self.m_id @ z
        b_z = self.params.identity_keypoint_scale * (self.b_id @ z)
        feats = np.array([m_z + self.m_pose @ pose for pose in poses])
        kps = np.array([self.template + self.params.pose_keypoint_scale * (self.a_pose @ pose) + b_z
                        for pose in poses])
        return feats, kps


def generate(params: GeneratorParams) -> SplitDataset:
    """Draw the benchmark deterministically from params.seed. Both splits
    list the identities in order, each in one random order of its draws."""
    rng = np.random.default_rng(params.seed)
    model = LatentModel(params, rng)
    k, n_per = params.num_identities, params.samples_per_identity
    p, d, kc = params.pose_dim, params.input_dim, params.num_keypoint_coords
    feats, kps = np.empty((k, n_per, d)), np.empty((k, n_per, kc))
    rows = np.empty((k, n_per), dtype=np.int64)
    for identity in range(k):
        z = rng.normal(size=params.latent_dim)
        # one draw, in the stream order of per-sample pose, feature noise, keypoint noise
        draws = rng.normal(size=(n_per, p + d + kc))
        clean_feats, clean_kps = model.observe(z, draws[:, :p])
        feats[identity] = clean_feats + params.noise_std * draws[:, p:p + d]
        kps[identity] = clean_kps + params.noise_std * draws[:, p + d:]
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
    # replays the scalar rng.integers calls; a pair of pairs takes about five words
    draw = _bounded_draws(np.random.default_rng(seed), 6 * count_per_class + 16)
    identities = split.ids.tolist()
    n = len(split)
    same, diff = [], []
    for _ in range(count_per_class):
        idx = multi[draw(len(multi))]
        i = idx[draw(len(idx))]
        j = i
        while j == i:
            j = idx[draw(len(idx))]
        same.append((i, j))
        i = draw(n)
        j = i
        while identities[j] == identities[i]:
            j = draw(n)
        diff.append((i, j))
    return np.array(same, dtype=np.int64), np.array(diff, dtype=np.int64)


def save_dataset(ds: SplitDataset, path) -> None:
    """Plain-text container: a header line, then one line per row (split
    flag, identity, features, keypoints), train rows first; floats print
    with shortest round-trip repr. Rows are formatted and written one at a
    time, so the write holds one line of text, never the whole file. Then the
    sidecar: a magic line, a JSON header of the text's sha256 and the counts,
    and the train then test ids, features and keypoints, little-endian."""
    n = len(ds.train) + len(ds.test)
    if not n:
        raise ValueError("refusing to save an empty dataset")
    input_dim, kc = ds.train.features.shape[1], ds.train.keypoints.shape[1]
    rows = (" ".join([flag, str(identity), *map(repr, feats.tolist()), *map(repr, kps.tolist())])
            for flag, split in (("train", ds.train), ("test", ds.test))
            for identity, feats, kps in zip(split.ids.tolist(), split.features, split.keypoints))
    digest = hashlib.sha256()
    with atomic_write(path, "wb") as fh:
        for line in itertools.chain([f"{_FORMAT_NAME} {_FORMAT_VERSION} {n} {input_dim} {kc}"], rows):
            data = f"{line}\n".encode()
            digest.update(data)
            fh.write(data)
    header = {"text_sha256": digest.hexdigest(), "n_train": len(ds.train), "n_test": len(ds.test),
              "input_dim": input_dim, "num_keypoint_coords": kc}
    with atomic_write(f"{os.fspath(path)}.bin", "wb") as fh:
        fh.write(_SIDECAR_MAGIC + json.dumps(header, sort_keys=True).encode() + b"\n")
        for split in (ds.train, ds.test):
            for array, dtype in ((split.ids, "<i8"), (split.features, "<f8"), (split.keypoints, "<f8")):
                fh.write(np.ascontiguousarray(array, dtype=dtype).data)


def _load_sidecar(path) -> SplitDataset | None:
    """The dataset ``<path>.bin`` holds, or None unless it is well-formed, was
    written with the text ``path`` holds now and passes the text's checks."""
    try:
        with open(f"{os.fspath(path)}.bin", "rb") as fh, open(path, "rb") as text:
            magic, header = fh.readline(len(_SIDECAR_MAGIC)), json.loads(fh.readline(256))
            if magic != _SIDECAR_MAGIC or not isinstance(header, dict) or header.keys() != {*_SIDECAR_KEYS}:
                return None
            *counts, text_sha256 = (header[key] for key in _SIDECAR_KEYS)
            input_dim, n_test, n_train, kc = counts
            if any(type(c) is not int for c in counts) or min(input_dim, n_test, n_train) < 1 or kc < 0:
                return None
            # sized before reading, so a corrupt header never asks for a huge read
            if os.fstat(fh.fileno()).st_size - fh.tell() != 8 * (n_train + n_test) * (1 + input_dim + kc):
                return None
            first, chunk = text.readline(256), bytearray(1 << 20)  # the text is never held whole
            digest = hashlib.sha256(first)
            while size := text.readinto(chunk):
                digest.update(memoryview(chunk)[:size])
            del chunk  # freed before the arrays are read
            text_header = f"{_FORMAT_NAME} {_FORMAT_VERSION} {n_train + n_test} {input_dim} {kc}\n"
            if digest.hexdigest() != text_sha256 or first != text_header.encode():
                return None
            splits = []
            for n in (n_train, n_test):
                ids = np.fromfile(fh, "<i8", n)
                features, keypoints = (np.fromfile(fh, "<f8", n * w).reshape(n, w) for w in (input_dim, kc))
                if not (((ids >= 0) & (ids < 2 ** 31)).all() and np.isfinite(features).all()
                        and np.isfinite(keypoints).all()):
                    return None
                splits.append(Split(features, ids, keypoints))
    except (OSError, ValueError):
        return None
    return SplitDataset(*splits)


def load_dataset(path) -> SplitDataset:
    """Inverse of save_dataset: the sidecar's arrays when ``_load_sidecar``
    accepts them, else the text parse. A text file that is malformed or
    truncated, or that leaves a split without rows, raises ValueError."""
    return _load_sidecar(path) or _parse_text(path)


def _parse_text(path) -> SplitDataset:
    with open(path, "rb") as fh:
        header = fh.readline().split()
        if len(header) != 5 or header[:2] != [_FORMAT_NAME.encode(), _FORMAT_VERSION.encode()]:
            raise ValueError(f"{path}:1: bad header; expected '{_FORMAT_NAME} {_FORMAT_VERSION} "
                             "<num_samples> <input_dim> <num_keypoint_coords>'")
        try:
            n, input_dim, kc = (int(tok) for tok in header[2:])
        except ValueError as exc:
            raise ValueError(f"{path}:1: non-integer header counts") from exc
        if input_dim < 1 or kc < 0:
            raise ValueError(f"{path}:1: input_dim must be positive and num_keypoint_coords "
                             f"nonnegative, got {input_dim} and {kc}")
        # a 6-character flag, so a longer token than 'train' never truncates to a valid one
        row = np.dtype([("flag", "U6"), ("id", np.int64), ("values", np.float64, (input_dim + kc,))])
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # no rows: refused by the count check
                rows = np.loadtxt(fh, row, comments=None, ndmin=1)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
        fh.seek(-1, os.SEEK_END)
        if fh.read(1) != b"\n":  # save_dataset ends every line
            raise ValueError(f"{path}: truncated last line")
    if len(rows) != n:
        raise ValueError(f"{path}: header declares {n} samples, file holds {len(rows)}")
    flags, ids, table = rows["flag"], rows["id"], rows["values"]
    is_train = flags == "train"
    for what, column, bad in (("unknown split flag {!r}", flags, ~is_train & (flags != "test")),
                              ("identity {} out of range", ids, (ids < 0) | (ids >= 2 ** 31))):
        if bad.any():
            raise ValueError(f"{path}: {what.format(column[bad].tolist()[0])} in data row {bad.argmax() + 1}")
    if not np.isfinite(table).all():
        raise ValueError(f"{path}: non-finite value in data row {np.isfinite(table).all(1).argmin() + 1}")
    if is_train.all() or not is_train.any():  # each split needs a row
        raise ValueError(f"{path}: no {'test' if is_train.any() else 'train'} rows")
    return SplitDataset(*(Split(table[take, :input_dim], ids[take], table[take, input_dim:])
                          for take in (is_train, ~is_train)))
