"""Fully-connected trunk networks with a class head and a regression head.

A network standardizes its input per feature, applies ReLU layers whose
widths are the (optionally divided) hidden widths followed by the
embedding width, and reads two affine heads off the final embedding: class
logits and a keypoint regression. Compressed students divide only the
hidden widths (ceil division); the embedding width and both head widths
stay fixed so teacher and student embeddings and logits remain directly
comparable.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, fields, replace
from typing import NamedTuple

import numpy as np

from . import tensor as tc
from ._atomic import atomic_write
from ._schema import check_fields, setting
from .tensor import Tensor

__all__ = [
    "NetworkSpec",
    "NetworkOutputs",
    "Network",
    "build",
    "clone",
    "save_network",
    "load_network",
    "num_parameters",
]

_CKPT_MAGIC = "distillforge-ckpt v1"


@dataclass(frozen=True)
class NetworkSpec:
    """Architecture description; width_divisor compresses hidden widths only."""

    input_dim: int = setting(int, ge=1)
    hidden_widths: tuple[int, ...] = setting(int, each=True, nonempty=True, ge=1)
    embedding_dim: int = setting(int, ge=1)
    num_classes: int = setting(int, ge=1)
    num_keypoint_coords: int = setting(int, 0, ge=0)
    width_divisor: int = setting(int, 1, ge=1)

    def __post_init__(self):
        check_fields(self)

    def divided_widths(self) -> tuple[int, ...]:
        """Hidden widths after ceil division by width_divisor; each is >= 1."""
        return tuple(-(-w // self.width_divisor) for w in self.hidden_widths)

    def student(self, divisor: int) -> "NetworkSpec":
        """The same architecture with hidden widths divided by ``divisor``."""
        return replace(self, width_divisor=divisor)

    def layer_dims(self) -> tuple[int, ...]:
        return (self.input_dim, *self.divided_widths(), self.embedding_dim)


class NetworkOutputs(NamedTuple):
    logits: Tensor
    embedding: Tensor
    regression: Tensor


class Network:
    """Parameters plus an input standardizer; forward yields (logits, K, R)."""

    def __init__(self, spec: NetworkSpec, parameters: list[Tensor],
                 norm_mean: np.ndarray, norm_std: np.ndarray):
        self.spec = spec
        self.parameters = parameters
        self.norm_mean = np.asarray(norm_mean, dtype=np.float64)
        self.norm_std = np.asarray(norm_std, dtype=np.float64)
        if self.norm_mean.shape != (spec.input_dim,) or self.norm_std.shape != (spec.input_dim,):
            raise ValueError("normalizer vectors must have shape (input_dim,)")
        if np.any(self.norm_std <= 0):
            raise ValueError("normalizer std entries must be positive")

    def set_normalizer(self, mean, std) -> None:
        mean = np.asarray(mean, dtype=np.float64)
        std = np.asarray(std, dtype=np.float64).copy()
        std[std <= 0] = 1.0  # constant features pass through unscaled
        if mean.shape != (self.spec.input_dim,) or std.shape != (self.spec.input_dim,):
            raise ValueError("normalizer vectors must have shape (input_dim,)")
        self.norm_mean = mean
        self.norm_std = std

    def forward(self, batch) -> NetworkOutputs:
        """Outputs for a constant batch; the input itself never gets a gradient."""
        x = tc.as_tensor(batch)
        if x.requires_grad:
            raise ValueError("forward: the input batch is a constant and must not require a gradient")
        if x.data.ndim != 2 or x.shape[1] != self.spec.input_dim:
            raise ValueError(
                f"forward: expected a batch of shape (B, {self.spec.input_dim}), got {x.shape}")
        return self._forward(self.standardize(x.data))

    def standardize(self, features: np.ndarray) -> np.ndarray:
        """Features standardized by the normalizer, elementwise, so each row of a
        standardized table is bitwise that row standardized alone."""
        return (features - self.norm_mean) * (1.0 / self.norm_std)

    def _forward(self, h, logits: bool = True, regression: bool = True) -> NetworkOutputs:
        """Outputs for standardized rows ``h``; a head not asked for is None.

        The heads run logits first, regression second, right after the trunk,
        so the embedding's gradient accumulates in the same order whichever
        of them runs; a head whose output no objective reads would get no
        gradient, so skipping it changes no bit of any other gradient.
        """
        n_trunk = len(self.parameters) // 2 - 2  # every layer but the two heads
        for i in range(n_trunk):
            h = tc.affine(h, self.parameters[2 * i], self.parameters[2 * i + 1], rectify=True)
        w_cls, b_cls, w_reg, b_reg = self.parameters[2 * n_trunk:]
        return NetworkOutputs(tc.affine(h, w_cls, b_cls, rectify=False) if logits else None, h,
                              tc.affine(h, w_reg, b_reg, rectify=False) if regression else None)


def _layer_shapes(spec: NetworkSpec) -> list[tuple[int, int]]:
    dims = spec.layer_dims()
    shapes = [(dims[i], dims[i + 1]) for i in range(len(dims) - 1)]
    shapes.append((spec.embedding_dim, spec.num_classes))
    shapes.append((spec.embedding_dim, spec.num_keypoint_coords))
    return shapes


def build(spec: NetworkSpec, seed: int) -> Network:
    """Deterministic fan-in-scaled uniform init; biases start at zero.

    The regression head starts at zero outright: unbounded squared-error
    targets through a random head otherwise produce an initial kick
    (several times the target variance) that, momentum-amplified, shuts
    down entire rectifier layers for good. A zero head reads the trunk
    first and feeds gradient into it only as its own weights grow.
    """
    rng = np.random.default_rng(seed)
    shapes = _layer_shapes(spec)
    params: list[Tensor] = []
    for i, (fan_in, fan_out) in enumerate(shapes):
        if i == len(shapes) - 1:
            w = np.zeros((fan_in, fan_out))
        else:
            limit = math.sqrt(6.0 / fan_in)
            w = rng.uniform(-limit, limit, size=(fan_in, fan_out))
        params.append(Tensor(w, requires_grad=True))
        params.append(Tensor(np.zeros(fan_out), requires_grad=True))
    return Network(spec, params, np.zeros(spec.input_dim), np.ones(spec.input_dim))


def clone(src: Network) -> Network:
    """A value copy: identical outputs, no storage shared with ``src``."""
    params = [Tensor(p.data.copy(), requires_grad=True) for p in src.parameters]
    return Network(src.spec, params, src.norm_mean.copy(), src.norm_std.copy())


def num_parameters(net: Network) -> int:
    return sum(p.size for p in net.parameters)


def save_network(net: Network, path) -> None:
    """Write a versioned checkpoint that round-trips bit-exactly."""
    header = {"spec": asdict(net.spec),
              "param_shapes": [list(p.shape) for p in net.parameters]}
    with atomic_write(path, "wb") as fh:
        fh.write(_CKPT_MAGIC.encode() + b"\n")
        fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        fh.write(net.norm_mean.astype("<f8").tobytes())
        fh.write(net.norm_std.astype("<f8").tobytes())
        for p in net.parameters:
            fh.write(np.ascontiguousarray(p.data, dtype="<f8").tobytes())


def _header_spec(header) -> tuple[NetworkSpec, list[tuple[int, ...]]]:
    """The spec and parameter shapes a checkpoint header declares; ``NetworkSpec``
    checks each spec value."""
    def ints(values) -> bool:
        return isinstance(values, list) and all(type(v) is int for v in values)

    spec = header.get("spec") if isinstance(header, dict) else None
    if (not isinstance(spec, dict) or sorted(spec) != sorted(f.name for f in fields(NetworkSpec))
            or not isinstance(header.get("param_shapes"), list)
            or not all(ints(shape) for shape in header["param_shapes"])):
        raise ValueError("malformed checkpoint header")
    return NetworkSpec(**spec), [tuple(shape) for shape in header["param_shapes"]]


def load_network(path) -> Network:
    """Read a checkpoint, its payload straight into one float buffer that the
    parameters view (the normalizer is copied out, so parameters moved
    elsewhere free it); malformed content raises a ValueError naming the file."""
    try:
        with open(path, "rb") as fh:
            magic = fh.readline().rstrip(b"\n").decode(errors="replace")
            if magic != _CKPT_MAGIC:
                raise ValueError(f"not a network checkpoint (header {magic!r}, expected {_CKPT_MAGIC!r})")
            try:
                header = json.loads(fh.readline().decode())
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ValueError(f"corrupt checkpoint header: {exc}") from exc
            spec, shapes = _header_spec(header)
            if shapes != [s for fan_in, fan_out in _layer_shapes(spec)
                          for s in ((fan_in, fan_out), (fan_out,))]:
                raise ValueError("parameter shapes do not match the declared spec")
            shapes = [(spec.input_dim,), (spec.input_dim,), *shapes]
            sizes = [math.prod(shape) for shape in shapes]
            # sized before reading, so a corrupt header never asks for a huge read
            left = os.fstat(fh.fileno()).st_size - fh.tell()
            if left != 8 * sum(sizes):
                raise ValueError("truncated checkpoint" if left < 8 * sum(sizes)
                                 else "trailing bytes after checkpoint payload")
            flat = np.fromfile(fh, dtype="<f8", count=sum(sizes))
        if not np.isfinite(flat).all():
            raise ValueError("non-finite value in checkpoint payload")
        mean, std, *params = (a.reshape(shape)
                              for a, shape in zip(np.split(flat, np.cumsum(sizes)[:-1]), shapes))
        return Network(spec, [Tensor(p, requires_grad=True) for p in params], mean.copy(), std.copy())
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
