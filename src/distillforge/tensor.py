"""Dense float64 tensors with tape-based reverse-mode differentiation.

Every array is a row-major numpy float64 buffer. Operations run eagerly.
Each op states its value and one gradient rule per input, and records them
by one rule (``_record``): when a Tape is active (``with Tape(): ...``) and
some input requires a gradient, the op appends one entry to the tape. Calling
``backward`` on a scalar loss replays the tape in reverse; each entry adds
``rule(g)`` to the gradient of every input that requires one, in the order
the op lists them. The tape is rebuilt on every forward pass; a tape can be
consumed by backward exactly once.

Broadcasting is deliberately narrow: two operands must have equal shapes,
or one of them is a scalar, or one is a length-n vector combined with an
(m, n) matrix (per-row broadcast). Anything else is a shape error.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "active_tape",
    "as_tensor",
    "detach",
    "backward",
    "add",
    "sub",
    "mul",
    "div_scalar",
    "matmul",
    "affine",
    "relu",
    "log",
    "clamp_min",
    "softmax_rows",
    "tsum",
    "sum_rows",
    "mean",
    "take_rows",
    "softmax_cross_entropy",
    "squared_error_mean",
    "triplet_hinge",
    "grad_check",
    "GradCheckResult",
]


class Tensor:
    """A dense float64 array plus an optional gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad", "_tape")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._tape: "Tape | None" = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() requires a single-element tensor, got shape {self.shape}")
        return self.data.item()

    def detach(self) -> "Tensor":
        """A no-gradient view of the same values."""
        return Tensor(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


_STACK: list["Tape"] = []  # the active tapes, innermost last


class Tape:
    """Ordered record of one forward pass, replayed in reverse by backward."""

    def __init__(self):
        self._entries: list[tuple[Tensor, Callable[[np.ndarray], None]]] = []
        self._spent = False

    def __enter__(self) -> "Tape":
        _STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        top = _STACK.pop()
        if top is not self:  # pragma: no cover - misuse guard
            raise RuntimeError("tape stack corrupted: exited a tape that is not innermost")

    def __len__(self) -> int:
        return len(self._entries)

    def record(self, out: Tensor, backward_fn: Callable[[np.ndarray], None]) -> None:
        self._entries.append((out, backward_fn))


def active_tape() -> Tape | None:
    return _STACK[-1] if _STACK else None


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def detach(x) -> Tensor:
    return as_tensor(x).detach()


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if t.grad is None:
        # one allocation; bitwise zeros_like(g) + g, so -0.0 becomes +0.0
        t.grad = np.asarray(g + 0.0)
    else:
        t.grad += g


def backward(loss: Tensor) -> None:
    """Accumulate gradients of a scalar loss into every recorded tensor.

    The loss must come from a forward pass recorded on a tape, and that
    tape may be consumed only once; rerun the forward pass to differentiate
    again.
    """
    if not isinstance(loss, Tensor):
        raise TypeError(f"backward expects a Tensor, got {type(loss).__name__}")
    if loss.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
    tape = loss._tape
    if tape is None:
        raise ValueError("loss was not produced under an active Tape; nothing to differentiate")
    if tape._spent:
        raise RuntimeError("this tape was already consumed by backward; rerun the forward pass")
    tape._spent = True
    loss.grad = np.ones_like(loss.data)
    for out, fn in reversed(tape._entries):
        g = out.grad
        if g is None:
            continue
        fn(g)
    # the records and their tensors' _tape form a cycle: break it to free the graph now
    tape._entries.clear()


def _maybe_record(out: Tensor, inputs: tuple[Tensor, ...], backward_fn) -> Tensor:
    tape = active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out._tape = tape
        tape.record(out, backward_fn)
    return out


def _record(value: np.ndarray, *rules: tuple[Tensor, Callable[[np.ndarray], np.ndarray]]) -> Tensor:
    """``value`` as a tensor whose backward adds ``rule(g)`` to the gradient
    of each ``(input, rule)`` input that requires one, in the order given."""
    def backward_fn(g: np.ndarray) -> None:
        for t, rule in rules:
            if t.requires_grad:
                _accumulate(t, rule(g))

    return _maybe_record(Tensor(value), tuple(t for t, _ in rules), backward_fn)


# Elementwise arithmetic -----------------------------------------------------

def _check_broadcast(a: np.ndarray, b: np.ndarray, op: str) -> None:
    # allowed: equal shapes, scalar operand, or (m, n) with (n,) per-row
    if a.shape == b.shape:
        return
    if a.ndim == 0 or b.ndim == 0:
        return
    if a.ndim == 2 and b.ndim == 1 and a.shape[1] == b.shape[0]:
        return
    if b.ndim == 2 and a.ndim == 1 and b.shape[1] == a.shape[0]:
        return
    raise ValueError(f"{op}: shapes {a.shape} and {b.shape} are not compatible "
                     "(equal, scalar, or per-row vector only)")


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if g.shape == shape:
        return g
    if shape == ():
        return np.asarray(g.sum())
    # (m, n) gradient reduced onto (n,) operand
    return g.sum(axis=0)


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a.data, b.data, "add")
    return _record(a.data + b.data, (a, lambda g: _unbroadcast(g, a.data.shape)),
                   (b, lambda g: _unbroadcast(g, b.data.shape)))


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a.data, b.data, "sub")
    return _record(a.data - b.data, (a, lambda g: _unbroadcast(g, a.data.shape)),
                   (b, lambda g: -_unbroadcast(g, b.data.shape)))


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a.data, b.data, "mul")
    ad, bd = a.data, b.data
    return _record(ad * bd, (a, lambda g: _unbroadcast(g * bd, ad.shape)),
                   (b, lambda g: _unbroadcast(g * ad, bd.shape)))


def div_scalar(a, s: float) -> Tensor:
    """a / s for a python scalar s (s == 0 is a domain error)."""
    a = as_tensor(a)
    s = float(s)
    if s == 0.0:
        raise ValueError("div_scalar: division by zero")
    return _record(a.data / s, (a, lambda g: g / s))


# Linear algebra ---------------------------------------------------------------

def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    ad, bd = a.data, b.data
    if ad.ndim != 2 or bd.ndim != 2 or ad.shape[1] != bd.shape[0]:
        raise ValueError(f"matmul: shapes {ad.shape} and {bd.shape} do not align")
    return _record(ad @ bd, (a, lambda g: g @ bd.T), (b, lambda g: ad.T @ g))


def affine(h, w, b, rectify: bool) -> Tensor:
    """h @ w + b, then max(., 0) when ``rectify``, as one tape entry.

    Values and gradients are bitwise those of relu(add(matmul(h, w), b))
    (or add(matmul(h, w), b)): the same float operations in the same order.
    """
    h, w, b = as_tensor(h), as_tensor(w), as_tensor(b)
    hd, wd, bd = h.data, w.data, b.data
    if hd.ndim != 2 or wd.ndim != 2 or hd.shape[1] != wd.shape[0]:
        raise ValueError(f"affine: shapes {hd.shape} and {wd.shape} do not align")
    z = hd @ wd
    _check_broadcast(z, bd, "affine")
    z += bd
    out = Tensor(np.maximum(z, 0.0) if rectify else z)

    def backward_fn(g: np.ndarray) -> None:
        if rectify:
            g = g * (z > 0.0)  # subgradient 0 at the kink
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, bd.shape))
        if h.requires_grad:
            _accumulate(h, g @ wd.T)
        if w.requires_grad:
            _accumulate(w, hd.T @ g)

    return _maybe_record(out, (h, w, b), backward_fn)


# Nonlinearities ---------------------------------------------------------------

def relu(a) -> Tensor:
    a = as_tensor(a)
    ad = a.data
    return _record(np.maximum(ad, 0.0), (a, lambda g: g * (ad > 0.0)))  # subgradient 0 at the kink


def log(a) -> Tensor:
    a = as_tensor(a)
    ad = a.data
    if np.any(ad <= 0.0):
        raise ValueError("log: inputs must be strictly positive (clamp first)")
    return _record(np.log(ad), (a, lambda g: g / ad))


def clamp_min(a, floor: float) -> Tensor:
    """max(a, floor) elementwise; gradient 0 wherever the floor is active."""
    a = as_tensor(a)
    ad = a.data
    floor = float(floor)
    return _record(np.maximum(ad, floor), (a, lambda g: g * (ad > floor)))


def softmax_rows(a) -> Tensor:
    """Row-wise softmax of a 2-D tensor, stabilized by max subtraction."""
    a = as_tensor(a)
    ad = a.data
    if ad.ndim != 2:
        raise ValueError(f"softmax_rows: expected a 2-D tensor, got shape {ad.shape}")
    y = _softmax(ad)
    return _record(y, (a, lambda g: _softmax_grad(y, g)))


def _softmax(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _softmax_grad(y: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The gradient reaching softmax_rows' input from g at its output y."""
    return y * (g - (g * y).sum(axis=1, keepdims=True))


# Reductions -------------------------------------------------------------------

def tsum(a) -> Tensor:
    """Sum of all elements, as a 0-d tensor."""
    a = as_tensor(a)
    return _record(a.data.sum(), (a, lambda g: np.broadcast_to(g, a.data.shape).copy()))


def sum_rows(a) -> Tensor:
    """Per-row sum of a 2-D tensor: (m, n) -> (m,)."""
    a = as_tensor(a)
    if a.data.ndim != 2:
        raise ValueError(f"sum_rows: expected a 2-D tensor, got shape {a.shape}")
    return _record(a.data.sum(axis=1), (a, lambda g: np.repeat(g[:, None], a.data.shape[1], axis=1)))


def mean(a) -> Tensor:
    """Mean of all elements, as a 0-d tensor."""
    a = as_tensor(a)
    n = a.data.size
    if n == 0:
        raise ValueError("mean: empty tensor")
    return _record(a.data.mean(), (a, lambda g: np.broadcast_to(g / n, a.data.shape).copy()))


def _row_indices(indices, n_rows: int, op: str) -> np.ndarray:
    idx = np.asarray(indices)
    if idx.ndim != 1 or not np.issubdtype(idx.dtype, np.integer):
        raise ValueError(f"{op}: indices must be a 1-D integer array")
    if idx.size and (idx.min() < 0 or idx.max() >= n_rows):
        raise IndexError(f"{op}: index out of range for {n_rows} rows")
    return idx


def take_rows(a, indices) -> Tensor:
    """Gather rows of a 2-D tensor; duplicate indices accumulate in backward."""
    a = as_tensor(a)
    if a.data.ndim != 2:
        raise ValueError(f"take_rows: expected a 2-D tensor, got shape {a.shape}")
    idx = _row_indices(indices, a.data.shape[0], "take_rows")

    def rule(g: np.ndarray) -> np.ndarray:
        acc = np.zeros_like(a.data)
        np.add.at(acc, idx, g)
        return acc

    return _record(a.data[idx], (a, rule))


# Fused objective terms ----------------------------------------------------------
# Each is one tape entry that runs its unfused chain's float operations in the
# chain's order. The chain also adds 0.0 to every gradient it first stores in
# an intermediate tensor, which only turns -0.0 into +0.0; a zero's sign never
# changes a nonzero result of these operations, and the accumulation into the
# inputs' gradients makes every zero +0.0, so values and gradients match the
# chain bitwise.

def softmax_cross_entropy(logits, target, tau: float, floor: float) -> Tensor:
    """Batch mean of -sum_k target_k * ln(max(p_k, floor)) with p = softmax(logits / tau),
    as one tape entry.

    The target is a constant: no gradient reaches it. Values and gradients are
    bitwise those of the unfused chain mul(tsum(mul(detach(target), log(clamp_min(p,
    floor)))), -1 / batch) with p = softmax_rows(div_scalar(logits, tau)), or with
    p = softmax_rows(logits) at tau = 1 (x / 1 is x).
    """
    logits = as_tensor(logits)
    ld, q = logits.data, as_tensor(target).data
    if ld.shape != q.shape or ld.ndim != 2:
        raise ValueError(f"softmax_cross_entropy: need matching 2-D shapes, got {ld.shape} and {q.shape}")
    tau, floor = float(tau), float(floor)
    if not (tau > 0.0 and floor > 0.0):
        raise ValueError(f"softmax_cross_entropy: tau and floor must be positive, got {tau} and {floor}")
    p = _softmax(ld / tau)
    scale = -1.0 / ld.shape[0]
    clamped = np.maximum(p, floor)
    return _record((q * np.log(clamped)).sum() * scale,
                   (logits, lambda g: _softmax_grad(p, g * scale * q / clamped * (p > floor)) / tau))


def squared_error_mean(pred, target) -> Tensor:
    """sum((pred - target) ** 2) / rows for 2-D operands, as one tape entry.

    Values and gradients are bitwise those of the unfused chain
    div_scalar(tsum(mul(d, d)), rows) with d = sub(pred, target).
    """
    pred, target = as_tensor(pred), as_tensor(target)
    pd, td = pred.data, target.data
    if pd.shape != td.shape or pd.ndim != 2 or not pd.shape[0]:
        raise ValueError(f"squared_error_mean: need matching non-empty 2-D shapes, got {pd.shape} "
                         f"and {td.shape}")
    rows = float(pd.shape[0])
    d = pd - td

    def rule(g: np.ndarray) -> np.ndarray:
        gd = g / rows * d
        return gd + gd  # mul(d, d): the same gradient reaches both operands

    return _record((d * d).sum() / rows, (pred, rule), (target, lambda g: -rule(g)))


def triplet_hinge(emb, anchor, positive, negative, margin: float) -> Tensor:
    """Mean over triplets of max(0, |a - p|^2 - |a - n|^2 + margin), where a, p
    and n are the rows of ``emb`` the three index arrays pick, as one tape entry.

    Values and gradients are bitwise those of the unfused chain
    mean(relu(add(sub(s_ap, s_an), margin))) with s_ap = sum_rows(mul(d, d))
    for d = sub(take_rows(emb, anchor), take_rows(emb, positive)), and s_an
    likewise: the gathered rows' gradients reach ``emb`` in that chain's
    reverse-tape order (negative, positive, anchor), each summed into a
    zeroed buffer first, so duplicate indices accumulate the same way.
    """
    emb = as_tensor(emb)
    ed = emb.data
    if ed.ndim != 2:
        raise ValueError(f"triplet_hinge: expected a 2-D tensor, got shape {ed.shape}")
    ia, ip, in_ = (_row_indices(i, ed.shape[0], "triplet_hinge") for i in (anchor, positive, negative))
    if not ia.shape == ip.shape == in_.shape or not ia.size:
        raise ValueError("triplet_hinge: need one or more triplets, with as many positives and "
                         f"negatives as anchors, got {ia.size}, {ip.size} and {in_.size}")
    a = ed[ia]
    d_ap, d_an = a - ed[ip], a - ed[in_]
    z = (d_ap * d_ap).sum(axis=1) - (d_an * d_an).sum(axis=1) + float(margin)
    out = Tensor(np.maximum(z, 0.0).mean())

    def backward_fn(g: np.ndarray) -> None:
        h = (g / z.size * (z > 0.0))[:, None]  # subgradient 0 at the kink
        g_ap, g_an = h * d_ap, -h * d_an
        g_ap += g_ap  # each squared difference reaches both of its factors
        g_an += g_an
        acc = np.empty_like(ed)
        for idx, rows in ((in_, -g_an), (ip, -g_ap), (ia, g_an + g_ap)):
            acc.fill(0.0)
            np.add.at(acc, idx, rows)
            _accumulate(emb, acc)

    return _maybe_record(out, (emb,), backward_fn)


# Gradient checking ------------------------------------------------------------

@dataclass
class GradCheckResult:
    """Outcome of a finite-difference gradient comparison."""

    passed: bool
    max_rel_error: float
    worst_index: tuple[int, ...] | None

    def __bool__(self) -> bool:
        return self.passed


def grad_check(f, x, step: float = 1e-5, tol: float = 1e-4) -> GradCheckResult:
    """Compare the taped gradient of ``f`` at ``x`` against central differences.

    ``f`` must map one tensor to a scalar tensor and be evaluable without an
    active tape. Relative error per component uses the denominator
    max(|autodiff|, |numeric|, 1), so tiny gradients are compared absolutely.
    """
    x = as_tensor(x)
    probe = Tensor(np.array(x.data, dtype=np.float64, copy=True), requires_grad=True)
    with Tape():
        out = f(probe)
    if not isinstance(out, Tensor) or out.size != 1:
        raise ValueError("grad_check: f must return a scalar tensor")
    if not np.isfinite(out.data).all():
        raise ValueError("grad_check: non-finite value at the base point")
    backward(out)
    g_ad = np.zeros_like(probe.data) if probe.grad is None else probe.grad.copy()

    flat = probe.data.reshape(-1)
    worst = 0.0
    worst_index: tuple[int, ...] | None = None
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        f_plus = f(probe).data.item()
        flat[i] = orig - step
        f_minus = f(probe).data.item()
        flat[i] = orig
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            index = np.unravel_index(i, probe.data.shape)
            raise ValueError(f"grad_check: non-finite evaluation while perturbing index {tuple(index)}")
        g_num = (f_plus - f_minus) / (2.0 * step)
        g_here = g_ad.reshape(-1)[i]
        rel = float(abs(g_here - g_num) / max(abs(g_here), abs(g_num), 1.0))
        if rel > worst:
            worst = rel
            worst_index = tuple(int(k) for k in np.unravel_index(i, probe.data.shape))
    return GradCheckResult(passed=bool(worst <= tol), max_rel_error=worst, worst_index=worst_index)
