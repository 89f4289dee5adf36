"""Evaluation metrics and the experiment report container.

All metric functions accept numpy arrays or tensors and return python
floats. Nearest-neighbor search is exact brute force; ties resolve to the
lowest index so results are deterministic.
"""
from __future__ import annotations

import json
import math

import numpy as np

__all__ = [
    "top1_accuracy",
    "nrmse",
    "reference_distances",
    "verification_top1",
    "pair_verification_accuracy",
    "MetricsReport",
]


def _as_array(x) -> np.ndarray:
    return np.asarray(getattr(x, "data", x), dtype=np.float64)


def top1_accuracy(logits, labels) -> float:
    """Fraction of rows whose argmax (lowest index on ties) equals the label."""
    logits = _as_array(logits)
    labels = np.asarray(labels)
    if logits.ndim != 2 or labels.shape != (logits.shape[0],):
        raise ValueError(f"top1_accuracy: got logits {logits.shape} and labels {labels.shape}")
    if logits.shape[0] == 0:
        raise ValueError("top1_accuracy: empty batch")
    return float(np.mean(logits.argmax(axis=1) == labels))


_MIN_REFERENCE_DISTANCE = 1e-6  # a shorter reference distance is degenerate


def reference_distances(true_keypoints) -> np.ndarray:
    """Per-sample normalization scale: distance between the first two
    keypoints, with degenerate samples falling back to the dataset mean of
    the valid distances."""
    kp = _as_array(true_keypoints)
    if kp.ndim != 2 or kp.shape[1] < 4:
        raise ValueError(f"reference_distances: keypoint array {kp.shape} lacks reference points")
    d = np.linalg.norm(kp[:, 0:2] - kp[:, 2:4], axis=1)
    valid = d >= _MIN_REFERENCE_DISTANCE
    if not valid.any():
        raise ValueError("reference_distances: every sample is degenerate; no usable scale")
    if not valid.all():
        d = d.copy()
        d[~valid] = d[valid].mean()
    return d


def nrmse(pred_keypoints, true_keypoints, norm_ref) -> float:
    """Mean over samples of (mean per-keypoint Euclidean error) / norm_ref."""
    pred = _as_array(pred_keypoints)
    true = _as_array(true_keypoints)
    if pred.shape != true.shape or pred.ndim != 2 or pred.shape[1] % 2:
        raise ValueError(f"nrmse: need matching (N, 2K) arrays, got {pred.shape} and {true.shape}")
    ref = np.asarray(norm_ref, dtype=np.float64)
    if ref.shape != (pred.shape[0],):
        raise ValueError(f"nrmse: norm_ref must have shape ({pred.shape[0]},), got {ref.shape}")
    if np.any(ref <= 0):
        raise ValueError("nrmse: norm_ref entries must be positive")
    n, kc = pred.shape
    err = (pred - true).reshape(n, kc // 2, 2)
    per_kp = np.sqrt((err ** 2).sum(axis=2))
    return float((per_kp.mean(axis=1) / ref).mean())


def verification_top1(embeddings, identities) -> float:
    """Exact nearest-other-sample identity match rate (Euclidean, brute force)."""
    emb = _as_array(embeddings)
    ids = np.asarray(identities)
    if emb.ndim != 2 or ids.shape != (emb.shape[0],):
        raise ValueError(f"verification_top1: got embeddings {emb.shape} and identities {ids.shape}")
    n = emb.shape[0]
    if n < 2:
        raise ValueError("verification_top1: need at least two samples")
    hits = 0
    for i in range(n):
        diff = emb - emb[i]
        d2 = np.einsum("ij,ij->i", diff, diff)
        d2[i] = np.inf
        hits += ids[int(d2.argmin())] == ids[i]
    return float(hits / n)


def pair_verification_accuracy(embeddings, same_pairs, diff_pairs) -> float:
    """Best accuracy of a distance threshold separating same-identity from
    different-identity pairs, swept over midpoints of adjacent observed
    distances plus both extremes."""
    emb = _as_array(embeddings)
    same = np.asarray(same_pairs)
    diff = np.asarray(diff_pairs)
    for name, arr in (("same_pairs", same), ("diff_pairs", diff)):
        if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] == 0:
            raise ValueError(f"pair_verification_accuracy: {name} must be a nonempty (P, 2) index array")
    d_same = np.linalg.norm(emb[same[:, 0]] - emb[same[:, 1]], axis=1)
    d_diff = np.linalg.norm(emb[diff[:, 0]] - emb[diff[:, 1]], axis=1)
    d_all = np.sort(np.concatenate([d_same, d_diff]))
    midpoints = (d_all[:-1] + d_all[1:]) / 2.0
    thresholds = np.concatenate([[d_all[0] - 1.0], midpoints, [d_all[-1] + 1.0]])
    # pairs at or below each threshold, counted on the sorted distances
    same_below = np.searchsorted(np.sort(d_same), thresholds, side="right")
    diff_below = np.searchsorted(np.sort(d_diff), thresholds, side="right")
    correct = same_below + (d_diff.size - diff_below)
    return float(np.max(correct / (d_same.size + d_diff.size)))


class MetricsReport:
    """Rows keyed by (task, network, init, alpha, beta) with named metrics.

    Renders as aligned per-task text tables and as a JSON document whose
    rows carry the keys task/network/init/alpha/beta/metrics; both views
    hold identical numbers.
    """

    def __init__(self):
        self._rows: dict[tuple, dict[str, float]] = {}

    def add(self, task: str, network: str, init: str, alpha: float, beta: float, **metrics: float) -> None:
        if not metrics:
            raise ValueError("a report row needs at least one metric")
        key = (str(task), str(network), str(init), float(alpha), float(beta))
        if key in self._rows:
            raise ValueError(f"duplicate report row {key}")
        clean = {}
        for name, value in metrics.items():
            value = float(value)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            if name in ("top1", "verif_top1", "pair_acc") and not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
            if name == "nrmse" and value < 0:
                raise ValueError(f"nrmse must be nonnegative, got {value}")
            clean[name] = value
        self._rows[key] = clean

    def rows(self) -> list[tuple[tuple, dict[str, float]]]:
        return sorted(self._rows.items(), key=lambda kv: kv[0])

    def keys(self) -> set[tuple]:
        return set(self._rows)

    def get(self, task, network, init, alpha, beta) -> dict[str, float]:
        return dict(self._rows[(task, network, init, float(alpha), float(beta))])

    def to_json(self) -> str:
        rows = []
        for (task, network, init, alpha, beta), metrics in self.rows():
            rows.append({
                "task": task,
                "network": network,
                "init": init,
                "alpha": alpha,
                "beta": beta,
                "metrics": {k: metrics[k] for k in sorted(metrics)},
            })
        return json.dumps({"rows": rows}, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "MetricsReport":
        doc = json.loads(text)
        report = cls()
        for row in doc["rows"]:
            report.add(row["task"], row["network"], row["init"], row["alpha"], row["beta"],
                       **row["metrics"])
        return report

    def to_text(self) -> str:
        by_task: dict[str, list] = {}
        for (task, network, init, alpha, beta), metrics in self.rows():
            by_task.setdefault(task, []).append((network, init, alpha, beta, metrics))
        blocks = []
        for task in sorted(by_task):
            rows = by_task[task]
            metric_names = sorted({name for *_, m in rows for name in m})
            header = ["network", "init", "alpha", "beta", *metric_names]
            table = [header]
            for network, init, alpha, beta, metrics in rows:
                table.append([
                    network, init, f"{alpha:g}", f"{beta:g}",
                    *[(f"{metrics[name]:.12g}" if name in metrics else "-") for name in metric_names],
                ])
            widths = [max(len(row[c]) for row in table) for c in range(len(header))]
            lines = [f"== {task} =="]
            for r, row in enumerate(table):
                lines.append("  ".join(cell.ljust(widths[c]) for c, cell in enumerate(row)).rstrip())
                if r == 0:
                    lines.append("  ".join("-" * widths[c] for c in range(len(header))))
            blocks.append("\n".join(lines))
        return "\n\n".join(blocks) + "\n"
