"""Training objectives for teacher-student distillation.

Conventions shared by every loss here:

* cross-entropy is H(pred, target) = mean over the batch of
  -sum_k target_k * ln(max(pred_k, 1e-12)); the prediction (the student)
  sits in the first slot, the target in the second;
* soft predictions are softmax(logits / tau); no extra temperature
  rescaling is applied to the soft term's gradient;
* every loss reduces with a batch mean, so values are comparable across
  batch sizes;
* teacher activations are treated as constants: distillation losses detach
  them, so no gradient ever reaches teacher parameters.

The combined objectives compose as
task_term + alpha * soft_term + beta * hidden_term, with terms skipped
exactly (not multiplied by zero) when their weight is 0, so e.g. the
classification objective at alpha=0 is bit-identical to the plain softmax
loss.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as tc
from .tensor import Tensor

__all__ = [
    "LOG_EPS",
    "DistillConfig",
    "soft_predictions",
    "cross_entropy",
    "softmax_loss",
    "classification_distill_loss",
    "euclidean_loss",
    "hidden_match_loss",
    "alignment_distill_loss",
    "triplet_loss",
    "verification_distill_loss",
    "general_distill_loss",
]

LOG_EPS = 1e-12


@dataclass(frozen=True)
class DistillConfig:
    """Weights of the combined objective: soft weight alpha, hidden weight
    beta, softmax temperature tau, and the triplet margin."""

    alpha: float = 1.0
    beta: float = 1.0
    tau: float = 3.0
    lambda_margin: float = 0.4

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError(f"alpha must be nonnegative, got {self.alpha}")
        if self.beta < 0:
            raise ValueError(f"beta must be nonnegative, got {self.beta}")
        if self.tau < 1:
            raise ValueError(f"tau must be >= 1, got {self.tau}")
        if self.lambda_margin < 0:
            raise ValueError(f"lambda_margin must be nonnegative, got {self.lambda_margin}")


def soft_predictions(logits, tau: float) -> Tensor:
    """Temperature-softened class probabilities: softmax(logits / tau)."""
    tau = float(tau)
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    return tc.softmax_rows(tc.div_scalar(logits, tau))


def cross_entropy(pred, target) -> Tensor:
    """Mean over the batch of -sum_k target_k * ln(max(pred_k, 1e-12))."""
    target = tc.as_tensor(target)
    if np.any(target.data < 0):
        raise ValueError("cross_entropy: target rows must be nonnegative")
    return tc.clamped_cross_entropy(pred, target, LOG_EPS)


def _one_hot(labels, num_classes: int) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.ndim != 1 or not np.issubdtype(labels.dtype, np.integer):
        raise ValueError("labels must be a 1-D integer array")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(f"labels out of range for {num_classes} classes")
    out = np.zeros((labels.size, num_classes))
    out[np.arange(labels.size), labels] = 1.0
    return out


def softmax_loss(logits, labels) -> Tensor:
    """Hard-label cross-entropy on softmax probabilities."""
    logits = tc.as_tensor(logits)
    onehot = _one_hot(labels, logits.shape[1])
    return cross_entropy(tc.softmax_rows(logits), Tensor(onehot))


def classification_distill_loss(student_logits, teacher_logits, labels, cfg: DistillConfig) -> Tensor:
    """Hard-label loss plus alpha-weighted soft-target cross-entropy.

    With alpha == 0 this returns exactly softmax_loss(student_logits, labels).
    """
    student_logits = tc.as_tensor(student_logits)
    teacher_logits = tc.as_tensor(teacher_logits)
    if student_logits.shape != teacher_logits.shape:
        raise ValueError(
            f"student and teacher logits differ in shape: {student_logits.shape} vs {teacher_logits.shape}")
    hard = softmax_loss(student_logits, labels)
    if cfg.alpha == 0:
        return hard
    soft = cross_entropy(
        soft_predictions(student_logits, cfg.tau),
        soft_predictions(tc.detach(teacher_logits), cfg.tau),
    )
    return tc.add(hard, tc.mul(soft, cfg.alpha))


def euclidean_loss(pred, target) -> Tensor:
    """Mean over the batch of the squared Euclidean error per row."""
    pred, target = tc.as_tensor(pred), tc.as_tensor(target)
    if pred.shape != target.shape or pred.data.ndim != 2:
        raise ValueError(f"euclidean_loss: need matching 2-D shapes, got {pred.shape} and {target.shape}")
    d = tc.sub(pred, target)
    return tc.div_scalar(tc.tsum(tc.mul(d, d)), pred.shape[0])


def hidden_match_loss(student_emb, teacher_emb) -> Tensor:
    """Mean squared distance between student and (constant) teacher embeddings."""
    student_emb = tc.as_tensor(student_emb)
    teacher_emb = tc.detach(teacher_emb)
    if student_emb.shape != teacher_emb.shape or student_emb.data.ndim != 2:
        raise ValueError(
            f"hidden_match_loss: need matching 2-D shapes, got {student_emb.shape} and {teacher_emb.shape}")
    d = tc.sub(student_emb, teacher_emb)
    return tc.div_scalar(tc.tsum(tc.mul(d, d)), student_emb.shape[0])


def alignment_distill_loss(student_outputs, teacher_outputs, targets, cfg: DistillConfig) -> Tensor:
    """Keypoint regression plus optional soft and hidden distillation terms.

    ``student_outputs`` / ``teacher_outputs`` are (logits, embedding,
    regression) triples; the teacher regression is unused. At
    alpha == beta == 0 this is exactly euclidean_loss(regression, targets).
    """
    s_logits, s_emb, s_reg = student_outputs
    t_logits, t_emb = teacher_outputs[0], teacher_outputs[1]
    total = euclidean_loss(s_reg, targets)
    if cfg.alpha != 0:
        soft = cross_entropy(
            soft_predictions(s_logits, cfg.tau),
            soft_predictions(tc.detach(t_logits), cfg.tau),
        )
        total = tc.add(total, tc.mul(soft, cfg.alpha))
    if cfg.beta != 0:
        total = tc.add(total, tc.mul(hidden_match_loss(s_emb, t_emb), cfg.beta))
    return total


def triplet_loss(anchor_emb, positive_emb, negative_emb, margin: float) -> Tensor:
    """Mean hinge over triplets: max(0, d(a,p)^2 - d(a,n)^2 + margin).

    The hinge contributes a zero subgradient exactly at its kink.
    """
    a = tc.as_tensor(anchor_emb)
    p = tc.as_tensor(positive_emb)
    n = tc.as_tensor(negative_emb)
    if not (a.shape == p.shape == n.shape) or a.data.ndim != 2:
        raise ValueError(
            f"triplet_loss: anchor/positive/negative shapes must match, got {a.shape}, {p.shape}, {n.shape}")
    d_ap = tc.sub(a, p)
    d_an = tc.sub(a, n)
    s_ap = tc.sum_rows(tc.mul(d_ap, d_ap))
    s_an = tc.sum_rows(tc.mul(d_an, d_an))
    return tc.mean(tc.relu(tc.add(tc.sub(s_ap, s_an), float(margin))))


def verification_distill_loss(student_outputs, teacher_outputs, triplet_indices, cfg: DistillConfig,
                              include_softmax: bool = False, labels=None) -> Tensor:
    """Triplet objective plus distillation terms over the deduplicated batch.

    ``student_outputs`` / ``teacher_outputs`` are (logits, embedding, ...)
    computed once on the unique samples appearing in the triplets;
    ``triplet_indices`` = (anchor, positive, negative) index arrays into
    that unique batch. The soft and hidden terms (and the optional hard
    softmax term) run over every unique sample, so shared triplet members
    are counted once. At alpha == beta == 0 without the softmax term this
    is exactly triplet_loss on the gathered rows.
    """
    s_logits, s_emb = tc.as_tensor(student_outputs[0]), tc.as_tensor(student_outputs[1])
    t_logits, t_emb = tc.as_tensor(teacher_outputs[0]), tc.as_tensor(teacher_outputs[1])
    a_idx, p_idx, n_idx = triplet_indices
    total = triplet_loss(
        tc.take_rows(s_emb, a_idx),
        tc.take_rows(s_emb, p_idx),
        tc.take_rows(s_emb, n_idx),
        cfg.lambda_margin,
    )
    if cfg.alpha != 0:
        soft = cross_entropy(
            soft_predictions(s_logits, cfg.tau),
            soft_predictions(tc.detach(t_logits), cfg.tau),
        )
        total = tc.add(total, tc.mul(soft, cfg.alpha))
    if cfg.beta != 0:
        total = tc.add(total, tc.mul(hidden_match_loss(s_emb, t_emb), cfg.beta))
    if include_softmax:
        if labels is None:
            raise ValueError("include_softmax requires labels")
        total = tc.add(total, softmax_loss(s_logits, labels))
    return total


def general_distill_loss(task_loss, soft_term, hidden_term, cfg: DistillConfig) -> Tensor:
    """task + alpha * soft + beta * hidden over already-computed scalar terms."""
    total = tc.as_tensor(task_loss)
    if cfg.alpha != 0:
        total = tc.add(total, tc.mul(tc.as_tensor(soft_term), cfg.alpha))
    if cfg.beta != 0:
        total = tc.add(total, tc.mul(tc.as_tensor(hidden_term), cfg.beta))
    return total
