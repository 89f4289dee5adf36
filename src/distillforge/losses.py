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

Every combined objective is composed by one function, ``objective``:
task_term + alpha * soft_term + beta * hidden_term, then the hard softmax
term when one-hot label rows are given (the joint verification table).
Terms are skipped exactly (not multiplied by zero) when their weight is 0,
so e.g. the classification loss at alpha=0 is bit-identical to the plain
softmax loss. The caller computes the task term (the hard term for
classification, the keypoint error for alignment, the triplet hinge for
verification) and hands over constant target rows: the softened teacher
(``soft_targets``, None at alpha=0), the teacher embedding (None at
beta=0) and one-hot labels (``one_hot``). The public losses build the rows
from their arguments; a training stage builds them once per stage, as
tables whose rows are bitwise the per-batch rows, and runs only the network
heads its objective reads, since an unread head gets no gradient.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import tensor as tc
from ._schema import check_fields, setting
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
    beta, softmax temperature tau, and the triplet margin; all finite."""

    alpha: float = setting(float, 1.0, ge=0)
    beta: float = setting(float, 1.0, ge=0)
    tau: float = setting(float, 3.0, ge=1)
    lambda_margin: float = setting(float, 0.4, ge=0)

    def __post_init__(self):
        check_fields(self)


def soft_predictions(logits, tau: float) -> Tensor:
    """Temperature-softened class probabilities: softmax(logits / tau)."""
    tau = float(tau)
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    return tc.softmax_rows(tc.div_scalar(logits, tau))


def cross_entropy(pred, target) -> Tensor:
    """Mean over the batch of -sum_k target_k * ln(max(pred_k, 1e-12)); no gradient where clamped."""
    pred, target = tc.as_tensor(pred), tc.as_tensor(target)
    if pred.shape != target.shape or pred.data.ndim != 2:
        raise ValueError(f"cross_entropy: need matching 2-D shapes, got {pred.shape} and {target.shape}")
    if np.any(target.data < 0):
        raise ValueError("cross_entropy: target rows must be nonnegative")
    return tc.mul(tc.tsum(tc.mul(target, tc.log(tc.clamp_min(pred, LOG_EPS)))), -1.0 / pred.shape[0])


def one_hot(labels, num_classes: int) -> np.ndarray:
    """Rows of the identity matrix picked by integer labels."""
    labels = np.asarray(labels)
    if labels.ndim != 1 or not np.issubdtype(labels.dtype, np.integer):
        raise ValueError("labels must be a 1-D integer array")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(f"labels out of range for {num_classes} classes")
    out = np.zeros((labels.size, num_classes))
    out[np.arange(labels.size), labels] = 1.0
    return out


def soft_targets(teacher_logits, cfg: DistillConfig) -> np.ndarray | None:
    """The detached teacher's softened targets softmax(logits / tau), or None
    when alpha is 0 and no soft term reads them."""
    return soft_predictions(tc.detach(teacher_logits), cfg.tau).data if cfg.alpha != 0 else None


def softmax_loss(logits, labels) -> Tensor:
    """Hard-label cross-entropy on softmax probabilities."""
    logits = tc.as_tensor(logits)
    return hard_term(logits, one_hot(labels, logits.shape[1]))


def classification_distill_loss(student_logits, teacher_logits, labels, cfg: DistillConfig) -> Tensor:
    """Hard-label loss plus alpha-weighted soft-target cross-entropy.

    With alpha == 0 this returns exactly softmax_loss(student_logits, labels).
    """
    student_logits = tc.as_tensor(student_logits)
    teacher_logits = tc.as_tensor(teacher_logits)
    if student_logits.shape != teacher_logits.shape:
        raise ValueError(
            f"student and teacher logits differ in shape: {student_logits.shape} vs {teacher_logits.shape}")
    hard = hard_term(student_logits, one_hot(labels, student_logits.shape[1]))
    return objective(hard, student_logits, None, soft_targets(teacher_logits, cfg), None,
                     replace(cfg, beta=0.0))


def hard_term(logits, onehot) -> Tensor:
    """Cross-entropy of softmax(logits) against one-hot label rows."""
    return tc.softmax_cross_entropy(logits, onehot, 1.0, LOG_EPS)


def objective(task, logits, emb, soft, teacher_emb, cfg: DistillConfig, onehot=None) -> Tensor:
    """task + alpha * soft + beta * hidden, then + the hard term when one-hot
    label rows are given: the one composition every objective uses. The soft
    term is the cross-entropy of the softened student against the softened
    teacher rows ``soft``; the hidden term matches ``teacher_emb``."""
    total = _weighted_sum(task,
                          (cfg.alpha, lambda: tc.softmax_cross_entropy(logits, soft, cfg.tau, LOG_EPS)),
                          (cfg.beta, lambda: hidden_match_loss(emb, teacher_emb)))
    return total if onehot is None else tc.add(total, hard_term(logits, onehot))


def _weighted_sum(total, *terms) -> Tensor:
    """total + weight * term() for each (weight, term) pair, left to right; a
    term whose weight is 0 is skipped, never computed."""
    for weight, term in terms:
        if weight != 0:
            total = tc.add(total, tc.mul(term(), weight))
    return total


def euclidean_loss(pred, target) -> Tensor:
    """Mean over the batch of the squared Euclidean error per row."""
    return tc.squared_error_mean(pred, target)


def hidden_match_loss(student_emb, teacher_emb) -> Tensor:
    """Mean squared distance between student and (constant) teacher embeddings."""
    return tc.squared_error_mean(student_emb, tc.detach(teacher_emb))


def alignment_distill_loss(student_outputs, teacher_outputs, targets, cfg: DistillConfig) -> Tensor:
    """Keypoint regression plus optional soft and hidden distillation terms.

    ``student_outputs`` / ``teacher_outputs`` are (logits, embedding,
    regression) triples; the teacher regression is unused. At
    alpha == beta == 0 this is exactly euclidean_loss(regression, targets).
    """
    s_logits, s_emb, s_reg = student_outputs
    return objective(euclidean_loss(s_reg, targets), s_logits, s_emb,
                     soft_targets(teacher_outputs[0], cfg), teacher_outputs[1], cfg)


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
    if include_softmax and labels is None:
        raise ValueError("include_softmax requires labels")
    s_logits, s_emb = tc.as_tensor(student_outputs[0]), tc.as_tensor(student_outputs[1])
    onehot = one_hot(labels, s_logits.shape[1]) if include_softmax else None
    return objective(tc.triplet_hinge(s_emb, *triplet_indices, cfg.lambda_margin), s_logits, s_emb,
                     soft_targets(teacher_outputs[0], cfg), teacher_outputs[1], cfg, onehot)


def general_distill_loss(task_loss, soft_term, hidden_term, cfg: DistillConfig) -> Tensor:
    """task + alpha * soft + beta * hidden over already-computed scalar terms."""
    return _weighted_sum(tc.as_tensor(task_loss), (cfg.alpha, lambda: tc.as_tensor(soft_term)),
                         (cfg.beta, lambda: tc.as_tensor(hidden_term)))
