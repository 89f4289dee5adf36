"""Training stages and experiment orchestration.

Stage layout mirrors the two-step transfer recipe:

1. a teacher is trained on classification from scratch;
2. compressed students learn classification from the teacher, either from
   scratch or continuing from a softmax-pretrained copy of themselves (the
   full-initialization trick);
3. task networks (keypoint alignment, triplet verification) start from the
   classification networks (teacher: value copy; student: either a
   task-pretrained fresh build or the distilled classification student)
   and fine-tune with the combined objective.

Scratch runs use the two-phase learning-rate schedule (scratch rate, then
continuation rate); initialized runs use the continuation rate only.
Every stage draws its randomness from a named substream of one top-level
seed, so any run is reproducible in isolation. Trained networks carry
their per-step loss history in ``net.training_log``.

Every stage trains on the dataset's training split and is scored on its
test split, both read-only ``data.Split`` columns that all stages share.

What stays fixed for a whole stage is built once, after its network
exists, as a table over the training split, and each batch indexes its
rows: the features standardized by the network's normalizer, the one-hot
labels, the softened teacher targets softmax(logits / tau) when alpha > 0,
and, for verification, a dedup lookup that maps a triplet batch to its
unique rows. The step runs only the heads its objective reads: the
regression head only for alignment, the class head only for a soft or
softmax term. Every table row and every gradient is bitwise what the
per-batch build and the all-heads forward give.

Each stage is named by a run key (``teacher_cls``, ``student4_cls_full_init``,
``student8_alignment_distill_a0_b1``, ...). ``stage(plan, key)`` gives its
dependencies and a training closure with one contract: build the start
network (a fresh build, or a value copy of a dependency for full
initialization and transfer), get the teacher targets if the stage has a
teacher, and call one body, ``_distill_cls`` or ``_train_task``, which
trains that network in place; a stage without a teacher has alpha and
beta 0. ``stages(plan)`` lists a plan's stages, dependencies first. This
one graph is the only way to train a stage: ``run_experiment`` and the
CLI's ``train`` both run it, so their checkpoints are the same bytes. One
stage runs as ``run_stage(stage(plan, key), Run(plan, data), nets)``.

``run_experiment(plan, workers=N)`` walks the graph on N forked worker
processes: a stage is submitted as soon as its dependencies have finished,
and the report rows come out in ``stages(plan)`` order, so the report and
checkpoint bytes do not depend on N. Networks pass between stages as
checkpoint files: ``run_stage_from_checkpoints`` loads a stage's
dependencies from a directory, trains it and writes ``<key>.ckpt`` there,
as soon as the stage finishes. The in-process walk, a pool worker and the
CLI's ``train`` all call it, so a stage runs one way everywhere and the
parent of a pool holds only metrics. A run with one worker, or whose
``run_stage`` has been wrapped (a span tracer, say), walks in-process, so
the wrapper sees every stage.
"""
from __future__ import annotations

import contextlib
import hashlib
import math
import os
import re
import tempfile
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import tensor as tc
from ._atomic import remove_partial_writes
from .data import GeneratorParams, Split, SplitDataset, generate, make_pairs, make_triplets
from .losses import (DistillConfig, alignment_objective, classification_objective, one_hot,
                     soft_targets, verification_objective)
from .metrics import (MetricsReport, nrmse, pair_verification_accuracy, reference_distances,
                      top1_accuracy, verification_top1)
from .nets import Network, NetworkSpec, build, clone, load_network, save_network

__all__ = [
    "ALIGNMENT",
    "VERIFICATION",
    "derive_seed",
    "StageConfig",
    "OptimizerState",
    "nag_step",
    "TrainingLog",
    "select_targets",
    "StagePlan",
    "TaskPlan",
    "ExperimentPlan",
    "Run",
    "Stage",
    "stage",
    "stages",
    "run_stage",
    "load_checkpoint",
    "run_stage_from_checkpoints",
    "run_experiment",
    "evaluate_classification",
    "evaluate_alignment",
    "evaluate_verification",
]

ALIGNMENT = "alignment"
VERIFICATION = "verification"
_TASKS = (ALIGNMENT, VERIFICATION)


def derive_seed(seed: int, name: str) -> int:
    """Named substream seed: top-level seed XOR a stable 64-bit hash of the name."""
    digest = hashlib.blake2b(name.encode(), digest_size=8).digest()
    return (int(seed) ^ int.from_bytes(digest, "big")) & 0x7FFF_FFFF_FFFF_FFFF


@dataclass(frozen=True)
class StageConfig:
    """One training stage: minibatch size and an ordered (rate, epochs) schedule."""

    batch_size: int
    lr_schedule: tuple[tuple[float, int], ...]
    seed: int = 0
    momentum: float = 0.9

    def __post_init__(self):
        object.__setattr__(self, "lr_schedule",
                           tuple((float(lr), int(n)) for lr, n in self.lr_schedule))
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")
        if not self.lr_schedule:
            raise ValueError("lr_schedule must be non-empty")
        for lr, n in self.lr_schedule:
            if lr <= 0:
                raise ValueError(f"learning rates must be positive, got {lr}")
            if n < 0:
                raise ValueError(f"phase epoch counts must be nonnegative, got {n}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum}")

    @property
    def epochs(self) -> int:
        return sum(n for _, n in self.lr_schedule)


class OptimizerState:
    """Nesterov-style momentum over flat buffers.

    Building the state moves the parameters' values into one contiguous
    buffer, ``params``, and leaves each ``p.data`` a view into it; the
    gradient and velocity buffers, ``grad`` and ``velocity``, share that
    layout (``grads`` and ``velocities`` hold the per-parameter views). A
    step is then six whole-array ufunc calls, through the gradient buffer
    and one scratch buffer, so that it allocates nothing.
    """

    def __init__(self, parameters, learning_rate: float, momentum: float = 0.9):
        self.parameters = list(parameters)
        self.learning_rate = float(learning_rate)
        self.momentum = float(momentum)
        n = sum(p.data.size for p in self.parameters)
        self.params, self.grad, self.velocity = np.empty(n), np.zeros(n), np.zeros(n)
        self.scratch = np.empty(n)
        self.grads, self.velocities = [], []
        start = 0
        for p in self.parameters:
            end = start + p.data.size
            view = self.params[start:end].reshape(p.data.shape)
            view[...] = p.data
            p.data = view
            self.grads.append(self.grad[start:end].reshape(view.shape))
            self.velocities.append(self.velocity[start:end].reshape(view.shape))
            start = end

    @classmethod
    def for_network(cls, net, learning_rate: float, momentum: float = 0.9) -> "OptimizerState":
        return cls(net.parameters, learning_rate, momentum)

    def zero_grad(self) -> None:
        """Zero the gradient buffer and give each parameter its view of it, so
        backward accumulates in place; bitwise the same as accumulating into
        no gradient, since 0.0 + g is g + 0.0."""
        self.grad.fill(0.0)
        for p, view in zip(self.parameters, self.grads):
            p.grad = view


def nag_step(net, opt: OptimizerState) -> None:
    """v <- mu*v - lr*g; theta <- theta + mu*v - lr*g; gradients are cleared.

    The step consumes the flat gradient buffer ``opt.grad``, which ends as
    lr*g. A gradient that is not the parameter's view of it is copied in
    first; that gradient array itself is left unmodified.
    """
    if net.parameters != opt.parameters:
        raise ValueError("optimizer state does not match the network's parameter list")
    for p, view in zip(opt.parameters, opt.grads):
        if p.grad is not view:
            if p.grad is None:
                raise RuntimeError("nag_step: a parameter has no gradient; run backward first")
            view[...] = p.grad
    mu, lr = opt.momentum, opt.learning_rate
    lr_g, update = opt.grad, opt.scratch
    lr_g *= lr
    opt.velocity *= mu
    opt.velocity -= lr_g
    np.multiply(opt.velocity, mu, out=update)
    update -= lr_g
    opt.params += update
    for p in opt.parameters:
        p.grad = None


@dataclass
class TrainingLog:
    step_lrs: list[float] = field(default_factory=list)
    step_losses: list[float] = field(default_factory=list)


def _run_training(net, stage: StageConfig, make_epoch, step_fn) -> TrainingLog:
    opt = OptimizerState.for_network(net, stage.lr_schedule[0][0], stage.momentum)
    rng = np.random.default_rng(stage.seed)
    log = TrainingLog()
    for phase, (lr, n_epochs) in enumerate(stage.lr_schedule, 1):
        opt.learning_rate = lr
        for epoch in range(1, n_epochs + 1):
            for step, batch in enumerate(make_epoch(rng), 1):
                loss = step_fn(batch)
                value = loss.item()
                if not math.isfinite(value):
                    raise RuntimeError(
                        f"non-finite training loss {value} in learning-rate phase {phase} "
                        f"(lr {lr:g}), epoch {epoch}, step {step}")
                # heads untouched by this objective keep a genuinely zero gradient
                opt.zero_grad()
                tc.backward(loss)
                nag_step(net, opt)
                log.step_lrs.append(lr)
                log.step_losses.append(value)
    net.training_log = log
    return log


def _index_batches(n: int, batch_size: int):
    def make_epoch(rng):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            yield order[start:start + batch_size]
    return make_epoch


def _dedup_lookup(n: int):
    """A function from a triplet batch of row indices below ``n`` to the
    sorted unique rows and the (anchor, positive, negative) positions in
    them, as ``np.unique(..., return_inverse=True)`` gives them; a mask and a
    position array over the split, built once and reused by every batch."""
    seen, pos = np.zeros(n, dtype=bool), np.empty(n, dtype=np.intp)

    def dedup(a, p, n_):
        rows = np.concatenate([a, p, n_])
        seen[rows] = True
        uniq = np.flatnonzero(seen)
        seen[uniq] = False
        pos[uniq] = np.arange(uniq.size)
        inv, k = pos[rows], a.size
        return uniq, inv[:k], inv[k:2 * k], inv[2 * k:]
    return dedup


def _rows(table, idx):
    return None if table is None else table[idx]


def _fresh(spec: NetworkSpec, seed: int, feats: np.ndarray) -> Network:
    """A newly built network that standardizes inputs by ``feats``."""
    net = build(spec, seed)
    net.set_normalizer(feats.mean(axis=0), feats.std(axis=0))
    return net


# Stages ---------------------------------------------------------------------------

def _teacher_targets(teacher: Network, feats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The constant teacher's logits and embedding for every training row, read-only.

    Forwards of a frozen view of the teacher (its parameter values, not
    copied, without ``requires_grad``, so no tape records them) over blocks
    of 128 standardized rows fill two preallocated tables; their rows match
    a per-batch forward bitwise for logits and embedding (not for the
    regression head, which is not run).
    """
    n, spec = len(feats), teacher.spec
    frozen = Network(spec, [p.detach() for p in teacher.parameters], teacher.norm_mean,
                     teacher.norm_std)
    logits, emb = np.empty((n, spec.num_classes)), np.empty((n, spec.embedding_dim))
    for start in range(0, n, 128):
        out = frozen._forward(frozen.standardize(feats[start:start + 128]), regression=False)
        logits[start:start + 128], emb[start:start + 128] = out.logits.data, out.embedding.data
    for array in (logits, emb):
        array.setflags(write=False)
    return logits, emb


def _distill_cls(net, train: Split, cfg, stage, targets):
    """Train ``net`` in place on hard labels, plus the soft term from the
    teacher's (logits, embedding) ``targets``, (None, None) without a teacher."""
    t_logits, t_emb = targets
    if t_logits is not None and (t_emb.shape[1] != net.spec.embedding_dim
                                 or t_logits.shape[1] != net.spec.num_classes):
        raise ValueError("student and teacher must share embedding_dim and num_classes")
    x, onehot = net.standardize(train.features), one_hot(train.ids, net.spec.num_classes)
    soft = soft_targets(t_logits, cfg)

    def step(idx):
        with tc.Tape():
            out = net._forward(x[idx], regression=False)
            return classification_objective(out.logits, onehot[idx], _rows(soft, idx), cfg)

    _run_training(net, stage, _index_batches(len(x), stage.batch_size), step)
    return net


def _task_batches(task, train: Split, stage: StageConfig, triplets_per_epoch: int):
    """Alignment batches are row indices; verification batches are
    deduplicated triplets, (unique rows, anchor, positive, negative)."""
    if task == ALIGNMENT:
        return _index_batches(len(train), stage.batch_size)
    count = triplets_per_epoch if triplets_per_epoch > 0 else len(train)
    dedup = _dedup_lookup(len(train))

    def make_epoch(rng):
        # fresh uniformly drawn triplets every epoch
        a, p, n_ = make_triplets(train, count, int(rng.integers(2 ** 62)))
        for start in range(0, count, stage.batch_size):
            sl = slice(start, start + stage.batch_size)
            yield dedup(a[sl], p[sl], n_[sl])
    return make_epoch


def _train_task(net, task, train: Split, cfg, stage, include_softmax, triplets_per_epoch, targets):
    """Fine-tune ``net`` in place on the task objective, plus the distillation
    terms from the teacher's (logits, embedding) ``targets``, (None, None)
    without a teacher."""
    t_logits, t_emb = targets[0], targets[1] if cfg.beta else None  # only the hidden term reads it
    x, soft = net.standardize(train.features), soft_targets(t_logits, cfg)
    if task == ALIGNMENT:
        kps = train.keypoints

        def step(idx):
            with tc.Tape():
                out = net._forward(x[idx], logits=cfg.alpha != 0)
                return alignment_objective(out.logits, out.embedding, out.regression,
                                           _rows(soft, idx), _rows(t_emb, idx), kps[idx], cfg)
    else:
        onehot = one_hot(train.ids, net.spec.num_classes) if include_softmax else None

        def step(batch):
            uniq, *triplets = batch
            with tc.Tape():
                out = net._forward(x[uniq], logits=cfg.alpha != 0 or include_softmax, regression=False)
                return verification_objective(out.logits, out.embedding, _rows(soft, uniq),
                                              _rows(t_emb, uniq), triplets, cfg, _rows(onehot, uniq))

    _run_training(net, stage, _task_batches(task, train, stage, triplets_per_epoch), step)
    return net


# Target selection ----------------------------------------------------------------

def select_targets(metric_per_config, higher_is_better: bool = True) -> tuple[int, int]:
    """Keep a target iff enabling it alone strictly improves on the baseline.

    ``metric_per_config`` maps the three probe configurations (0,0), (1,0)
    and (0,1) -- (alpha, beta) -- to a scalar metric. Returns the selected
    (alpha, beta), each 0 or 1.
    """
    probes = {}
    for key, value in metric_per_config.items():
        a, b = key
        probes[(float(a), float(b))] = float(value)
    missing = [cfg for cfg in ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)) if cfg not in probes]
    if missing:
        raise ValueError(f"select_targets: missing probe configurations {missing}")

    def better(x, base):
        return x > base if higher_is_better else x < base

    base = probes[(0.0, 0.0)]
    alpha = 1 if better(probes[(1.0, 0.0)], base) else 0
    beta = 1 if better(probes[(0.0, 1.0)], base) else 0
    return alpha, beta


# Evaluation ----------------------------------------------------------------------

def evaluate_classification(net: Network, split: Split, pairs=None) -> dict[str, float]:
    out = net.forward(split.features)
    result = {"top1": top1_accuracy(out.logits, split.ids)}
    if pairs is not None:
        result["pair_acc"] = pair_verification_accuracy(out.embedding, *pairs)
    return result


def evaluate_alignment(net: Network, split: Split) -> dict[str, float]:
    kps = split.keypoints
    return {"nrmse": nrmse(net.forward(split.features).regression, kps, reference_distances(kps))}


def evaluate_verification(net: Network, split: Split, pairs=None) -> dict[str, float]:
    out = net.forward(split.features)
    result = {"verif_top1": verification_top1(out.embedding, split.ids)}
    if pairs is not None:
        result["pair_acc"] = pair_verification_accuracy(out.embedding, *pairs)
    return result


# Experiment plans ------------------------------------------------------------------

@dataclass(frozen=True)
class StagePlan:
    """Stage sizing plus the two learning rates of the schedule family.

    The default rates are desk-scale values picked empirically: at the
    reference scale (momentum 0.9, He-uniform init, these layer widths)
    scratch rates of 0.1 kill every rectifier in the trunk within the
    first epochs and training collapses to the bias solution.
    """

    batch_size: int
    epochs_per_phase: int
    scratch_lr: float = 0.02
    continue_lr: float = 0.002
    momentum: float = 0.9
    triplets_per_epoch: int = 0  # 0: one triplet per train sample per epoch

    def stage(self, mode: str, seed: int) -> StageConfig:
        if mode == "scratch":
            schedule = ((self.scratch_lr, self.epochs_per_phase),
                        (self.continue_lr, self.epochs_per_phase))
        elif mode == "continue":
            schedule = ((self.continue_lr, self.epochs_per_phase),)
        else:
            raise ValueError(f"unknown schedule mode {mode!r}")
        return StageConfig(self.batch_size, schedule, seed, self.momentum)


@dataclass(frozen=True)
class TaskPlan:
    """One result table: a task, its student divisors, inits, and (alpha, beta) grid."""

    task: str
    divisors: tuple[int, ...]
    inits: tuple[str, ...] = ("pretrain", "distill")
    grid: tuple[tuple[float, float], ...] = ((0.0, 0.0), (0.0, 1.0), (1.0, 0.0))
    include_softmax: bool = False

    def __post_init__(self):
        if self.task not in _TASKS:
            raise ValueError(f"unknown task {self.task!r}; expected one of {_TASKS}")
        if self.include_softmax and self.task != VERIFICATION:
            raise ValueError("include_softmax applies to verification only")
        bad = [i for i in self.inits if i not in ("scratch", "pretrain", "distill")]
        if bad:
            raise ValueError(f"unknown task init modes {bad}")
        if any(not 0 <= w < math.inf or float(f"{w:g}") != w for point in self.grid for w in point):
            raise ValueError("grid weights must be finite, nonnegative and exact in a run key's "
                             f"%g form, got {self.grid}")

    @property
    def label(self) -> str:
        return f"{self.task}_joint" if self.include_softmax else self.task


@dataclass(frozen=True)
class ExperimentPlan:
    generator: GeneratorParams = GeneratorParams()
    # embedding width <= narrowest student trunk layer (128/8 at divisor 8);
    # a student whose last trunk layer is narrower than the embedding cannot
    # span the teacher's embedding space and hidden matching hits a rank floor
    teacher: NetworkSpec = NetworkSpec(64, (256, 256, 128), 16, 32, 10)
    distill: DistillConfig = DistillConfig()
    cls_divisors: tuple[int, ...] = (2, 4, 8)
    cls_inits: tuple[str, ...] = ("scratch", "full_init")
    tasks: tuple[TaskPlan, ...] = (
        TaskPlan(ALIGNMENT, (8,)),
        TaskPlan(VERIFICATION, (2,)),
        TaskPlan(VERIFICATION, (2,), include_softmax=True),
    )
    cls_stage: StagePlan = StagePlan(64, 15)
    alignment_stage: StagePlan = StagePlan(32, 30, scratch_lr=0.005, continue_lr=0.0002)
    verification_stage: StagePlan = StagePlan(32, 15, scratch_lr=0.005, continue_lr=0.001)
    eval_pairs: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.teacher.width_divisor != 1:
            raise ValueError("the teacher spec must use width_divisor=1")
        gen, teacher = self.generator, self.teacher
        if gen.input_dim != teacher.input_dim:
            raise ValueError(f"generator input_dim {gen.input_dim} != teacher input_dim {teacher.input_dim}")
        if gen.num_identities != teacher.num_classes:
            raise ValueError(f"num_identities {gen.num_identities} != num_classes {teacher.num_classes}")
        if gen.num_keypoint_coords != teacher.num_keypoint_coords:
            raise ValueError("generator and teacher disagree on keypoint coordinate count")
        n_test = gen.split_sizes[1]
        if n_test < 2:  # evaluation pairs need two test samples of one identity
            raise ValueError(f"samples_per_identity {gen.samples_per_identity} leaves {n_test} test "
                             "samples per identity; evaluation needs at least 2")
        bad = [i for i in self.cls_inits if i not in ("scratch", "full_init")]
        if bad:
            raise ValueError(f"unknown classification init modes {bad}")
        labels = [tp.label for tp in self.tasks]
        if len(set(labels)) != len(labels):
            raise ValueError(f"each task table needs its own label, got {labels}")

    def stage_plan(self, task: str) -> StagePlan:
        return self.alignment_stage if task == ALIGNMENT else self.verification_stage


# Stage graph -----------------------------------------------------------------------

_STAGE_KEY = re.compile(r"(?:teacher|student([1-9]\d*))_(cls|alignment|verification_joint|verification)"
                        r"(?:_(.+))?")
_GRID_RUN = re.compile(r"(scratch|pretrain|distill)_a([0-9.eE+-]+)_b([0-9.eE+-]+)")


class Run:
    """The constants every stage of one run shares: the dataset, whose splits
    are read-only, and, each computed at most once, the evaluation pairs and
    each teacher's targets, memoised by the teacher's run key."""

    def __init__(self, plan: ExperimentPlan, data: SplitDataset):
        self.plan = plan
        self.data = data
        self._targets: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    @cached_property
    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        return make_pairs(self.data.test, self.plan.eval_pairs,
                          derive_seed(self.plan.seed, "eval_pairs"))

    def targets(self, key: str, nets: Mapping[str, Network]) -> tuple[np.ndarray, np.ndarray]:
        if key not in self._targets:
            self._targets[key] = _teacher_targets(nets[key], self.data.train.features)
        return self._targets[key]

    def evaluate(self, label: str, net: Network) -> dict[str, float]:
        """Test-split metrics of a stage label: ``cls`` or a task table label."""
        if label == ALIGNMENT:
            return evaluate_alignment(net, self.data.test)
        evaluate = evaluate_classification if label == "cls" else evaluate_verification
        return evaluate(net, self.data.test, self.pairs)


@dataclass(frozen=True)
class Stage:
    """One node of the stage graph.

    ``train(run, nets)`` returns the stage's network; ``nets`` maps each key
    in ``deps`` to its trained network, read at most once and never mutated.
    ``label`` selects the metrics (``Run.evaluate``); ``row`` is the stage's
    report row key, or None when the plan does not report it.
    """

    key: str
    deps: tuple[str, ...]
    label: str
    row: tuple | None
    train: Callable[[Run, Mapping[str, Network]], Network] = field(compare=False, repr=False)


def stage(plan: ExperimentPlan, key: str) -> Stage:
    """The stage a run key names, under this plan's settings and seed.

    Keys outside the plan's report (``_report_keys``), such as another
    divisor or grid point, are stages too, with no report row. A key that
    names no stage, or weights ``DistillConfig`` rejects, raises ValueError.
    """
    m = _STAGE_KEY.fullmatch(key)
    if m is None or (m[1] is None) != (m[3] is None):  # only student keys carry a suffix
        raise ValueError(f"unknown stage key {key!r}")
    divisor, label, kind = m.groups()
    joint = label == f"{VERIFICATION}_joint"  # the verification table with a softmax term
    task = VERIFICATION if joint else label
    splan = plan.cls_stage if label == "cls" else plan.stage_plan(task)
    d = int(divisor) if divisor else 1
    spec, grid = plan.teacher.student(d), _GRID_RUN.fullmatch(kind or "")
    distill, teacher, start, init, weights = plan.distill, None, None, kind, (0.0, 0.0)
    if key == "teacher_cls":
        init = "scratch"
    elif divisor is None:  # a task teacher: a value copy of the classification teacher, fine-tuned
        start, init = "teacher_cls", "transfer"
    elif label == "cls" and kind in ("init", "scratch", "full_init"):
        # init is softmax only; full_init continues from a value copy of init
        teacher = None if kind == "init" else "teacher_cls"
        start = f"student{d}_cls_init" if kind == "full_init" else None
        weights = (plan.distill.alpha, 0.0)
    elif grid is not None and label != "cls":
        init = grid[1]
        try:
            distill = replace(plan.distill, alpha=float(grid[2]), beta=float(grid[3]))
        except ValueError as exc:
            raise ValueError(f"bad stage key {key!r}: {exc}") from exc
        teacher, weights = f"teacher_{label}", (distill.alpha, distill.beta)
        start = {"pretrain": f"student{d}_{label}_pretrain_base",
                 "distill": f"student{d}_cls_full_init"}.get(init)
    elif label == "cls" or kind != "pretrain_base":  # the pretrain base trains a fresh student
        raise ValueError(f"unknown stage key {key!r}")
    if not any(weights):  # no term reads a target, so the stage needs no teacher
        teacher = None
    if teacher is None:
        distill = replace(distill, alpha=0.0, beta=0.0)
    # a fresh build runs the scratch schedule, a copied start the continuation rate only
    cfg = splan.stage("continue" if start else "scratch", derive_seed(plan.seed, key))

    def train(run: Run, nets: Mapping[str, Network]) -> Network:
        # the targets first: built after the start network, they raised the peak
        # RSS of a `train student2_cls_scratch` process from 46.5 to 48.5 MB
        targets = run.targets(teacher, nets) if teacher else (None, None)
        net = clone(nets[start]) if start else _fresh(spec, cfg.seed, run.data.train.features)
        if label == "cls":
            return _distill_cls(net, run.data.train, distill, cfg, targets)
        return _train_task(net, task, run.data.train, distill, cfg, joint, splan.triplets_per_epoch,
                           targets)

    row = ("classification" if label == "cls" else label, f"student/{d}" if divisor else "teacher",
           init, *weights)
    return Stage(key, tuple(dep for dep in (teacher, start) if dep), label,
                 row if key in _report_keys(plan) else None, train)


def _report_keys(plan: ExperimentPlan):
    yield "teacher_cls"
    for d in plan.cls_divisors:
        for init in plan.cls_inits:
            yield f"student{d}_cls_{init}"
    for tp in plan.tasks:
        yield f"teacher_{tp.label}"
        for d in tp.divisors:
            for init in tp.inits:
                for alpha, beta in tp.grid:
                    yield f"student{d}_{tp.label}_{init}_a{alpha:g}_b{beta:g}"


def stages(plan: ExperimentPlan) -> list[Stage]:
    """The plan's report stages plus everything they depend on, each stage
    listed once and after its dependencies."""
    listed: dict[str, Stage] = {}

    def visit(key: str) -> None:
        if key not in listed:
            node = stage(plan, key)
            for dep in node.deps:
                visit(dep)
            listed[key] = node

    for key in _report_keys(plan):
        visit(key)
    return list(listed.values())


def run_stage(node: Stage, run: Run, nets: Mapping[str, Network]) -> tuple[Network, dict[str, float]]:
    """Train one stage from its dependencies' networks and evaluate it.

    Any failure, a non-finite metric included, keeps its exception type
    and names the run key.
    """
    try:
        net = node.train(run, nets)
        metrics = run.evaluate(node.label, net)
        for name, value in metrics.items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
    except (RuntimeError, ValueError) as exc:
        raise type(exc)(f"stage {node.key}: {exc}") from exc
    return net, metrics


class _Checkpoints(Mapping):
    """Run keys to the networks in ``<ckpt_dir>/<key>.ckpt``; every file must
    exist, and a network is loaded at each read and kept only by the reader."""

    def __init__(self, ckpt_dir, keys):
        self.paths = {key: os.path.join(ckpt_dir, f"{key}.ckpt") for key in keys}
        for key, path in self.paths.items():
            if not os.path.exists(path):
                raise FileNotFoundError(f"missing prerequisite checkpoint {path}; train '{key}' first")

    def __getitem__(self, key: str) -> Network:
        return load_network(self.paths[key])

    def __iter__(self):
        return iter(self.paths)

    def __len__(self) -> int:
        return len(self.paths)


def load_checkpoint(ckpt_dir, key: str) -> Network:
    """The network of stage ``key`` from ``<ckpt_dir>/<key>.ckpt``."""
    return _Checkpoints(ckpt_dir, (key,))[key]


def run_stage_from_checkpoints(node: Stage, run: Run, ckpt_dir) -> dict[str, float]:
    """Run one stage on its dependencies' checkpoints in ``ckpt_dir`` and
    write its own, ``<ckpt_dir>/<key>.ckpt``, atomically; return its metrics.

    A missing dependency file fails before any work is done; each dependency
    is loaded only when the stage reads it (a teacher only if ``run`` has no
    targets of it) and is not kept while the stage trains.
    """
    net, metrics = run_stage(node, run, _Checkpoints(ckpt_dir, node.deps))
    save_network(net, os.path.join(ckpt_dir, f"{node.key}.ckpt"))
    return metrics


def run_experiment(plan: ExperimentPlan, out_dir=None, workers: int = 1,
                   data: SplitDataset | None = None) -> MetricsReport:
    """Run every stage of the plan and return the metrics table.

    ``data`` is the plan's dataset (drawn from ``plan.generator`` when not
    given). With ``workers`` above 1 the stages run on that many worker
    processes (at most one per stage), unless ``run_stage`` carries a
    wrapper's ``__wrapped__``; the report and checkpoints are the same bytes
    for any worker count. Either walk hands networks over as checkpoint
    files, ``<run-key>.ckpt`` in ``out_dir``, each written when its stage
    finishes, so a failed run keeps those of the finished stages; without
    ``out_dir`` they go to a temporary directory, removed when the run ends.
    """
    if workers < 1:
        raise ValueError(f"workers must be a positive integer, got {workers}")
    run = Run(plan, generate(plan.generator) if data is None else data)
    listed = stages(plan)
    metrics: dict[str, dict[str, float]] = {}
    workers = min(workers, len(listed))
    with (tempfile.TemporaryDirectory(prefix="distillforge-") if out_dir is None
          else contextlib.nullcontext(out_dir)) as ckpt_dir:
        os.makedirs(ckpt_dir, exist_ok=True)
        # what a wrapper records in a forked worker never reaches this process
        if workers == 1 or hasattr(run_stage, "__wrapped__"):
            for node in listed:
                metrics[node.key] = run_stage_from_checkpoints(node, run, ckpt_dir)
        else:
            _walk(listed, run, workers, ckpt_dir, metrics)
    report = MetricsReport()
    for node in listed:
        if node.row is not None:
            report.add(*node.row, **metrics[node.key])
    return report


# The run a pool worker serves; set once per worker process by ``_adopt``.
_worker_run: Run | None = None


def _adopt(run: Run) -> None:
    global _worker_run
    _worker_run = run


def _run_adopted(key: str, ckpt_dir) -> dict[str, float]:
    return run_stage_from_checkpoints(stage(_worker_run.plan, key), _worker_run, ckpt_dir)


def _walk(listed: list[Stage], run: Run, workers: int, ckpt_dir, metrics: dict) -> None:
    """Run the stages on a process pool, each once its dependencies are done,
    and fill ``metrics`` by run key.

    Workers are forked, so they share ``run``'s dataset and evaluation pairs,
    computed here first, without pickling them and without
    re-importing numpy and this package, which a spawned worker must do
    first; forking also means the caller should run no other threads. A
    worker gets a run key and ``ckpt_dir``: it loads the stage's
    dependencies from their checkpoints there, writes the stage's own and
    returns only its metrics, so no network crosses the process boundary. A
    stage is submitted only after its dependencies' workers have returned,
    which they do after their checkpoint's atomic replace. On the first
    failure the stages not yet started are cancelled and the pool is shut
    down; the failure raised is the one of the earliest listed stage among
    those that ran.
    """
    # imported here, not at the top: these modules add about 25 ms to the
    # start-up of every CLI command, and only a pool needs them
    import multiprocessing
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
    from concurrent.futures.process import BrokenProcessPool

    run.pairs  # computed once, before the fork
    waiting, running = list(listed), {}
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_adopt, initargs=(run,))
    try:
        while waiting or running:
            for node in [n for n in waiting if all(dep in metrics for dep in n.deps)]:
                waiting.remove(node)
                running[pool.submit(_run_adopted, node.key, ckpt_dir)] = node
            done, _ = wait(running, return_when=FIRST_COMPLETED)
            if any(future.exception() is not None for future in done):
                break
            for future in done:
                metrics[running.pop(future).key] = future.result()
    finally:
        pool.shutdown(cancel_futures=True)
    failed = [future for future in running
              if not future.cancelled() and future.exception() is not None]
    if failed:
        exc = min(failed, key=lambda future: listed.index(running[future])).exception()
        if isinstance(exc, BrokenProcessPool):
            # the pool kills the other workers too, perhaps in the middle of a
            # checkpoint write
            for node in running.values():
                remove_partial_writes(os.path.join(ckpt_dir, f"{node.key}.ckpt"))
            raise RuntimeError("a worker process died while running stages "
                               f"{', '.join(node.key for node in running.values())}") from exc
        raise exc
