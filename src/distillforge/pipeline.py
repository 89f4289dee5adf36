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
"""
from __future__ import annotations

import hashlib
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import tensor as tc
from .data import GeneratorParams, SplitDataset, as_arrays, generate, make_pairs, make_triplets
from .losses import (DistillConfig, alignment_distill_loss, classification_distill_loss,
                     euclidean_loss, softmax_loss, triplet_loss, verification_distill_loss)
from .metrics import (MetricsReport, nrmse, pair_verification_accuracy, reference_distances,
                      top1_accuracy, verification_top1)
from .nets import Network, NetworkSpec, build, clone, save_network

__all__ = [
    "ALIGNMENT",
    "VERIFICATION",
    "derive_seed",
    "StageConfig",
    "OptimizerState",
    "nag_step",
    "TrainingLog",
    "train_teacher_cls",
    "init_student_cls",
    "distill_student_cls",
    "pretrain_student_task",
    "train_teacher_task",
    "distill_student_task",
    "select_targets",
    "StagePlan",
    "TaskPlan",
    "ExperimentPlan",
    "run_experiment",
    "evaluate_classification",
    "evaluate_alignment",
    "evaluate_verification",
    "evaluate_all",
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
    """Nesterov-style momentum state: one velocity buffer per parameter, plus
    two scratch buffers per parameter so that a step allocates nothing."""

    def __init__(self, learning_rate: float, momentum: float, velocities: list[np.ndarray]):
        self.learning_rate = float(learning_rate)
        self.momentum = float(momentum)
        self.velocities = velocities
        self.scratch = [(np.empty_like(v), np.empty_like(v)) for v in velocities]

    @classmethod
    def for_network(cls, net, learning_rate: float, momentum: float = 0.9) -> "OptimizerState":
        return cls(learning_rate, momentum, [np.zeros_like(p.data) for p in net.parameters])


def nag_step(net, opt: OptimizerState) -> None:
    """v <- mu*v - lr*g; theta <- theta + mu*v - lr*g; gradients are cleared.

    Updates run in place, through the state's scratch buffers; the gradient
    arrays themselves are left unmodified.
    """
    if len(opt.velocities) != len(net.parameters):
        raise ValueError("optimizer state does not match the network's parameter list")
    mu, lr = opt.momentum, opt.learning_rate
    for p, v, (lr_g, update) in zip(net.parameters, opt.velocities, opt.scratch):
        if p.grad is None:
            raise RuntimeError("nag_step: a parameter has no gradient; run backward first")
        np.multiply(p.grad, lr, out=lr_g)
        v *= mu
        v -= lr_g
        np.multiply(v, mu, out=update)
        update -= lr_g
        p.data += update
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
                tc.backward(loss)
                # heads untouched by this objective have a genuinely zero gradient
                for p in net.parameters:
                    if p.grad is None:
                        p.grad = np.zeros_like(p.data)
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


def _triplet_batches(samples, count: int, batch_size: int):
    def make_epoch(rng):
        # fresh uniformly drawn triplets every epoch
        a, p, n_ = make_triplets(samples, count, int(rng.integers(2 ** 62)))
        for start in range(0, count, batch_size):
            sl = slice(start, start + batch_size)
            yield a[sl], p[sl], n_[sl]
    return make_epoch


def _dedup_triplet_batch(batch):
    a, p, n_ = batch
    k = a.size
    uniq, inv = np.unique(np.concatenate([a, p, n_]), return_inverse=True)
    return uniq, inv[:k], inv[k:2 * k], inv[2 * k:]


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _train_arrays(data: SplitDataset) -> tuple[np.ndarray, ...]:
    """(features, identities, keypoints) of the training split, read-only so
    that every stage of a run, concurrent grid jobs included, shares them."""
    return _read_only(*as_arrays(data.train))


def _fresh(spec: NetworkSpec, seed: int, feats: np.ndarray) -> Network:
    """A newly built network that standardizes inputs by ``feats``."""
    net = build(spec, seed)
    net.set_normalizer(feats.mean(axis=0), feats.std(axis=0))
    return net


def _check_task(task: str) -> None:
    if task not in _TASKS:
        raise ValueError(f"unknown task {task!r}; expected one of {_TASKS}")


# Stages ---------------------------------------------------------------------------
# Each public stage extracts the training arrays (and, for distillation, the
# teacher targets) and runs a private body on them; ``run_experiment`` does
# that extraction once per run (per teacher) and calls the bodies directly.

def train_teacher_cls(spec: NetworkSpec, data: SplitDataset, stage: StageConfig) -> Network:
    """Scratch softmax training of the (teacher) classification network."""
    return _train_cls(spec, _train_arrays(data), stage)


def _train_cls(spec, arrays, stage):
    feats, ids, _ = arrays
    net = _fresh(spec, stage.seed, feats)

    def step(idx):
        with tc.Tape():
            out = net.forward(feats[idx])
            return softmax_loss(out.logits, ids[idx])

    _run_training(net, stage, _index_batches(len(feats), stage.batch_size), step)
    return net


def init_student_cls(spec: NetworkSpec, data: SplitDataset, stage: StageConfig) -> Network:
    """Softmax-only student training; the starting point of full initialization."""
    return train_teacher_cls(spec, data, stage)


def _teacher_targets(teacher: Network, feats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The constant teacher's logits and embedding for every training row, read-only.

    One forward outside any tape; batches index these rows, which match a
    per-batch forward bitwise for logits and embedding (not for the
    regression head, which is therefore never read from here).
    """
    out = teacher.forward(feats)
    return _read_only(out.logits.data, out.embedding.data)


def distill_student_cls(teacher: Network, data: SplitDataset, cfg: DistillConfig,
                        stage: StageConfig, student_spec: NetworkSpec | None = None,
                        init_from: Network | None = None) -> Network:
    """Classification distillation from a (constant) teacher.

    ``init_from=None`` builds the student fresh (scratch mode); otherwise
    the student continues from a value copy of ``init_from`` (full
    initialization). The objective is the hard-label loss plus the
    alpha-weighted soft-target cross-entropy.
    """
    arrays = _train_arrays(data)
    return _distill_cls(_teacher_targets(teacher, arrays[0]), arrays, cfg, stage,
                        student_spec, init_from)


def _distill_cls(targets, arrays, cfg, stage, student_spec=None, init_from=None):
    feats, ids, _ = arrays
    if init_from is not None:
        net = clone(init_from)
    elif student_spec is None:
        raise ValueError("scratch mode needs student_spec")
    else:
        net = _fresh(student_spec, stage.seed, feats)
    t_logits, t_emb = targets
    if t_emb.shape[1] != net.spec.embedding_dim or t_logits.shape[1] != net.spec.num_classes:
        raise ValueError("student and teacher must share embedding_dim and num_classes")

    def step(idx):
        with tc.Tape():
            out = net.forward(feats[idx])
            return classification_distill_loss(out.logits, t_logits[idx], ids[idx], cfg)

    _run_training(net, stage, _index_batches(len(feats), stage.batch_size), step)
    return net


def _task_batches(task, samples, stage: StageConfig, triplets_per_epoch: int):
    if task == ALIGNMENT:
        return _index_batches(len(samples), stage.batch_size)
    count = triplets_per_epoch if triplets_per_epoch > 0 else len(samples)
    return _triplet_batches(samples, count, stage.batch_size)


def train_teacher_task(teacher_cls: Network, task: str, data: SplitDataset, cfg: DistillConfig,
                       stage: StageConfig, include_softmax: bool = False,
                       triplets_per_epoch: int = 0) -> Network:
    """Transfer-initialize the task teacher from the classification teacher
    (value copy; the source is left untouched) and fine-tune on the task."""
    _check_task(task)
    return _train_task(clone(teacher_cls), task, data.train, _train_arrays(data), cfg, stage,
                       include_softmax, triplets_per_epoch)


def pretrain_student_task(spec: NetworkSpec, task: str, data: SplitDataset, cfg: DistillConfig,
                          stage: StageConfig, include_softmax: bool = False,
                          triplets_per_epoch: int = 0) -> Network:
    """Fresh student trained on the task objective alone (the Pretrain start)."""
    _check_task(task)
    arrays = _train_arrays(data)
    return _train_task(_fresh(spec, stage.seed, arrays[0]), task, data.train, arrays, cfg, stage,
                       include_softmax, triplets_per_epoch)


def _train_task(net, task, samples, arrays, cfg, stage, include_softmax, triplets_per_epoch):
    """Task-only objective (no distillation terms) for teacher/pretrain stages."""
    feats, ids, kps = arrays
    if task == ALIGNMENT:
        def step(idx):
            with tc.Tape():
                out = net.forward(feats[idx])
                return euclidean_loss(out.regression, kps[idx])
    else:
        def step(batch):
            uniq, ia, ip, in_ = _dedup_triplet_batch(batch)
            with tc.Tape():
                out = net.forward(feats[uniq])
                loss = triplet_loss(
                    tc.take_rows(out.embedding, ia),
                    tc.take_rows(out.embedding, ip),
                    tc.take_rows(out.embedding, in_),
                    cfg.lambda_margin,
                )
                if include_softmax:
                    loss = tc.add(loss, softmax_loss(out.logits, ids[uniq]))
                return loss

    _run_training(net, stage, _task_batches(task, samples, stage, triplets_per_epoch), step)
    return net


def distill_student_task(teacher_task: Network, init_net: Network, task: str, data: SplitDataset,
                         cfg: DistillConfig, stage: StageConfig, include_softmax: bool = False,
                         triplets_per_epoch: int = 0) -> Network:
    """Fine-tune a student on the combined task + distillation objective.

    ``init_net`` is the starting point (task-pretrained student or the
    distilled classification student); it is value-copied, never mutated.
    """
    _check_task(task)
    arrays = _train_arrays(data)
    return _distill_task(_teacher_targets(teacher_task, arrays[0]), init_net, task, data.train,
                         arrays, cfg, stage, include_softmax, triplets_per_epoch)


def _distill_task(targets, init_net, task, samples, arrays, cfg, stage, include_softmax,
                  triplets_per_epoch):
    feats, ids, kps = arrays
    t_logits, t_emb = targets
    net = clone(init_net)

    if task == ALIGNMENT:
        def step(idx):
            with tc.Tape():
                out = net.forward(feats[idx])
                return alignment_distill_loss(out, (t_logits[idx], t_emb[idx]), kps[idx], cfg)
    else:
        def step(batch):
            uniq, ia, ip, in_ = _dedup_triplet_batch(batch)
            with tc.Tape():
                out = net.forward(feats[uniq])
                return verification_distill_loss(
                    (out.logits, out.embedding), (t_logits[uniq], t_emb[uniq]),
                    (ia, ip, in_), cfg, include_softmax, ids[uniq])

    _run_training(net, stage, _task_batches(task, samples, stage, triplets_per_epoch), step)
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

def _outputs(net: Network, samples):
    feats, ids, kps = as_arrays(samples)
    return net.forward(feats), ids, kps


def _classification_metrics(out, ids, kps, pairs) -> dict[str, float]:
    result = {"top1": top1_accuracy(out.logits, ids)}
    if pairs is not None:
        result["pair_acc"] = pair_verification_accuracy(out.embedding, *pairs)
    return result


def _alignment_metrics(out, ids, kps, pairs=None) -> dict[str, float]:
    return {"nrmse": nrmse(out.regression, kps, reference_distances(kps))}


def _verification_metrics(out, ids, kps, pairs) -> dict[str, float]:
    result = {"verif_top1": verification_top1(out.embedding, ids)}
    if pairs is not None:
        result["pair_acc"] = pair_verification_accuracy(out.embedding, *pairs)
    return result


def evaluate_classification(net: Network, samples, pairs=None) -> dict[str, float]:
    return _classification_metrics(*_outputs(net, samples), pairs)


def evaluate_alignment(net: Network, samples) -> dict[str, float]:
    return _alignment_metrics(*_outputs(net, samples))


def evaluate_verification(net: Network, samples, pairs=None) -> dict[str, float]:
    return _verification_metrics(*_outputs(net, samples), pairs)


def evaluate_all(net: Network, samples, pairs=None) -> dict[str, float]:
    """Every metric applicable to this network on these samples."""
    outputs = _outputs(net, samples)
    result = _classification_metrics(*outputs, pairs)
    result.update(_verification_metrics(*outputs, None))
    if net.spec.num_keypoint_coords:
        result.update(_alignment_metrics(*outputs))
    return result


# Experiment plans ------------------------------------------------------------------

def _resolve_threads(threads: int | None) -> int:
    if threads is None:
        raw = os.environ.get("DISTILLFORGE_THREADS", "1")
        try:
            threads = int(raw)
        except ValueError as exc:
            raise ValueError(f"DISTILLFORGE_THREADS must be an integer, got {raw!r}") from exc
    if threads < 1:
        raise ValueError(f"thread cap must be >= 1, got {threads}")
    return threads


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
        _check_task(self.task)
        if self.include_softmax and self.task != VERIFICATION:
            raise ValueError("include_softmax applies to verification only")
        bad = [i for i in self.inits if i not in ("scratch", "pretrain", "distill")]
        if bad:
            raise ValueError(f"unknown task init modes {bad}")

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
        bad = [i for i in self.cls_inits if i not in ("scratch", "full_init")]
        if bad:
            raise ValueError(f"unknown classification init modes {bad}")

    def stage_plan(self, task: str) -> StagePlan:
        return self.alignment_stage if task == ALIGNMENT else self.verification_stage


def run_experiment(plan: ExperimentPlan, out_dir=None, threads: int | None = None) -> MetricsReport:
    """Run every stage of the plan and return the metrics table.

    Checkpoints land in ``out_dir`` (one ``<run-key>.ckpt`` per trained
    network) when it is given. ``threads`` caps grid-run parallelism and
    defaults to the DISTILLFORGE_THREADS environment variable (then 1);
    results do not depend on the thread count.
    """
    threads = _resolve_threads(threads)
    data = generate(plan.generator)
    pairs = make_pairs(data.test, plan.eval_pairs, derive_seed(plan.seed, "eval_pairs"))
    # run constants, computed once and shared read-only by every stage
    arrays = _train_arrays(data)
    test = _read_only(*as_arrays(data.test))
    report = MetricsReport()
    saved: dict[str, Network] = {}

    def register(key: str, net: Network) -> Network:
        saved[key] = net
        return net

    def seed_for(key: str) -> int:
        return derive_seed(plan.seed, key)

    def evaluate(metrics, net: Network) -> dict[str, float]:
        return metrics(net.forward(test[0]), *test[1:], pairs)

    # classification
    teacher = register("teacher_cls", _train_cls(
        plan.teacher, arrays, plan.cls_stage.stage("scratch", seed_for("teacher_cls"))))
    report.add("classification", "teacher", "scratch", 0.0, 0.0,
               **evaluate(_classification_metrics, teacher))
    cls_targets = _teacher_targets(teacher, arrays[0])

    cls_students: dict[int, Network] = {}

    def full_init_student(d: int) -> Network:
        if d not in cls_students:
            s0 = register(f"student{d}_cls_init", _train_cls(
                plan.teacher.student(d), arrays,
                plan.cls_stage.stage("scratch", seed_for(f"student{d}_cls_init"))))
            cls_students[d] = register(f"student{d}_cls_full_init", _distill_cls(
                cls_targets, arrays, plan.distill,
                plan.cls_stage.stage("continue", seed_for(f"student{d}_cls_full_init")),
                init_from=s0))
        return cls_students[d]

    for d in plan.cls_divisors:
        for mode in plan.cls_inits:
            if mode == "scratch":
                net = register(f"student{d}_cls_scratch", _distill_cls(
                    cls_targets, arrays, plan.distill,
                    plan.cls_stage.stage("scratch", seed_for(f"student{d}_cls_scratch")),
                    student_spec=plan.teacher.student(d)))
            else:
                net = full_init_student(d)
            report.add("classification", f"student/{d}", mode, plan.distill.alpha, 0.0,
                       **evaluate(_classification_metrics, net))

    # task tables
    for tp in plan.tasks:
        splan = plan.stage_plan(tp.task)
        task_metrics = _alignment_metrics if tp.task == ALIGNMENT else _verification_metrics
        t_key = f"teacher_{tp.label}"
        teacher_task = register(t_key, _train_task(
            clone(teacher), tp.task, data.train, arrays, plan.distill,
            splan.stage("continue", seed_for(t_key)), tp.include_softmax,
            splan.triplets_per_epoch))
        report.add(tp.label, "teacher", "transfer", 0.0, 0.0,
                   **evaluate(task_metrics, teacher_task))
        task_targets = _teacher_targets(teacher_task, arrays[0])

        jobs = []
        for d in tp.divisors:
            s_spec = plan.teacher.student(d)
            inits: dict[str, Network | None] = {}
            for mode in tp.inits:
                if mode == "pretrain":
                    key = f"student{d}_{tp.label}_pretrain_base"
                    stage = splan.stage("scratch", seed_for(key))
                    inits[mode] = register(key, _train_task(
                        _fresh(s_spec, stage.seed, arrays[0]), tp.task, data.train, arrays,
                        plan.distill, stage, tp.include_softmax, splan.triplets_per_epoch))
                elif mode == "distill":
                    inits[mode] = full_init_student(d)
                else:
                    inits[mode] = None

            for mode in tp.inits:
                for alpha, beta in tp.grid:
                    key = f"student{d}_{tp.label}_{mode}_a{alpha:g}_b{beta:g}"
                    cfg = replace(plan.distill, alpha=alpha, beta=beta)
                    stage_mode = "scratch" if mode == "scratch" else "continue"
                    stage = splan.stage(stage_mode, seed_for(key))

                    def job(key=key, cfg=cfg, stage=stage, mode=mode, d=d,
                            init_net=inits[mode], alpha=alpha, beta=beta):
                        if init_net is None:  # scratch: fresh build, combined objective
                            init_net = _fresh(plan.teacher.student(d), stage.seed, arrays[0])
                        net = _distill_task(
                            task_targets, init_net, tp.task, data.train, arrays, cfg, stage,
                            tp.include_softmax, splan.triplets_per_epoch)
                        return key, (f"student/{d}", mode, alpha, beta), net
                    jobs.append(job)

        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                results = list(pool.map(lambda j: j(), jobs))
        else:
            results = [j() for j in jobs]
        for key, (network, mode, alpha, beta), net in results:
            register(key, net)
            report.add(tp.label, network, mode, alpha, beta, **evaluate(task_metrics, net))

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        for key, net in saved.items():
            save_network(net, os.path.join(out_dir, f"{key}.ckpt"))
    return report
