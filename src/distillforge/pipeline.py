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

The teacher's architecture, ``ExperimentPlan.teacher``, is the dataset's
input, identity and keypoint widths around the plan's hidden and embedding
widths; students divide only the hidden widths. A stage's record takes its
batch size and (rate, epochs) phases from its family's ``StagePlan`` (the
scratch rate, then the continuation rate, for a fresh build; the
continuation rate only for an initialized start), and its momentum, tau
and margin from the plan. Every stage draws its randomness from a named
substream of one top-level seed, so any run is reproducible in isolation.

Every stage trains on the dataset's training split and is scored on its
test split, both read-only ``data.Split`` columns that all stages share.

What stays fixed for a whole stage is built once, after its network
exists, as a table over the training split, and each batch indexes its
rows: the features standardized by the network's normalizer, the one-hot
labels and the softened teacher targets softmax(logits / tau) when
alpha > 0. One loop in ``_train``, phase by epoch by batch, trains every
label, and its step runs only the heads that ``losses.objective`` reads:
the regression head only for alignment, the class head only for a soft or
softmax term; a triplet batch forwards each of its distinct rows once.
Every table row and every gradient is bitwise what the per-batch build and
the all-heads forward give.

Each stage is named by a run key (``teacher_cls``, ``student4_cls_full_init``,
``student8_alignment_distill_a0_b1``, ...). ``stage(plan, key)`` resolves it
to a ``Stage``, a frozen record of everything the stage trains: its label
(``cls``, ``alignment``, ``verification``, ``verification_joint``), spec,
start (a fresh build, or the checkpoint of a dependency for full
initialization and transfer), teacher, ``DistillConfig`` (alpha and beta
from the run key, ``cls_alpha`` and 0 for a classification student, 0
without a teacher; the plan's tau and margin only where a term reads them),
batch size, momentum, phases and seed. ``_train`` reads only the record;
``Run.evaluate`` scores labels from one forward. ``_report_rows(plan)``
alone names the run keys the report shows and their rows; ``stages(plan)``
lists them and their dependencies, dependencies first. ``run_experiment``
and the CLI's ``train`` both run this one graph, so their checkpoints match.

Networks pass between stages only as checkpoint files in the run's
directory: ``run_stage(stage(plan, key), Run(plan, data, ckpt_dir))`` loads
a stage's dependencies from ``ckpt_dir``, each checked against the
architecture of its own stage (``Run.load``), trains it and writes
``<key>.ckpt`` there. The in-process walk, a pool worker and ``train`` all
call it, so a stage runs one way everywhere. ``run_experiment(plan,
workers=N)`` walks the graph on N forked worker processes: a stage is
submitted as soon as its dependencies have finished, a worker returns only
metrics, and the report rows come from the plan, so no byte depends on N.
A run with one worker, or whose ``run_stage`` has been wrapped (a span
tracer, say), walks in-process, so the wrapper sees every stage.
"""
from __future__ import annotations

import contextlib
import hashlib
import math
import os
import re
import tempfile
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import tensor as tc
from ._atomic import remove_partial_writes
from ._schema import check, check_fields, setting
from .data import GeneratorParams, Split, SplitDataset, generate, make_pairs, make_triplets
from .losses import DistillConfig, euclidean_loss, hard_term, objective, one_hot, soft_targets
from .metrics import (MetricsReport, nrmse, pair_verification_accuracy, reference_distances,
                      top1_accuracy, verification_top1)
from .nets import Network, NetworkSpec, build, load_network, save_network

__all__ = [
    "ALIGNMENT",
    "VERIFICATION",
    "derive_seed",
    "OptimizerState",
    "nag_step",
    "select_targets",
    "StagePlan",
    "TaskPlan",
    "ExperimentPlan",
    "Run",
    "Stage",
    "stage",
    "stages",
    "run_stage",
    "run_experiment",
]

ALIGNMENT = "alignment"
VERIFICATION = "verification"
_TASKS = (ALIGNMENT, VERIFICATION)


def derive_seed(seed: int, name: str) -> int:
    """Named substream seed: top-level seed XOR a stable 64-bit hash of the name."""
    digest = hashlib.blake2b(name.encode(), digest_size=8).digest()
    return (int(seed) ^ int.from_bytes(digest, "big")) & 0x7FFF_FFFF_FFFF_FFFF


class OptimizerState:
    """Nesterov-style momentum over flat buffers.

    Building the state moves the parameters' values into one contiguous
    buffer, ``params``, and leaves each ``p.data`` a view into it; the
    gradient and velocity buffers, ``grad`` and ``velocity``, share that
    layout (``grads`` holds the per-parameter gradient views). A step is
    then six whole-array ufunc calls, through the gradient buffer and one
    scratch buffer, so that it allocates nothing.
    """

    def __init__(self, parameters, learning_rate: float, momentum: float):
        self.parameters = list(parameters)
        self.learning_rate = float(learning_rate)
        self.momentum = float(momentum)
        n = sum(p.data.size for p in self.parameters)
        self.params, self.grad, self.velocity = np.empty(n), np.zeros(n), np.zeros(n)
        self.scratch = np.empty(n)
        self.grads = []
        start = 0
        for p in self.parameters:
            end = start + p.data.size
            view = self.params[start:end].reshape(p.data.shape)
            view[...] = p.data
            p.data = view
            self.grads.append(self.grad[start:end].reshape(view.shape))
            start = end

    def zero_grad(self) -> None:
        """Zero the gradient buffer and give each parameter its view of it, so
        backward accumulates in place; bitwise the same as accumulating into
        no gradient, since 0.0 + g is g + 0.0."""
        self.grad.fill(0.0)
        for p, view in zip(self.parameters, self.grads):
            p.grad = view


def nag_step(opt: OptimizerState) -> None:
    """v <- mu*v - lr*g; theta <- theta + mu*v - lr*g; gradients are cleared.

    The step consumes the flat gradient buffer ``opt.grad``, which ends as
    lr*g. A gradient that is not the parameter's view of it is copied in
    first; that gradient array itself is left unmodified.
    """
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


def _train(net, node: Stage, train: Split, targets):
    """Train ``net`` in place as stage ``node`` says: minibatch Nesterov steps on
    ``losses.objective`` with the label's task term (softmax for ``cls``,
    keypoint regression for alignment, the triplet hinge, plus softmax for the
    joint table, for verification), the stage's weights and the teacher's
    (logits, embedding) ``targets``, (None, None) without one.

    The one loop runs the (rate, epochs) phases of ``node.phases``, then
    epoch, then batch, at ``node.batch_size`` and ``node.momentum`` and from
    an RNG seeded by ``node.seed``. Each epoch draws a permutation of the
    training rows or, for verification, one fresh triplet per row, and each
    batch takes the next slice of them; a triplet batch forwards each of its
    distinct rows once. A non-finite loss stops training before its backward
    pass."""
    label, cfg, n = node.label, node.distill, len(train)
    t_logits, t_emb = targets
    x, soft = net.standardize(train.features), soft_targets(t_logits, cfg)
    t_emb = t_emb if cfg.beta else None  # only the hidden term reads it
    joint, verification = label == f"{VERIFICATION}_joint", label.startswith(VERIFICATION)
    onehot = one_hot(train.ids, net.spec.num_classes) if label == "cls" or joint else None
    heads = {"logits": cfg.alpha != 0 or onehot is not None, "regression": label == ALIGNMENT}
    opt = OptimizerState(net.parameters, node.phases[0][0], node.momentum)
    rng = np.random.default_rng(node.seed)
    for phase, (lr, n_epochs) in enumerate(node.phases, 1):
        opt.learning_rate = lr
        for epoch in range(1, n_epochs + 1):
            order = (make_triplets(train, n, int(rng.integers(2 ** 62))) if verification
                     else rng.permutation(n))
            for step, start in enumerate(range(0, n, node.batch_size), 1):
                sl = slice(start, start + node.batch_size)
                if verification:
                    rows, inverse = np.unique(np.concatenate([t[sl] for t in order]), return_inverse=True)
                else:
                    rows = order[sl]
                with tc.Tape():
                    out = net._forward(x[rows], **heads)
                    if label == "cls":
                        task = hard_term(out.logits, onehot[rows])
                    elif label == ALIGNMENT:
                        task = euclidean_loss(out.regression, train.keypoints[rows])
                    else:
                        task = tc.triplet_hinge(out.embedding, *np.split(inverse, 3), cfg.lambda_margin)
                    loss = objective(task, out.logits, out.embedding, _rows(soft, rows),
                                     _rows(t_emb, rows), cfg, _rows(onehot, rows) if joint else None)
                value = loss.item()
                if not math.isfinite(value):
                    raise RuntimeError(
                        f"non-finite training loss {value} in learning-rate phase {phase} "
                        f"(lr {lr:g}), epoch {epoch}, step {step}")
                # heads untouched by this objective keep a genuinely zero gradient
                opt.zero_grad()
                tc.backward(loss)
                nag_step(opt)


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


# Experiment plans ------------------------------------------------------------------

@dataclass(frozen=True)
class StagePlan:
    """Stage sizing plus the two learning rates of a stage family's phases.

    The default rates are desk-scale values picked empirically: at the
    reference scale (momentum 0.9, He-uniform init, these widths, seed 0) a
    scratch rate of 0.1 kills all 16 embedding rectifiers of the teacher in
    its first epoch (and 19 of 256, 50 of 128 below), so top-1 stays at chance.
    """

    batch_size: int = setting(int, ge=1)
    epochs_per_phase: int = setting(int, ge=0)
    scratch_lr: float = setting(float, 0.02, gt=0)
    continue_lr: float = setting(float, 0.002, gt=0)

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class TaskPlan:
    """One result table: a task, its student divisors, inits, and (alpha, beta) grid."""

    task: str = setting(str, among=_TASKS)
    divisors: tuple[int, ...] = setting(int, each=True, ge=1)
    inits: tuple[str, ...] = setting(str, ("pretrain", "distill"), each=True,
                                     among=("scratch", "pretrain", "distill"))
    grid: tuple[tuple[float, float], ...] = ((0.0, 0.0), (0.0, 1.0), (1.0, 0.0))
    include_softmax: bool = setting(bool, False)

    def __post_init__(self):
        check_fields(self)
        if self.include_softmax and self.task != VERIFICATION:
            raise ValueError("include_softmax applies to verification only")
        if not isinstance(self.grid, tuple) or any(
                not isinstance(point, tuple) or len(point) != 2 for point in self.grid):
            raise ValueError(f"grid points must be (alpha, beta) pairs, got {self.grid!r}")
        if any(not 0 <= w < math.inf or float(f"{w:g}") != w for point in self.grid for w in point):
            raise ValueError("grid weights must be finite, nonnegative and exact in a run key's "
                             f"%g form, got {self.grid}")
        object.__setattr__(self, "grid", tuple((a + 0.0, b + 0.0) for a, b in self.grid))  # -0.0 is 0.0

    @property
    def label(self) -> str:
        return f"{self.task}_joint" if self.include_softmax else self.task


@dataclass(frozen=True)
class ExperimentPlan:
    generator: GeneratorParams = GeneratorParams()
    hidden_widths: tuple[int, ...] = setting(int, (256, 256, 128), each=True, nonempty=True, ge=1)
    # embedding width <= narrowest student trunk layer (128/8 at divisor 8);
    # a student whose last trunk layer is narrower than the embedding cannot
    # span the teacher's embedding space and hidden matching hits a rank floor
    embedding_dim: int = setting(int, 16, ge=1)
    cls_alpha: float = setting(float, DistillConfig.alpha, ge=0)  # classification students' soft weight
    tau: float = setting(float, DistillConfig.tau, ge=1)
    lambda_margin: float = setting(float, DistillConfig.lambda_margin, ge=0)
    cls_divisors: tuple[int, ...] = setting(int, (2, 4, 8), each=True, ge=1)
    cls_inits: tuple[str, ...] = setting(str, ("scratch", "full_init"), each=True,
                                         among=("scratch", "full_init"))
    tasks: tuple[TaskPlan, ...] = (
        TaskPlan(ALIGNMENT, (8,)),
        TaskPlan(VERIFICATION, (2,)),
        TaskPlan(VERIFICATION, (2,), include_softmax=True),
    )
    cls_stage: StagePlan = StagePlan(64, 15)
    alignment_stage: StagePlan = StagePlan(32, 30, scratch_lr=0.005, continue_lr=0.0002)
    verification_stage: StagePlan = StagePlan(32, 15, scratch_lr=0.005, continue_lr=0.001)
    momentum: float = setting(float, 0.9, ge=0, lt=1)  # of every stage's Nesterov steps
    eval_pairs: int = setting(int, 200, ge=1)  # evaluation pairs per class
    seed: int = setting(int, 0, ge=0)

    def __post_init__(self):
        check_fields(self)
        n_test = self.generator.split_sizes[1]
        if n_test < 2:  # evaluation pairs need two test samples of one identity
            raise ValueError(f"samples_per_identity {self.generator.samples_per_identity} leaves "
                             f"{n_test} test samples per identity; evaluation needs at least 2")
        labels = [tp.label for tp in self.tasks]
        if len(set(labels)) != len(labels):
            raise ValueError(f"each task table needs its own label, got {labels}")

    @property
    def teacher(self) -> NetworkSpec:
        """The teacher's architecture: the dataset's input, identity and
        keypoint widths around the plan's hidden and embedding widths."""
        gen = self.generator
        return NetworkSpec(gen.input_dim, self.hidden_widths, self.embedding_dim, gen.num_identities,
                           gen.num_keypoint_coords)


# Stage graph -----------------------------------------------------------------------

_STAGE_KEY = re.compile(r"(?:teacher|student([1-9]\d*))_(cls|alignment|verification_joint|verification)"
                        r"(?:_(.+))?")
_GRID_RUN = re.compile(r"(scratch|pretrain|distill)_a([0-9.eE+-]+)_b([0-9.eE+-]+)")


class Run:
    """The constants every stage of one run shares: the dataset, whose splits
    are read-only, the directory ``ckpt_dir`` of its checkpoints and, each
    computed at most once, the evaluation pairs and each teacher's targets,
    memoised by run key (``targets`` loads a checkpoint again only when the
    device, inode, size or modification time at its path is new)."""

    def __init__(self, plan: ExperimentPlan, data: SplitDataset, ckpt_dir):
        self.plan = plan
        self.data = data
        self.ckpt_dir = ckpt_dir
        self._targets: dict[str, tuple[tuple, tuple[np.ndarray, np.ndarray]]] = {}

    @cached_property
    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        return make_pairs(self.data.test, self.plan.eval_pairs,
                          derive_seed(self.plan.seed, "eval_pairs"))

    def path(self, key: str) -> str:
        """Where stage ``key``'s checkpoint lives: ``<ckpt_dir>/<key>.ckpt``."""
        return os.path.join(self.ckpt_dir, f"{key}.ckpt")

    def load(self, key: str) -> Network:
        """The network of stage ``key`` from its checkpoint, which must hold the
        architecture the plan gives that stage, ``stage(plan, key).spec``: the
        teacher's, its hidden widths divided by the key's student divisor (read
        off the key, so a pool worker resolves no stage record)."""
        net = load_network(path := self.path(key))
        spec = self.plan.teacher.student(int(_STAGE_KEY.fullmatch(key)[1] or 1))
        if net.spec != spec:
            raise ValueError(f"checkpoint {path} holds a {net.spec}; the plan gives {spec}")
        return net

    def targets(self, key: str) -> tuple[np.ndarray, np.ndarray]:
        st = os.stat(self.path(key))  # before the load: a file replaced in between is loaded again next time
        stamp = (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns)
        if key not in self._targets or self._targets[key][0] != stamp:
            self._targets[key] = stamp, _teacher_targets(self.load(key), self.data.train.features)
        return self._targets[key][1]

    def evaluate(self, net: Network, *labels: str) -> dict[str, float]:
        """Test-split metrics of the stage ``labels``, each once, from one
        forward: top-1 for ``cls``, NRMSE for alignment, verification top-1
        for the verification labels, and the pair accuracy for any but alignment."""
        test = self.data.test
        out, metrics = net.forward(test.features), {}
        for label in labels:
            if label == ALIGNMENT:
                metrics["nrmse"] = nrmse(out.regression, test.keypoints, reference_distances(test.keypoints))
            elif label == "cls":
                metrics["top1"] = top1_accuracy(out.logits, test.ids)
            else:
                metrics["verif_top1"] = verification_top1(out.embedding, test.ids)
        if set(labels) - {ALIGNMENT}:
            metrics["pair_acc"] = pair_verification_accuracy(out.embedding, *self.pairs)
        return metrics


@dataclass(frozen=True)
class Stage:
    """One node of the stage graph: everything ``stage()`` resolves for a run key.

    ``label`` selects the task term and the metrics (``Run.evaluate``). The
    stage trains a network of architecture ``spec``: the checkpoint of the
    dependency ``start``, or a fresh build when ``start`` is None. It trains on
    the targets of the dependency ``teacher`` (None: no targets), with the
    weights ``distill``, ``batch_size``, ``momentum``, the (rate, epochs)
    ``phases`` and the derived ``seed``. A stage compares, hashes and pickles
    by these values, so two records are equal exactly when they train alike;
    the report row is the plan's (``_report_rows``), not the record's.
    """

    key: str
    label: str
    spec: NetworkSpec
    start: str | None
    teacher: str | None
    distill: DistillConfig
    batch_size: int
    momentum: float
    phases: tuple[tuple[float, int], ...]
    seed: int

    @property
    def deps(self) -> tuple[str, ...]:
        return tuple(dep for dep in (self.teacher, self.start) if dep)


def stage(plan: ExperimentPlan, key: str) -> Stage:
    """The stage a run key names, under this plan's settings and seed.

    Keys outside the plan's report (``_report_rows``), such as another
    divisor or grid point, are stages too. A key that names no stage, or
    weights ``DistillConfig`` rejects, or an alignment key on fewer than two
    keypoints raises ValueError.
    """
    m = _STAGE_KEY.fullmatch(key)
    if m is None or (m[1] is None) != (m[3] is None):  # only student keys carry a suffix
        raise ValueError(f"unknown stage key {key!r}")
    divisor, label, kind = m.groups()
    if label == ALIGNMENT and plan.generator.num_keypoints < 2:
        raise ValueError(f"stage {key} needs num_keypoints >= 2, got {plan.generator.num_keypoints}: "
                         "NRMSE normalizes by the distance between the first two keypoints")
    splan = {"cls": plan.cls_stage, ALIGNMENT: plan.alignment_stage}.get(label, plan.verification_stage)
    d = int(divisor) if divisor else 1
    spec, grid = plan.teacher.student(d), _GRID_RUN.fullmatch(kind or "")
    teacher, start, alpha, beta = None, None, 0.0, 0.0
    if divisor is None:  # a task teacher fine-tunes a value copy of the classification teacher
        start = None if key == "teacher_cls" else "teacher_cls"
    elif label == "cls" and kind in ("init", "scratch", "full_init"):
        # init is softmax only; full_init continues from a value copy of init
        teacher = None if kind == "init" else "teacher_cls"
        start = f"student{d}_cls_init" if kind == "full_init" else None
        alpha = plan.cls_alpha  # no hidden term
    elif grid is not None and label != "cls":
        teacher, alpha, beta = f"teacher_{label}", grid[2], grid[3]
        start = {"pretrain": f"student{d}_{label}_pretrain_base",
                 "distill": f"student{d}_cls_full_init"}.get(grid[1])
    elif label == "cls" or kind != "pretrain_base":  # the pretrain base trains a fresh student
        raise ValueError(f"unknown stage key {key!r}")
    n = splan.epochs_per_phase  # a copied start continues; a fresh build starts at the scratch rate
    phases = ((splan.continue_lr, n),) if start else ((splan.scratch_lr, n), (splan.continue_lr, n))
    try:
        distill = DistillConfig(float(alpha), float(beta))
    except ValueError as exc:
        raise ValueError(f"bad stage key {key!r}: {exc}") from exc
    if teacher is None or not (distill.alpha or distill.beta):  # no term reads a target: no teacher
        teacher, distill = None, DistillConfig(0.0, 0.0)
    # tau only for a soft term, the margin only for the triplet hinge; unread, each keeps its default
    distill = replace(distill, tau=plan.tau if distill.alpha else distill.tau, lambda_margin=(
        plan.lambda_margin if label.startswith(VERIFICATION) else distill.lambda_margin))
    return Stage(key, label, spec, start, teacher, distill, splan.batch_size, plan.momentum, phases,
                 derive_seed(plan.seed, key))


def _report_rows(plan: ExperimentPlan):
    """(run key, report row) of each stage the plan reports, the row being its
    (task, network, init, alpha, beta) in ``MetricsReport``; a repeated
    divisor or grid point repeats its pair."""
    yield "teacher_cls", ("classification", "teacher", "scratch", 0, 0)
    for d in plan.cls_divisors:
        for init in plan.cls_inits:
            yield f"student{d}_cls_{init}", ("classification", f"student/{d}", init, plan.cls_alpha, 0)
    for tp in plan.tasks:
        yield f"teacher_{tp.label}", (tp.label, "teacher", "transfer", 0, 0)
        for d in tp.divisors:
            for init in tp.inits:
                for alpha, beta in tp.grid:
                    yield (f"student{d}_{tp.label}_{init}_a{alpha:g}_b{beta:g}",
                           (tp.label, f"student/{d}", init, alpha, beta))


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

    for key, _ in _report_rows(plan):
        visit(key)
    return list(listed.values())


def run_stage(node: Stage, run: Run) -> tuple[Network, dict[str, float]]:
    """Train one stage on its dependencies' checkpoints in ``run.ckpt_dir``,
    evaluate it and write its own, ``run.path(node.key)``, atomically.

    A missing dependency file fails before any work is done; each dependency
    is loaded by ``run.load`` only when the stage reads it (a teacher only if
    ``run`` has no targets of that file), the start before the teacher's
    targets are built, and is not kept while the stage trains. Any failure, a
    non-finite metric included, keeps its exception type and names the run key.
    """
    for dep in node.deps:
        if not os.path.exists(path := run.path(dep)):
            raise FileNotFoundError(f"missing prerequisite checkpoint {path}; train '{dep}' first")
    try:
        net = run.load(node.start) if node.start else None
        targets = run.targets(node.teacher) if node.teacher else (None, None)
        # a fresh build after the targets: built first, it raised the peak RSS
        # of a `train student2_cls_scratch` process from 46.5 to 48.5 MB
        net = net or _fresh(node.spec, node.seed, run.data.train.features)
        _train(net, node, run.data.train, targets)
        metrics = run.evaluate(net, node.label)
        for name, value in metrics.items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
    except (RuntimeError, ValueError) as exc:
        raise type(exc)(f"stage {node.key}: {exc}") from exc
    save_network(net, run.path(node.key))
    return net, metrics


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
    workers = check("workers", {"type": int, "ge": 1}, workers)
    listed = stages(plan)
    metrics: dict[str, dict[str, float]] = {}
    workers = min(workers, len(listed))
    with (tempfile.TemporaryDirectory(prefix="distillforge-") if out_dir is None
          else contextlib.nullcontext(out_dir)) as ckpt_dir:
        os.makedirs(ckpt_dir, exist_ok=True)
        run = Run(plan, generate(plan.generator) if data is None else data, ckpt_dir)
        # what a wrapper records in a forked worker never reaches this process
        if workers == 1 or hasattr(run_stage, "__wrapped__"):
            for node in listed:
                metrics[node.key] = run_stage(node, run)[1]
        else:
            _walk(listed, run, workers, metrics)
    report = MetricsReport()
    for key, row in dict(_report_rows(plan)).items():
        report.add(*row, **metrics[key])
    return report


# The run a pool worker serves; set once per worker process by ``_adopt``.
_worker_run: Run | None = None


def _adopt(run: Run) -> None:
    global _worker_run
    _worker_run = run


def _run_adopted(node: Stage) -> dict[str, float]:
    return run_stage(node, _worker_run)[1]


def _walk(listed: list[Stage], run: Run, workers: int, metrics: dict) -> None:
    """Run the stages on a process pool, each once its dependencies are done,
    and fill ``metrics`` by run key.

    Workers are forked, so they share ``run``'s dataset and evaluation pairs,
    computed here first, without pickling them and without
    re-importing numpy and this package, which a spawned worker must do
    first; forking also means the caller should run no other threads. A
    worker gets a stage record: it loads the stage's dependencies from their
    checkpoints in ``run.ckpt_dir``, writes the stage's own there and
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
                running[pool.submit(_run_adopted, node)] = node
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
                remove_partial_writes(run.path(node.key))
            raise RuntimeError("a worker process died while running stages "
                               f"{', '.join(node.key for node in running.values())}") from exc
        raise exc
