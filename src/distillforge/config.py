"""Flat key/value run configuration.

A config file is plain text, one ``section.key = value`` assignment per
line; blank lines and lines starting with ``#`` are skipped. Precedence:
built-in defaults, then the file, then ``--set key=value`` overrides.

A key's default, type and bound are those of the plan field it sets
(``_schema``), so the config accepts what the library accepts. No key
sets beta: each task grid run takes its alpha and beta from its run key.
``experiment.*_divisors`` and ``experiment.verification_modes`` become
``TaskPlan``s: the divisors have the bound of ``TaskPlan.divisors``, and
all three read their defaults from the default plan's tasks. ``out`` sets
no plan field and keeps its default here.

The single ``seed`` key drives everything downstream: the dataset draw
and every training stage's named substream.
"""
from __future__ import annotations

from dataclasses import field, fields

from ._schema import bound_text, check, setting
from .data import GeneratorParams
from .pipeline import ALIGNMENT, VERIFICATION, ExperimentPlan, StagePlan, TaskPlan

__all__ = ["ConfigError", "DEFAULTS", "load_config", "apply_set", "generator_params",
           "experiment_plan", "describe_keys"]


class ConfigError(ValueError):
    """Bad config input: unknown key, unparsable value, or out-of-range value."""


def _plan(path: str):
    """(``path``, the field of ``ExperimentPlan`` at the dotted ``path``, with
    the default plan's value there as its default)."""
    value = ExperimentPlan()
    for name in path.split("."):
        bound = next(f.metadata for f in fields(value) if f.name == name)
        value = getattr(value, name)
    return path, field(default=value, metadata=bound)


_DIVISORS = next(f.metadata for f in fields(TaskPlan) if f.name == "divisors")
_MODES = ("single", "joint")  # the verification_modes values, indexed by include_softmax
_TABLES = {t.label: t for t in ExperimentPlan().tasks}  # the default plan's result tables

# key -> (the dotted ExperimentPlan path it sets, or None; a field with its default and bound)
DEFAULTS: dict[str, tuple] = {
    "seed": _plan("seed"),
    "out": (None, setting(str, "runs", nonempty=True)),
    "data.num_identities": _plan("generator.num_identities"),
    "data.samples_per_identity": _plan("generator.samples_per_identity"),
    "data.input_dim": _plan("generator.input_dim"),
    "data.latent_dim": _plan("generator.latent_dim"),
    "data.pose_dim": _plan("generator.pose_dim"),
    "data.num_keypoints": _plan("generator.num_keypoints"),
    "data.identity_keypoint_scale": _plan("generator.identity_keypoint_scale"),
    "data.pose_keypoint_scale": _plan("generator.pose_keypoint_scale"),
    "data.noise_std": _plan("generator.noise_std"),
    "net.hidden_widths": _plan("hidden_widths"),
    "net.embedding_dim": _plan("embedding_dim"),
    "distill.alpha": _plan("cls_alpha"),
    "distill.tau": _plan("tau"),
    "distill.lambda_margin": _plan("lambda_margin"),
    "cls.batch_size": _plan("cls_stage.batch_size"),
    "cls.epochs_per_phase": _plan("cls_stage.epochs_per_phase"),
    "cls.scratch_lr": _plan("cls_stage.scratch_lr"),
    "cls.continue_lr": _plan("cls_stage.continue_lr"),
    "alignment.batch_size": _plan("alignment_stage.batch_size"),
    "alignment.epochs_per_phase": _plan("alignment_stage.epochs_per_phase"),
    "alignment.scratch_lr": _plan("alignment_stage.scratch_lr"),
    "alignment.continue_lr": _plan("alignment_stage.continue_lr"),
    "verification.batch_size": _plan("verification_stage.batch_size"),
    "verification.epochs_per_phase": _plan("verification_stage.epochs_per_phase"),
    "verification.scratch_lr": _plan("verification_stage.scratch_lr"),
    "verification.continue_lr": _plan("verification_stage.continue_lr"),
    "optimizer.momentum": _plan("momentum"),
    "experiment.divisors": _plan("cls_divisors"),
    "experiment.alignment_divisors": (None, field(default=_TABLES[ALIGNMENT].divisors, metadata=_DIVISORS)),
    "experiment.verification_divisors": (None, field(default=_TABLES[VERIFICATION].divisors,
                                                      metadata=_DIVISORS)),
    "experiment.verification_modes": (None, setting(
        str, tuple(_MODES[t.include_softmax] for t in _TABLES.values() if t.task == VERIFICATION),
        each=True, among=_MODES)),
    "experiment.eval_pairs": _plan("eval_pairs"),
}


def _parse(bound, raw: str):
    """``raw`` as a value of the field's type: text is stripped, and a list
    field reads comma-separated items, none when ``raw`` is blank."""
    item = str.strip if bound["type"] is str else bound["type"]
    if bound.get("each"):
        return tuple(item(part) for part in raw.split(",")) if raw.strip() else ()
    return item(raw)


def default_config() -> dict:
    return {key: f.default for key, (_, f) in DEFAULTS.items()}


def apply_set(cfg: dict, assignment: str, where: str = "--set") -> None:
    """Apply one ``key=value`` assignment in place, parsed and checked by the key's field."""
    key, eq, raw = assignment.partition("=")
    key = key.strip()
    if not eq:
        raise ConfigError(f"{where}: expected key=value, got {assignment!r}")
    if key not in DEFAULTS:
        raise ConfigError(f"{where}: unknown config key {key!r}")
    bound = DEFAULTS[key][1].metadata
    try:
        value = _parse(bound, raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value for {key!r}: {raw!r} ({exc})") from exc
    try:
        cfg[key] = check(key, bound, value)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def load_config(path=None, sets=()) -> dict:
    """Defaults, overlaid with the file at ``path`` (if any), then --set pairs."""
    cfg = default_config()
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                lines = fh.readlines()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        for lineno, line in enumerate(lines, start=1):
            line = line.strip()
            if line and not line.startswith("#"):
                apply_set(cfg, line, f"{path}:{lineno}")
    for assignment in sets:
        apply_set(cfg, assignment)
    generator_params(cfg)  # the generator's cross-field rule, checked before any command runs
    return cfg


def _fields(cfg: dict, owner: str) -> dict:
    """Values of the keys that set a field of the plan part at the dotted
    path ``owner`` ('' for the plan itself), by field name."""
    return {path.rpartition(".")[2]: cfg[key] for key, (path, _) in DEFAULTS.items()
            if path is not None and path.rpartition(".")[0] == owner}


def generator_params(cfg: dict) -> GeneratorParams:
    try:  # seed sets the plan's seed, and the generator's too
        return GeneratorParams(**_fields(cfg, "generator"), seed=cfg["seed"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def experiment_plan(cfg: dict) -> ExperimentPlan:
    tasks: list[TaskPlan] = []
    if cfg["experiment.alignment_divisors"]:
        tasks.append(TaskPlan(ALIGNMENT, cfg["experiment.alignment_divisors"]))
    if cfg["experiment.verification_divisors"]:
        for mode in cfg["experiment.verification_modes"]:
            tasks.append(TaskPlan(VERIFICATION, cfg["experiment.verification_divisors"],
                                  include_softmax=(mode == "joint")))
    try:
        stage_plans = {f"{section}_stage": StagePlan(**_fields(cfg, f"{section}_stage"))
                       for section in ("cls", "alignment", "verification")}
        return ExperimentPlan(**_fields(cfg, ""), **stage_plans, generator=generator_params(cfg),
                              tasks=tuple(tasks))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def describe_keys() -> str:
    """Aligned listing of every key with its default and bound, for the ``config`` subcommand."""
    width = max(len(k) for k in DEFAULTS)
    lines = []
    for key, (_, f) in sorted(DEFAULTS.items()):
        shown = ",".join(map(str, f.default)) if isinstance(f.default, tuple) else str(f.default)
        lines.append(f"{key:<{width}}  default: {shown}  ({bound_text(f.metadata)})")
    return "\n".join(lines) + "\n"
