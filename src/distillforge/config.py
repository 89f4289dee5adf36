"""Flat key/value run configuration.

A config file is plain text, one ``section.key = value`` assignment per
line; blank lines and lines starting with ``#`` are skipped. Values are
typed per key (int, float, or comma-separated list). Precedence:
built-in defaults, then the file, then ``--set key=value`` overrides.

The single ``seed`` key drives everything downstream: the dataset draw
and every training stage's named substream.
"""
from __future__ import annotations

import math

from .data import GeneratorParams
from .losses import DistillConfig
from .nets import NetworkSpec
from .pipeline import ALIGNMENT, VERIFICATION, ExperimentPlan, StagePlan, TaskPlan

__all__ = ["ConfigError", "DEFAULTS", "load_config", "apply_set",
           "generator_params", "network_spec", "distill_config",
           "stage_plan", "experiment_plan", "describe_keys"]


class ConfigError(ValueError):
    """Bad config input: unknown key, unparsable value, or out-of-range value."""


def _int(raw: str) -> int:
    return int(raw.strip())


def _float(raw: str) -> float:
    value = float(raw.strip())
    if not math.isfinite(value):
        raise ValueError("not finite")
    return value


def _int_tuple(raw: str) -> tuple[int, ...]:
    raw = raw.strip()
    if not raw:
        return ()
    return tuple(int(part.strip()) for part in raw.split(","))


def _str_tuple(raw: str) -> tuple[str, ...]:
    raw = raw.strip()
    if not raw:
        return ()
    return tuple(part.strip() for part in raw.split(","))


def _ge(bound):
    return lambda v: v >= bound


def _gt(bound):
    return lambda v: v > bound


def _all_ge(bound):
    return lambda v: all(x >= bound for x in v)


# key -> (parser, default, constraint or None, constraint description)
DEFAULTS: dict[str, tuple] = {
    "seed": (_int, 0, _ge(0), ">= 0"),
    "out": (str, "runs", None, ""),
    "data.num_identities": (_int, 32, _ge(2), ">= 2"),
    "data.samples_per_identity": (_int, 50, _ge(2), ">= 2"),
    "data.input_dim": (_int, 64, _ge(1), ">= 1"),
    "data.latent_dim": (_int, 8, _ge(1), ">= 1"),
    "data.pose_dim": (_int, 4, _ge(1), ">= 1"),
    "data.num_keypoints": (_int, 5, _ge(1), ">= 1"),
    "data.identity_keypoint_scale": (_float, 0.1, _ge(0.0), ">= 0"),
    "data.pose_keypoint_scale": (_float, 1.0, _gt(0.0), "> 0"),
    "data.noise_std": (_float, 0.1, _ge(0.0), ">= 0"),
    "net.hidden_widths": (_int_tuple, (256, 256, 128), _all_ge(1), "each >= 1"),
    "net.embedding_dim": (_int, 16, _ge(1), ">= 1"),
    "distill.alpha": (_float, 1.0, _ge(0.0), ">= 0"),
    "distill.beta": (_float, 1.0, _ge(0.0), ">= 0"),
    "distill.tau": (_float, 3.0, _ge(1.0), ">= 1"),
    "distill.lambda_margin": (_float, 0.4, _ge(0.0), ">= 0"),
    "cls.batch_size": (_int, 64, _ge(1), ">= 1"),
    "cls.epochs_per_phase": (_int, 15, _ge(0), ">= 0"),
    "cls.scratch_lr": (_float, 0.02, _gt(0.0), "> 0"),
    "cls.continue_lr": (_float, 0.002, _gt(0.0), "> 0"),
    "alignment.batch_size": (_int, 32, _ge(1), ">= 1"),
    "alignment.epochs_per_phase": (_int, 30, _ge(0), ">= 0"),
    "alignment.scratch_lr": (_float, 0.005, _gt(0.0), "> 0"),
    "alignment.continue_lr": (_float, 0.0002, _gt(0.0), "> 0"),
    "verification.batch_size": (_int, 32, _ge(1), ">= 1"),
    "verification.epochs_per_phase": (_int, 15, _ge(0), ">= 0"),
    "verification.scratch_lr": (_float, 0.005, _gt(0.0), "> 0"),
    "verification.continue_lr": (_float, 0.001, _gt(0.0), "> 0"),
    "verification.triplets_per_epoch": (_int, 0, _ge(0), ">= 0"),
    "optimizer.momentum": (_float, 0.9, lambda v: 0.0 <= v < 1.0, "in [0, 1)"),
    "experiment.divisors": (_int_tuple, (2, 4, 8), _all_ge(1), "each >= 1"),
    "experiment.alignment_divisors": (_int_tuple, (8,), _all_ge(1), "each >= 1"),
    "experiment.verification_divisors": (_int_tuple, (2,), _all_ge(1), "each >= 1"),
    "experiment.verification_modes": (
        _str_tuple, ("single", "joint"),
        lambda v: all(m in ("single", "joint") for m in v), "each 'single' or 'joint'"),
    "experiment.eval_pairs": (_int, 200, _ge(1), ">= 1"),
}


def _parse_value(key: str, raw: str, where: str):
    if key not in DEFAULTS:
        raise ConfigError(f"{where}: unknown config key {key!r}")
    parser, _, check, bounds = DEFAULTS[key]
    try:
        value = parser(raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value for {key!r}: {raw!r} ({exc})") from exc
    if check is not None and not check(value):
        raise ConfigError(f"{where}: {key} must be {bounds}, got {value!r}")
    return value


def default_config() -> dict:
    return {key: default for key, (_, default, _, _) in DEFAULTS.items()}


def apply_set(cfg: dict, assignment: str, where: str = "--set") -> None:
    """Apply one ``key=value`` override in place."""
    if "=" not in assignment:
        raise ConfigError(f"{where}: expected key=value, got {assignment!r}")
    key, _, raw = assignment.partition("=")
    cfg[key.strip()] = _parse_value(key.strip(), raw, where)


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
            if not line or line.startswith("#"):
                continue
            where = f"{path}:{lineno}"
            if "=" not in line:
                raise ConfigError(f"{where}: expected 'key = value', got {line!r}")
            key, _, raw = line.partition("=")
            cfg[key.strip()] = _parse_value(key.strip(), raw, where)
    for assignment in sets:
        apply_set(cfg, assignment)
    _cross_check(cfg)
    return cfg


def _cross_check(cfg: dict) -> None:
    if cfg["data.pose_keypoint_scale"] <= cfg["data.identity_keypoint_scale"]:
        raise ConfigError(
            "data.pose_keypoint_scale must exceed data.identity_keypoint_scale "
            f"(got {cfg['data.pose_keypoint_scale']} vs {cfg['data.identity_keypoint_scale']})")


def generator_params(cfg: dict) -> GeneratorParams:
    return GeneratorParams(
        num_identities=cfg["data.num_identities"],
        samples_per_identity=cfg["data.samples_per_identity"],
        input_dim=cfg["data.input_dim"],
        latent_dim=cfg["data.latent_dim"],
        pose_dim=cfg["data.pose_dim"],
        num_keypoints=cfg["data.num_keypoints"],
        identity_keypoint_scale=cfg["data.identity_keypoint_scale"],
        pose_keypoint_scale=cfg["data.pose_keypoint_scale"],
        noise_std=cfg["data.noise_std"],
        seed=cfg["seed"],
    )


def network_spec(cfg: dict) -> NetworkSpec:
    return NetworkSpec(
        input_dim=cfg["data.input_dim"],
        hidden_widths=cfg["net.hidden_widths"],
        embedding_dim=cfg["net.embedding_dim"],
        num_classes=cfg["data.num_identities"],
        num_keypoint_coords=2 * cfg["data.num_keypoints"],
    )


def distill_config(cfg: dict) -> DistillConfig:
    return DistillConfig(
        alpha=cfg["distill.alpha"],
        beta=cfg["distill.beta"],
        tau=cfg["distill.tau"],
        lambda_margin=cfg["distill.lambda_margin"],
    )


def stage_plan(cfg: dict, section: str) -> StagePlan:
    triplets = cfg["verification.triplets_per_epoch"] if section == "verification" else 0
    return StagePlan(
        batch_size=cfg[f"{section}.batch_size"],
        epochs_per_phase=cfg[f"{section}.epochs_per_phase"],
        scratch_lr=cfg[f"{section}.scratch_lr"],
        continue_lr=cfg[f"{section}.continue_lr"],
        momentum=cfg["optimizer.momentum"],
        triplets_per_epoch=triplets,
    )


def experiment_plan(cfg: dict) -> ExperimentPlan:
    tasks: list[TaskPlan] = []
    if cfg["experiment.alignment_divisors"]:
        tasks.append(TaskPlan(ALIGNMENT, cfg["experiment.alignment_divisors"]))
    if cfg["experiment.verification_divisors"]:
        for mode in cfg["experiment.verification_modes"]:
            tasks.append(TaskPlan(VERIFICATION, cfg["experiment.verification_divisors"],
                                  include_softmax=(mode == "joint")))
    try:
        return ExperimentPlan(
            generator=generator_params(cfg),
            teacher=network_spec(cfg),
            distill=distill_config(cfg),
            cls_divisors=cfg["experiment.divisors"],
            tasks=tuple(tasks),
            cls_stage=stage_plan(cfg, "cls"),
            alignment_stage=stage_plan(cfg, "alignment"),
            verification_stage=stage_plan(cfg, "verification"),
            eval_pairs=cfg["experiment.eval_pairs"],
            seed=cfg["seed"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def describe_keys() -> str:
    """Aligned listing of every key with its default, for the ``config`` subcommand."""
    width = max(len(k) for k in DEFAULTS)
    lines = []
    for key, (_, default, _, bounds) in sorted(DEFAULTS.items()):
        if isinstance(default, tuple):
            shown = ",".join(str(v) for v in default)
        else:
            shown = str(default)
        suffix = f"  ({bounds})" if bounds else ""
        lines.append(f"{key:<{width}}  default: {shown}{suffix}")
    return "\n".join(lines) + "\n"
