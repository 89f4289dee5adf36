"""Command-line front end.

Subcommands:

* ``generate``  -- draw the synthetic benchmark and write ``dataset.txt``
* ``train``     -- run one named training stage against the run directory
* ``evaluate``  -- recompute a checkpoint's metrics (no training)
* ``reproduce`` -- run the full experiment grid and write the report files
* ``config``    -- list every config key with its default and bounds

Every subcommand takes ``--config FILE``, repeatable ``--set key=value``
overrides, ``--seed N`` and ``--out DIR`` (the run directory). Exit codes:
0 success, 1 usage or configuration error, 2 runtime failure (missing
dataset, missing prerequisite checkpoint, unreadable files).

Stage names follow the experiment's run keys, e.g. ``teacher_cls``,
``student4_cls_scratch``, ``student4_cls_full_init``,
``teacher_alignment``, ``student8_alignment_pretrain_base``,
``student8_alignment_distill_a1_b1``,
``student2_verification_joint_pretrain_a0_b1``. Artifacts written by
``train`` are bit-identical to the corresponding ``reproduce`` outputs
because both derive stage seeds from the same named substreams.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import replace

from ._atomic import atomic_write
from .config import (ConfigError, describe_keys, distill_config, experiment_plan,
                     generator_params, load_config, network_spec, stage_plan)
from .data import as_arrays, generate, load_dataset, make_pairs, save_dataset
from .metrics import MetricsReport
from .nets import load_network, save_network
from .pipeline import (ALIGNMENT, VERIFICATION, _fresh, derive_seed,
                       distill_student_cls, distill_student_task, evaluate_alignment,
                       evaluate_all, evaluate_classification, evaluate_verification,
                       init_student_cls, pretrain_student_task, run_experiment,
                       train_teacher_cls, train_teacher_task)

__all__ = ["main"]

_STUDENT_RE = re.compile(r"^student(\d+)_(cls|alignment|verification_joint|verification)_(.+)$")
_GRID_RE = re.compile(r"^(scratch|pretrain|distill)_a([0-9.eE+-]+)_b([0-9.eE+-]+)$")


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", metavar="FILE", help="config file of 'section.key = value' lines")
    sub.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                     help="override one config key (repeatable)")
    sub.add_argument("--seed", type=int, help="override the top-level seed")
    sub.add_argument("--out", metavar="DIR", help="run directory (default: config 'out', 'runs')")


def _build_parser() -> _Parser:
    parser = _Parser(prog="distillforge",
                     description="Distillation workbench on a synthetic identity benchmark.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("generate", help="write the synthetic dataset to <out>/dataset.txt")
    _add_common(p)
    p.set_defaults(func=cmd_generate)

    p = subs.add_parser("train", help="run one named training stage")
    p.add_argument("stage", help="run key, e.g. teacher_cls or student4_cls_full_init")
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = subs.add_parser("evaluate", help="recompute metrics for a trained checkpoint")
    p.add_argument("stage", help="run key in <out>, or a path to a .ckpt file")
    _add_common(p)
    p.set_defaults(func=cmd_evaluate)

    p = subs.add_parser("reproduce", help="run the full experiment and write report files")
    _add_common(p)
    p.set_defaults(func=cmd_reproduce)

    p = subs.add_parser("config", help="list config keys, defaults, and bounds")
    p.set_defaults(func=lambda args: (print(describe_keys(), end=""), 0)[1])
    return parser


def _load_cfg(args) -> dict:
    cfg = load_config(args.config, args.set)
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.out is not None:
        cfg["out"] = args.out
    return cfg


def _require_dataset(out_dir: str):
    path = os.path.join(out_dir, "dataset.txt")
    if not os.path.exists(path):
        raise FileNotFoundError(f"{path} not found; run 'distillforge generate' first")
    return load_dataset(path)


def _require_ckpt(out_dir: str, key: str):
    path = os.path.join(out_dir, f"{key}.ckpt")
    if not os.path.exists(path):
        raise FileNotFoundError(f"missing prerequisite checkpoint {path}; train '{key}' first")
    return load_network(path)


def _parse_stage(key: str) -> dict:
    """Decompose a run key into (kind, divisor, label, init, alpha, beta)."""
    if key == "teacher_cls":
        return {"kind": "teacher_cls", "label": "cls"}
    for label in ("alignment", "verification_joint", "verification"):
        if key == f"teacher_{label}":
            return {"kind": "teacher_task", "label": label}
    m = _STUDENT_RE.match(key)
    if m:
        d, label, rest = int(m.group(1)), m.group(2), m.group(3)
        if d < 1:
            raise ConfigError(f"bad stage key {key!r}: divisor must be >= 1")
        if label == "cls":
            if rest in ("init", "scratch", "full_init"):
                return {"kind": f"cls_{rest}", "label": "cls", "divisor": d}
        elif rest == "pretrain_base":
            return {"kind": "task_pretrain_base", "label": label, "divisor": d}
        else:
            g = _GRID_RE.match(rest)
            if g:
                return {"kind": "task_grid", "label": label, "divisor": d, "init": g.group(1),
                        "alpha": _grid_weight(key, "alpha", g.group(2)),
                        "beta": _grid_weight(key, "beta", g.group(3))}
    raise ConfigError(f"unknown stage key {key!r}")


def _grid_weight(key: str, name: str, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"bad stage key {key!r}: {name} {text!r} is not a number") from None
    if not 0.0 <= value < float("inf"):
        raise ConfigError(f"bad stage key {key!r}: {name} must be finite and nonnegative, got {text!r}")
    return value


def _task_of(label: str) -> str:
    return ALIGNMENT if label == ALIGNMENT else VERIFICATION


def _stage_section(label: str) -> str:
    return {"cls": "cls", "alignment": "alignment",
            "verification": "verification", "verification_joint": "verification"}[label]


def _eval_pairs(cfg: dict, data):
    return make_pairs(data.test, cfg["experiment.eval_pairs"], derive_seed(cfg["seed"], "eval_pairs"))


def _metrics_for(label: str, net, data, cfg: dict) -> dict[str, float]:
    if label == "cls":
        return evaluate_classification(net, data.test, _eval_pairs(cfg, data))
    if label == ALIGNMENT:
        return evaluate_alignment(net, data.test)
    return evaluate_verification(net, data.test, _eval_pairs(cfg, data))


def _train_stage(key: str, cfg: dict, out_dir: str, data):
    info = _parse_stage(key)
    seed = derive_seed(cfg["seed"], key)
    spec = network_spec(cfg)
    dcfg = distill_config(cfg)
    section = _stage_section(info["label"])
    splan = stage_plan(cfg, section)
    kind = info["kind"]

    if kind == "teacher_cls":
        return train_teacher_cls(spec, data, splan.stage("scratch", seed))
    if kind == "cls_init":
        return init_student_cls(spec.student(info["divisor"]), data, splan.stage("scratch", seed))
    if kind == "cls_scratch":
        teacher = _require_ckpt(out_dir, "teacher_cls")
        return distill_student_cls(teacher, data, dcfg, splan.stage("scratch", seed),
                                   student_spec=spec.student(info["divisor"]))
    if kind == "cls_full_init":
        teacher = _require_ckpt(out_dir, "teacher_cls")
        s0 = _require_ckpt(out_dir, f"student{info['divisor']}_cls_init")
        return distill_student_cls(teacher, data, dcfg, splan.stage("continue", seed), init_from=s0)

    label, task = info["label"], _task_of(info["label"])
    joint = label == "verification_joint"
    triplets = splan.triplets_per_epoch
    if kind == "teacher_task":
        teacher = _require_ckpt(out_dir, "teacher_cls")
        return train_teacher_task(teacher, task, data, dcfg, splan.stage("continue", seed),
                                  include_softmax=joint, triplets_per_epoch=triplets)
    if kind == "task_pretrain_base":
        return pretrain_student_task(spec.student(info["divisor"]), task, data, dcfg,
                                     splan.stage("scratch", seed), include_softmax=joint,
                                     triplets_per_epoch=triplets)

    # task grid run
    d = info["divisor"]
    cfg_run = replace(dcfg, alpha=info["alpha"], beta=info["beta"])
    teacher_task = _require_ckpt(out_dir, f"teacher_{label}")
    if info["init"] == "pretrain":
        init_net = _require_ckpt(out_dir, f"student{d}_{label}_pretrain_base")
        mode = "continue"
    elif info["init"] == "distill":
        init_net = _require_ckpt(out_dir, f"student{d}_cls_full_init")
        mode = "continue"
    else:  # scratch: fresh build trained on the combined objective
        init_net = _fresh(spec.student(d), seed, as_arrays(data.train)[0])
        mode = "scratch"
    return distill_student_task(teacher_task, init_net, task, data, cfg_run,
                                splan.stage(mode, seed), include_softmax=joint,
                                triplets_per_epoch=triplets)


def _print_metrics(metrics: dict[str, float]) -> None:
    for name in sorted(metrics):
        print(f"{name} = {metrics[name]!r}")


def cmd_generate(args) -> int:
    cfg = _load_cfg(args)
    out_dir = cfg["out"]
    os.makedirs(out_dir, exist_ok=True)
    ds = generate(generator_params(cfg))
    path = os.path.join(out_dir, "dataset.txt")
    save_dataset(ds, path)
    print(f"wrote {path} ({len(ds.train)} train / {len(ds.test)} test samples)")
    return 0


def cmd_train(args) -> int:
    cfg = _load_cfg(args)
    out_dir = cfg["out"]
    info = _parse_stage(args.stage)  # validate the key before touching files
    data = _require_dataset(out_dir)
    net = _train_stage(args.stage, cfg, out_dir, data)
    ckpt = os.path.join(out_dir, f"{args.stage}.ckpt")
    save_network(net, ckpt)
    metrics = _metrics_for(info["label"], net, data, cfg)
    with atomic_write(os.path.join(out_dir, f"{args.stage}.metrics.json"), "w",
                      encoding="utf-8") as fh:
        fh.write(json.dumps({"stage": args.stage, "metrics": metrics}, indent=2, sort_keys=True))
        fh.write("\n")
    print(f"wrote {ckpt}")
    _print_metrics(metrics)
    return 0


def cmd_evaluate(args) -> int:
    cfg = _load_cfg(args)
    out_dir = cfg["out"]
    data = _require_dataset(out_dir)
    if args.stage.endswith(".ckpt"):
        if not os.path.exists(args.stage):
            raise FileNotFoundError(f"checkpoint {args.stage} not found")
        net = load_network(args.stage)
        metrics = evaluate_all(net, data.test, _eval_pairs(cfg, data))
    else:
        info = _parse_stage(args.stage)
        net = _require_ckpt(out_dir, args.stage)
        metrics = _metrics_for(info["label"], net, data, cfg)
    _print_metrics(metrics)
    return 0


def cmd_reproduce(args) -> int:
    cfg = _load_cfg(args)
    out_dir = cfg["out"]
    os.makedirs(out_dir, exist_ok=True)
    plan = experiment_plan(cfg)
    save_dataset(generate(plan.generator), os.path.join(out_dir, "dataset.txt"))
    report = run_experiment(plan, out_dir=os.path.join(out_dir, "checkpoints"))
    report_path = os.path.join(out_dir, "report.json")
    with atomic_write(report_path, "w", encoding="utf-8") as fh:
        fh.write(report.to_json())
    tasks = sorted({key[0] for key, _ in report.rows()})
    for task in tasks:
        sub = MetricsReport()
        for key, metrics in report.rows():
            if key[0] == task:
                sub.add(*key, **metrics)
        with atomic_write(os.path.join(out_dir, f"report_{task}.txt"), "w", encoding="utf-8") as fh:
            fh.write(sub.to_text())
    print(report.to_text(), end="")
    print(f"wrote {report_path}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
