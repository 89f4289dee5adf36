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
``student2_verification_joint_pretrain_a0_b1``. ``train`` and ``reproduce``
run the same stage graph (``pipeline.stage``), so a checkpoint ``train``
writes is bit-identical to the one ``reproduce`` writes for the same seed.
Every command keeps checkpoints in one place, ``<out>/checkpoints/<key>.ckpt``,
the directory of the command's ``pipeline.Run``, and ``train`` and
``reproduce`` run a stage the same way (``pipeline.run_stage``): load its
dependencies from there, train it, and write its own checkpoint there as
soon as it finishes. ``train`` and ``evaluate KEY`` read every checkpoint
through ``Run.load``, which refuses one whose architecture is not the one
the plan gives its stage (exit 2, naming the file).
``train`` also writes ``<out>/<key>.metrics.json``.
``generate`` and ``reproduce`` also write ``dataset.txt.bin`` (only
``data.save_dataset`` writes it): the dataset's arrays in binary under the
text's sha256, which ``train`` and ``evaluate`` read instead of parsing the
text. A stale or missing sidecar only costs that parse; it is safe to delete.

``reproduce`` runs the stages on one forked worker process per CPU it may
use when BLAS runs one thread, and in-process otherwise; its output bytes
are the same either way.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from ._atomic import atomic_write
from .config import (ConfigError, apply_set, describe_keys, experiment_plan, generator_params,
                     load_config)
from .data import generate, load_dataset, save_dataset
from .nets import load_network
from .pipeline import ALIGNMENT, VERIFICATION, Run, run_experiment, run_stage, stage, stages

__all__ = ["main"]


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
    sub.add_argument("--seed", help="override the top-level seed")
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
    p.add_argument("stage", help="run key in <out>/checkpoints, or a path to a .ckpt file")
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
    for key in ("seed", "out"):  # each flag is parsed and checked as a last override
        if getattr(args, key) is not None:
            apply_set(cfg, f"{key}={getattr(args, key)}", f"--{key}")
    return cfg


def _run(plan, out_dir: str) -> Run:
    """The run of ``plan`` on ``<out>/dataset.txt``, which must exist, with its
    checkpoints in ``<out>/checkpoints``."""
    path = os.path.join(out_dir, "dataset.txt")
    if not os.path.exists(path):
        raise FileNotFoundError(f"{path} not found; run 'distillforge generate' first")
    return Run(plan, load_dataset(path), os.path.join(out_dir, "checkpoints"))


def _graph(make, *args):
    """``make(*args)``, a stage or the stage list; a ValueError, from a key that
    names no stage or a stage the plan cannot train, is a config error."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


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
    plan = experiment_plan(cfg)
    node = _graph(stage, plan, args.stage)  # validate the key before touching files
    run = _run(plan, out_dir)
    os.makedirs(run.ckpt_dir, exist_ok=True)
    metrics = run_stage(node, run)[1]
    with atomic_write(os.path.join(out_dir, f"{args.stage}.metrics.json"), "w",
                      encoding="utf-8") as fh:
        fh.write(json.dumps({"stage": args.stage, "metrics": metrics}, indent=2, sort_keys=True))
        fh.write("\n")
    print(f"wrote {run.path(args.stage)}")
    _print_metrics(metrics)
    return 0


def cmd_evaluate(args) -> int:
    cfg = _load_cfg(args)
    run = _run(experiment_plan(cfg), cfg["out"])
    if args.stage.endswith(".ckpt"):
        if not os.path.exists(args.stage):
            raise FileNotFoundError(f"checkpoint {args.stage} not found")
        net = load_network(args.stage)
        aligned = (ALIGNMENT,) if net.spec.num_keypoint_coords >= 4 else ()  # NRMSE needs 2 keypoints
        metrics = run.evaluate(net, "cls", VERIFICATION, *aligned)
    else:
        node = _graph(stage, run.plan, args.stage)
        metrics = run.evaluate(run.load(node.key), node.label)
    _print_metrics(metrics)
    return 0


def _workers() -> int:
    """Worker processes for ``reproduce``: one per usable CPU when OpenBLAS
    runs one thread, else 1. Forked workers whose OpenBLAS keeps a thread per
    CPU fight over the cores: on 2 vCPUs the scaled grid took 5.5-18.6 s on
    two such workers against 3.0 s in one process."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    # OpenBLAS takes the first of these variables that is a positive integer
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        text = os.environ.get(var, "").strip()
        if text.isdigit() and int(text) > 0:
            return len(os.sched_getaffinity(0)) if int(text) == 1 else 1
    return 1


def cmd_reproduce(args) -> int:
    cfg = _load_cfg(args)
    out_dir = cfg["out"]
    plan = experiment_plan(cfg)
    _graph(stages, plan)  # validate every stage before touching files
    os.makedirs(out_dir, exist_ok=True)
    data = generate(plan.generator)
    save_dataset(data, os.path.join(out_dir, "dataset.txt"))
    report = run_experiment(plan, out_dir=os.path.join(out_dir, "checkpoints"),
                            workers=_workers(), data=data)
    report_path = os.path.join(out_dir, "report.json")
    with atomic_write(report_path, "w", encoding="utf-8") as fh:
        fh.write(report.to_json())
    for task, table in report.tables().items():
        with atomic_write(os.path.join(out_dir, f"report_{task}.txt"), "w", encoding="utf-8") as fh:
            fh.write(table + "\n")
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
