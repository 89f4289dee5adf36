#!/usr/bin/env python3
"""Benchmark harness for distillforge.

Run from the repository root::

    python3 perfbench/run.py --workload grid --seed 0 --seconds 36 --trace 0
    python3 perfbench/run.py --all --seed 0 --out result.json

Workloads (see ``perfbench/METRICS.md`` for why each exists):

* ``grid``          -- ``distillforge reproduce``, serial;
* ``grid_threads2`` -- the same with ``DISTILLFORGE_THREADS=2``;
* ``cli_chain``     -- 69 fresh ``python -m distillforge`` commands: ``generate``,
  ``train`` for the 34 run keys in dependency order, ``evaluate`` for each.

Every command runs as a user would run it, in a subprocess with ``src`` on
``PYTHONPATH`` and BLAS pinned to one thread (``OPENBLAS_NUM_THREADS=1``):
with the library's default of one BLAS thread per CPU, any other load on a
small shared host stalls the threads' hand-offs, and a ``reproduce`` took
2-3x longer beside one busy process. The ``--seed`` picks an experiment
seed from ``SEED_POOL``;
each pool seed has recorded output digests in ``perfbench/digests.json``,
so every run checks its report bytes. The grid workloads train with every
epoch count of the default plan divided by 15 (``perfbench/configs/grid.cfg``);
``--full`` runs the default plan unscaled instead.

``--trace 0`` repeats the workload, with a set-up sample before each
repetition, until ``--seconds`` is used up and prints the end-to-end metrics
(medians over repetitions and set-up samples). ``--trace 1`` runs the
workload once untraced and twice under ``perfbench/tracer.py`` and prints
per-layer metrics from the spans, the tracing overhead, and checks that the
two traced runs agree on every deterministic counter.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
when every command succeeded and every output matched its digest, 1 on any
failure or mismatch, and 2 when the program to benchmark is missing.
"""
from __future__ import annotations

import argparse
import glob
import hashlib
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
DIGESTS = os.path.join(BENCH, "digests.json")

SEED_POOL = tuple(range(10))
SETUP_MIN = 15  # set-up samples per run: one before each repetition, topped up after the last
CHILD_DEADLINE_S = 170.0  # a single-workload invocation must end within 180 s

WORKLOADS = {
    "grid": {"kind": "reproduce", "threads": None, "config": "grid.cfg"},
    "grid_threads2": {"kind": "reproduce", "threads": 2, "config": "grid.cfg"},
    "cli_chain": {"kind": "chain", "threads": None, "config": "cli_chain.cfg"},
}
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

TENSOR_OPS = ("add", "sub", "neg", "mul", "div_scalar", "matmul", "relu", "log", "clamp_min",
              "softmax_rows", "tsum", "sum_rows", "mean", "take_rows")
STAGES = ("train_teacher_cls", "init_student_cls", "distill_student_cls",
          "pretrain_student_task", "train_teacher_task", "distill_student_task")
OBJECTIVES = ("softmax_loss", "classification_distill_loss", "alignment_distill_loss",
              "verification_distill_loss")
# counters that must repeat exactly between two traced runs of one workload
EXACT_COUNTERS = ("pipeline.steps", "nets.forward_const.calls", "data.make_triplets.calls",
                  "data.load_dataset.calls", *(f"tensor.{op}.calls" for op in TENSOR_OPS))

DEFAULT_EPOCHS = {"cls": 15, "alignment": 30, "verification": 15}
DEFAULT_BATCH = {"cls": 64, "alignment": 32, "verification": 32}


def run_keys() -> list[str]:
    """The default plan's 34 run keys, each after the keys it depends on."""
    keys = ["teacher_cls"]
    for d in (2, 4, 8):
        keys += [f"student{d}_cls_scratch", f"student{d}_cls_init", f"student{d}_cls_full_init"]
    for label, d in (("alignment", 8), ("verification", 2), ("verification_joint", 2)):
        keys += [f"teacher_{label}", f"student{d}_{label}_pretrain_base"]
        keys += [f"student{d}_{label}_{init}_a{a}_b{b}"
                 for init in ("pretrain", "distill") for a, b in ((0, 0), (0, 1), (1, 0))]
    return keys


def read_config(path: str | None) -> dict[str, str]:
    cfg: dict[str, str] = {}
    if path:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line and not line.startswith("#"):
                    key, _, value = line.partition("=")
                    cfg[key.strip()] = value.strip()
    return cfg


def optimizer_steps(n_train: int, cfg: dict[str, str]) -> int:
    """Optimizer steps of the default plan, from the train-split size."""
    def per_phase(section):
        epochs = int(cfg.get(f"{section}.epochs_per_phase", DEFAULT_EPOCHS[section]))
        batch = int(cfg.get(f"{section}.batch_size", DEFAULT_BATCH[section]))
        return epochs * -(-n_train // batch)
    # cls: teacher, 3 init and 3 scratch students run two phases, 3 full_init one;
    # each task table: teacher 1 + pretrain_base 2 + six grid runs 1 phase each;
    # verification has two tables (single and joint), one triplet per sample
    return 17 * per_phase("cls") + 9 * per_phase("alignment") + 18 * per_phase("verification")


# Child processes ----------------------------------------------------------------

@dataclass
class Child:
    rc: int
    wall: float
    cpu: float
    rss_mb: float
    stdout: bytes


def run_child(argv: list[str], env: dict, log_dir: str, timeout: float | None) -> Child:
    """Run one process; its user+system time and peak RSS come from wait4.
    The process is killed after ``timeout`` seconds unless that is None."""
    os.makedirs(log_dir, exist_ok=True)
    out_path = os.path.join(log_dir, "stdout")
    with open(out_path, "wb") as out, open(os.path.join(log_dir, "stderr"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(max(timeout, 0.1), proc.kill) if timeout is not None else None
        if killer:
            killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            if killer:
                killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = rc = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    if rc != 0:
        with open(os.path.join(log_dir, "stderr"), "rb") as fh:
            tail = fh.read()[-2000:].decode(errors="replace")
        print(f"command failed ({rc}): {' '.join(argv[1:])}\n{tail}", file=sys.stderr)
    return Child(rc, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, stdout)


def parts_sha256(*parts: bytes) -> str:
    """sha256 over length-prefixed parts, so part boundaries count."""
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def read_bytes(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError:
        return b""


def file_sha256(path: str) -> str:
    """Plain sha256 of a file, as ``sha256sum`` prints it (a missing file hashes as empty)."""
    return hashlib.sha256(read_bytes(path)).hexdigest()


# One benchmark invocation ------------------------------------------------------------

@dataclass
class Rep:
    wall: float
    cpu: float
    rss_mb: float
    cmd_ms: list[float]
    train_wall: float
    span_files: list[str]


class Bench:
    """One workload at one seed: the child environment, counts and digests."""

    def __init__(self, workload: str, seed: int, full: bool, deadline: float | None):
        spec = WORKLOADS[workload]
        self.workload, self.kind = workload, spec["kind"]
        self.threads = spec["threads"]
        self.seed = SEED_POOL[seed % len(SEED_POOL)]
        self.full = full and self.kind == "reproduce"
        self.config = None if self.full else os.path.join(BENCH, "configs", spec["config"])
        self.cfg = read_config(self.config)
        self.deadline = deadline
        self.dir = os.path.join(WORK, f"{workload}-{os.getpid()}")
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.n_children = 0
        self.n_setups = 0
        self.n_train: int | None = None
        with open(DIGESTS, encoding="utf-8") as fh:
            self.digests = json.load(fh)
        env = dict(os.environ)
        for var in ("DISTILLFORGE_THREADS", *BLAS_THREAD_VARS):
            env.pop(var, None)
        if self.threads:
            env["DISTILLFORGE_THREADS"] = str(self.threads)
        env["OPENBLAS_NUM_THREADS"] = "1"
        env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.env = env

    # digests ------------------------------------------------------------------
    @property
    def digest_table(self) -> str:
        if self.kind == "chain":
            return "cli_chain"
        return "reproduce_full" if self.full else "reproduce"

    def check(self, name: str, digest: str) -> bool:
        """Compare one output digest with the recorded one for this seed."""
        expected = self.digests.get(self.digest_table, {}).get(str(self.seed), {}).get(name)
        if expected is None:
            self.problems.append(f"no recorded digest for {name} at seed {self.seed}")
            return False
        if expected != digest:
            self.problems.append(f"output mismatch: {name} at seed {self.seed}: "
                                 f"{digest[:16]} != recorded {expected[:16]}")
            return False
        return True

    def check_reports(self, out_dir: str) -> bool:
        """sha256 of report.json and every report_*.txt, each against its record."""
        recorded = self.digests.get(self.digest_table, {}).get(str(self.seed), {})
        names = {os.path.basename(p) for p in glob.glob(os.path.join(out_dir, "report*"))}
        names |= {n for n in recorded if n.startswith("report")}
        results = [self.check(name, file_sha256(os.path.join(out_dir, name)))
                   for name in sorted(names)]
        return bool(results) and all(results)

    # commands -----------------------------------------------------------------
    def command(self, args: list[str], out_dir: str, spans: str | None = None) -> Child:
        """One distillforge command; counted as one attempted operation."""
        full_args = [*args, "--seed", str(self.seed), "--out", out_dir]
        if self.config:
            full_args += ["--config", self.config]
        if spans is None:
            argv = [sys.executable, "-m", "distillforge", *full_args]
        else:
            argv = [sys.executable, os.path.join(BENCH, "tracer.py"), "--spans", spans, "--",
                    *full_args]
        self.n_children += 1
        log_dir = os.path.join(self.dir, "logs", str(self.n_children))
        timeout = None if self.deadline is None else self.deadline - time.monotonic()
        child = run_child(argv, self.env, log_dir, timeout)
        self.attempted += 1
        if child.rc != 0:
            self.failed += 1
            self.problems.append(f"exit {child.rc}: {' '.join(args)}")
        shutil.rmtree(log_dir, ignore_errors=True)
        return child

    def generate(self, out_dir: str, spans: str | None = None) -> Child:
        child = self.command(["generate"], out_dir, spans)
        if child.rc == 0:
            m = re.search(rb"\((\d+) train / \d+ test samples\)", child.stdout)
            self.n_train = int(m.group(1)) if m else None
            if not self.check("dataset", file_sha256(os.path.join(out_dir, "dataset.txt"))):
                self.failed += 1
        return child

    def setup(self, n: int) -> list[float]:
        """Latency of ``generate`` (import, config, dataset), ``n`` times."""
        times = []
        for _ in range(n):
            self.n_setups += 1
            out_dir = os.path.join(self.dir, f"setup{self.n_setups}")
            times.append(self.generate(out_dir).wall)
            shutil.rmtree(out_dir, ignore_errors=True)
        return times

    def steps(self) -> int:
        if self.n_train is None:
            raise RuntimeError("the train-split size is unknown: generate failed")
        return optimizer_steps(self.n_train, self.cfg)

    def rep(self, spans_dir: str | None = None) -> Rep:
        """One repetition. ``train_wall`` is the chain's summed ``train`` latency,
        or the whole ``reproduce``, whose set-up ``end_to_end`` takes off."""
        out = os.path.join(self.dir, "out")
        shutil.rmtree(out, ignore_errors=True)
        if spans_dir:
            os.makedirs(spans_dir, exist_ok=True)
        spans = (lambda i: os.path.join(spans_dir, f"{i:03d}.npz")) if spans_dir else (lambda i: None)
        span_files = lambda: sorted(glob.glob(os.path.join(spans_dir, "*.npz"))) if spans_dir else []
        if self.kind == "reproduce":
            if spans_dir:  # the traced run also traces the set-up command
                self.generate(os.path.join(self.dir, "setup-traced"), spans(0))
            child = self.command(["reproduce"], out, spans(1))
            if child.rc == 0 and not self.check_reports(out):
                self.failed += 1
            return Rep(child.wall, child.cpu, child.rss_mb, [child.wall * 1e3], child.wall,
                       span_files())

        t0 = time.perf_counter()
        children = [self.generate(out, spans(0))]
        keys = run_keys()
        for i, key in enumerate(keys, start=1):
            children.append(self.command(["train", key], out, spans(i)))
        evals = {}
        for i, key in enumerate(keys, start=len(keys) + 1):
            evals[key] = self.command(["evaluate", key], out, spans(i))
            children.append(evals[key])
        wall = time.perf_counter() - t0
        for key, child in evals.items():
            if child.rc == 0 and not self.check(
                    key, parts_sha256(read_bytes(os.path.join(out, f"{key}.metrics.json")), child.stdout)):
                self.failed += 1
        train_wall = sum(c.wall for c in children[1:len(keys) + 1])
        return Rep(wall, sum(c.cpu for c in children), max(c.rss_mb for c in children),
                   [c.wall * 1e3 for c in children], train_wall, span_files())

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


# Metrics ---------------------------------------------------------------------------

def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile: the smallest value with p% of samples at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def end_to_end(bench: Bench, setup: list[float], reps: list[Rep]) -> dict[str, dict]:
    steps = bench.steps()
    cmd_ms = [ms for r in reps for ms in r.cmd_ms]
    # a reproduce repetition includes its own set-up; the chain's train commands do not
    setup_med = statistics.median(setup)
    train_wall = [r.train_wall - (setup_med if bench.kind == "reproduce" else 0.0) for r in reps]

    def metric(value, unit, n):
        return {"value": value, "unit": unit, "samples": n}

    attempted = max(bench.attempted, 1)
    return {
        "wall_s": metric(statistics.median(r.wall for r in reps), "s", len(reps)),
        "cpu_s": metric(statistics.median(r.cpu for r in reps), "s", len(reps)),
        "setup_s": metric(setup_med, "s", len(setup)),
        "steps_per_s": metric(statistics.median(steps / t for t in train_wall), "1/s", len(reps)),
        "peak_rss_mb": metric(max(r.rss_mb for r in reps), "MB", bench.n_children),
        "cmd_ms_p50": metric(statistics.median(cmd_ms), "ms", len(cmd_ms)),
        "cmd_ms_p80": metric(percentile(cmd_ms, 80), "ms", len(cmd_ms)),
        "failed_share": metric(bench.failed / attempted, "ratio", bench.attempted),
    }


def aggregate(span_files: list[str]) -> dict:
    """Per-name calls, total and self seconds over the spans of many processes."""
    import numpy as np

    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    counters: dict[str, float] = {}
    jobs: list[tuple[float, float]] = []
    imports: list[float] = []
    for path in span_files:
        with np.load(path) as z:
            names = [str(n) for n in z["names"]]
            name, parent = z["name"], z["parent"]
            dur = z["end"] - z["start"]
            for key, value in json.loads(str(z["counters"])).items():
                counters[key] = counters.get(key, 0) + value
            has_parent = parent >= 0
            child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
            own = dur - child_time
            n_calls = np.bincount(name, minlength=len(names))
            t_total = np.bincount(name, weights=dur, minlength=len(names))
            t_self = np.bincount(name, weights=own, minlength=len(names))
            for i, n in enumerate(names):
                calls[n] = calls.get(n, 0) + int(n_calls[i])
                total[n] = total.get(n, 0.0) + float(t_total[i])
                self_s[n] = self_s.get(n, 0.0) + float(t_self[i])
            if "pipeline.distill_student_task" in names:
                job = name == names.index("pipeline.distill_student_task")
                jobs += list(zip(z["start"][job].tolist(), z["end"][job].tolist()))
            if "cli.import" in names:
                imports += dur[name == names.index("cli.import")].tolist()
    return {"calls": calls, "total": total, "self": self_s, "counters": counters,
            "jobs": jobs, "imports": imports}


def busy_share(jobs: list[tuple[float, float]], workers: int) -> float:
    """Sum of job spans over (workers x wall time during which any job runs)."""
    union, end = 0.0, -math.inf
    for s, e in sorted(jobs):
        if s > end:
            union += e - s
            end = e
        elif e > end:
            union += e - end
            end = e
    return sum(e - s for s, e in jobs) / (workers * union) if union > 0 else 0.0


def layer_metrics(agg: dict, workers: int) -> dict[str, dict]:
    calls, total, own = agg["calls"], agg["total"], agg["self"]
    out: dict[str, dict] = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    def per_call_us(span):
        return own.get(span, 0.0) / calls[span] * 1e6 if calls.get(span) else 0.0

    fwd_calls = 0
    for op in TENSOR_OPS:
        span = f"tensor.{op}"
        fwd_calls += calls.get(span, 0)
        put(f"{span}.calls", calls.get(span, 0), "count")
        put(f"{span}.fwd_us", per_call_us(span), "us")
        put(f"{span}.bwd_us", per_call_us(f"{span}.bwd"), "us")
    put("tensor.fwd_self_s", sum(own.get(f"tensor.{op}", 0.0) for op in TENSOR_OPS), "s")
    put("tensor.bwd_self_s", sum(own.get(f"tensor.{op}.bwd", 0.0) for op in TENSOR_OPS), "s")
    put("tensor.backward.self_s", own.get("tensor.backward", 0.0), "s")
    steps = calls.get("pipeline.nag_step", 0)
    put("tensor.op_calls_per_step", fwd_calls / steps if steps else 0.0, "calls/step")

    for kind in ("taped", "const"):
        put(f"nets.forward_{kind}.calls", calls.get(f"nets.forward_{kind}", 0), "count")
        put(f"nets.forward_{kind}_s", total.get(f"nets.forward_{kind}", 0.0), "s")
    put("nets.save_s", total.get("nets.save_network", 0.0), "s")
    put("nets.load_s", total.get("nets.load_network", 0.0), "s")
    put("nets.load.calls", calls.get("nets.load_network", 0), "count")
    put("nets.ckpt_bytes", agg["counters"].get("nets.ckpt_bytes", 0), "bytes")

    for stage in STAGES:
        put(f"pipeline.{stage}.calls", calls.get(f"pipeline.{stage}", 0), "count")
        put(f"pipeline.{stage}.self_s", own.get(f"pipeline.{stage}", 0.0), "s")
    put("pipeline.steps", steps, "count")
    put("pipeline.nag_step_us", per_call_us("pipeline.nag_step"), "us")
    put("pipeline.nag_step_s", total.get("pipeline.nag_step", 0.0), "s")
    put("pipeline.worker_busy_share", busy_share(agg["jobs"], workers), "ratio")

    for obj in OBJECTIVES:
        put(f"losses.{obj}.calls", calls.get(f"losses.{obj}", 0), "count")
        put(f"losses.{obj}.self_s", own.get(f"losses.{obj}", 0.0), "s")

    for fn in ("make_triplets", "as_arrays", "load_dataset"):
        put(f"data.{fn}.calls", calls.get(f"data.{fn}", 0), "count")
    for fn in ("make_triplets", "as_arrays", "generate", "save_dataset", "load_dataset"):
        put(f"data.{fn}_s", total.get(f"data.{fn}", 0.0), "s")
    put("data.dataset_bytes", agg["counters"].get("data.dataset_bytes", 0), "bytes")

    for fn in ("verification_top1", "pair_verification_accuracy"):
        put(f"metrics.{fn}_s", total.get(f"metrics.{fn}", 0.0), "s")
    put("metrics.calls", sum(n for name, n in calls.items() if name.startswith("metrics.")), "count")

    put("config.load_config_s", total.get("config.load_config", 0.0), "s")
    put("cli.import_s", statistics.mean(agg["imports"]) if agg["imports"] else 0.0, "s")
    for command in ("generate", "train", "evaluate", "reproduce"):
        if calls.get(f"cli.{command}"):
            put(f"cli.{command}.self_s", own[f"cli.{command}"], "s")
    return out


# Environment stamp ------------------------------------------------------------------

def blas_name() -> str:
    try:
        import numpy as np
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (ImportError, KeyError, TypeError):
        return "unknown"


def source_digest() -> str:
    parts = []
    for path in sorted(glob.glob(os.path.join(SRC, "distillforge", "*.py"))):
        parts += [os.path.basename(path).encode(), read_bytes(path)]
    return parts_sha256(*parts)


def git_commit() -> str | None:
    if not os.path.exists(os.path.join(ROOT, ".git")):  # not a repository of its own
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def stamp(bench: Bench) -> dict:
    """Where and what was measured; compare.py refuses results whose
    environment fields (everything but commit and src_sha256) differ."""
    import numpy as np
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name(),
        "OPENBLAS_NUM_THREADS": bench.env.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": bench.env.get("OMP_NUM_THREADS", "unset"),
        "DISTILLFORGE_THREADS": bench.env.get("DISTILLFORGE_THREADS", "unset"),
        "config": os.path.basename(bench.config) if bench.config else "default",
        "commit": git_commit(),
        "src_sha256": source_digest(),
    }


# Main -------------------------------------------------------------------------------

def measure(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """Untraced: rounds of one set-up sample and one repetition until ``seconds``
    is used, then set-up samples up to ``SETUP_MIN``. Returns the metrics and
    the raw samples behind the timings."""
    setup: list[float] = []
    reps: list[Rep] = []
    t0 = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        setup += bench.setup(1)
        if bench.failed:
            break
        reps.append(bench.rep())
        now = time.perf_counter()
        if now - t0 + (now - r0) > seconds or bench.failed:
            break
    if not bench.failed:
        setup += bench.setup(SETUP_MIN - len(setup))
    if not reps:
        raise RuntimeError("set-up failed: nothing was measured")
    raw = {"setup_s": setup, "wall_s": [r.wall for r in reps], "cpu_s": [r.cpu for r in reps]}
    return end_to_end(bench, setup, reps), raw


def measure_traced(bench: Bench) -> tuple[dict, list[str]]:
    """One untraced and two traced repetitions; per-layer metrics and counter checks.
    No separate set-up: each traced repetition starts with a traced ``generate``."""
    untraced = bench.rep()
    layers, walls = [], []
    for i in range(2):
        rep = bench.rep(os.path.join(bench.dir, f"spans{i}"))
        walls.append(rep.wall)
        layers.append(layer_metrics(aggregate(rep.span_files), bench.threads or 1))
        shutil.rmtree(os.path.join(bench.dir, f"spans{i}"), ignore_errors=True)
    defects = []
    for name in EXACT_COUNTERS:
        a, b = layers[0][name]["value"], layers[1][name]["value"]
        if a != b:
            defects.append(f"benchmark defect: {name} differs between traced runs ({a} vs {b})")
    expected_steps = bench.steps()
    if layers[0]["pipeline.steps"]["value"] != expected_steps:
        defects.append(f"benchmark defect: traced pipeline.steps "
                       f"{layers[0]['pipeline.steps']['value']} != planned {expected_steps}")
    metrics = {}
    for name, first in layers[0].items():
        value = statistics.median([first["value"], layers[1][name]["value"]])
        metrics[name] = {"value": value, "unit": first["unit"]}
    metrics["trace.overhead_s"] = {"value": statistics.median(walls) - untraced.wall, "unit": "s"}
    metrics["trace.wall_s"] = {"value": statistics.median(walls), "unit": "s"}
    return metrics, defects


def run_workload(workload: str, args) -> dict:
    deadline = None if args.all or args.full else time.monotonic() + CHILD_DEADLINE_S
    bench = Bench(workload, args.seed, args.full, deadline)
    defects: list[str] = []
    raw: dict = {}
    try:
        if args.trace:
            metrics, defects = measure_traced(bench)
        else:
            metrics, raw = measure(bench, args.seconds)
    except RuntimeError as exc:  # a failed generate leaves nothing to measure
        bench.problems.append(str(exc))
        bench.failed = max(bench.failed, 1)
        metrics = {}
    finally:
        bench.close()
    for line in bench.problems + defects:
        print(line, file=sys.stderr)
    return {"workload": workload, "seed": args.seed, "experiment_seed": bench.seed,
            "trace": args.trace, "stamp": stamp(bench), "correct": not (bench.failed or defects),
            "attempted": bench.attempted, "failed": bench.failed, "metrics": metrics,
            "raw": raw}


def print_table(result: dict) -> None:
    print(f"== {result['workload']} (seed {result['seed']} -> experiment seed "
          f"{result['experiment_seed']}, trace {result['trace']}, "
          f"{result['attempted']} operations, {result['failed']} failed)")
    for name, m in result["metrics"].items():
        n = f"  n={m['samples']}" if "samples" in m else ""
        print(f"  {name:<44} {m['value']:>16.6f} {m['unit']:<10}{n}")


def bench_metric_names(trace: int) -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=sorted(WORKLOADS))
    which.add_argument("--all", action="store_true", help="run every workload in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--full", action="store_true",
                        help="grid workloads: the default plan, epochs unscaled")
    parser.add_argument("--out", help="also write the full result (with stamp) to this JSON file")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not os.path.isfile(os.path.join(SRC, "distillforge", "__init__.py")):
        print(f"error: {SRC}/distillforge not found; run from a distillforge checkout",
              file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    results = [run_workload(w, args) for w in (sorted(WORKLOADS) if args.all else [args.workload])]
    for result in results:
        print_table(result)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=1)
            fh.write("\n")

    correct = all(r["correct"] for r in results)
    names = bench_metric_names(args.trace)
    metrics = {}
    for r in results:
        prefix = f"{r['workload']}." if args.all else ""
        for name in names:
            if name in r["metrics"]:
                metrics[prefix + name] = {k: r["metrics"][name][k] for k in ("value", "unit")}
            else:
                correct = False
    print(json.dumps({"correct": correct, "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
