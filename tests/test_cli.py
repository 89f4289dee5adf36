"""Config parsing and the command-line front end, run in-process via
``cli.main``. A miniature benchmark (6 identities, 16-dim inputs, one
epoch per phase) keeps every command under a second."""
import functools
import hashlib
import json
import math
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import distillforge.pipeline as pipeline
import distillforge.data as data
from distillforge import cli
from distillforge.config import (ConfigError, DEFAULTS, apply_set, default_config,
                                 describe_keys, experiment_plan, load_config)
from distillforge.data import GeneratorParams, load_dataset
from distillforge.losses import DistillConfig
from distillforge.nets import load_network

TINY = [
    "data.num_identities=6", "data.samples_per_identity=10", "data.input_dim=16",
    "data.latent_dim=4", "data.pose_dim=2", "data.num_keypoints=3",
    "net.hidden_widths=16,8", "net.embedding_dim=4",
    "cls.batch_size=16", "cls.epochs_per_phase=1",
    "alignment.batch_size=16", "alignment.epochs_per_phase=1",
    "verification.batch_size=16", "verification.epochs_per_phase=1",
    "experiment.divisors=2", "experiment.alignment_divisors=2",
    "experiment.verification_divisors=2", "experiment.verification_modes=single",
    "experiment.eval_pairs=20",
]


def _sets(*extra):
    argv = []
    for assignment in (*TINY, *extra):
        argv += ["--set", assignment]
    return argv


def _run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------ config

def test_defaults_cover_every_key():
    cfg = load_config()
    assert set(cfg) == set(DEFAULTS)
    assert cfg["distill.tau"] == 3.0
    assert cfg["experiment.divisors"] == (2, 4, 8)


def test_config_defaults_build_the_library_default_plan():
    # config.DEFAULTS reads each plan default from the dataclasses, so this holds
    # by construction; only the task lists and verification modes are written in
    # the config as well as in ExperimentPlan.tasks
    assert experiment_plan(load_config()) == pipeline.ExperimentPlan()


def test_unknown_key_is_named():
    with pytest.raises(ConfigError, match="unknown config key"):
        apply_set(default_config(), "net.depth=3")


def test_bad_value_names_key_and_location(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("distill.tau = very\n")
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    assert "distill.tau" in str(err.value)
    assert f"{path}:1" in str(err.value)


def test_out_of_range_value_names_bounds():
    with pytest.raises(ConfigError) as err:
        apply_set(default_config(), "distill.tau=-1")
    assert "distill.tau" in str(err.value)
    assert ">= 1" in str(err.value)


def test_file_comments_and_set_precedence(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\n\ndistill.tau = 4.0\nseed = 9\n")
    cfg = load_config(str(path))
    assert cfg["distill.tau"] == 4.0 and cfg["seed"] == 9
    cfg = load_config(str(path), ["distill.tau=5"])
    assert cfg["distill.tau"] == 5.0


def test_scale_ordering_cross_check():
    with pytest.raises(ConfigError, match="pose_keypoint_scale"):
        load_config(None, ["data.pose_keypoint_scale=0.05"])


def test_describe_keys_lists_everything():
    text = describe_keys()
    for key in DEFAULTS:
        assert key in text


_LISTING = """\
alignment.batch_size              default: 32  (>= 1)
alignment.continue_lr             default: 0.0002  (> 0)
alignment.epochs_per_phase        default: 30  (>= 0)
alignment.scratch_lr              default: 0.005  (> 0)
cls.alpha                         default: 1.0  (>= 0)
cls.batch_size                    default: 64  (>= 1)
cls.continue_lr                   default: 0.002  (> 0)
cls.epochs_per_phase              default: 15  (>= 0)
cls.scratch_lr                    default: 0.02  (> 0)
data.identity_keypoint_scale      default: 0.1  (>= 0)
data.input_dim                    default: 64  (>= 1)
data.latent_dim                   default: 8  (>= 1)
data.noise_std                    default: 0.1  (>= 0)
data.num_identities               default: 32  (>= 2)
data.num_keypoints                default: 5  (>= 1)
data.pose_dim                     default: 4  (>= 1)
data.pose_keypoint_scale          default: 1.0  (> 0)
data.samples_per_identity         default: 50  (>= 2)
distill.tau                       default: 3.0  (>= 1)
experiment.alignment_divisors     default: 8  (each >= 1)
experiment.divisors               default: 2,4,8  (each >= 1)
experiment.eval_pairs             default: 200  (>= 1)
experiment.verification_divisors  default: 2  (each >= 1)
experiment.verification_modes     default: single,joint  (each 'single' or 'joint')
net.embedding_dim                 default: 16  (>= 1)
net.hidden_widths                 default: 256,256,128  (non-empty, each >= 1)
optimizer.momentum                default: 0.9  (in [0, 1))
out                               default: runs  (non-empty)
seed                              default: 0  (>= 0)
verification.batch_size           default: 32  (>= 1)
verification.continue_lr          default: 0.001  (> 0)
verification.epochs_per_phase     default: 15  (>= 0)
verification.lambda_margin        default: 0.4  (>= 0)
verification.scratch_lr           default: 0.005  (> 0)
"""


def test_config_listing_matches_the_recorded_listing():
    assert describe_keys() == _LISTING


def _out_of_bound(bound) -> list:
    """Values a field with ``bound`` rejects: one step past each limit, an
    unlisted choice, an empty value where one is needed, and values of the
    wrong type (2.5 and True for an int, nan, inf and True for a float, "no",
    1 and None for a bool)."""
    kind = bound["type"]
    bad = [bound["ge"] - (1 if kind is int else 0.5)] if "ge" in bound else []
    bad += [bound[limit] for limit in ("gt", "lt") if limit in bound]
    bad += ["bogus"] if "among" in bound else []
    bad += {int: [2.5, True], float: [math.nan, math.inf, True], str: [], bool: ["no", 1, None]}[kind]
    if bound.get("each"):
        bad = [(value,) for value in bad]
    if bound.get("nonempty"):
        bad.append(() if bound.get("each") else "")
    return bad


@pytest.mark.parametrize("key", sorted(DEFAULTS))
def test_every_key_rejects_out_of_bound_values(tmp_path, capsys, monkeypatch, key):
    # in a config file or a --set, the value fails with one line naming the key
    # and where it was set; given to the field the key sets, it fails naming the field
    path, key_field = DEFAULTS[key]
    run_dir, cfg_file = tmp_path / "run", tmp_path / "bad.cfg"
    run_dir.mkdir()
    monkeypatch.chdir(run_dir)
    values = _out_of_bound(key_field.metadata)
    assert values
    for value in values:
        raw = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
        cfg_file.write_text(f"# out of bound\n{key} = {raw}\n")
        for argv, where in ((["--set", f"{key}={raw}"], "--set"),
                            (["--config", str(cfg_file)], f"{cfg_file}:2")):
            code, out, err = _run(capsys, "train", "teacher_cls", *argv)
            assert code == 1 and out == "" and os.listdir(run_dir) == [], (key, value, argv, err)
            assert err.startswith(f"error: {where}: ") and key in err and err.count("\n") == 1, err
        if path is not None:
            *owner, name = path.split(".")
            with pytest.raises(ValueError, match=f"^{name} must be"):
                replace(functools.reduce(getattr, owner, pipeline.ExperimentPlan()), **{name: value})


@pytest.mark.parametrize("plan", [
    GeneratorParams(), pipeline.ExperimentPlan().teacher, DistillConfig(),
    pipeline.StagePlan(16, 1),
    pipeline.TaskPlan(pipeline.ALIGNMENT, (2,)), pipeline.ExperimentPlan(),
], ids=lambda plan: type(plan).__name__)
def test_every_bounded_field_rejects_out_of_bound_values(plan):
    # among the cases: GeneratorParams(num_identities=2.5), num_identities=True,
    # noise_std=nan, pose_keypoint_scale=inf, NetworkSpec(input_dim=2.5) and
    # DistillConfig(alpha=True), all once accepted
    bounded = [f for f in fields(plan) if f.metadata]
    assert bounded
    for f in bounded:
        for value in _out_of_bound(f.metadata):
            with pytest.raises(ValueError, match=f"^{f.name} must be"):
                replace(plan, **{f.name: value})


def _another_value(f):
    """A valid value of the key field ``f`` other than its default."""
    default, kind = f.default, f.metadata["type"]
    if f.metadata.get("each"):
        return default[:-1]
    return default + 1 if kind is int else default / 2 if kind is float else f"{default}2"


def _effect(cfg) -> tuple:
    """What a config changes in a run: its stage records, its generator, its
    evaluation pairs and its run directory."""
    plan = experiment_plan(cfg)
    return pipeline.stages(plan), plan.generator, plan.eval_pairs, cfg["out"]


@pytest.mark.parametrize("key", sorted(DEFAULTS))
def test_every_key_changes_the_run(key):
    # a key whose value reaches no stage, no generator, no pair count and no
    # directory changes nothing a run does, as distill.beta once did
    value = _another_value(DEFAULTS[key][1])
    raw = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
    assert _effect(load_config(None, [f"{key}={raw}"])) != _effect(load_config()), (key, raw)


def test_removed_beta_key_is_unknown(tmp_path, capsys):
    # a plan-wide beta had no stage to act on: every task run names its own
    (tmp_path / "run.cfg").write_text("distill.beta = 0.5\n")
    for argv in (["--set", "distill.beta=0.5"], ["--config", str(tmp_path / "run.cfg")]):
        code, out, err = _run(capsys, "generate", "--out", str(tmp_path / "run"), *argv)
        assert code == 1 and out == "" and not (tmp_path / "run").exists(), argv
        assert "unknown config key 'distill.beta'" in err and err.count("\n") == 1, err


@pytest.mark.parametrize("old, new", [("distill.alpha", "cls.alpha"),
                                      ("distill.lambda_margin", "verification.lambda_margin")])
def test_renamed_keys_are_unknown_under_their_old_names(tmp_path, capsys, old, new):
    # each key sits in the section of the only stages it changes
    assert new in DEFAULTS and old not in DEFAULTS
    (tmp_path / "run.cfg").write_text(f"{old} = 0.5\n")
    for argv in (["--set", f"{old}=0.5"], ["--config", str(tmp_path / "run.cfg")]):
        code, out, err = _run(capsys, "generate", "--out", str(tmp_path / "run"), *argv)
        assert code == 1 and out == "" and not (tmp_path / "run").exists(), argv
        assert f"unknown config key {old!r}" in err and err.count("\n") == 1, err


def test_out_is_stripped_and_must_not_be_empty(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text("out = myrun\n")
    assert _run(capsys, "generate", "--config", "run.cfg", *_sets())[0] == 0
    assert sorted(os.listdir(tmp_path)) == ["myrun", "run.cfg"]
    for argv in (["--set", "out="], ["--set", "out= "], ["--out", ""]):
        code, out, err = _run(capsys, "generate", *argv, *_sets())
        assert code == 1 and out == "", (argv, err)
        assert err == f"error: {argv[0]}: out must be non-empty, got ''\n"
    assert sorted(os.listdir(tmp_path)) == ["myrun", "run.cfg"]


# --------------------------------------------------------------- commands

def test_config_subcommand_prints_keys(capsys):
    code, out, _ = _run(capsys, "config")
    assert code == 0
    assert "distill.tau" in out and "default: 3.0" in out


def test_cli_import_leaves_pool_and_random_modules_out():
    # every command pays for what the CLI imports; only a pool needs the pool
    # modules and only a draw numpy.random (about 25 ms and 8-10 ms of each
    # command's start-up on a 2-vCPU box)
    code = "import sys, distillforge.cli; print(sorted(set(sys.argv[1:]) & set(sys.modules)))"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    result = subprocess.run([sys.executable, "-c", code, "multiprocessing", "concurrent.futures",
                             "numpy.random"], env=env, capture_output=True, text=True, check=True)
    assert result.stdout == "[]\n"


def test_generate_is_byte_deterministic(tmp_path, capsys):
    for name in ("a", "b"):
        code, out, _ = _run(capsys, "generate", "--seed", "7", "--out", str(tmp_path / name),
                            *_sets())
        assert code == 0 and "dataset.txt" in out
    a = (tmp_path / "a" / "dataset.txt").read_bytes()
    b = (tmp_path / "b" / "dataset.txt").read_bytes()
    assert a == b
    code, _, _ = _run(capsys, "generate", "--seed", "8", "--out", str(tmp_path / "c"), *_sets())
    assert code == 0
    assert (tmp_path / "c" / "dataset.txt").read_bytes() != a


def test_seed_flag_matches_set_override(tmp_path, capsys):
    _run(capsys, "generate", "--seed", "7", "--out", str(tmp_path / "flag"), *_sets())
    _run(capsys, "generate", "--set", "seed=7", "--out", str(tmp_path / "set"), *_sets())
    assert ((tmp_path / "flag" / "dataset.txt").read_bytes()
            == (tmp_path / "set" / "dataset.txt").read_bytes())


@pytest.mark.parametrize("command", [["generate"], ["train", "teacher_cls"],
                                     ["evaluate", "teacher_cls"], ["reproduce"]])
def test_seed_flag_obeys_the_config_bound(tmp_path, capsys, command):
    code, out, err = _run(capsys, *command, "--seed", "-1", "--out", str(tmp_path), *_sets())
    assert code == 1 and out == ""
    assert "seed must be >= 0" in err
    assert os.listdir(tmp_path) == []


def _metric_lines(out: str) -> dict[str, str]:
    pairs = re.findall(r"^(\w+) = (.+)$", out, flags=re.MULTILINE)
    return dict(pairs)


def test_train_then_evaluate_agree_exactly(tmp_path, capsys):
    out_dir = str(tmp_path / "run")
    assert _run(capsys, "generate", "--out", out_dir, *_sets())[0] == 0
    dataset_before = (tmp_path / "run" / "dataset.txt").read_bytes()

    code, out, _ = _run(capsys, "train", "teacher_cls", "--out", out_dir, *_sets())
    assert code == 0
    trained = _metric_lines(out)
    assert "top1" in trained and "pair_acc" in trained

    code, out, _ = _run(capsys, "evaluate", "teacher_cls", "--out", out_dir, *_sets())
    assert code == 0
    assert _metric_lines(out) == trained  # save/load + re-eval is exact

    sidecar = json.loads((tmp_path / "run" / "teacher_cls.metrics.json").read_text())
    assert sidecar["stage"] == "teacher_cls"
    for name, text in trained.items():
        assert sidecar["metrics"][name] == float(text)

    assert (tmp_path / "run" / "dataset.txt").read_bytes() == dataset_before


def test_evaluate_missing_checkpoint_path_fails_naming_it(tmp_path, capsys):
    out_dir = tmp_path / "run"
    assert _run(capsys, "generate", "--out", str(out_dir), *_sets())[0] == 0
    missing = out_dir / "missing.ckpt"
    code, out, err = _run(capsys, "evaluate", str(missing), "--out", str(out_dir), *_sets())
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and str(missing) in err, err


def test_evaluate_accepts_checkpoint_path(tmp_path, capsys):
    out_dir = str(tmp_path / "run")
    _run(capsys, "generate", "--out", out_dir, *_sets())
    _run(capsys, "train", "teacher_cls", "--out", out_dir, *_sets())
    ckpt = tmp_path / "run" / "checkpoints" / "teacher_cls.ckpt"
    code, out, _ = _run(capsys, "evaluate", str(ckpt), "--out", out_dir, *_sets())
    assert code == 0
    metrics = _metric_lines(out)
    assert {"top1", "pair_acc", "verif_top1", "nrmse"} <= set(metrics)


def test_train_chain_through_full_init(tmp_path, capsys):
    out_dir = str(tmp_path / "run")
    _run(capsys, "generate", "--out", out_dir, *_sets())
    for stage in ("teacher_cls", "student2_cls_init", "student2_cls_full_init",
                  "teacher_alignment", "student2_alignment_distill_a0_b1"):
        code, out, err = _run(capsys, "train", stage, "--out", out_dir, *_sets())
        assert code == 0, f"{stage}: {err}"
        assert (tmp_path / "run" / "checkpoints" / f"{stage}.ckpt").exists()


def test_train_and_evaluate_read_a_reproduce_directory(tmp_path, capsys):
    # every command keeps its checkpoints in <out>/checkpoints
    out_dir = tmp_path / "r"
    code, _, err = _run(capsys, "reproduce", "--out", str(out_dir), *_sets())
    assert code == 0, err
    table = {(row["task"], row["network"], row["init"], row["alpha"], row["beta"]): row["metrics"]
             for row in json.loads((out_dir / "report.json").read_text())["rows"]}
    plan = experiment_plan(load_config(None, TINY))
    for key in ("teacher_cls", "student2_cls_full_init", "student2_alignment_distill_a0_b1"):
        code, out, err = _run(capsys, "evaluate", key, "--out", str(out_dir), *_sets())
        assert code == 0, f"{key}: {err}"
        metrics = {name: float(text) for name, text in _metric_lines(out).items()}
        assert metrics == table[dict(pipeline._report_rows(plan))[key]], key
    # a key outside the plan trains on the directory's teacher
    code, _, err = _run(capsys, "train", "student3_cls_scratch", "--out", str(out_dir), *_sets())
    assert code == 0, err
    assert (out_dir / "checkpoints" / "student3_cls_scratch.ckpt").exists()


def _dependency_rank(key: str) -> int:
    """Position of a run key's kind in the stage chain: every stage ranks
    after the stages whose checkpoints it loads."""
    for rank, kind in enumerate((r"teacher_cls", r"student\d+_cls_init", r"student\d+_cls_\w+",
                                 r"teacher_\w+", r"student\d+_\w+_pretrain_base")):
        if re.fullmatch(kind, key):
            return rank
    return 5  # task grid runs


def test_train_checkpoints_match_reproduce_bytes(tmp_path, capsys):
    sets = _sets("experiment.verification_modes=single,joint")
    code, _, err = _run(capsys, "reproduce", "--seed", "3", "--out", str(tmp_path / "r"), *sets)
    assert code == 0, err
    reproduced = tmp_path / "r" / "checkpoints"
    keys = sorted((p.stem for p in reproduced.glob("*.ckpt")), key=lambda k: (_dependency_rank(k), k))
    assert len(keys) == 28

    out_dir = tmp_path / "t"
    assert _run(capsys, "generate", "--seed", "3", "--out", str(out_dir), *sets)[0] == 0
    for key in keys:
        code, _, err = _run(capsys, "train", key, "--seed", "3", "--out", str(out_dir), *sets)
        assert code == 0, f"{key}: {err}"
    mismatched = [key for key in keys if ((out_dir / "checkpoints" / f"{key}.ckpt").read_bytes()
                                          != (reproduced / f"{key}.ckpt").read_bytes())]
    assert mismatched == []

    # a stage that reads no target trains without its table's teacher checkpoint
    key, lone = "student2_verification_distill_a0_b0", tmp_path / "lone"
    (lone / "checkpoints").mkdir(parents=True)
    for name in ("dataset.txt", "checkpoints/student2_cls_full_init.ckpt"):
        shutil.copy(tmp_path / "r" / name, lone / name)
    code, _, err = _run(capsys, "train", key, "--seed", "3", "--out", str(lone), *sets)
    assert code == 0, err
    assert ((lone / "checkpoints" / f"{key}.ckpt").read_bytes()
            == (reproduced / f"{key}.ckpt").read_bytes())

    # keys outside the configured plan (divisor 3, grid point (0.5, 2)) still train
    for key in ("student3_cls_scratch", "student2_alignment_distill_a0.5_b2"):
        code, _, err = _run(capsys, "train", key, "--seed", "3", "--out", str(out_dir), *sets)
        assert code == 0, f"{key}: {err}"


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_stage_failure_names_the_run_key(tmp_path, capsys, monkeypatch):
    # a scratch rate of 1e6 wrecks the classification teacher; the first stage
    # with a non-finite metric is the alignment teacher fine-tuned from it
    sets = _sets("cls.scratch_lr=1e6")
    message = "error: stage teacher_alignment: nrmse must be finite, got inf"
    for workers in (1, 2):
        monkeypatch.setattr(cli, "_workers", lambda: workers)
        code, _, err = _run(capsys, "reproduce", "--out", str(tmp_path / f"r{workers}"), *sets)
        assert code == 2 and message in err
        assert multiprocessing.active_children() == []

    out_dir = str(tmp_path / "t")
    assert _run(capsys, "generate", "--out", out_dir, *sets)[0] == 0
    assert _run(capsys, "train", "teacher_cls", "--out", out_dir, *sets)[0] == 0
    code, _, err = _run(capsys, "train", "teacher_alignment", "--out", out_dir, *sets)
    assert code == 2 and message in err
    assert not (tmp_path / "t" / "checkpoints" / "teacher_alignment.ckpt").exists()


def test_plan_needs_two_test_samples_per_identity(tmp_path, capsys):
    # the 80/20 split leaves 0 or 1 test samples per identity at 2 to 7
    # samples; generate still writes such a dataset, nothing else runs on it
    for per_identity, n_test in ((2, 0), (5, 1)):
        sets = _sets(f"data.samples_per_identity={per_identity}")
        out_dir = tmp_path / str(per_identity)
        assert _run(capsys, "generate", "--out", str(out_dir), *sets)[0] == 0
        for command in (["reproduce"], ["train", "teacher_cls"]):
            code, _, err = _run(capsys, *command, "--out", str(out_dir), *sets)
            assert code == 1, err
            assert err == (f"error: samples_per_identity {per_identity} leaves {n_test} test "
                           "samples per identity; evaluation needs at least 2\n")
        assert sorted(p.name for p in out_dir.iterdir()) == ["dataset.txt", "dataset.txt.bin"]
    with pytest.raises(ConfigError, match="samples_per_identity 7 leaves 1 test samples"):
        experiment_plan(load_config(None, [*TINY, "data.samples_per_identity=7"]))
    assert experiment_plan(load_config(None, [*TINY, "data.samples_per_identity=8"])).generator.split_sizes == (6, 2)


@pytest.mark.parametrize("command", [["reproduce"], ["train", "teacher_alignment"],
                                     ["evaluate", "teacher_alignment"],
                                     ["train", "student2_alignment_distill_a0_b1"]])
def test_alignment_needs_two_keypoints(tmp_path, capsys, command):
    # NRMSE normalizes by the distance between the first two keypoints; with
    # one, reproduce once trained every classification stage first and then
    # exited 2 in teacher_alignment
    sets = _sets("data.num_keypoints=1")
    out_dir = str(tmp_path)
    assert _run(capsys, "generate", "--out", out_dir, *sets)[0] == 0
    assert _run(capsys, "train", "teacher_cls", "--out", out_dir, *sets)[0] == 0
    code, out, err = _run(capsys, *command, "--out", out_dir, *sets)
    assert code == 1 and out == "", err
    assert re.fullmatch(r"error: stage \w+ needs num_keypoints >= 2, got 1: .*\n", err), err
    assert os.listdir(tmp_path / "checkpoints") == ["teacher_cls.ckpt"]


def test_one_keypoint_runs_without_an_alignment_table(tmp_path, capsys):
    sets = _sets("data.num_keypoints=1", "experiment.alignment_divisors=")
    assert _run(capsys, "reproduce", "--out", str(tmp_path), *sets)[0] == 0
    assert json.loads((tmp_path / "report.json").read_text())


def test_evaluate_checkpoint_path_skips_nrmse_on_one_keypoint(tmp_path, capsys):
    # the path form once scored NRMSE for any keypoint head and exited 2 in
    # reference_distances, which needs two keypoints
    sets, out_dir = _sets("data.num_keypoints=1"), str(tmp_path)
    assert _run(capsys, "generate", "--out", out_dir, *sets)[0] == 0
    assert _run(capsys, "train", "teacher_cls", "--out", out_dir, *sets)[0] == 0
    ckpt = str(tmp_path / "checkpoints" / "teacher_cls.ckpt")
    code, out, err = _run(capsys, "evaluate", ckpt, "--out", out_dir, *sets)
    assert code == 0, err
    assert re.findall(r"^(\w+) = ", out, re.M) == ["pair_acc", "top1", "verif_top1"]


def _corrupt(text: str, kind: str, rng) -> str:
    """``text``, a saved dataset, with one corruption of ``kind`` at a place
    drawn from ``rng``."""
    header, *rows = text.splitlines(keepends=True)
    if kind == "empty file":
        return ""
    if kind == "truncated last line":  # cut anywhere after the flag, newline included
        return text[:len(text) - int(rng.integers(1, len(rows[-1]) - len("train")))]
    if kind == "every row test":
        return header + "".join("test" + row[row.index(" "):] for row in rows)
    if kind == "header count off by one":
        head = header.split()
        at = int(rng.integers(2, 5))
        head[at] = str(int(head[at]) + int(rng.choice([-1, 1])))
        return " ".join(head) + "\n" + "".join(rows)
    at = int(rng.integers(len(rows)))
    tok = rows[at].split()
    if kind == "field dropped":
        del tok[int(rng.integers(len(tok)))]
    elif kind == "field added":
        tok.insert(int(rng.integers(len(tok) + 1)), repr(float(rng.normal())))
    elif kind == "identity out of range":
        tok[1] = str(rng.choice(["-1", "99999999999999999999"]))
    elif kind == "non-numeric token":
        tok[int(rng.integers(1, len(tok)))] = str(rng.choice(["x", "1.0.0", "--1", "0x1p3", "1,5"]))
    elif kind == "non-finite value":
        tok[int(rng.integers(2, len(tok)))] = str(rng.choice(["nan", "inf", "-inf", "1e999"]))
    else:  # unknown split flag
        tok[0] = str(rng.choice(["valid", "Train", "tset", "-"]))
    rows[at] = " ".join(tok) + "\n"
    return header + "".join(rows)


def test_corrupt_dataset_fails_cleanly(tmp_path, capsys):
    out_dir = tmp_path / "run"
    assert _run(capsys, "generate", "--out", str(out_dir), *_sets())[0] == 0
    assert _run(capsys, "train", "teacher_cls", "--out", str(out_dir), *_sets())[0] == 0
    path = out_dir / "dataset.txt"
    pristine = path.read_text()
    # the sidecar stays in place, stale, so it must never hide a bad text
    assert (out_dir / "dataset.txt.bin").is_file()
    rng = np.random.default_rng(2024)
    for kind in ("field dropped", "field added", "non-numeric token", "non-finite value",
                 "identity out of range", "unknown split flag", "header count off by one",
                 "truncated last line", "empty file", "every row test"):
        for _ in range(5):
            path.write_text(_corrupt(pristine, kind, rng))
            with pytest.raises(ValueError):
                load_dataset(path)
            code, out, err = _run(capsys, "evaluate", "teacher_cls", "--out", str(out_dir), *_sets())
            assert code in (1, 2) and out == "", kind
            assert len(err.splitlines()) == 1 and err.startswith("error: "), (kind, err)
    path.write_text(pristine)
    assert _run(capsys, "evaluate", "teacher_cls", "--out", str(out_dir), *_sets())[0] == 0


def _negated_test_features(blob: bytes) -> bytes:
    """A dataset sidecar whose test features are negated, its header untouched."""
    magic, header, payload = blob.split(b"\n", 2)
    head = json.loads(header)
    widths = 1 + head["input_dim"] + head["num_keypoint_coords"]
    start = 8 * (head["n_train"] * widths + head["n_test"])
    values = np.frombuffer(payload, "<f8").copy()
    values[start // 8:start // 8 + head["n_test"] * head["input_dim"]] *= -1
    return b"\n".join([magic, header, values.tobytes()])


def _v1_sidecar(blob: bytes) -> bytes:
    """The sidecar as it was written before its payload had a digest."""
    magic, header, payload = blob.split(b"\n", 2)
    head = {key: value for key, value in json.loads(header).items() if key != "payload_sha256"}
    return b"\n".join([magic.replace(b"v2", b"v1"), json.dumps(head, sort_keys=True).encode(), payload])


def test_train_reads_the_sidecar_and_writes_what_the_text_gives(tmp_path, capsys, monkeypatch):
    parses = []
    parse_text = data._parse_text
    monkeypatch.setattr(data, "_parse_text", lambda path: parses.append(path) or parse_text(path))
    outputs = {}
    for sidecar in ("fresh", "deleted", "negated test features", "v1"):
        out_dir = tmp_path / sidecar.replace(" ", "_")
        assert _run(capsys, "generate", "--out", str(out_dir), *_sets())[0] == 0
        path = out_dir / "dataset.txt.bin"
        if sidecar == "deleted":
            path.unlink()
        elif sidecar != "fresh":
            path.write_bytes((_v1_sidecar if sidecar == "v1" else _negated_test_features)(path.read_bytes()))
        parses.clear()
        for key in ("teacher_cls", "student2_cls_scratch"):
            assert _run(capsys, "train", key, "--out", str(out_dir), *_sets())[0] == 0
        code, evaluated, _ = _run(capsys, "evaluate", "student2_cls_scratch", "--out", str(out_dir), *_sets())
        assert code == 0
        assert parses == ([] if sidecar == "fresh" else [str(out_dir / "dataset.txt")] * 3), sidecar
        outputs[sidecar] = {str(p.relative_to(out_dir)): p.read_bytes()
                            for p in out_dir.rglob("*") if p.is_file() and p.suffix != ".bin"}
        outputs[sidecar]["evaluate"] = evaluated
    assert all(output == outputs["fresh"] for output in outputs.values())
    assert len(outputs["fresh"]) == 6  # the dataset, two checkpoints, two metrics files, one evaluation
    assert not (tmp_path / "deleted" / "dataset.txt.bin").exists()


_SPEC_INTS = ("input_dim", "embedding_dim", "num_classes", "num_keypoint_coords", "width_divisor")


def _corrupt_ckpt(blob: bytes, kind: str, rng) -> bytes:
    """``blob``, a saved checkpoint, with one corruption of ``kind`` at a
    place drawn from ``rng``."""
    def pick(options):
        return options[int(rng.integers(len(options)))]

    if kind == "truncated":  # anywhere: in the magic, the header or mid-array
        return blob[:int(rng.integers(len(blob)))]
    magic, header, payload = blob.split(b"\n", 2)
    if kind == "non-finite value":
        at = 8 * int(rng.integers(len(payload) // 8))
        value = np.array([pick([np.nan, np.inf, -np.inf])], dtype="<f8").tobytes()
        return magic + b"\n" + header + b"\n" + payload[:at] + value + payload[at + 8:]
    head = json.loads(header)
    spec = head["spec"]
    if kind == "spec disagrees with shapes":
        field = pick([*_SPEC_INTS, "hidden_widths"])
        if field == "hidden_widths":
            spec[field] = pick([spec[field][:-1], spec[field] + [3]])
        else:
            spec[field] += 1
    elif kind == "field missing":
        field = pick(["spec", "param_shapes", *_SPEC_INTS, "hidden_widths"])
        del (head if field in head else spec)[field]
    elif kind == "field mistyped":
        field = pick(["param_shapes", "a shape", *_SPEC_INTS, "hidden_widths"])
        if field == "a shape":
            head["param_shapes"][int(rng.integers(len(head["param_shapes"])))] = pick(
                ["x", [1.5, 2], [None], 7])
        elif field == "param_shapes":
            head[field] = pick(["x", 7, {"a": 1}])
        elif field == "hidden_widths":
            spec[field] = pick([5, "16,8", [16.0, 8], ["16", 8], None, {}])
        else:
            spec[field] = pick(["2", 2.0, None, True, [1], {}])
    else:  # the header is another JSON value
        head = pick([[head], "spec", 3, None, {}])
    return magic + b"\n" + json.dumps(head).encode() + b"\n" + payload


def test_corrupt_checkpoint_fails_cleanly(tmp_path, capsys):
    out_dir = tmp_path / "run"
    assert _run(capsys, "generate", "--out", str(out_dir), *_sets())[0] == 0
    assert _run(capsys, "train", "teacher_cls", "--out", str(out_dir), *_sets())[0] == 0
    path = out_dir / "checkpoints" / "teacher_cls.ckpt"
    pristine = path.read_bytes()
    rng = np.random.default_rng(2025)
    for kind in ("truncated", "non-finite value", "spec disagrees with shapes", "field missing",
                 "field mistyped", "header not an object"):
        for _ in range(8):
            path.write_bytes(_corrupt_ckpt(pristine, kind, rng))
            with pytest.raises(ValueError, match=re.escape(str(path))):
                load_network(path)
            # read directly, and as the dependency of a stage
            for command in (["evaluate", str(path)], ["train", "student2_cls_scratch"]):
                code, out, err = _run(capsys, *command, "--out", str(out_dir), *_sets())
                assert code in (1, 2) and out == "", (kind, command)
                assert len(err.splitlines()) == 1 and err.startswith("error: "), (kind, err)
                assert str(path) in err, (kind, err)
    assert not (out_dir / "checkpoints" / "student2_cls_scratch.ckpt").exists()
    path.write_bytes(pristine)
    assert _run(capsys, "evaluate", str(path), "--out", str(out_dir), *_sets())[0] == 0


def test_checkpoint_with_bad_magic_header_or_tail_fails_naming_it(tmp_path, capsys):
    # the reader's three checks that a random corruption rarely reaches
    out_dir = tmp_path / "run"
    assert _run(capsys, "generate", "--out", str(out_dir), *_sets())[0] == 0
    assert _run(capsys, "train", "teacher_cls", "--out", str(out_dir), *_sets())[0] == 0
    pristine = (out_dir / "checkpoints" / "teacher_cls.ckpt").read_bytes()
    assert pristine.startswith(b"distillforge-ckpt v1\n{")
    for kind, blob, message in (
            ("wrong magic", pristine.replace(b"ckpt v1", b"ckpt v2", 1), "not a network checkpoint"),
            ("header not JSON", pristine.replace(b"\n{", b"\n{{", 1), "corrupt checkpoint header"),
            ("trailing bytes", pristine + b"\0" * 8, "trailing bytes after checkpoint payload")):
        path = out_dir / f"{kind.replace(' ', '_')}.ckpt"
        path.write_bytes(blob)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}"):
            load_network(path)
        code, out, err = _run(capsys, "evaluate", str(path), "--out", str(out_dir), *_sets())
        assert code == 2 and out == "", kind
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and str(path) in err, (kind, err)


def test_config_floats_must_be_finite(tmp_path, capsys):
    float_keys = [key for key, (_, f) in DEFAULTS.items() if f.metadata["type"] is float]
    assert {"data.noise_std", "distill.tau", "cls.scratch_lr"} <= set(float_keys)
    for key in float_keys:
        for value in ("inf", "1e999"):
            code, out, err = _run(capsys, "generate", "--out", str(tmp_path / "run"),
                                  "--set", f"{key}={value}")
            assert code == 1 and out == "", (key, value)
            assert len(err.splitlines()) == 1 and err.startswith("error: ") and key in err, (key, err)
            assert not (tmp_path / "run").exists(), (key, value)


_CONFIG = """# a run
seed = 3
data.noise_std = 0.1
net.hidden_widths = 16, 8
distill.tau = 3.0
cls.scratch_lr = 0.02
experiment.divisors = 2, 4
experiment.verification_modes = single, joint
"""


def _corrupt_config(text: str, rng) -> bytes:
    """``text`` with one to three byte flips, deletions or insertions of a
    token, at places drawn from ``rng``."""
    blob = bytearray(text.encode())
    for _ in range(int(rng.integers(1, 4))):
        at, kind = int(rng.integers(len(blob))), int(rng.integers(3))
        if kind == 0:
            blob[at] ^= 1 << int(rng.integers(8))
        elif kind == 1:
            del blob[at:at + int(rng.integers(1, 4))]
        else:
            tokens = (b"=", b",", b"#", b"\0", b"inf", b"1e999")
            blob[at:at] = tokens[int(rng.integers(len(tokens)))]
    return bytes(blob)


def test_corrupt_config_fails_cleanly(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    rng = np.random.default_rng(2026)
    outcomes = set()
    for _ in range(300):
        path.write_bytes(_corrupt_config(_CONFIG, rng))
        try:
            experiment_plan(load_config(str(path)))
            outcomes.add("loaded")
        except ConfigError:
            outcomes.add("ConfigError")
        code, out, err = _run(capsys, "train", "teacher_cls", "--config", str(path),
                              "--out", str(tmp_path / "empty"))
        assert code in (1, 2) and out == "", path.read_bytes()
        assert len(err.splitlines()) == 1 and err.startswith("error: "), (path.read_bytes(), err)
    assert outcomes == {"loaded", "ConfigError"}


def test_undecodable_config_is_config_error(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"seed = 1\n# caf\xe9\n")
    code, out, err = _run(capsys, "generate", "--config", str(path), "--out", str(tmp_path))
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and str(path) in err


def test_missing_dataset_is_runtime_error(tmp_path, capsys):
    code, _, err = _run(capsys, "train", "teacher_cls", "--out", str(tmp_path / "empty"),
                        *_sets())
    assert code == 2
    assert "dataset.txt" in err


def test_missing_prerequisite_is_runtime_error(tmp_path, capsys):
    out_dir = str(tmp_path / "run")
    _run(capsys, "generate", "--out", out_dir, *_sets())
    code, _, err = _run(capsys, "train", "student2_cls_full_init", "--out", out_dir, *_sets())
    assert code == 2
    assert "teacher_cls" in err


def test_unknown_stage_is_config_error(tmp_path, capsys):
    code, _, err = _run(capsys, "train", "student2_cls_warmstart", "--out", str(tmp_path))
    assert code == 1
    assert "unknown stage key" in err


@pytest.mark.parametrize("stage", [
    "student2_verification_pretrain_a1e_b0",
    "student2_verification_pretrain_a1-_b0",
    "student2_verification_pretrain_a0_b1.2.3",
    "student2_verification_pretrain_a-1_b0",
    "student2_verification_pretrain_a1e999_b0",
])
def test_malformed_grid_weight_is_config_error(tmp_path, capsys, stage):
    code, _, err = _run(capsys, "train", stage, "--out", str(tmp_path))
    assert code == 1, err
    assert stage in err


def test_bad_set_is_config_error(tmp_path, capsys):
    code, _, err = _run(capsys, "generate", "--out", str(tmp_path), "--set", "nonsense")
    assert code == 1
    assert "key=value" in err


def test_usage_error_exits_one(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["train"])  # missing stage argument
    assert err.value.code == 1
    capsys.readouterr()


def test_reproduce_writes_reports_and_is_deterministic(tmp_path, capsys):
    outs = []
    for name in ("r1", "r2"):
        out_dir = tmp_path / name
        code, _, err = _run(capsys, "reproduce", "--out", str(out_dir), *_sets())
        assert code == 0, err
        assert (out_dir / "dataset.txt").exists()
        assert (out_dir / "report.json").exists()
        outs.append((out_dir / "report.json").read_bytes())
    assert outs[0] == outs[1]

    report = json.loads(outs[0])
    tasks = {row["task"] for row in report["rows"]}
    assert tasks == {"classification", "alignment", "verification"}
    for task in sorted(tasks):
        text = (tmp_path / "r1" / f"report_{task}.txt").read_text()
        for row in report["rows"]:
            if row["task"] != task:
                continue
            assert row["network"] in text
            for value in row["metrics"].values():
                assert f"{value:.12g}" in text  # text tables carry full precision


def test_reproduce_draws_the_dataset_once(tmp_path, capsys, monkeypatch):
    calls = []

    def counting(generate):
        def wrapper(params):
            calls.append(params)
            return generate(params)
        return wrapper

    monkeypatch.setattr(cli, "generate", counting(cli.generate))
    monkeypatch.setattr(pipeline, "generate", counting(pipeline.generate))
    code, _, err = _run(capsys, "reproduce", "--out", str(tmp_path), *_sets())
    assert code == 0, err
    assert len(calls) == 1


@pytest.mark.parametrize("env, workers", [
    ({}, 1),  # OpenBLAS keeps a thread per CPU
    ({"OPENBLAS_NUM_THREADS": "1"}, 3),
    ({"OPENBLAS_NUM_THREADS": "2"}, 1),
    ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 3),
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 1),
    ({"GOTO_NUM_THREADS": "one", "OMP_NUM_THREADS": "1"}, 3),
])
def test_reproduce_runs_a_worker_per_cpu_only_on_one_blas_thread(monkeypatch, env, workers):
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    assert cli._workers() == workers


@pytest.mark.parametrize("workers", [1, 2])
def test_reproduce_matches_recorded_digest_on_any_worker_count(tmp_path, capsys, monkeypatch,
                                                               workers):
    # test_11 in the release gate runs the worker count of the host; this
    # pins the same bytes for the in-process walk and for the pool
    root = Path(__file__).resolve().parents[1]
    with open(root / "perfbench" / "digests.json", encoding="utf-8") as fh:
        expected = json.load(fh)["reproduce"]["0"]["report.json"]
    monkeypatch.setattr(cli, "_workers", lambda: workers)
    walks, walk = [], pipeline._walk

    def recording(listed, run, n, *rest):
        walks.append(n)
        return walk(listed, run, n, *rest)

    monkeypatch.setattr(pipeline, "_walk", recording)
    code, _, err = _run(capsys, "reproduce", "--seed", "0", "--config",
                        str(root / "perfbench" / "configs" / "grid.cfg"), "--out", str(tmp_path))
    assert code == 0, err
    assert walks == ([workers] if workers > 1 else [])
    assert hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest() == expected
