"""Config parsing and the command-line front end, run in-process via
``cli.main``. A miniature benchmark (6 identities, 16-dim inputs, one
epoch per phase) keeps every command under a second."""
import hashlib
import json
import multiprocessing
import os
import re
from pathlib import Path

import pytest

import distillforge.pipeline as pipeline
from distillforge import cli
from distillforge.config import (ConfigError, DEFAULTS, apply_set, default_config,
                                 describe_keys, load_config)

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


# --------------------------------------------------------------- commands

def test_config_subcommand_prints_keys(capsys):
    code, out, _ = _run(capsys, "config")
    assert code == 0
    assert "distill.tau" in out and "default: 3.0" in out


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


def test_evaluate_accepts_checkpoint_path(tmp_path, capsys):
    out_dir = str(tmp_path / "run")
    _run(capsys, "generate", "--out", out_dir, *_sets())
    _run(capsys, "train", "teacher_cls", "--out", out_dir, *_sets())
    code, out, _ = _run(capsys, "evaluate", str(tmp_path / "run" / "teacher_cls.ckpt"),
                        "--out", out_dir, *_sets())
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
        assert (tmp_path / "run" / f"{stage}.ckpt").exists()


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
    mismatched = [key for key in keys
                  if (out_dir / f"{key}.ckpt").read_bytes() != (reproduced / f"{key}.ckpt").read_bytes()]
    assert mismatched == []

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
    assert not (tmp_path / "t" / "teacher_alignment.ckpt").exists()


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
