"""Config parsing and the command-line front end, run in-process via
``cli.main``. A miniature benchmark (6 identities, 16-dim inputs, one
epoch per phase) keeps every command under a second."""
import json
import re

import pytest

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
