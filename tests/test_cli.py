"""End-to-end command line behavior via subprocess."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import write_segy
from seishet.metrics import evaluate
from seishet.model import count_params_flops, load_checkpoint
from seishet.numcore import Prng
from seishet.pgm import read_pgm, write_pgm
from seishet.segy import write_raw_section


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env.pop("SEISHET_SEED", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "seishet.cli"] + [str(a) for a in args],
        capture_output=True, text=True, env=env,
    )


def _dir_bytes(path):
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = fh.read()
    return out


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One generated dataset plus a 1-epoch checkpoint, shared per module."""
    root = tmp_path_factory.mktemp("cliws")
    data = root / "data"
    r = run_cli("gen", "--out", data, "--count", "4", "--seed", "7",
                "--height", "88", "--width", "88")
    assert r.returncode == 0, r.stderr
    ckpt = root / "base.ckpt"
    r = run_cli("train", "--data", data, "--out", ckpt, "--attention", "se",
                "--epochs", "1", "--seed", "3", "--log", root / "train.log")
    assert r.returncode == 0, r.stderr
    return {"root": root, "data": data, "ckpt": ckpt}


# ---------------------------------------------------------------- gen

def test_gen_reports_counts_and_writes_manifest(workspace):
    # 88x88 sections hold a 3x3 grid of 44-pixel windows at stride 22
    r = run_cli("gen", "--out", workspace["root"] / "g1", "--count", "2",
                "--seed", "11", "--height", "88", "--width", "88")
    assert r.returncode == 0
    assert "wrote 18 samples from 2 sections (seed 11)" in r.stdout
    manifest = json.loads((workspace["root"] / "g1" / "manifest.json").read_text())
    assert manifest["count"] == 18


def test_gen_same_flags_bitwise_identical(workspace, tmp_path):
    for sub in ("a", "b"):
        r = run_cli("gen", "--out", tmp_path / sub, "--count", "2",
                    "--seed", "4", "--height", "64", "--width", "64")
        assert r.returncode == 0
    assert _dir_bytes(tmp_path / "a") == _dir_bytes(tmp_path / "b")


def test_gen_rejects_zero_count(tmp_path):
    r = run_cli("gen", "--out", tmp_path / "d", "--count", "0")
    assert r.returncode == 2
    assert "--count" in r.stderr


def test_gen_requires_out_flag():
    r = run_cli("gen", "--count", "2")
    assert r.returncode == 2


def test_unknown_subcommand_is_usage_error():
    r = run_cli("frobnicate")
    assert r.returncode == 2


# ---------------------------------------------------------------- train

def test_train_smoke_writes_loadable_checkpoint(workspace):
    model = load_checkpoint(workspace["ckpt"])
    assert model.variant == "se"
    log = (workspace["root"] / "train.log").read_text().splitlines()
    assert len(log) == 1
    assert log[0].startswith("epoch 1 loss ")


def test_train_prints_heldout_metrics(workspace, tmp_path):
    r = run_cli("train", "--data", workspace["data"], "--out", tmp_path / "m.ckpt",
                "--attention", "se", "--epochs", "1", "--seed", "3",
                "--count-limit", "16")
    assert r.returncode == 0
    assert "held-out metrics:" in r.stdout
    assert "iou" in r.stdout
    assert "checkpoint written to" in r.stdout


def test_train_variant_flag_tags_checkpoint(workspace, tmp_path):
    r = run_cli("train", "--data", workspace["data"], "--out", tmp_path / "s.ckpt",
                "--attention", "self", "--epochs", "1", "--seed", "3",
                "--count-limit", "8")
    assert r.returncode == 0, r.stderr
    assert load_checkpoint(tmp_path / "s.ckpt").variant == "self_attention"
    assert load_checkpoint(workspace["ckpt"]).variant == "se"


def test_train_missing_dataset_exits_1(tmp_path):
    missing = tmp_path / "nope"
    r = run_cli("train", "--data", missing, "--out", tmp_path / "x.ckpt",
                "--epochs", "1")
    assert r.returncode == 1
    assert r.stderr.startswith("seishet: error:")
    assert str(missing) in r.stderr


def test_train_rejects_out_of_range_split(workspace, tmp_path):
    r = run_cli("train", "--data", workspace["data"], "--out", tmp_path / "x.ckpt",
                "--split", "1.5")
    assert r.returncode == 2


@pytest.mark.parametrize("flag,value", [("--lr", "0"), ("--pos-weight", "-1")])
def test_train_rejects_bad_rate_or_weight(workspace, tmp_path, flag, value):
    out = tmp_path / "x.ckpt"
    r = run_cli("train", "--data", workspace["data"], "--out", out,
                "--epochs", "1", flag, value)
    assert r.returncode == 1
    assert r.stderr.startswith("seishet: error:")
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--se-ratio", "--heads", "--dk", "--dv"])
def test_train_rejects_attention_size_a_checkpoint_could_not_hold(workspace, tmp_path,
                                                                  flag):
    out = tmp_path / "x.ckpt"
    r = run_cli("train", "--data", workspace["data"], "--out", out,
                "--epochs", "1", flag, "4097")
    assert r.returncode == 2
    assert "at most 4096" in r.stderr
    assert not out.exists()


# ---------------------------------------------------------------- finetune

@pytest.mark.parametrize("flag,value", [("--lr", "0"), ("--pos-weight", "-1")])
def test_finetune_rejects_bad_rate_or_weight(workspace, tmp_path, flag, value):
    out = tmp_path / "t.ckpt"
    r = run_cli("finetune", "--ckpt", workspace["ckpt"], "--data",
                workspace["data"], "--out", out, "--epochs", "1", flag, value)
    assert r.returncode == 1
    assert r.stderr.startswith("seishet: error:")
    assert not out.exists()


def test_finetune_freezes_prefix_and_diff_confirms(workspace, tmp_path):
    tuned = tmp_path / "tuned.ckpt"
    r = run_cli("finetune", "--ckpt", workspace["ckpt"], "--data",
                workspace["data"], "--out", tuned, "--epochs", "1",
                "--freeze-prefix", "2", "--seed", "9", "--count-limit", "8")
    assert r.returncode == 0, r.stderr
    assert "frozen parameters" in r.stdout
    assert "stage1.conv1.weight" in r.stdout
    d = run_cli("info", "--ckpt", workspace["ckpt"], "--diff", tuned)
    assert d.returncode == 0
    lines = d.stdout.splitlines()
    assert "equal stage1.conv1.weight" in lines
    assert "equal stage1.conv2.weight" in lines
    assert "differs stage2.conv1.weight" in lines
    assert any(line.endswith("tensors differ") for line in lines)


def test_finetune_zero_prefix_freezes_nothing(workspace, tmp_path):
    r = run_cli("finetune", "--ckpt", workspace["ckpt"], "--data",
                workspace["data"], "--out", tmp_path / "t.ckpt", "--epochs", "1",
                "--freeze-prefix", "0", "--seed", "9", "--count-limit", "8")
    assert r.returncode == 0, r.stderr
    assert "frozen parameters: none" in r.stdout


def test_finetune_variant_mismatch_exits_1(workspace, tmp_path):
    r = run_cli("finetune", "--ckpt", workspace["ckpt"], "--data",
                workspace["data"], "--out", tmp_path / "t.ckpt",
                "--attention", "self", "--epochs", "1")
    assert r.returncode == 1
    assert "does not match" in r.stderr


def test_finetune_corrupt_checkpoint_exits_1(workspace, tmp_path):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"not a checkpoint at all")
    r = run_cli("finetune", "--ckpt", bad, "--data", workspace["data"],
                "--out", tmp_path / "t.ckpt", "--epochs", "1")
    assert r.returncode == 1
    assert r.stderr.startswith("seishet: error:")


# ---------------------------------------------------------------- predict

@pytest.fixture(scope="module")
def raw_section(tmp_path_factory):
    path = tmp_path_factory.mktemp("raw") / "sec.f32"
    write_raw_section(Prng(55).uniform(-1.0, 1.0, (30, 30)), path)
    return path


def test_predict_raw_emits_pgm_with_section_dims(workspace, raw_section, tmp_path):
    out = tmp_path / "map.pgm"
    r = run_cli("predict", "--ckpt", workspace["ckpt"], "--raw", raw_section,
                "--height", "30", "--width", "30", "--out", out)
    assert r.returncode == 0, r.stderr
    assert "confidence map 30x30" in r.stdout
    assert read_pgm(out).shape == (30, 30)


def test_predict_rerun_is_byte_identical(workspace, raw_section, tmp_path):
    outs = []
    for name in ("m1.pgm", "m2.pgm"):
        out = tmp_path / name
        r = run_cli("predict", "--ckpt", workspace["ckpt"], "--raw", raw_section,
                    "--height", "30", "--width", "30", "--out", out)
        assert r.returncode == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_predict_csv_output(workspace, raw_section, tmp_path):
    out = tmp_path / "map.csv"
    r = run_cli("predict", "--ckpt", workspace["ckpt"], "--raw", raw_section,
                "--height", "30", "--width", "30", "--out", out,
                "--format", "csv")
    assert r.returncode == 0
    grid = np.loadtxt(out, delimiter=",")
    assert grid.shape == (30, 30)
    assert grid.min() >= 0.0 and grid.max() <= 1.0


def test_predict_raw_needs_dimensions(workspace, raw_section, tmp_path):
    r = run_cli("predict", "--ckpt", workspace["ckpt"], "--raw", raw_section,
                "--out", tmp_path / "m.pgm")
    assert r.returncode == 1
    assert "--height" in r.stderr


def test_predict_source_flags_are_exclusive(workspace, raw_section, tmp_path):
    r = run_cli("predict", "--ckpt", workspace["ckpt"], "--raw", raw_section,
                "--segy", "x.sgy", "--out", tmp_path / "m.pgm")
    assert r.returncode == 2


def test_predict_reads_segy_line(workspace, tmp_path):
    prng = Prng(66)
    traces = [(1, xl, prng.uniform(-1.0, 1.0, 24).tolist()) for xl in range(20)]
    vol = write_segy(tmp_path / "v.sgy", traces)
    out = tmp_path / "line.pgm"
    r = run_cli("predict", "--ckpt", workspace["ckpt"], "--segy", vol,
                "--axis", "inline", "--line", "1", "--out", out)
    assert r.returncode == 0, r.stderr
    assert read_pgm(out).shape == (24, 20)


def test_predict_missing_line_lists_range(workspace, tmp_path):
    traces = [(1, xl, [0.5] * 24) for xl in range(20)]
    vol = write_segy(tmp_path / "v.sgy", traces)
    r = run_cli("predict", "--ckpt", workspace["ckpt"], "--segy", vol,
                "--line", "99", "--out", tmp_path / "m.pgm")
    assert r.returncode == 1
    assert "available" in r.stderr


# ---------------------------------------------------------------- eval

def test_eval_identical_masks_score_one(tmp_path):
    mask = np.zeros((10, 10), dtype=np.uint8)
    mask[3:6, 2:8] = 255
    path = tmp_path / "m.pgm"
    write_pgm(path, mask)
    r = run_cli("eval", "--pred", path, "--truth", path)
    assert r.returncode == 0
    payload = json.loads(r.stdout.splitlines()[-1])
    assert payload["iou"] == 1.0
    assert payload["f1"] == 1.0


def test_eval_json_schema(tmp_path):
    truth = (Prng(71).uniform(0.0, 1.0, (12, 12)) > 0.7).astype(np.uint8) * 255
    pred = (Prng(72).uniform(0.0, 1.0, (12, 12)) > 0.7).astype(np.uint8) * 255
    write_pgm(tmp_path / "t.pgm", truth)
    write_pgm(tmp_path / "p.pgm", pred)
    r = run_cli("eval", "--pred", tmp_path / "p.pgm", "--truth", tmp_path / "t.pgm")
    assert r.returncode == 0
    payload = json.loads(r.stdout.splitlines()[-1])
    assert set(payload) == {"iou", "precision", "recall", "f1",
                            "tp", "fp", "fn", "tn"}


def test_eval_matches_library_scoring(tmp_path):
    truth = (Prng(73).uniform(0.0, 1.0, (15, 9)) > 0.6).astype(np.uint8)
    pred = (Prng(74).uniform(0.0, 1.0, (15, 9)) > 0.6).astype(np.uint8)
    write_pgm(tmp_path / "t.pgm", truth * 255)
    write_pgm(tmp_path / "p.pgm", pred * 255)
    r = run_cli("eval", "--pred", tmp_path / "p.pgm", "--truth", tmp_path / "t.pgm")
    assert r.returncode == 0
    payload = json.loads(r.stdout.splitlines()[-1])
    report = evaluate(pred, truth)
    assert payload["tp"] == report.counts.tp
    assert payload["fp"] == report.counts.fp
    assert payload["fn"] == report.counts.fn
    assert payload["iou"] == pytest.approx(report.iou, abs=1e-12)


def test_eval_shape_mismatch_exits_1(tmp_path):
    write_pgm(tmp_path / "t.pgm", np.zeros((5, 5), dtype=np.uint8))
    write_pgm(tmp_path / "p.pgm", np.zeros((4, 4), dtype=np.uint8))
    r = run_cli("eval", "--pred", tmp_path / "p.pgm", "--truth", tmp_path / "t.pgm")
    assert r.returncode == 1
    assert r.stderr.startswith("seishet: error:")


# ---------------------------------------------------------------- info

def test_info_total_matches_library_count(workspace):
    r = run_cli("info", "--ckpt", workspace["ckpt"])
    assert r.returncode == 0
    total, _ = count_params_flops(load_checkpoint(workspace["ckpt"]))
    assert ("total trainable parameters: %d" % total) in r.stdout
    assert "stage1.conv1.weight" in r.stdout
    assert "flop convention:" in r.stdout
    assert "92827" in r.stdout
    assert "791.356" in r.stdout


def test_info_diff_of_identical_checkpoints(workspace):
    r = run_cli("info", "--ckpt", workspace["ckpt"], "--diff", workspace["ckpt"])
    assert r.returncode == 0
    assert "all tensors equal" in r.stdout


def test_info_unreadable_checkpoint_exits_1(tmp_path):
    r = run_cli("info", "--ckpt", tmp_path / "missing.ckpt")
    assert r.returncode == 1
    assert r.stderr.startswith("seishet: error:")


def test_info_checkpoint_with_non_utf8_tensor_name_exits_1(workspace, tmp_path):
    blob = bytearray(workspace["ckpt"].read_bytes())
    blob[8 + 21 + 4] = 0xFF  # first byte of the first tensor name
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(bytes(blob))
    r = run_cli("info", "--ckpt", bad)
    assert r.returncode == 1
    assert r.stderr.startswith("seishet: error:")
    assert "Traceback" not in r.stderr


# ---------------------------------------------------------------- seeds

def test_env_seed_fallback_matches_explicit_flag(tmp_path):
    r1 = run_cli("gen", "--out", tmp_path / "flag", "--count", "2",
                 "--seed", "7", "--height", "64", "--width", "64")
    r2 = run_cli("gen", "--out", tmp_path / "env", "--count", "2",
                 "--height", "64", "--width", "64",
                 env_extra={"SEISHET_SEED": "7"})
    assert r1.returncode == 0 and r2.returncode == 0
    assert "(seed 7)" in r2.stdout
    assert _dir_bytes(tmp_path / "flag") == _dir_bytes(tmp_path / "env")


def test_env_seed_must_be_integer(tmp_path):
    r = run_cli("gen", "--out", tmp_path / "d", "--count", "2",
                env_extra={"SEISHET_SEED": "abc"})
    assert r.returncode == 1
    assert "SEISHET_SEED" in r.stderr


def test_help_lists_subcommands():
    r = run_cli("--help")
    assert r.returncode == 0
    for name in ("gen", "train", "finetune", "predict", "eval", "info"):
        assert name in r.stdout
