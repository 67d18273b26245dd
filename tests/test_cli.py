"""End-to-end command line behavior via subprocess."""

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from conftest import write_raw_section, write_segy
from seishet import cli
from seishet import train as train_module
from seishet.metrics import evaluate
from seishet.model import (build_network, count_params_flops, load_checkpoint,
                           save_checkpoint)
from seishet.numcore import Prng
from seishet.pgm import read_pgm, write_pgm
from seishet.train import FINETUNE_RECIPE


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
    assert r.returncode == 1
    assert r.stderr == "seishet: error: need at least one section, got 0\n"


def test_gen_rejects_zero_fold_wavelength(tmp_path):
    r = run_cli("gen", "--out", tmp_path / "d", "--count", "1",
                "--fold-wavelength", "0", "0")
    assert r.returncode == 1
    assert r.stderr == "seishet: error: fold wavelength must be positive\n"
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("flag,low,high", [
    ("--noise", "nan", "nan"), ("--noise", "0", "inf"),
    ("--wavelet-period", "inf", "inf"), ("--fold-amplitude", "nan", "nan"),
    ("--shear", "nan", "nan"), ("--fold-wavelength", "inf", "inf"),
    ("--throw", "0", "100000000000000000000"),
    ("--faults", "0", "100000000000000000000"),
    ("--thickness", "1", "100000000000000000000"),
])
def test_gen_rejects_a_range_numpy_cannot_draw_from(tmp_path, flag, low, high):
    r = run_cli("gen", "--out", tmp_path / "d", "--count", "1", flag, low, high)
    assert r.returncode == 1
    assert r.stderr.startswith("seishet: error: range ")
    assert r.stderr.count("\n") == 1
    assert not (tmp_path / "d").exists()


def test_gen_cuts_a_huge_wavelet_to_the_section(tmp_path):
    r = run_cli("gen", "--out", tmp_path / "d", "--count", "1", "--height", "44",
                "--width", "44", "--wavelet-period", "1e9", "1e9")
    assert r.returncode == 0, r.stderr
    assert "wrote 1 samples from 1 sections" in r.stdout


def test_gen_survives_a_mask_dilation_larger_than_the_section(tmp_path):
    r = run_cli("gen", "--out", tmp_path / "d", "--count", "1", "--height", "44",
                "--width", "44", "--mask-dilation", "10000000")
    assert r.returncode == 0, r.stderr
    assert "wrote 1 samples from 1 sections" in r.stdout


@pytest.mark.parametrize("command,flag,value", [("gen", "--patch", "44"),
                                                ("predict", "--src", "20")])
def test_window_size_flags_are_usage_errors(workspace, raw_section, tmp_path,
                                            command, flag, value):
    """Patches are 44x44 and real windows 20x20: neither size is a flag."""
    args = {"gen": ["--count", "1", "--height", "44", "--width", "44"],
            "predict": ["--ckpt", workspace["ckpt"], "--raw", raw_section,
                        "--height", "30", "--width", "30"]}[command]
    out = tmp_path / "out"
    r = run_cli(command, "--out", out, *args, flag, value)
    assert r.returncode == 2
    assert "unrecognized arguments: %s %s" % (flag, value) in r.stderr
    assert not out.exists()


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


def test_train_scores_the_heldout_set_once_per_epoch(workspace, tmp_path,
                                                    monkeypatch, capsys):
    original = train_module.evaluate_batched
    calls = []

    def counting(*args, **kwargs):
        calls.append(len(args[1]))  # patches scored
        return original(*args, **kwargs)

    for module in (train_module, cli):
        if getattr(module, "evaluate_batched", None) is original:
            monkeypatch.setattr(module, "evaluate_batched", counting)
    assert cli.main(["train", "--data", str(workspace["data"]),
                     "--out", str(tmp_path / "m.ckpt"), "--attention", "se",
                     "--epochs", "2", "--seed", "3", "--count-limit", "16"]) == 0
    assert calls == [4, 4]  # the 4 held-out patches of 16, once per epoch
    # the held-out table repeats the final epoch's figures
    out = capsys.readouterr().out.splitlines()
    assert out[1].startswith("epoch 2 ") and out[2] == "held-out metrics:"
    table = dict(line.split()[:2] for line in out[4:8])
    assert [table[k] for k in ("iou", "precision", "recall", "f1")] \
        == out[1].split()[5::2]


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
    assert r.returncode == 1


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
    assert r.returncode == 1
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


def test_finetune_without_epochs_or_prefix_runs_the_recipe(workspace, tmp_path):
    log = tmp_path / "t.log"
    r = run_cli("finetune", "--ckpt", workspace["ckpt"], "--data",
                workspace["data"], "--out", tmp_path / "t.ckpt", "--seed", "9",
                "--count-limit", "8", "--log", log)
    assert r.returncode == 0, r.stderr
    assert len(log.read_text().splitlines()) == FINETUNE_RECIPE.epochs
    model = load_checkpoint(tmp_path / "t.ckpt")
    reference = build_network("se", None)
    reference.set_freeze_prefix(FINETUNE_RECIPE.freeze_prefix)
    assert model.freeze == reference.freeze
    assert any(model.freeze.values())


def test_finetune_zero_prefix_freezes_nothing(workspace, tmp_path):
    r = run_cli("finetune", "--ckpt", workspace["ckpt"], "--data",
                workspace["data"], "--out", tmp_path / "t.ckpt", "--epochs", "1",
                "--freeze-prefix", "0", "--seed", "9", "--count-limit", "8")
    assert r.returncode == 0, r.stderr
    assert "frozen parameters: none" in r.stdout


def test_finetune_rejects_prefix_beyond_the_ten_layers(workspace, tmp_path):
    out = tmp_path / "t.ckpt"
    r = run_cli("finetune", "--ckpt", workspace["ckpt"], "--data",
                workspace["data"], "--out", out, "--epochs", "1",
                "--freeze-prefix", "50")
    assert r.returncode == 1
    assert r.stderr.startswith("seishet: error: freeze prefix")
    assert not out.exists()


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


def test_predict_reports_window_coverage(workspace, tmp_path):
    """20-pixel windows at stride 10 start at rows and columns 0, 10 and
    20 of a 45x45 section, so the last 5 rows and columns stay uncovered."""
    path = tmp_path / "sec45.f32"
    write_raw_section(Prng(56).uniform(-1.0, 1.0, (45, 45)), path)
    r = run_cli("predict", "--ckpt", workspace["ckpt"], "--raw", path,
                "--height", "45", "--width", "45", "--out", tmp_path / "m.pgm")
    assert r.returncode == 0, r.stderr
    lines = r.stdout.splitlines()
    assert lines[-2].startswith("wrote pgm confidence map 45x45 to ")
    assert lines[-1] == "9 windows cover 1600 of 2025 pixels"


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


def test_predict_raw_rejects_non_finite_amplitudes(workspace, tmp_path):
    path = tmp_path / "nan.f32"
    write_raw_section(np.full((30, 30), np.nan), path)
    out = tmp_path / "m.pgm"
    r = run_cli("predict", "--ckpt", workspace["ckpt"], "--raw", path,
                "--height", "30", "--width", "30", "--out", out)
    assert r.returncode == 1
    assert r.stderr.startswith("seishet: error:") and "non-finite" in r.stderr
    assert len(r.stderr.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("fmt", ["pgm", "csv"])
def test_predict_rejects_a_map_the_model_overflowed(tmp_path, fmt):
    """Finite weights of 3e38 overflow to NaN confidences; no map is written."""
    model = build_network("se", Prng(1))
    params = model.named_parameters()
    params["up2.weight"][...] = 3e38
    params["head.weight"][...] = 3e38
    ckpt = tmp_path / "overflow.ckpt"
    save_checkpoint(model, ckpt)
    section = tmp_path / "sec.f32"
    write_raw_section(Prng(2).normal(0.0, 1.0, (30, 30)), section)
    out = tmp_path / ("m." + fmt)
    r = run_cli("predict", "--ckpt", ckpt, "--raw", section, "--height", "30",
                "--width", "30", "--out", out, "--format", fmt)
    assert r.returncode == 1
    assert r.stderr.splitlines()[-1] == (
        "seishet: error: confidence map holds non-finite values")
    assert not out.exists()


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


# ---------------------------------------------------------------- library bounds

# Every flag value a library function takes, each with a value out of its
# range: argparse parses it, and the library rejects it.
_OUT_OF_RANGE = [
    ("gen", "--count", "-2"), ("gen", "--height", "-3"), ("gen", "--width", "-4"),
    ("gen", "--mask-dilation", "-1"), ("gen", "--stride", "-5"),
    ("train", "--epochs", "-1"), ("train", "--batch", "-2"),
    ("train", "--split", "1.5"), ("train", "--se-ratio", "4097"),
    ("train", "--heads", "0"), ("train", "--dk", "4097"), ("train", "--dv", "-1"),
    ("train", "--count-limit", "0"),
    ("finetune", "--epochs", "0"), ("finetune", "--batch", "-3"),
    ("finetune", "--freeze-prefix", "-1"), ("finetune", "--count-limit", "-3"),
    ("predict", "--height", "-2"), ("predict", "--width", "-3"),
    ("predict", "--inline-byte", "0"), ("predict", "--crossline-byte", "-1"),
    ("predict", "--stride", "0"), ("predict", "--batch", "-1"),
    ("eval", "--threshold", "1.5"), ("eval", "--threshold", "-1"),
    ("eval", "--threshold", "nan"), ("eval", "--threshold", "inf"),
]


@pytest.mark.parametrize("command,flag,value", _OUT_OF_RANGE)
def test_out_of_range_value_exits_1_and_writes_nothing(workspace, raw_section,
                                                       tmp_path, command, flag,
                                                       value):
    out, log = tmp_path / "out", tmp_path / "log"
    mask = tmp_path / "m.pgm"
    write_pgm(mask, np.full((4, 4), 255, dtype=np.uint8))
    args = {
        "gen": ["--out", out, "--count", "1", "--height", "44", "--width", "44"],
        "train": ["--out", out, "--data", workspace["data"], "--epochs", "1",
                  "--log", log],
        "finetune": ["--out", out, "--ckpt", workspace["ckpt"],
                     "--data", workspace["data"], "--epochs", "1", "--log", log],
        "predict": ["--out", out, "--ckpt", workspace["ckpt"], "--raw", raw_section,
                    "--height", "30", "--width", "30"],
        "eval": ["--pred", mask, "--truth", mask],
    }[command]
    if flag.endswith("-byte"):
        traces = [(1, xl, [0.5] * 24) for xl in range(20)]
        args = ["--out", out, "--ckpt", workspace["ckpt"], "--line", "1",
                "--segy", write_segy(tmp_path / "v.sgy", traces)]
    r = run_cli(command, *args, flag, value)
    assert r.returncode == 1, r.stderr
    assert r.stderr.startswith("seishet: error: ") and r.stderr.count("\n") == 1
    assert re.search(r"(?<![\d.-])%s(?![\d.])" % re.escape(value), r.stderr)
    assert not out.exists() and not log.exists() and r.stdout == ""


def test_gen_reads_a_negative_bound_in_exponent_notation(tmp_path):
    r = run_cli("gen", "--out", tmp_path / "d", "--count", "1", "--height", "44",
                "--width", "44", "--shear", "-1e-3", "0.2")
    assert r.returncode == 0, r.stderr
    manifest = json.loads((tmp_path / "d" / "manifest.json").read_text())
    assert manifest["config"]["shear"] == [-0.001, 0.2]


def test_train_reads_a_negative_rate_in_exponent_notation(workspace, tmp_path):
    """Every command parses -1e-3 as a number, so the library rejects it."""
    out = tmp_path / "x.ckpt"
    r = run_cli("train", "--data", workspace["data"], "--out", out, "--lr", "-1e-3")
    assert r.returncode == 1
    assert r.stderr.startswith("seishet: error: learning rate must be positive")
    assert not out.exists()


def test_gen_and_train_survive_a_tiny_wavelet_period(tmp_path):
    r = run_cli("gen", "--out", tmp_path / "d", "--count", "2", "--height", "44",
                "--width", "44", "--wavelet-period", "1e-200", "1e-200")
    assert r.returncode == 0, r.stderr
    assert r.stderr == ""
    r = run_cli("train", "--data", tmp_path / "d", "--out", tmp_path / "m.ckpt",
                "--epochs", "1")
    assert r.returncode == 0, r.stderr


@pytest.mark.parametrize("dip", ["1e-300", "1e-320"])
def test_gen_survives_a_near_zero_dip(tmp_path, dip):
    """Fault rows that leave the section, at +-inf or NaN, draw no warning."""
    r = run_cli("gen", "--out", tmp_path / "d", "--count", "2", "--height", "44",
                "--width", "44", "--dip", dip, dip)
    assert r.returncode == 0, r.stderr
    assert r.stderr == ""


@pytest.mark.parametrize("height,message", [
    # a section numpy cannot size, and one no address space can hold
    ("100000000000000000000", "100000000000000000000x44"),
    ("10000000000000000", "Unable to allocate"),
])
def test_gen_rejects_an_oversized_section_in_one_line(tmp_path, height, message):
    out = tmp_path / "d"
    r = run_cli("gen", "--out", out, "--count", "1", "--height", height,
                "--width", "44")
    assert r.returncode == 1
    assert r.stderr.startswith("seishet: error: ") and r.stderr.count("\n") == 1
    assert message in r.stderr
    assert not out.exists()


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


def test_eval_scales_prediction_by_its_own_maxval(tmp_path):
    path = tmp_path / "m.pgm"
    path.write_bytes(b"P5\n4 1\n1\n\x00\x01\x01\x00")
    r = run_cli("eval", "--pred", path, "--truth", path)
    assert r.returncode == 0
    payload = json.loads(r.stdout.splitlines()[-1])
    assert payload["iou"] == 1.0
    assert payload["tp"] == 2 and payload["fn"] == 0


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


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "1.5", "half"])
def test_eval_rejects_a_threshold_outside_the_unit_interval(tmp_path, value):
    """The library rejects a number out of range (exit 1); argparse, a
    token that is not a number (exit 2)."""
    path = tmp_path / "m.pgm"
    write_pgm(path, np.full((4, 4), 255, dtype=np.uint8))
    r = run_cli("eval", "--pred", path, "--truth", path, "--threshold", value)
    assert r.returncode == (2 if value == "half" else 1)
    assert "threshold" in r.stderr and r.stdout == ""


@pytest.mark.parametrize("value", ["0", "0.5", "1"])
def test_eval_accepts_thresholds_in_the_unit_interval(tmp_path, value):
    path = tmp_path / "m.pgm"
    write_pgm(path, np.full((4, 4), 255, dtype=np.uint8))
    r = run_cli("eval", "--pred", path, "--truth", path, "--threshold", value)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout.splitlines()[-1])["iou"] == 1.0


def test_eval_shape_mismatch_exits_1(tmp_path):
    write_pgm(tmp_path / "t.pgm", np.zeros((5, 5), dtype=np.uint8))
    write_pgm(tmp_path / "p.pgm", np.zeros((4, 4), dtype=np.uint8))
    r = run_cli("eval", "--pred", tmp_path / "p.pgm", "--truth", tmp_path / "t.pgm")
    assert r.returncode == 1
    assert r.stderr.startswith("seishet: error:")


@pytest.mark.parametrize("text", ["0.5,abc\n0.1,0.2\n", "nan,nan\nnan,nan\n",
                                  "0.5,inf\n0.1,0.2\n", "0.5,1.5\n0.1,0.2\n",
                                  "0.5,-0.25\n0.1,0.2\n", "", "0.5,0.5\n0.1\n"])
def test_eval_rejects_bad_csv_map_with_one_error_line(tmp_path, text):
    (tmp_path / "p.csv").write_text(text)
    write_pgm(tmp_path / "t.pgm", np.zeros((2, 2), dtype=np.uint8))
    r = run_cli("eval", "--pred", tmp_path / "p.csv", "--truth", tmp_path / "t.pgm")
    assert r.returncode == 1
    assert r.stderr.startswith("seishet: error:")
    assert len(r.stderr.splitlines()) == 1
    assert r.stdout == ""


@pytest.mark.parametrize("text,truth", [
    ("0.000000,0.750000\n1.000000,0.250000\n", [[0, 255], [255, 0]]),
    ("0.000000\n1.000000\n0.250000\n", [[0], [255], [0]]),  # one column
])
def test_eval_reads_csv_map(tmp_path, text, truth):
    (tmp_path / "p.csv").write_text(text)
    write_pgm(tmp_path / "t.pgm", np.array(truth, dtype=np.uint8))
    r = run_cli("eval", "--pred", tmp_path / "p.csv", "--truth", tmp_path / "t.pgm")
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout.splitlines()[-1])["iou"] == 1.0


@pytest.mark.parametrize("name,fmt", [("p.PGM", "pgm"), ("p.img", "pgm"),
                                      ("p.pgm", "csv")])
def test_eval_picks_the_map_format_by_content_not_name(tmp_path, name, fmt):
    truth = np.array([[0, 255], [255, 0]], dtype=np.uint8)
    write_pgm(tmp_path / "t.pgm", truth)
    if fmt == "pgm":
        write_pgm(tmp_path / name, truth)
    else:
        (tmp_path / name).write_text("0.000000,0.750000\n1.000000,0.250000\n")
    r = run_cli("eval", "--pred", tmp_path / name, "--truth", tmp_path / "t.pgm")
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout.splitlines()[-1])["iou"] == 1.0


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


# ---------------------------------------------------------------- cold start

_COLD_START = r"""
import os, sys, threading
import numpy as np
from seishet import attention, cli
from seishet.model import build_network
from seishet.numcore import Prng, set_blas_threads
from seishet.pgm import write_pgm

def scipy_loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

root = sys.argv[1]
path = lambda name: os.path.join(root, name)
for argv in (
        ["gen", "--out", path("data"), "--count", "2", "--seed", "7",
         "--height", "88", "--width", "88"],
        ["train", "--data", path("data"), "--out", path("m.ckpt"),
         "--attention", "self", "--epochs", "1", "--seed", "3"],
        ["predict", "--ckpt", path("m.ckpt"), "--raw", path("sec.f32"),
         "--height", "30", "--width", "30", "--out", path("map.pgm")],
        ["eval", "--pred", path("map.pgm"), "--truth", path("truth.pgm")]):
    if argv[0] == "eval":
        write_pgm(path("truth.pgm"), np.eye(30, dtype=np.uint8) * 255)
    assert cli.main(argv) == 0, argv
    assert scipy_loaded() == [], (argv[0], scipy_loaded())

gates, sigmoid = [], attention.sigmoid
def spy(x):
    gates.append(threading.current_thread().name)
    return sigmoid(x)
attention.sigmoid = spy
set_blas_threads(2)
x = Prng(6).normal(size=(16, 1, 44, 44)).astype(np.float32)
np.save(path("logits.npy"), build_network("se", Prng(5)).forward(x))
assert gates and all(n.startswith("seishet-forward") for n in gates), gates
assert "scipy.special" in scipy_loaded()
"""


def test_cold_start_imports_scipy_only_for_se_attention(tmp_path,
                                                         two_blas_threads):
    """A fresh interpreter runs gen, a self-attention train, predict and
    eval without loading scipy; an SE forward at two workers then first
    imports it on the pool threads and gives the logits of a process that
    had scipy loaded from the start."""
    import scipy.special  # noqa: F401 - this process imported scipy first
    write_raw_section(Prng(55).uniform(-1.0, 1.0, (30, 30)),
                      tmp_path / "sec.f32")
    r = subprocess.run([sys.executable, "-c", _COLD_START, str(tmp_path)],
                       capture_output=True, text=True, timeout=600)
    assert r.returncode == 0, r.stderr
    x = Prng(6).normal(size=(16, 1, 44, 44)).astype(np.float32)
    want = build_network("se", Prng(5)).forward(x)
    assert np.load(tmp_path / "logits.npy").tobytes() == want.tobytes()
