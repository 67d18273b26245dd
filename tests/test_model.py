"""Network assembly, parameter accounting, and checkpoint format checks."""

import struct

import numpy as np
import pytest

from seishet.errors import ConfigError, DimensionError, FormatError, IntegrityError
from seishet.layers import Dense, cross_entropy_2class
from seishet.model import (
    CHECKPOINT_MAGIC,
    GRID,
    NetConfig,
    build_network,
    channel_softmax,
    count_params_flops,
    flops_table,
    forward,
    load_checkpoint,
    parameter_table,
    save_checkpoint,
)
from seishet.numcore import Prng, relative_error


def _conv_params(in_ch, out_ch, k):
    return out_ch * in_ch * k * k + out_ch


def se_param_oracle(ratio=4):
    """Closed-form parameter total for the SE variant, summed by hand.

    Trunk: conv 1->20, 20->20, 20->50, 50->50, 50->50, 50->50 (all 3x3).
    Attention on 100 channels: two dense layers 100->100/r->100 plus a
    pointwise conv 100->1. Decoder: transposed convs 100->20 and 20->10
    (3x3), head conv 10->2 (1x1).
    """
    mid = 100 // ratio
    total = (
        _conv_params(1, 20, 3)
        + _conv_params(20, 20, 3)
        + _conv_params(20, 50, 3)
        + _conv_params(50, 50, 3)
        + _conv_params(50, 50, 3)
        + _conv_params(50, 50, 3)
    )
    total += (mid * 100 + mid) + (100 * mid + 100) + (100 * 1 * 1 * 1 + 1)
    total += 100 * 20 * 9 + 20
    total += 20 * 10 * 9 + 10
    total += _conv_params(10, 2, 1)
    return total


def self_attention_param_oracle(heads=4, d_k=32, d_v=32, grid=GRID):
    """Closed-form total for the self-attention variant.

    Same trunk and decoder as the SE oracle; the attention block is a 3x3
    conv 100->(100-d_v) next to projections wq/wk (100 x d_k), wv
    (100 x d_v), wo (d_v x d_v) and two offset tables (2*grid-1, d_k/heads).
    """
    total = se_param_oracle() - ((25 * 100 + 25) + (100 * 25 + 100) + 101)
    total += _conv_params(100, 100 - d_v, 3)
    total += 100 * d_k * 2 + 100 * d_v + d_v * d_v
    total += 2 * (2 * grid - 1) * (d_k // heads)
    return total


def test_forward_shape_and_finiteness():
    model = build_network("se", Prng(1))
    y = forward(model, np.zeros((1, 1, 44, 44), dtype=np.float32))
    assert y.shape == (1, 2, 44, 44)
    assert np.isfinite(y).all()


def test_builds_are_deterministic_per_seed():
    for variant in ("se", "self_attention"):
        a = build_network(variant, Prng(5))
        b = build_network(variant, Prng(5))
        for name, arr in a.named_parameters().items():
            np.testing.assert_array_equal(arr, b.named_parameters()[name])
    assert not np.array_equal(
        build_network("se", Prng(5)).conv11.weight,
        build_network("se", Prng(6)).conv11.weight,
    )


def test_unknown_variant_rejected():
    with pytest.raises(ConfigError):
        build_network("bogus", Prng(0))


def test_se_parameter_count_matches_analytic_oracle():
    model = build_network("se", Prng(2))
    n_params, _ = count_params_flops(model)
    assert n_params == se_param_oracle() == 105598


def test_self_attention_parameter_count_matches_analytic_oracle():
    model = build_network("self_attention", Prng(2))
    n_params, _ = count_params_flops(model)
    assert n_params == self_attention_param_oracle() == 172600


def test_flops_table_per_layer_params_match_tensors():
    for variant in ("se", "self_attention"):
        model = build_network(variant, Prng(3))
        params = model.named_parameters()
        for lname, pcount, fl in flops_table(model):
            live = sum(a.size for n, a in params.items()
                       if n.startswith(lname + "."))
            assert pcount == live, lname
            assert fl > 0


def test_single_conv_and_dense_count_examples():
    model = build_network("se", Prng(4))
    table = dict((name, n) for name, n, _ in flops_table(model))
    assert table["stage1.conv1"] == 200  # 20 kernels of 1x3x3 plus 20 biases
    d = Dense(100, 25)
    assert d.weight.size + d.bias.size == 2525


def test_batch_of_identical_patches_gives_identical_rows():
    model = build_network("self_attention", Prng(7))
    patch = Prng(8).normal(size=(1, 1, 44, 44)).astype(np.float32)
    batch = np.repeat(patch, 3, axis=0)
    y = model.forward(batch)
    np.testing.assert_array_equal(y[0], y[1])
    np.testing.assert_array_equal(y[0], y[2])


def test_channel_softmax_normalizes():
    model = build_network("se", Prng(9))
    x = Prng(10).normal(size=(2, 1, 44, 44)).astype(np.float32)
    proba = model.predict_proba(x)
    np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-6)
    assert proba.min() >= 0.0


def test_wrong_spatial_size_rejected():
    model = build_network("se", Prng(11))
    with pytest.raises(DimensionError):
        model.forward(np.zeros((1, 1, 32, 32), dtype=np.float32))
    with pytest.raises(DimensionError):
        model.forward(np.zeros((1, 2, 44, 44), dtype=np.float32))


def test_grads_cover_every_parameter():
    for variant in ("se", "self_attention"):
        model = build_network(variant, Prng(12))
        x = Prng(13).normal(size=(1, 1, 44, 44)).astype(np.float32)
        target = np.zeros((1, 44, 44), dtype=np.uint8)
        _, _, grads = model.loss_and_grads(x, target)
        params = model.named_parameters()
        assert set(grads) == set(params)
        for name in params:
            assert grads[name].shape == params[name].shape, name


@pytest.mark.parametrize("variant", ["se", "self_attention"])
def test_end_to_end_gradient_subset_matches_finite_difference(variant):
    model = build_network(variant, Prng(14), dtype=np.float64)
    p = Prng(15)
    x = p.normal(size=(1, 1, 44, 44))
    target = (p.uniform(0.0, 1.0, size=(1, 44, 44)) > 0.7).astype(np.uint8)
    _, _, grads = model.loss_and_grads(x, target)
    params = model.named_parameters()

    def loss_now():
        return cross_entropy_2class(model.forward(x), target)[0]

    analytic, numeric = [], []
    picker = Prng(16)
    for name in sorted(params):
        arr = params[name]
        idx = picker.randint(0, arr.size - 1)
        analytic.append(float(grads[name].reshape(-1)[idx]))
        flat = arr.reshape(-1)
        saved = flat[idx]
        h = 1e-5
        flat[idx] = saved + h
        f_plus = loss_now()
        flat[idx] = saved - h
        f_minus = loss_now()
        flat[idx] = saved
        numeric.append((f_plus - f_minus) / (2 * h))
    err = relative_error(np.array(analytic), np.array(numeric))
    assert err < 1e-4


def test_set_freeze_prefix_marks_layerwise():
    model = build_network("se", Prng(17))
    model.set_freeze_prefix(2)
    frozen = [n for n, f in model.freeze.items() if f]
    assert sorted(frozen) == [
        "stage1.conv1.bias", "stage1.conv1.weight",
        "stage1.conv2.bias", "stage1.conv2.weight",
    ]
    model.set_freeze_prefix(0)
    assert not any(model.freeze.values())


def test_set_parameter_validates():
    model = build_network("se", Prng(18))
    with pytest.raises(IntegrityError):
        model.set_parameter("nope.weight", np.zeros(3, dtype=np.float32))
    with pytest.raises(IntegrityError):
        model.set_parameter("head.bias", np.zeros(3, dtype=np.float32))


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    for variant in ("se", "self_attention"):
        model = build_network(variant, Prng(19))
        model.set_freeze_prefix(3)
        path = str(tmp_path / (variant + ".ckpt"))
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.variant == variant
        assert loaded.freeze == model.freeze
        orig = model.named_parameters()
        for name, arr in loaded.named_parameters().items():
            np.testing.assert_array_equal(arr, orig[name])
        x = Prng(20).normal(size=(1, 1, 44, 44)).astype(np.float32)
        np.testing.assert_array_equal(loaded.forward(x), model.forward(x))


def test_checkpoint_bad_magic(tmp_path):
    path = str(tmp_path / "bad.ckpt")
    with open(path, "wb") as fh:
        fh.write(b"NOTACKPT" + b"\x00" * 64)
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_checkpoint_truncation(tmp_path):
    model = build_network("se", Prng(21))
    path = str(tmp_path / "t.ckpt")
    save_checkpoint(model, path)
    blob = open(path, "rb").read()
    for cut in (4, 20, len(blob) // 2, len(blob) - 1):
        with open(path, "wb") as fh:
            fh.write(blob[:cut])
        with pytest.raises(FormatError):
            load_checkpoint(path)


def test_checkpoint_trailing_bytes(tmp_path):
    model = build_network("se", Prng(22))
    path = str(tmp_path / "t.ckpt")
    save_checkpoint(model, path)
    with open(path, "ab") as fh:
        fh.write(b"\x00")
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_checkpoint_tampered_shape(tmp_path):
    model = build_network("se", Prng(23))
    path = str(tmp_path / "t.ckpt")
    save_checkpoint(model, path)
    blob = bytearray(open(path, "rb").read())
    # first record: magic(8) + header(21) + name_len(4) + name(19) + rank(4),
    # then the dims of stage1.conv1.weight start; bump dims[0] from 20 to 21
    off = 8 + 21 + 4 + len(b"stage1.conv1.weight") + 4
    assert struct.unpack_from("<I", blob, off)[0] == 20
    struct.pack_into("<I", blob, off, 21)
    with open(path, "wb") as fh:
        fh.write(bytes(blob))
    with pytest.raises(IntegrityError):
        load_checkpoint(path)


def test_checkpoint_tensor_name_not_utf8(tmp_path):
    model = build_network("se", Prng(27))
    path = str(tmp_path / "t.ckpt")
    save_checkpoint(model, path)
    with open(path, "rb") as fh:
        blob = bytearray(fh.read())
    blob[8 + 21 + 4] = 0xFF  # first byte of the first tensor name
    with open(path, "wb") as fh:
        fh.write(bytes(blob))
    with pytest.raises(FormatError, match="UTF-8"):
        load_checkpoint(path)


def _tampered_checkpoint(tmp_path, variant, edit):
    model = build_network(variant, Prng(28))
    path = str(tmp_path / "t.ckpt")
    save_checkpoint(model, path)
    with open(path, "rb") as fh:
        blob = bytearray(fh.read())
    edit(blob)
    with open(path, "wb") as fh:
        fh.write(bytes(blob))
    return path


@pytest.mark.parametrize("offset,value", [
    (13, 0),          # se_ratio 0 divided the channel count
    (17, 0),          # heads 0
    (21, 0),          # d_k 0
    (21, 1 << 30),    # d_k whose wq alone would take 400 GB
])
def test_checkpoint_implausible_hyperparameters(tmp_path, offset, value):
    path = _tampered_checkpoint(
        tmp_path, "self_attention",
        lambda blob: struct.pack_into("<I", blob, offset, value))
    with pytest.raises(IntegrityError, match="hyperparameters"):
        load_checkpoint(path)


@pytest.mark.parametrize("word", [0x7FC00000, 0x7F800000, 0xFF800000])
def test_checkpoint_non_finite_tensor(tmp_path, word):
    # first value of stage1.conv1.weight: after the name and its 4 dims
    off = 8 + 21 + 4 + len(b"stage1.conv1.weight") + 4 + 16
    path = _tampered_checkpoint(
        tmp_path, "se", lambda blob: struct.pack_into("<I", blob, off, word))
    with pytest.raises(IntegrityError, match="stage1.conv1.weight.*non-finite"):
        load_checkpoint(path)


def test_checkpoint_freeze_flag_must_be_0_or_1(tmp_path):
    def edit(blob):
        blob[-1] = 2  # the last freeze flag, for head.bias

    with pytest.raises(FormatError, match="head.bias"):
        load_checkpoint(_tampered_checkpoint(tmp_path, "se", edit))


def test_checkpoint_duplicate_freeze_flag(tmp_path):
    last = 4 + len(b"head.bias") + 1

    def edit(blob):
        # overwrite the last freeze entry with a copy of the one before it
        prev = blob[-last - 4 - len(b"head.weight") - 1:-last]
        blob[-last:] = prev

    with pytest.raises(IntegrityError, match="duplicate freeze"):
        load_checkpoint(_tampered_checkpoint(tmp_path, "se", edit))


def test_checkpoint_unknown_variant_code(tmp_path):
    model = build_network("se", Prng(24))
    path = str(tmp_path / "t.ckpt")
    save_checkpoint(model, path)
    blob = bytearray(open(path, "rb").read())
    blob[8 + 4] = 9  # variant byte sits right after the u32 version
    with open(path, "wb") as fh:
        fh.write(bytes(blob))
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_checkpoint_preserves_custom_config(tmp_path):
    cfg = NetConfig(se_ratio=4, heads=2, d_k=16, d_v=16)
    model = build_network("self_attention", Prng(25), cfg)
    path = str(tmp_path / "c.ckpt")
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert loaded.config == cfg
    assert loaded.attention.attn.heads == 2


def test_parameter_table_lists_every_tensor_once():
    model = build_network("self_attention", Prng(26))
    rows = parameter_table(model)
    names = [name for name, _, _, _ in rows]
    assert len(names) == len(set(names))
    assert sum(size for _, _, size, _ in rows) == count_params_flops(model)[0]


def test_channel_softmax_free_function():
    logits = np.zeros((1, 2, 2, 2), dtype=np.float32)
    np.testing.assert_allclose(channel_softmax(logits), 0.5)
