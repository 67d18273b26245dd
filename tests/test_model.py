"""Network assembly, parameter accounting, and checkpoint format checks."""

import hashlib
import os
import select
import struct
import sys
import threading

import numpy as np
import pytest

from conftest import relative_error
from seishet.errors import (
    ConfigError,
    DataError,
    DimensionError,
    FormatError,
    IntegrityError,
)
from seishet import model as model_module
from seishet.layers import Dense, cross_entropy_2class
from seishet.model import (
    _CONCAT,
    _FANOUT_LOCK,
    _SKIP,
    CHECKPOINT_MAGIC,
    GRID,
    NetConfig,
    build_network,
    channel_softmax,
    count_params_flops,
    flops_table,
    load_checkpoint,
    parameter_table,
    save_checkpoint,
)
from seishet.numcore import Prng, blas_threads, gelu_grad, set_blas_threads


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
    y = model.forward(np.zeros((1, 1, 44, 44), dtype=np.float32))
    assert y.shape == (1, 2, 44, 44)
    assert np.isfinite(y).all()


def test_builds_are_deterministic_per_seed():
    for variant in ("se", "self_attention"):
        a = build_network(variant, Prng(5))
        b = build_network(variant, Prng(5))
        for name, arr in a.named_parameters().items():
            np.testing.assert_array_equal(arr, b.named_parameters()[name])
    assert not np.array_equal(
        build_network("se", Prng(5)).named_parameters()["stage1.conv1.weight"],
        build_network("se", Prng(6)).named_parameters()["stage1.conv1.weight"],
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
    proba = channel_softmax(model.forward(x))
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


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("variant", ["se", "self_attention"])
def test_forward_logits_equal_training_logits_bit_for_bit(variant, dtype):
    model = build_network(variant, Prng(18), dtype=dtype)
    p = Prng(19)
    x = p.normal(size=(3, 1, 44, 44)).astype(dtype)
    target = (p.uniform(0.0, 1.0, size=(3, 44, 44)) > 0.7).astype(np.uint8)
    _, logits, _ = model.loss_and_grads(x, target)
    y = model.forward(x)
    assert y.dtype == logits.dtype == dtype
    assert y.tobytes() == logits.tobytes()


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


@pytest.mark.parametrize("old,new,message", [
    (b"stage1.conv1.bias", b"stage1.conv9.bias", "unexpected tensor"),
    (b"stage1.conv2.bias", b"stage1.conv1.bias", "duplicate tensor"),
])
def test_checkpoint_tensor_names_must_be_known_and_distinct(tmp_path, old, new,
                                                            message):
    def edit(blob):
        at = blob.index(old)  # the tensor record, ahead of the freeze entries
        blob[at:at + len(old)] = new

    with pytest.raises(IntegrityError, match=message):
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
    # two heads split d_k = 16 into 8-wide relative tables
    assert loaded.named_parameters()["attention.attn.rel_w"].shape == (21, 8)


def test_parameter_table_lists_every_tensor_once():
    model = build_network("self_attention", Prng(26))
    rows = parameter_table(model)
    names = [name for name, _, _, _ in rows]
    assert len(names) == len(set(names))
    assert sum(size for _, _, size, _ in rows) == count_params_flops(model)[0]


def test_channel_softmax_free_function():
    logits = np.zeros((1, 2, 2, 2), dtype=np.float32)
    np.testing.assert_allclose(channel_softmax(logits), 0.5)


# Steps ahead of each freeze prefix's first trainable step: the pool after
# each stage is frozen with it, and prefix 5 backs off to the stage-3 skip.
_FROZEN_STEPS = [0, 1, 3, 4, 6, 7, 10, 11, 12, 13, 14]


@pytest.fixture(scope="module", params=["se", "self_attention"])
def net_and_batch(request):
    model = build_network(request.param, Prng(43))
    prng = Prng(44)
    x = prng.uniform(-1.0, 1.0, size=(3, 1, 44, 44)).astype(np.float32)
    y = (prng.uniform(0.0, 1.0, size=(3, 44, 44)) < 0.3).astype(np.uint8)
    return model, x, y


def test_frozen_steps_follow_the_freeze_prefix(net_and_batch):
    model = net_and_batch[0]
    got = []
    for prefix in range(11):
        model.set_freeze_prefix(prefix)
        got.append(model.frozen_steps())
    assert got == _FROZEN_STEPS
    model.set_freeze_prefix(5)
    assert model._steps[model.frozen_steps()] == "skip"
    model.set_freeze_prefix(10)
    assert model.frozen_steps() == len(model._steps)


def test_frozen_steps_stop_at_a_partly_trainable_layer(net_and_batch):
    model = net_and_batch[0]
    model.set_freeze_prefix(0)
    model.freeze["stage1.conv1.weight"] = True
    assert model.frozen_steps() == 0
    model.set_freeze_prefix(0)


@pytest.mark.parametrize("prefix", range(11))
def test_walk_from_the_boundary_matches_the_full_walk(net_and_batch, prefix):
    model, x, y = net_and_batch
    model.set_freeze_prefix(prefix)
    start = model.frozen_steps()
    features = model.forward(x, stop=start)
    full = model.forward(x)
    assert model.forward(features, start=start).tobytes() == full.tobytes()
    loss, logits, grads = model.loss_and_grads(x, y)
    loss_k, logits_k, grads_k = model.loss_and_grads(features, y, start=start)
    assert loss_k == loss
    assert logits_k.tobytes() == logits.tobytes()
    trainable = [n for n, frozen in model.freeze.items() if not frozen]
    assert sorted(grads_k) == sorted(trainable)
    for name in trainable:
        assert grads_k[name].tobytes() == grads[name].tobytes(), name
    model.set_freeze_prefix(0)


def test_all_frozen_walk_scores_the_cached_logits(net_and_batch):
    model, x, y = net_and_batch
    model.set_freeze_prefix(10)
    start = model.frozen_steps()
    logits = model.forward(x, stop=start)
    assert logits.tobytes() == model.forward(x).tobytes()
    loss, out, grads = model.loss_and_grads(logits, y, start=start)
    assert grads == {}
    assert out is logits
    assert loss == cross_entropy_2class(logits, y)[0]
    model.set_freeze_prefix(0)


@pytest.mark.parametrize("prefix", [-1, 11])
def test_set_freeze_prefix_rejects_counts_outside_the_layers(prefix):
    model = build_network("se", Prng(45))
    with pytest.raises(DataError, match="freeze prefix"):
        model.set_freeze_prefix(prefix)


def _array_bytes(entry):
    """Total bytes of the arrays in a (nested tuple) tape entry."""
    if isinstance(entry, np.ndarray):
        return entry.nbytes
    if isinstance(entry, tuple):
        return sum(_array_bytes(e) for e in entry)
    return 0


def _same_entry(a, b):
    """Equal caches: arrays of the same shape and bytes, other values equal."""
    if isinstance(a, np.ndarray):
        return (isinstance(b, np.ndarray) and a.shape == b.shape
                and a.tobytes() == b.tobytes())
    if isinstance(a, tuple):
        return (isinstance(b, tuple) and len(a) == len(b)
                and all(map(_same_entry, a, b)))
    return a == b


# Pre-activation elements of one patch summed over the eight GeLU layers:
# 2 x 20x44x44, 2 x 50x22x22, 2 x 50x11x11, 20x22x22 and 10x44x44.
_GELU_ELEMENTS = 2 * 20 * 44 * 44 + 2 * 50 * 22 * 22 + 2 * 50 * 11 * 11 \
    + 20 * 22 * 22 + 10 * 44 * 44


@pytest.mark.parametrize("variant", ["se", "self_attention"])
def test_tape_keeps_the_gelu_derivative_not_the_pre_activation(variant):
    """A GeLU step's entry is its layer's cache plus the GeLU derivative.

    A tape that also kept each pre-activation would hold 667,920 more
    bytes per patch (21.4 MB at batch 32).
    """
    model = build_network(variant, Prng(46))
    x = Prng(47).normal(size=(4, 1, 44, 44)).astype(np.float32)
    tape = []
    model.walk(x, tape)
    assert len(tape) == len(model._steps)
    expected = pre_activation = 0
    for i, (step, entry) in enumerate(zip(model._steps, tape)):
        if isinstance(step, tuple) and step[2]:
            z, cache = step[1].forward_cache(model.forward(x, stop=i))
            assert isinstance(entry, tuple) and len(entry) == 2, step[0]
            assert _same_entry(entry[0], cache), step[0]
            assert entry[1].shape == z.shape and entry[1].dtype == z.dtype
            assert entry[1].tobytes() == gelu_grad(z).tobytes(), step[0]
            expected += _array_bytes(cache) + z.nbytes
            pre_activation += z.nbytes
        else:
            expected += _array_bytes(entry)
    assert _array_bytes(tuple(tape)) == expected
    assert pre_activation == 4 * 4 * _GELU_ELEMENTS == 4 * 667_920


# ---------------------------------------------------- patch-parallel forward

def _segments(model):
    """(start, stop) of every step, with the stage-3 skip, conv and concat
    as one segment: a walk cannot stop between the skip and its concat."""
    skip, concat = model._steps.index(_SKIP), model._steps.index(_CONCAT)
    bounds = [i for i in range(len(model._steps) + 1) if not skip < i <= concat]
    return list(zip(bounds, bounds[1:]))


@pytest.mark.parametrize("variant", ["se", "self_attention"])
def test_every_step_gives_a_float32_patch_the_same_bits_in_any_batch(variant):
    model = build_network(variant, Prng(48))
    x = Prng(49).normal(size=(77, 1, 44, 44)).astype(np.float32)
    for start, stop in _segments(model):
        whole = model.walk(x, start=start, stop=stop)
        for size in (1, 5, 8, 13):
            parts = [model.walk(x[i:i + size], start=start, stop=stop)
                     for i in range(0, len(x), size)]
            assert np.concatenate(parts).tobytes() == whole.tobytes(), \
                (model._steps[start], size)
        x = whole


def _spy_on_walks(model):
    """Record (rows, thread name) of every walk call; returns the list."""
    calls, walk = [], model.walk

    def spy(x, *args, **kwargs):
        calls.append((len(x), threading.current_thread().name))
        return walk(x, *args, **kwargs)

    model.walk = spy
    return calls


def _chunks(n):
    """Rows of each walk that forward(n patches) makes: the fewest chunks
    of at most 8, sizes differing by at most one, larger ones first."""
    count = -(-n // 8)
    return [n // count + (i < n % count) for i in range(count)]


@pytest.mark.parametrize("variant", ["se", "self_attention"])
def test_fanned_out_forward_equals_the_serial_walk(variant, two_blas_threads):
    model = build_network(variant, Prng(50))
    serial = model.walk
    calls = _spy_on_walks(model)
    x = Prng(51).normal(size=(77, 1, 44, 44)).astype(np.float32)
    for n in (1, 2, 7, 13, 64, 77):
        calls.clear()
        assert model.forward(x[:n]).tobytes() == serial(x[:n]).tobytes(), n
        assert [rows for rows, _ in calls] == _chunks(n)
        workers = {name.startswith("seishet-forward") for _, name in calls}
        assert workers == {n > 8}
    for start, stop in ((0, 6), (3, 11), (11, None)):
        features = serial(x, stop=start)
        calls.clear()
        got = model.forward(features, start=start, stop=stop)
        assert got.tobytes() == serial(features, start=start, stop=stop).tobytes()
        assert [rows for rows, _ in calls] == _chunks(77)
    assert blas_threads() == 2


def test_one_blas_thread_walks_on_the_calling_thread(two_blas_threads):
    model = build_network("self_attention", Prng(52))
    calls = _spy_on_walks(model)
    x = Prng(53).normal(size=(20, 1, 44, 44)).astype(np.float32)
    set_blas_threads(1)
    model.forward(x)
    assert calls == [(20, threading.current_thread().name)]


def test_float64_forward_walks_on_the_calling_thread(two_blas_threads):
    model = build_network("se", Prng(54), dtype=np.float64)
    calls = _spy_on_walks(model)
    model.forward(Prng(55).normal(size=(20, 1, 44, 44)))
    assert calls == [(20, threading.current_thread().name)]


@pytest.mark.parametrize("variant,path", [("self_attention", ("up1",)),
                                          ("se", ("attention", "fc1"))])
def test_a_replaced_layer_method_walks_on_the_calling_thread(
        variant, path, two_blas_threads):
    """A wrapper set on a layer or on a sub-layer it holds (a hook, a
    profiler) may not be thread-safe, so forward runs it on one thread."""
    model = build_network(variant, Prng(63))
    x = Prng(64).normal(size=(20, 1, 44, 44)).astype(np.float32)
    want = model.walk(x).tobytes()
    layer = dict(model._layers)[path[0]]
    for name in path[1:]:
        layer = getattr(layer, name)
    seen, method = [], layer.forward

    def wrapper(*args, **kwargs):
        seen.append(threading.current_thread().name)
        return method(*args, **kwargs)

    layer.forward = wrapper
    calls = _spy_on_walks(model)
    assert model.forward(x).tobytes() == want
    caller = threading.current_thread().name
    assert calls == [(20, caller)] and seen == [caller]
    del layer.forward
    calls.clear()
    model.forward(x)
    assert [rows for rows, _ in calls] == _chunks(20)


def test_a_new_worker_count_shuts_the_old_pool_down():
    with _FANOUT_LOCK:
        old = model_module._executor(2)
        new = model_module._executor(3)
        assert model_module._executor(3) is new
        with pytest.raises(RuntimeError):
            old.submit(int)
        model_module._executor(2)
        with pytest.raises(RuntimeError):
            new.submit(int)


def test_forward_restores_the_blas_thread_count(two_blas_threads):
    model = build_network("se", Prng(56))
    x = Prng(57).normal(size=(20, 1, 44, 44)).astype(np.float32)
    model.forward(x)
    assert blas_threads() == 2
    with pytest.raises(DimensionError):
        model.forward(x[:, :, :40])
    assert blas_threads() == 2
    # a wrong channel count met by stage2.conv1 in the workers
    with pytest.raises(DimensionError, match="conv expects"):
        model.forward(np.zeros((20, 3, 22, 22), np.float32), start=3)
    assert blas_threads() == 2


def test_concurrent_forward_calls_get_the_serial_bytes(two_blas_threads):
    """More calling threads than CPUs, switching often: each call still
    gets the serial walk's bytes and the thread count comes back."""
    model = build_network("self_attention", Prng(58))
    batches = [Prng(59 + i).normal(size=(12 + i, 1, 44, 44)).astype(np.float32)
               for i in range(4)]
    want = [model.walk(b).tobytes() for b in batches]
    got = [[] for _ in batches]
    barrier = threading.Barrier(len(batches))

    def run(i):
        barrier.wait()
        for _ in range(2):
            got[i].append(model.forward(batches[i]).tobytes())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(i,))
                   for i in range(len(batches))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [[w, w] for w in want]
    assert blas_threads() == 2


def test_forked_child_builds_its_own_pool(two_blas_threads):
    """A child forked after the parent's pool exists still fans out."""
    model = build_network("self_attention", Prng(61))
    x = Prng(62).normal(size=(20, 1, 44, 44)).astype(np.float32)
    want = hashlib.sha256(model.forward(x).tobytes()).hexdigest().encode()
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.write(write_end, hashlib.sha256(model.forward(x).tobytes())
                     .hexdigest().encode())
        finally:
            os._exit(0)
    os.close(write_end)
    try:
        ready, _, _ = select.select([read_end], [], [], 120.0)
        got = os.read(read_end, 64) if ready else b"timed out"
    finally:
        os.close(read_end)
        if not ready:
            os.kill(pid, 9)
        os.waitpid(pid, 0)
    assert got == want
