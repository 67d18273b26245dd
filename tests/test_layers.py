"""Convolution, pooling, transposed convolution, dense, and loss checks."""

import math

import numpy as np
import pytest

from conftest import channel_major, col2im, finite_difference_grad, relative_error
from seishet.errors import DimensionError, LabelError
from seishet.layers import (
    Conv2d,
    Dense,
    TransposedConv2d,
    cross_entropy_2class,
    glorot_init,
    loss_normalizer,
    maxpool2d,
    maxpool2d_backward,
)
from seishet.numcore import Prng

# ln 2, the loss of perfectly uninformative two-class logits.
LN2 = 0.6931471805599453


def _conv64(in_ch, out_ch, seed):
    layer = Conv2d(in_ch, out_ch, dtype=np.float64)
    p = Prng(seed)
    layer.weight = p.normal(size=layer.weight.shape)
    layer.bias = p.normal(size=layer.bias.shape)
    return layer


def test_glorot_bounds_and_determinism():
    w1 = glorot_init((10, 20), Prng(3), dtype=np.float64)
    w2 = glorot_init((10, 20), Prng(3), dtype=np.float64)
    np.testing.assert_array_equal(w1, w2)
    assert np.abs(w1).max() <= math.sqrt(6.0 / 30)
    w4 = glorot_init((4, 3, 3, 3), Prng(5), dtype=np.float64)
    assert np.abs(w4).max() <= math.sqrt(6.0 / (7 * 9))
    with pytest.raises(DimensionError):
        glorot_init((2, 3, 4), Prng(0))


def test_conv_identity_kernel_reproduces_input():
    layer = Conv2d(1, 1, kernel=3, dtype=np.float64)
    layer.weight[0, 0, 1, 1] = 1.0
    x = Prng(1).normal(size=(1, 1, 3, 3))
    np.testing.assert_allclose(layer.forward(x), x, atol=0)


def test_conv_all_ones_counts_window():
    layer = Conv2d(1, 1, kernel=3, dtype=np.float64)
    layer.weight[:] = 1.0
    layer.bias[:] = 0.25
    y = layer.forward(np.ones((1, 1, 5, 5)))
    # zero padding 1: corner windows hold 4 ones, edge windows 6, inner 9
    side = np.array([2.0, 3.0, 3.0, 3.0, 2.0])
    np.testing.assert_array_equal(y[0, 0], np.outer(side, side) + 0.25)


def _conv_loop_oracle(x, weight, bias, stride, padding):
    b, c, h, w = x.shape
    o, _, k, _ = weight.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho = (h + 2 * padding - k) // stride + 1
    wo = (w + 2 * padding - k) // stride + 1
    out = np.zeros((b, o, ho, wo))
    for n in range(b):
        for oc in range(o):
            for i in range(ho):
                for j in range(wo):
                    acc = 0.0
                    for ic in range(c):
                        for u in range(k):
                            for v in range(k):
                                acc += (
                                    weight[oc, ic, u, v]
                                    * xp[n, ic, i * stride + u, j * stride + v]
                                )
                    out[n, oc, i, j] = acc + bias[oc]
    return out


def test_conv_matches_loop_oracle_exactly():
    p = Prng(21)
    # integer-valued floats make BLAS and loop sums bit-identical
    x = p.randint(-4, 4, size=(2, 3, 8, 8)).astype(np.float64)
    layer = Conv2d(3, 4, kernel=3, dtype=np.float64)
    layer.weight = p.randint(-3, 3, size=layer.weight.shape).astype(np.float64)
    layer.bias = p.randint(-3, 3, size=4).astype(np.float64)
    oracle = _conv_loop_oracle(x, layer.weight, layer.bias, 1, 1)
    np.testing.assert_array_equal(layer.forward(x), oracle)


def test_conv_shape_errors():
    layer = Conv2d(3, 4)
    with pytest.raises(DimensionError):
        layer.forward(np.zeros((1, 2, 8, 8), dtype=np.float32))
    with pytest.raises(DimensionError):
        layer.forward(np.zeros((3, 8, 8), dtype=np.float32))


def test_conv_batch_decomposition():
    layer = _conv64(2, 3, seed=9)
    x = Prng(10).normal(size=(4, 2, 6, 6))
    whole = layer.forward(x)
    for n in range(4):
        np.testing.assert_array_equal(whole[n], layer.forward(x[n:n + 1])[0])


# every 3x3 conv shape of the network: trunk, and the attention branch's conv
NETWORK_CONVS = [(1, 20, 44), (20, 20, 44), (20, 50, 22), (50, 50, 22),
                 (50, 50, 11), (100, 68, 11)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("in_ch,out_ch,size", NETWORK_CONVS)
def test_conv_batch_decomposition_at_network_shapes(in_ch, out_ch, size, dtype):
    """Each patch gives the same bits alone as inside its batch.

    So does its backward grad_x, at every shape but the first conv's,
    whose input gradient the network never takes.
    """
    p = Prng(30 + in_ch + out_ch)
    layer = Conv2d(in_ch, out_ch, prng=p, dtype=dtype)
    layer.bias = p.normal(size=out_ch).astype(dtype)
    x = p.normal(size=(5, in_ch, size, size)).astype(dtype)
    whole = layer.forward(x)
    for n in range(x.shape[0]):
        alone = layer.forward(x[n:n + 1])[0]
        assert whole[n].tobytes() == alone.tobytes()
    if (in_ch, out_ch, size) == NETWORK_CONVS[0]:
        return
    g = p.normal(size=whole.shape).astype(dtype)
    gx = layer.backward(layer.forward_cache(x)[1], g)[0]
    for n in range(x.shape[0]):
        alone = layer.backward(layer.forward_cache(x[n:n + 1])[1], g[n:n + 1])[0]
        assert gx[n:n + 1].tobytes() == alone.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("in_ch,out_ch,size", NETWORK_CONVS[1:])
def test_conv_input_grad_equals_column_form_bit_for_bit(in_ch, out_ch, size, dtype):
    """grad_x has the bits of W^T g over all taps at once, folded by col2im.

    Also for a g that is a channel slice of a wider array, as the concat
    step and the attention-augmented conv pass it.
    """
    p = Prng(40 + in_ch + out_ch)
    layer = Conv2d(in_ch, out_ch, prng=p, dtype=dtype)
    x = p.normal(size=(8, in_ch, size, size)).astype(dtype)
    g = p.normal(size=(8, out_ch, size, size)).astype(dtype)
    wide = p.normal(size=(8, out_ch + 7, size, size)).astype(dtype)
    cache = layer.forward_cache(x)[1]
    for grad in (g, wide[:, 4:4 + out_ch]):
        gx, _, _ = layer.backward(cache, grad)
        gcols = layer.weight.reshape(out_ch, -1).T @ channel_major(grad)
        assert gx.tobytes() == col2im(gcols, x.shape, 1).tobytes()


def _conv_backward_loop_oracle(x, weight, g, stride, padding):
    """grad_x and grad_w of sum(conv(x) * g) by explicit loops."""
    b, c, h, w = x.shape
    o, _, k, _ = weight.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    gxp = np.zeros_like(xp)
    gw = np.zeros_like(weight)
    for n in range(b):
        for oc in range(o):
            for i in range(g.shape[2]):
                for j in range(g.shape[3]):
                    for u in range(k):
                        for v in range(k):
                            y, z = i * stride + u, j * stride + v
                            gw[oc, :, u, v] += g[n, oc, i, j] * xp[n, :, y, z]
                            gxp[n, :, y, z] += g[n, oc, i, j] * weight[oc, :, u, v]
    return gxp[:, :, padding:padding + h, padding:padding + w], gw


@pytest.mark.parametrize("kernel,size", [(3, 6), (3, 5), (1, 6)])
def test_conv_forward_and_backward_match_loop_oracle(kernel, size):
    p = Prng(23 + kernel + size)
    # integer-valued floats make BLAS and loop sums bit-identical
    x = p.randint(-4, 4, size=(2, 3, size, size)).astype(np.float64)
    layer = Conv2d(3, 4, kernel=kernel, dtype=np.float64)
    layer.weight = p.randint(-3, 3, size=layer.weight.shape).astype(np.float64)
    layer.bias = p.randint(-3, 3, size=4).astype(np.float64)
    y, cache = layer.forward_cache(x)
    np.testing.assert_array_equal(y, _conv_loop_oracle(x, layer.weight, layer.bias,
                                                       1, kernel // 2))
    g = p.randint(-3, 3, size=y.shape).astype(np.float64)
    gx, gw, gb = layer.backward(cache, g)
    gx_ref, gw_ref = _conv_backward_loop_oracle(x, layer.weight, g, 1, kernel // 2)
    np.testing.assert_array_equal(gx, gx_ref)
    np.testing.assert_array_equal(gw, gw_ref)
    np.testing.assert_array_equal(gb, g.sum(axis=(0, 2, 3)))


@pytest.mark.parametrize("in_ch,out_ch,size", NETWORK_CONVS)
def test_conv_tape_cache_is_about_the_padded_input(in_ch, out_ch, size):
    """The training cache stays near the padded input, far below 9x of it."""
    layer = Conv2d(in_ch, out_ch, prng=Prng(1))
    x = np.ones((4, in_ch, size, size), dtype=np.float32)
    _, cache = layer.forward_cache(x)
    cached = sum(a.nbytes for a in cache if isinstance(a, np.ndarray))
    padded = x[:, :, 0, 0].nbytes * (size + 2) ** 2
    assert cached <= 1.2 * padded


def test_conv_backward_zero_grad():
    layer = _conv64(2, 3, seed=2)
    x = Prng(3).normal(size=(1, 2, 5, 5))
    _, cache = layer.forward_cache(x)
    gx, gw, gb = layer.backward(cache, np.zeros((1, 3, 5, 5)))
    assert not gx.any() and not gw.any() and not gb.any()


def test_conv_backward_single_pixel_recovers_window():
    layer = Conv2d(1, 1, kernel=3, dtype=np.float64)
    x = Prng(4).normal(size=(1, 1, 5, 5))
    g = np.zeros((1, 1, 5, 5))
    g[0, 0, 2, 3] = 1.0  # the window centred on x[2, 3]
    _, gw, gb = layer.backward(layer.forward_cache(x)[1], g)
    np.testing.assert_array_equal(gw[0, 0], x[0, 0, 1:4, 2:5])
    assert gb[0] == 1.0


def test_conv_backward_matches_finite_difference():
    layer = _conv64(2, 3, seed=7)
    p = Prng(8)
    x = p.normal(size=(2, 2, 4, 4))
    proj = p.normal(size=(2, 3, 4, 4))
    gx, gw, gb = layer.backward(layer.forward_cache(x)[1], proj)

    def loss_wrt(name):
        def f(v):
            saved = getattr(layer, name)
            setattr(layer, name, v)
            try:
                return float((layer.forward(x) * proj).sum())
            finally:
                setattr(layer, name, saved)
        return f

    assert relative_error(gx, finite_difference_grad(
        lambda v: float((layer.forward(v) * proj).sum()), x)) < 1e-6
    assert relative_error(gw, finite_difference_grad(loss_wrt("weight"), layer.weight)) < 1e-6
    assert relative_error(gb, finite_difference_grad(loss_wrt("bias"), layer.bias)) < 1e-6


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_dense_gives_a_row_the_same_bits_in_any_batch(dtype):
    p = Prng(13)
    layer = Dense(100, 25, p, dtype)
    layer.bias = p.normal(size=25).astype(dtype)
    x = p.normal(size=(77, 100)).astype(dtype)
    whole = layer.forward(x)
    for size in (1, 5, 8, 13):
        parts = [layer.forward(x[i:i + size]) for i in range(0, len(x), size)]
        assert np.concatenate(parts).tobytes() == whole.tobytes(), size


def test_dense_forward_formula_and_gradients():
    layer = Dense(3, 2, dtype=np.float64)
    p = Prng(12)
    layer.weight = p.normal(size=(2, 3))
    layer.bias = p.normal(size=2)
    x = p.normal(size=(4, 3))
    np.testing.assert_allclose(layer.forward(x), x @ layer.weight.T + layer.bias)
    proj = p.normal(size=(4, 2))
    gx, gw, gb = layer.backward(x, proj)
    assert relative_error(gx, finite_difference_grad(
        lambda v: float((layer.forward(v) * proj).sum()), x)) < 1e-6
    num_w = finite_difference_grad(
        lambda v: float(((x @ v.T + layer.bias) * proj).sum()), layer.weight)
    assert relative_error(gw, num_w) < 1e-6
    np.testing.assert_allclose(gb, proj.sum(axis=0))
    with pytest.raises(DimensionError):
        layer.forward(np.zeros((4, 5)))


def test_transposed_conv_shape_law_doubles_spatial():
    layer = TransposedConv2d(3, 4, dtype=np.float64)
    y = layer.forward(np.zeros((2, 3, 5, 7)))
    assert y.shape == (2, 4, 10, 14)


def test_transposed_conv_zero_input_gives_bias():
    layer = TransposedConv2d(2, 3, dtype=np.float64)
    layer.bias = np.array([1.0, -2.0, 0.5])
    y = layer.forward(np.zeros((1, 2, 4, 4)))
    np.testing.assert_array_equal(y, np.broadcast_to(layer.bias[:, None, None], (1, 3, 8, 8)))


def test_transposed_conv_single_pixel_stamps_kernel_quadrant():
    layer = TransposedConv2d(1, 1, dtype=np.float64)
    layer.weight = Prng(6).normal(size=(1, 1, 3, 3))
    y = layer.forward(np.ones((1, 1, 1, 1)))
    # the stamp grid is the 3x3 kernel; cropping by padding 1 keeps the
    # lower-right 2x2 quadrant
    np.testing.assert_array_equal(y[0, 0], layer.weight[0, 0, 1:, 1:])


def test_transposed_conv_backward_matches_finite_difference():
    layer = TransposedConv2d(2, 3, dtype=np.float64)
    p = Prng(14)
    layer.weight = p.normal(size=layer.weight.shape)
    layer.bias = p.normal(size=3)
    x = p.normal(size=(2, 2, 3, 3))
    proj = p.normal(size=(2, 3, 6, 6))
    gx, gw, gb = layer.backward(x, proj)

    def loss_wrt(name):
        def f(v):
            saved = getattr(layer, name)
            setattr(layer, name, v)
            try:
                return float((layer.forward(x) * proj).sum())
            finally:
                setattr(layer, name, saved)
        return f

    assert relative_error(gx, finite_difference_grad(
        lambda v: float((layer.forward(v) * proj).sum()), x)) < 1e-6
    assert relative_error(gw, finite_difference_grad(loss_wrt("weight"), layer.weight)) < 1e-6
    assert relative_error(gb, finite_difference_grad(loss_wrt("bias"), layer.bias)) < 1e-6


def _tconv_stamp_oracle(x, weight, bias, grad_out, stride=2, padding=1):
    """Stamp-loop transposed conv: forward output and backward gradients."""
    b, cin, h, w = x.shape
    _, cout, k, _ = weight.shape
    ho, wo = grad_out.shape[2], grad_out.shape[3]
    hf, wf = (h - 1) * stride + k, (w - 1) * stride + k
    full = np.zeros((b, cout, hf, wf))
    gfull = np.zeros((b, cout, hf, wf))
    gfull[:, :, padding:padding + ho, padding:padding + wo] = grad_out
    gx = np.zeros(x.shape)
    gw = np.zeros(weight.shape)
    for n in range(b):
        for ci in range(cin):
            for y in range(h):
                for xx in range(w):
                    for co in range(cout):
                        for i in range(k):
                            for j in range(k):
                                r, c = y * stride + i, xx * stride + j
                                full[n, co, r, c] += x[n, ci, y, xx] * weight[ci, co, i, j]
                                gx[n, ci, y, xx] += weight[ci, co, i, j] * gfull[n, co, r, c]
                                gw[ci, co, i, j] += x[n, ci, y, xx] * gfull[n, co, r, c]
    out = full[:, :, padding:padding + ho, padding:padding + wo] + bias[:, None, None]
    return out, gx, gw, grad_out.sum(axis=(0, 2, 3))


def test_transposed_conv_matches_stamp_loop_oracle():
    p = Prng(15)
    # integer-valued floats make BLAS and loop sums bit-identical
    layer = TransposedConv2d(3, 2, dtype=np.float64)
    layer.weight = p.randint(-3, 3, size=layer.weight.shape).astype(np.float64)
    layer.bias = p.randint(-3, 3, size=2).astype(np.float64)
    x = p.randint(-4, 4, size=(2, 3, 3, 4)).astype(np.float64)
    g = p.randint(-4, 4, size=(2, 2, 6, 8)).astype(np.float64)
    out, gx, gw, gb = _tconv_stamp_oracle(x, layer.weight, layer.bias, g)
    np.testing.assert_array_equal(layer.forward(x), out)
    for got, want in zip(layer.backward(x, g), (gx, gw, gb)):
        np.testing.assert_array_equal(got, want)


def test_conv_backward_without_input_gradient():
    layer = _conv64(2, 3, seed=16)
    p = Prng(17)
    x = p.normal(size=(2, 2, 5, 5))
    g = p.normal(size=(2, 3, 5, 5))
    y, cache = layer.forward_cache(x)
    gx, gw, gb = layer.backward(cache, g)
    none, gw2, gb2 = layer.backward(cache, g, input_grad=False)
    assert none is None and gx.shape == x.shape
    np.testing.assert_array_equal(gw2, gw)
    np.testing.assert_array_equal(gb2, gb)


@pytest.mark.parametrize("in_ch,out_ch,size", [(100, 20, 11), (20, 10, 22)])
def test_transposed_conv_adjoint_identity_at_network_sizes(in_ch, out_ch, size):
    """<T x, y> must equal <x, T^t y> where T^t is a strided convolution.

    The output grid is the stamp grid cropped by one leading row and
    column (and the trailing ones past 2H x 2W), so the adjoint convolves y
    padded by one leading zero row/column, stride 2, no further padding,
    with the same weight tensor read as (out=in_ch, in=out_ch).
    """
    p = Prng(60 + in_ch)
    tconv = TransposedConv2d(in_ch, out_ch, dtype=np.float64)
    tconv.weight = p.normal(size=tconv.weight.shape)
    x = p.normal(size=(1, in_ch, size, size))
    y = p.normal(size=(1, out_ch, 2 * size, 2 * size))
    lhs = float((tconv.forward(x) * y).sum())
    ypad = np.pad(y, ((0, 0), (0, 0), (1, 0), (1, 0)))
    conv = _conv_loop_oracle(ypad, tconv.weight, np.zeros(in_ch), 2, 0)
    rhs = float((conv * x).sum())
    assert abs(lhs - rhs) <= 1e-5 * max(abs(lhs), 1.0)


NETWORK_TCONVS = [(100, 20, 11), (20, 10, 22)]


def _tconv(in_ch, out_ch, dtype):
    p = Prng(70 + in_ch)
    layer = TransposedConv2d(in_ch, out_ch, prng=p, dtype=dtype)
    layer.bias = p.normal(size=out_ch).astype(dtype)
    return layer, p


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("in_ch,out_ch,size", NETWORK_TCONVS)
def test_transposed_conv_gives_a_patch_the_same_bits_in_any_chunk(
        in_ch, out_ch, size, dtype):
    """up1 and up2 round each patch alone, whatever batch it comes in."""
    layer, p = _tconv(in_ch, out_ch, dtype)
    x = p.normal(size=(77, in_ch, size, size)).astype(dtype)
    whole = layer.forward(x)
    for n in (1, 5, 8, 13):
        for i in range(0, len(x), n):
            assert layer.forward(x[i:i + n]).tobytes() == whole[i:i + n].tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("in_ch,out_ch,size", NETWORK_TCONVS)
def test_transposed_conv_forward_equals_column_form_bit_for_bit(
        in_ch, out_ch, size, dtype):
    """Forward has the bits of W^T x over all taps at once, scattered by
    col2im at stride 2, so the upsamplers' outputs keep their bytes."""
    layer, p = _tconv(in_ch, out_ch, dtype)
    x = p.normal(size=(8, in_ch, size, size)).astype(dtype)
    stamps = layer.weight.reshape(in_ch, -1).T @ channel_major(x)
    want = col2im(stamps, (8, out_ch, 2 * size, 2 * size), 2)
    want += layer.bias[:, None, None]
    assert layer.forward(x).tobytes() == want.tobytes()


def test_maxpool_single_window():
    x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
    out, idx = maxpool2d(x)
    assert out[0, 0, 0, 0] == 4.0
    assert idx[0, 0, 0, 0] == 3


def test_maxpool_tie_takes_first_occurrence():
    out, idx = maxpool2d(np.full((1, 1, 2, 2), 7.0))
    assert out[0, 0, 0, 0] == 7.0
    assert idx[0, 0, 0, 0] == 0


def test_maxpool_shape_and_odd_dims():
    out, _ = maxpool2d(np.zeros((2, 3, 8, 6)))
    assert out.shape == (2, 3, 4, 3)
    with pytest.raises(DimensionError):
        maxpool2d(np.zeros((1, 1, 5, 4)))


def _argmax_pool(x):
    """Reference 2x2 pool: argmax over each window laid out row-major."""
    b, c, h, w = x.shape
    win = (
        x.reshape(b, c, h // 2, 2, w // 2, 2)
        .transpose(0, 1, 2, 4, 3, 5)
        .reshape(b, c, h // 2, w // 2, 4)
    )
    idx = win.argmax(axis=-1)
    return np.take_along_axis(win, idx[..., None], axis=-1)[..., 0], idx


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_maxpool_matches_argmax_definition_on_ties_and_infinities(dtype):
    p = Prng(33)
    cases = [
        np.full((1, 2, 4, 4), 3.0),                          # all-equal windows
        p.randint(0, 1, size=(2, 3, 6, 8)).astype(np.float64),  # pairwise ties
        p.randint(-2, 2, size=(2, 3, 6, 8)).astype(np.float64),
        np.full((1, 1, 2, 4), -np.inf),
        np.array([[[[-np.inf, -np.inf, -np.inf, 5.0],
                    [-np.inf, -np.inf, 5.0, -np.inf]]]]),
        np.array([[[[-0.0, 0.0, 0.0, -0.0],                # signed zeros tie
                    [0.0, -0.0, -0.0, 0.0]]]]),
        np.where(p.uniform(0.0, 1.0, size=(2, 3, 16, 32)) < 0.5, 0.0, -0.0),
    ]
    for x in cases:
        x = x.astype(dtype)
        out, idx = maxpool2d(x)
        ref_out, ref_idx = _argmax_pool(x)
        np.testing.assert_array_equal(idx, ref_idx)
        assert out.dtype == x.dtype
        np.testing.assert_array_equal(out, ref_out)
        np.testing.assert_array_equal(np.signbit(out), np.signbit(ref_out))
        g = p.normal(size=out.shape).astype(dtype)
        ref_g = np.zeros(out.shape + (4,), dtype=dtype)
        np.put_along_axis(ref_g, ref_idx[..., None], g[..., None], axis=-1)
        b, c, ho, wo = out.shape
        ref_g = ref_g.reshape(b, c, ho, wo, 2, 2).transpose(0, 1, 2, 4, 3, 5)
        np.testing.assert_array_equal(maxpool2d_backward(g, idx),
                                      ref_g.reshape(x.shape))


def test_maxpool_backward_routes_to_argmax():
    x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
    out, idx = maxpool2d(x)
    gx = maxpool2d_backward(np.array([[[[5.0]]]]), idx)
    np.testing.assert_array_equal(gx, [[[[0.0, 0.0], [0.0, 5.0]]]])


def test_maxpool_backward_matches_finite_difference():
    x = Prng(31).normal(size=(2, 2, 4, 4))  # continuous draws, ties unlikely
    proj = Prng(32).normal(size=(2, 2, 2, 2))
    _, idx = maxpool2d(x)
    gx = maxpool2d_backward(proj, idx)
    num = finite_difference_grad(
        lambda v: float((maxpool2d(v)[0] * proj).sum()), x, h=1e-7)
    assert relative_error(gx, num) < 1e-5


def test_cross_entropy_uninformative_logits_give_ln2():
    logits = np.zeros((2, 2, 3, 3))
    target = np.zeros((2, 3, 3))
    loss, grad = cross_entropy_2class(logits, target)
    assert abs(loss - LN2) < 1e-12
    np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-12)


def test_cross_entropy_confident_correct_is_tiny():
    target = (Prng(40).uniform(0.0, 1.0, size=(1, 4, 4)) > 0.5).astype(np.uint8)
    logits = np.zeros((1, 2, 4, 4))
    logits[0, 1] = np.where(target[0] == 1, 20.0, -20.0)
    loss, _ = cross_entropy_2class(logits, target)
    assert loss < 1e-6


def test_cross_entropy_gradient_matches_finite_difference():
    p = Prng(41)
    logits = p.normal(size=(2, 2, 3, 3))
    target = (p.uniform(0.0, 1.0, size=(2, 3, 3)) > 0.5).astype(np.uint8)
    _, grad = cross_entropy_2class(logits, target)
    num = finite_difference_grad(
        lambda v: cross_entropy_2class(v, target)[0], logits)
    assert relative_error(grad, num) < 1e-6


def test_cross_entropy_pos_weight_gradient_and_neutral_value():
    p = Prng(42)
    logits = p.normal(size=(1, 2, 4, 4))
    target = (p.uniform(0.0, 1.0, size=(1, 4, 4)) > 0.5).astype(np.uint8)
    plain_loss, plain_grad = cross_entropy_2class(logits, target)
    w1_loss, w1_grad = cross_entropy_2class(logits, target, pos_weight=1.0)
    assert abs(plain_loss - w1_loss) < 1e-12
    np.testing.assert_allclose(plain_grad, w1_grad, atol=1e-15)
    loss, grad = cross_entropy_2class(logits, target, pos_weight=3.0)
    num = finite_difference_grad(
        lambda v: cross_entropy_2class(v, target, pos_weight=3.0)[0], logits)
    assert relative_error(grad, num) < 1e-6


@pytest.mark.parametrize("pos_weight", [None, 3.0])
def test_cross_entropy_parts_with_the_whole_normalizer_add_up(pos_weight):
    """Batch rows scored apart against the whole batch's normalizer give
    the whole batch's gradient bits and, summed, its loss."""
    p = Prng(43)
    logits = p.normal(size=(5, 2, 6, 6)).astype(np.float32)
    target = (p.uniform(0.0, 1.0, size=(5, 6, 6)) > 0.6).astype(np.uint8)
    loss, grad = cross_entropy_2class(logits, target, pos_weight)
    norm = loss_normalizer(logits.shape, target, pos_weight)
    parts = [cross_entropy_2class(logits[i:i + 2], target[i:i + 2],
                                  pos_weight, norm) for i in (0, 2, 4)]
    assert np.concatenate([g for _, g in parts]).tobytes() == grad.tobytes()
    assert abs(sum(part for part, _ in parts) - loss) < 1e-6 * loss


def test_cross_entropy_input_validation():
    with pytest.raises(DimensionError):
        cross_entropy_2class(np.zeros((1, 3, 2, 2)), np.zeros((1, 2, 2)))
    with pytest.raises(DimensionError):
        cross_entropy_2class(np.zeros((1, 2, 2, 2)), np.zeros((1, 3, 2)))
    with pytest.raises(LabelError):
        cross_entropy_2class(np.zeros((1, 2, 2, 2)), np.full((1, 2, 2), 2.0))
