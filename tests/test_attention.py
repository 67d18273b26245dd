"""SE/spatial attention and 2D relative self-attention checks."""

import math

import numpy as np
import pytest

from seishet import attention
from seishet.attention import (
    AugmentedAttentionConv,
    RelativeSelfAttention2d,
    SeAttention,
    SeBlock,
    SpatialAttention,
    attention_augmented_conv,
    multi_head_attention,
    relative_logits,
    se_excite_apply,
    se_squeeze,
    self_attention_head,
    spatial_attention_apply,
)
from seishet.errors import ConfigError, DimensionError
from seishet.numcore import (
    Prng,
    finite_difference_grad,
    gelu,
    relative_error,
    sigmoid,
    softmax_lastdim,
)


def _randomize(pairs, prng):
    for _, arr in pairs:
        arr[...] = prng.normal(size=arr.shape)


def _fd_wrt_array(block, x, proj, arr):
    def f(v):
        saved = arr.copy()
        arr[...] = v
        try:
            return float((block.forward(x) * proj).sum())
        finally:
            arr[...] = saved
    return finite_difference_grad(f, arr)


def test_se_squeeze_constant_and_mean():
    x = np.full((2, 3, 4, 4), 1.5)
    np.testing.assert_array_equal(se_squeeze(x), np.full((2, 3), 1.5))
    x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
    assert se_squeeze(x)[0, 0] == 2.5


def test_se_squeeze_matches_loop_oracle():
    x = Prng(50).normal(size=(3, 5, 4, 4))
    z = se_squeeze(x)
    for b in range(3):
        for c in range(5):
            acc = 0.0
            for i in range(4):
                for j in range(4):
                    acc += x[b, c, i, j]
            assert abs(z[b, c] - acc / 16.0) < 1e-7


def test_se_squeeze_rejects_wrong_rank():
    with pytest.raises(DimensionError):
        se_squeeze(np.zeros((3, 4, 4)))


def test_se_block_rejects_indivisible_ratio():
    with pytest.raises(ConfigError):
        SeBlock(10, ratio=4)


def test_se_excite_zero_weights_halves_input():
    block = SeBlock(8, ratio=4, dtype=np.float64)
    x = Prng(51).normal(size=(2, 8, 3, 3))
    np.testing.assert_allclose(se_excite_apply(block, x, se_squeeze(x)), 0.5 * x)


def test_se_excite_saturated_gate_approaches_identity():
    block = SeBlock(8, ratio=4, dtype=np.float64)
    block.fc2.bias[:] = 30.0
    x = Prng(52).normal(size=(1, 8, 4, 4))
    y = se_excite_apply(block, x, se_squeeze(x))
    assert np.abs(y - x).max() < 1e-4


def test_se_excite_matches_direct_composition():
    block = SeBlock(8, ratio=4, dtype=np.float64)
    p = Prng(53)
    _randomize(block.fc1.params(), p)
    _randomize(block.fc2.params(), p)
    x = p.normal(size=(2, 8, 3, 3))
    z = se_squeeze(x)
    hidden = gelu(z @ block.fc1.weight.T + block.fc1.bias)
    gate = sigmoid(hidden @ block.fc2.weight.T + block.fc2.bias)
    expect = gate[:, :, None, None] * x
    np.testing.assert_allclose(se_excite_apply(block, x, z), expect, atol=1e-6)


def test_se_gate_override_of_one_returns_input_bit_exactly():
    block = SeBlock(8, ratio=4, dtype=np.float64)
    block.gate = lambda z: np.ones((z.shape[0], 8))
    x = Prng(54).normal(size=(2, 8, 3, 3))
    np.testing.assert_array_equal(se_excite_apply(block, x, se_squeeze(x)), x)


def test_se_gates_strictly_inside_unit_interval():
    block = SeBlock(8, ratio=4, dtype=np.float64)
    p = Prng(55)
    _randomize(block.fc1.params(), p)
    _randomize(block.fc2.params(), p)
    g = block.gate(p.normal(size=(16, 8)))
    assert g.min() > 0.0 and g.max() < 1.0


def test_spatial_attention_zero_weights_halves_input():
    sa = SpatialAttention(6, dtype=np.float64)
    x = Prng(56).normal(size=(2, 6, 4, 4))
    np.testing.assert_allclose(spatial_attention_apply(sa, x), 0.5 * x)


def test_spatial_gate_unchanged_by_channel_permutation():
    sa = SpatialAttention(6, dtype=np.float64)
    x = Prng(57).normal(size=(1, 6, 4, 4))
    perm = np.array([3, 1, 5, 0, 4, 2])
    gate = sigmoid(sa.conv.forward(x))
    gate_p = sigmoid(sa.conv.forward(x[:, perm]))
    np.testing.assert_array_equal(gate, gate_p)


def _random_se_attention(channels=8, seed=58):
    block = SeAttention(channels, ratio=4, dtype=np.float64)
    p = Prng(seed)
    for _, arr in block.params():
        arr[...] = p.normal(std=0.5, size=arr.shape)
    return block


def test_se_attention_forward_is_gate_composition():
    block = _random_se_attention()
    x = Prng(59).normal(size=(2, 8, 3, 3))
    z = se_squeeze(x)
    xg = se_excite_apply(block.se, x, z)
    expect = spatial_attention_apply(block.spatial, xg)
    np.testing.assert_allclose(block.forward(x), expect, atol=1e-12)


def test_se_attention_gradients_match_finite_difference():
    block = _random_se_attention(seed=60)
    p = Prng(61)
    x = p.normal(size=(2, 8, 3, 3))
    proj = p.normal(size=(2, 8, 3, 3))
    y, cache = block.forward_cache(x)
    gx, grads = block.backward(cache, proj)
    num_x = finite_difference_grad(
        lambda v: float((block.forward(v) * proj).sum()), x)
    assert relative_error(gx, num_x) < 1e-5
    for name, arr in block.params():
        assert relative_error(grads[name], _fd_wrt_array(block, x, proj, arr)) < 1e-5


def test_relative_logits_zero_queries_give_zero():
    p = Prng(62)
    k = p.normal(size=(4, 3))
    rel_w = p.normal(size=(3, 3))
    rel_h = p.normal(size=(3, 3))
    out = relative_logits(np.zeros((4, 3)), k, rel_w, rel_h)
    np.testing.assert_array_equal(out, np.zeros((4, 4)))


def test_relative_logits_zero_tables_reduce_to_scaled_dot_product():
    p = Prng(63)
    q = p.normal(size=(4, 3))
    k = p.normal(size=(4, 3))
    zeros = np.zeros((3, 3))
    out = relative_logits(q, k, zeros, zeros)
    np.testing.assert_allclose(out, (q @ k.T) / math.sqrt(3.0), atol=1e-12)


def test_relative_logits_match_pairwise_loop_oracle():
    p = Prng(64)
    h = w = 2
    d = 3
    q = p.normal(size=(h * w, d))
    k = p.normal(size=(h * w, d))
    rel_w = p.normal(size=(2 * w - 1, d))
    rel_h = p.normal(size=(2 * h - 1, d))
    out = relative_logits(q, k, rel_w, rel_h)
    for i in range(h * w):
        iy, ix = divmod(i, w)
        for j in range(h * w):
            jy, jx = divmod(j, w)
            expect = q[i] @ (k[j] + rel_w[jx - ix + w - 1] + rel_h[jy - iy + h - 1])
            assert abs(out[i, j] - expect / math.sqrt(d)) < 1e-6


def test_relative_logits_validate_tables():
    q = np.zeros((4, 3))
    with pytest.raises(DimensionError):
        relative_logits(q, q, np.zeros((4, 3)), np.zeros((3, 3)))
    with pytest.raises(DimensionError):
        relative_logits(q, q, np.zeros((3, 2)), np.zeros((3, 3)))
    with pytest.raises(DimensionError):  # tables imply 3x3 but 4 positions
        relative_logits(q, q, np.zeros((5, 3)), np.zeros((5, 3)))


def test_attention_head_single_position_returns_value():
    p = Prng(65)
    q = p.normal(size=(1, 3))
    k = p.normal(size=(1, 3))
    v = p.normal(size=(1, 5))
    out = self_attention_head(q, k, v, p.normal(size=(1, 3)), p.normal(size=(1, 3)))
    np.testing.assert_allclose(out, v, atol=1e-12)


def test_attention_head_zero_queries_average_values():
    p = Prng(66)
    k = p.normal(size=(4, 3))
    v = p.normal(size=(4, 5))
    rel = np.zeros((3, 3))
    out = self_attention_head(np.zeros((4, 3)), k, v, rel, rel)
    np.testing.assert_allclose(out, np.broadcast_to(v.mean(axis=0), (4, 5)), atol=1e-12)


def test_attention_head_matches_softmax_matmul_composition():
    p = Prng(67)
    q = p.normal(size=(4, 3))
    k = p.normal(size=(4, 3))
    v = p.normal(size=(4, 5))
    rel_w = p.normal(size=(3, 3))
    rel_h = p.normal(size=(3, 3))
    expect = softmax_lastdim(relative_logits(q, k, rel_w, rel_h)) @ v
    np.testing.assert_allclose(
        self_attention_head(q, k, v, rel_w, rel_h), expect, atol=1e-6)


def test_batched_relative_logits_equal_per_head_bit_for_bit():
    attn = RelativeSelfAttention2d(12, 5, 4, heads=2, d_k=8, d_v=8, prng=Prng(70))
    x = Prng(71).normal(size=(3, 12, 5, 4)).astype(np.float32)
    _, (_, q, k, _, weights, _) = attn.forward_cache(x)
    batched = relative_logits(q, k, attn.rel_w, attn.rel_h)
    assert batched.dtype == np.float32
    for b in range(3):
        for h in range(2):
            head = relative_logits(q[b, h], k[b, h], attn.rel_w, attn.rel_h)
            np.testing.assert_array_equal(batched[b, h], head)
            np.testing.assert_array_equal(weights[b, h], softmax_lastdim(head))


def test_relative_logits_match_gathered_offsets_on_rectangular_grid():
    p = Prng(72)
    h, w, d = 3, 4, 5
    q = p.normal(size=(2, h * w, d))
    k = p.normal(size=(2, h * w, d))
    rel_w = p.normal(size=(2 * w - 1, d))
    rel_h = p.normal(size=(2 * h - 1, d))
    iy, ix = np.divmod(np.arange(h * w), w)
    offw = ix[None, :] - ix[:, None] + w - 1
    offh = iy[None, :] - iy[:, None] + h - 1
    rows = np.arange(h * w)[:, None]
    expect = (q @ k.transpose(0, 2, 1) + (q @ rel_w.T)[:, rows, offw]
              + (q @ rel_h.T)[:, rows, offh]) / math.sqrt(d)
    np.testing.assert_allclose(relative_logits(q, k, rel_w, rel_h), expect,
                               rtol=1e-12, atol=1e-12)


def _random_attention(in_ch, h, w, heads, d_k, d_v, seed):
    attn = RelativeSelfAttention2d(in_ch, h, w, heads, d_k, d_v, dtype=np.float64)
    p = Prng(seed)
    for _, arr in attn.params():
        arr[...] = p.normal(std=0.5, size=arr.shape)
    return attn


def test_multi_head_single_head_equals_head_plus_projection():
    attn = _random_attention(6, 2, 2, heads=1, d_k=4, d_v=4, seed=68)
    x = Prng(69).normal(size=(1, 6, 2, 2))
    xt = x.reshape(1, 6, 4).transpose(0, 2, 1)[0]
    head = self_attention_head(
        xt @ attn.wq, xt @ attn.wk, xt @ attn.wv, attn.rel_w, attn.rel_h)
    expect = (head @ attn.wo).T.reshape(1, 4, 2, 2)
    np.testing.assert_allclose(multi_head_attention(attn, x), expect, atol=1e-10)


def test_multi_head_identity_projection_returns_raw_head():
    attn = _random_attention(6, 2, 2, heads=1, d_k=4, d_v=4, seed=70)
    attn.wo = np.eye(4)
    x = Prng(71).normal(size=(1, 6, 2, 2))
    xt = x.reshape(1, 6, 4).transpose(0, 2, 1)[0]
    head = self_attention_head(
        xt @ attn.wq, xt @ attn.wk, xt @ attn.wv, attn.rel_w, attn.rel_h)
    np.testing.assert_allclose(
        multi_head_attention(attn, x), head.T.reshape(1, 4, 2, 2), atol=1e-10)


def test_attention_rows_are_stochastic():
    attn = _random_attention(6, 3, 3, heads=2, d_k=4, d_v=4, seed=72)
    x = Prng(73).normal(size=(2, 6, 3, 3))
    _, cache = attn.forward_cache(x)
    weights = cache[4]
    assert weights.min() >= 0.0
    np.testing.assert_allclose(weights.sum(axis=-1), 1.0, atol=1e-6)


def test_attention_uniform_mixing_is_translation_constant():
    attn = _random_attention(6, 3, 3, heads=2, d_k=4, d_v=4, seed=74)
    attn.wq[...] = 0.0
    attn.rel_w[...] = 0.0
    attn.rel_h[...] = 0.0
    y = attn.forward(Prng(75).normal(size=(1, 6, 3, 3)))
    flat = y.reshape(1, 4, 9)
    assert np.abs(flat - flat[:, :, :1]).max() < 1e-10


def test_attention_rejects_indivisible_heads():
    with pytest.raises(ConfigError):
        RelativeSelfAttention2d(6, 2, 2, heads=3, d_k=4, d_v=4)


def test_attention_rejects_wrong_grid():
    attn = RelativeSelfAttention2d(6, 2, 2, heads=2, d_k=4, d_v=4)
    with pytest.raises(DimensionError):
        attn.forward(np.zeros((1, 6, 3, 3), dtype=np.float32))


def test_attention_gradients_match_finite_difference():
    attn = _random_attention(6, 2, 2, heads=2, d_k=4, d_v=4, seed=76)
    p = Prng(77)
    x = p.normal(size=(2, 6, 2, 2))
    proj = p.normal(size=(2, 4, 2, 2))
    _, cache = attn.forward_cache(x)
    gx, grads = attn.backward(cache, proj)
    num_x = finite_difference_grad(
        lambda v: float((attn.forward(v) * proj).sum()), x)
    assert relative_error(gx, num_x) < 1e-5
    for name, arr in attn.params():
        assert relative_error(grads[name], _fd_wrt_array(attn, x, proj, arr)) < 1e-5


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_attention_backward_bits_match_numpy_axis4_sum(monkeypatch, dtype):
    attn = RelativeSelfAttention2d(12, 11, 11, heads=4, d_k=8, d_v=8,
                                   prng=Prng(78), dtype=dtype)
    p = Prng(79)
    x = p.normal(size=(3, 12, 11, 11)).astype(dtype)
    g = p.normal(size=(3, 8, 11, 11)).astype(dtype)

    def run():
        _, cache = attn.forward_cache(x)
        return attn.backward(cache, g)

    gx, grads = run()
    monkeypatch.setattr(attention, "_sum_axis4", lambda a: a.sum(axis=4))
    ref_gx, ref_grads = run()
    assert gx.dtype == dtype
    assert gx.tobytes() == ref_gx.tobytes()
    assert grads.keys() == ref_grads.keys()
    for name in grads:
        assert grads[name].tobytes() == ref_grads[name].tobytes(), name


def test_augmented_conv_zero_conv_branch_zeroes_leading_channels():
    aac = AugmentedAttentionConv(5, 7, 4, 4, heads=2, d_k=4, d_v=4, dtype=np.float64)
    p = Prng(78)
    for _, arr in aac.attn.params():
        arr[...] = p.normal(std=0.5, size=arr.shape)
    y = attention_augmented_conv(aac, p.normal(size=(1, 5, 4, 4)))
    assert y.shape == (1, 7, 4, 4)
    np.testing.assert_array_equal(y[:, :3], np.zeros((1, 3, 4, 4)))
    assert np.abs(y[:, 3:]).max() > 0.0


def test_augmented_conv_rejects_attention_claiming_all_channels():
    with pytest.raises(ConfigError):
        AugmentedAttentionConv(5, 4, 4, 4, heads=2, d_k=4, d_v=4)


def test_augmented_conv_gradients_match_finite_difference():
    aac = AugmentedAttentionConv(5, 7, 4, 4, heads=2, d_k=4, d_v=4, dtype=np.float64)
    p = Prng(79)
    for _, arr in aac.params():
        arr[...] = p.normal(std=0.5, size=arr.shape)
    x = p.normal(size=(1, 5, 4, 4))
    proj = p.normal(size=(1, 7, 4, 4))
    _, cache = aac.forward_cache(x)
    gx, grads = aac.backward(cache, proj)
    num_x = finite_difference_grad(
        lambda v: float((aac.forward(v) * proj).sum()), x)
    assert relative_error(gx, num_x) < 1e-5
    for name, arr in aac.params():
        assert relative_error(grads[name], _fd_wrt_array(aac, x, proj, arr)) < 1e-5
