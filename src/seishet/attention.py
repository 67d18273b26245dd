"""Channel and spatial attention blocks.

Two interchangeable mechanisms operate on the 100-channel bottleneck map:

* squeeze-and-excitation: global average pooling to one scalar per channel,
  a two-layer bottleneck MLP with a GeLU in between, sigmoid channel gates,
  then a pointwise spatial gate over the gated map;
* 2D relative self-attention: multi-head scaled dot-product attention over
  all spatial positions where each logit adds learned embeddings for the
  horizontal and vertical offset between query and key pixels, concatenated
  heads projected back down, optionally run next to a conv branch and
  concatenated with it (attention-augmented convolution).

Every block implements forward_cache/backward pairs whose gradients are
checked against the finite-difference oracle.
"""

import math

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ConfigError, DimensionError
from .layers import Conv2d, Dense, glorot_init
from .numcore import gelu, gelu_grad, sigmoid, softmax_lastdim


def se_squeeze(x):
    """Global average pool: (B,C,H,W) -> per-channel means (B,C)."""
    if x.ndim != 4:
        raise DimensionError("se_squeeze expects (B,C,H,W), got rank %d" % x.ndim)
    return x.mean(axis=(2, 3))


class SeBlock:
    """Channel-gate MLP: sigmoid(fc2(gelu(fc1(z)))) scales each channel."""

    def __init__(self, channels, ratio=4, prng=None, dtype=np.float32):
        if channels % ratio:
            raise ConfigError(
                "se ratio %d does not divide %d channels" % (ratio, channels)
            )
        self.channels = int(channels)
        self.ratio = int(ratio)
        self.fc1 = Dense(channels, channels // ratio, prng, dtype)
        self.fc2 = Dense(channels // ratio, channels, prng, dtype)

    def gate(self, z):
        return sigmoid(self.fc2.forward(gelu(self.fc1.forward(z))))


def se_excite_apply(block, x, z):
    """Scale x channelwise by the block's gates computed from squeezed z."""
    return block.gate(z)[:, :, None, None] * x


class SpatialAttention:
    """Pointwise conv to one channel plus sigmoid: a gate per pixel."""

    def __init__(self, channels, prng=None, dtype=np.float32):
        self.conv = Conv2d(channels, 1, kernel=1, padding=0, prng=prng, dtype=dtype)


def spatial_attention_apply(sa, x):
    """Multiply x by its per-position gate, broadcast over channels."""
    return sigmoid(sa.conv.forward(x)) * x


class SeAttention:
    """SE channel attention followed by spatial attention, with backward."""

    def __init__(self, channels, ratio=4, prng=None, dtype=np.float32):
        self.se = SeBlock(channels, ratio, prng, dtype)
        self.spatial = SpatialAttention(channels, prng, dtype)

    def forward_cache(self, x):
        hw = x.shape[2] * x.shape[3]
        z = se_squeeze(x)
        a1 = self.se.fc1.forward(z)
        h1 = gelu(a1)
        a2 = self.se.fc2.forward(h1)
        g = sigmoid(a2)
        xg = g[:, :, None, None] * x
        s = self.spatial.conv.forward(xg)
        q = sigmoid(s)
        y = q * xg
        cache = (x, z, a1, h1, g, xg, q, hw)
        return y, cache

    def forward(self, x):
        return self.forward_cache(x)[0]

    def backward(self, cache, grad_y):
        x, z, a1, h1, g, xg, q, hw = cache
        gq = (grad_y * xg).sum(axis=1, keepdims=True)
        gxg = grad_y * q
        gs = gq * q * (1.0 - q)
        gxg_conv, gw_sp, gb_sp = self.spatial.conv.backward(xg, gs)
        gxg = gxg + gxg_conv
        gg = (gxg * x).sum(axis=(2, 3))
        grad_x = gxg * g[:, :, None, None]
        ga2 = gg * g * (1.0 - g)
        gh1, gw2, gb2 = self.se.fc2.backward(h1, ga2)
        ga1 = gh1 * gelu_grad(a1)
        gz, gw1, gb1 = self.se.fc1.backward(z, ga1)
        grad_x = grad_x + (gz / hw)[:, :, None, None]
        grads = {
            "fc1.weight": gw1,
            "fc1.bias": gb1,
            "fc2.weight": gw2,
            "fc2.bias": gb2,
            "spatial.weight": gw_sp,
            "spatial.bias": gb_sp,
        }
        return grad_x, grads

    def params(self):
        return [
            ("fc1.weight", self.se.fc1.weight),
            ("fc1.bias", self.se.fc1.bias),
            ("fc2.weight", self.se.fc2.weight),
            ("fc2.bias", self.se.fc2.bias),
            ("spatial.weight", self.spatial.conv.weight),
            ("spatial.bias", self.spatial.conv.bias),
        ]


def _relative_to_absolute(rel, size, axis):
    """View out[..., i, ..., j] = rel[..., i, ..., size-1-i+j] without a copy.

    rel is C-contiguous, its last axis holds offsets -(size-1)..size-1 and
    `axis` indexes the query coordinate i. Distinct (i, j) map to distinct
    elements, so backward scatters by writing through the view.
    """
    strides = list(rel.strides)
    strides[axis] -= strides[-1]
    return as_strided(rel[..., size - 1:], rel.shape[:-1] + (size,), strides)


def _grid_from_tables(n_pos, rel_w, rel_h):
    if rel_w.shape[0] % 2 == 0 or rel_h.shape[0] % 2 == 0:
        raise DimensionError("relative tables must have odd length 2*size-1")
    width = (rel_w.shape[0] + 1) // 2
    height = (rel_h.shape[0] + 1) // 2
    if height * width != n_pos:
        raise DimensionError(
            "tables imply a %dx%d grid but input has %d positions"
            % (height, width, n_pos)
        )
    return height, width


def relative_logits(q, k, rel_w, rel_h):
    """Content plus relative-position logits, scaled by 1/sqrt(d).

    q, k: (..., H*W, d). rel_w: (2W-1, d) indexed by jx-ix+W-1, rel_h
    likewise for vertical offsets. The grid size is inferred from the table
    lengths so out-of-range offsets cannot occur. On the (..., H, W, H, W)
    view of the logits the width term is broadcast over jy, the height
    term over jx.
    """
    q = np.asarray(q)
    k = np.asarray(k)
    rel_w = np.asarray(rel_w)
    rel_h = np.asarray(rel_h)
    if q.shape != k.shape or q.ndim < 2:
        raise DimensionError("q and k must share shape (..., HW, d)")
    d = q.shape[-1]
    if rel_w.shape[1] != d or rel_h.shape[1] != d:
        raise DimensionError("relative tables must match head dim %d" % d)
    height, width = _grid_from_tables(q.shape[-2], rel_w, rel_h)
    lead = q.shape[:-2]
    logits = q @ np.swapaxes(k, -1, -2)
    grid = logits.reshape(lead + (height, width, height, width))
    rw = (q @ rel_w.T).reshape(lead + (height, width, 2 * width - 1))
    grid += _relative_to_absolute(rw, width, -2)[..., None, :]
    rh = (q @ rel_h.T).reshape(lead + (height, width, 2 * height - 1))
    grid += _relative_to_absolute(rh, height, -3)[..., None]
    logits *= 1.0 / math.sqrt(d)
    return logits


def self_attention_head(q, k, v, rel_w, rel_h):
    """Softmax over keys of the relative logits, then value mixing."""
    weights = softmax_lastdim(relative_logits(q, k, rel_w, rel_h))
    return weights @ np.asarray(v)


def _sum_axis4(a):
    """a.sum(axis=4) of a rank-6 array as sequential slice adds.

    numpy reduces a non-last axis in this same order, so the bits are the
    same, at about half the cost. (A last-axis sum is pairwise in numpy, so
    this does not carry over to axis 5.)
    """
    out = a[:, :, :, :, 0].copy()
    for i in range(1, a.shape[4]):
        out += a[:, :, :, :, i]
    return out


class RelativeSelfAttention2d:
    """Multi-head 2D self-attention with relative position embeddings.

    Parameters are pure projection matrices without biases: wq/wk (F,d_k),
    wv (F,d_v), wo (d_v,d_v), and per-head offset tables rel_w (2W-1,
    d_k/heads) and rel_h (2H-1, d_k/heads) shared across heads.
    """

    def __init__(self, in_ch, height, width, heads=4, d_k=32, d_v=32,
                 prng=None, dtype=np.float32):
        if d_k % heads or d_v % heads:
            raise ConfigError(
                "head count %d must divide d_k=%d and d_v=%d" % (heads, d_k, d_v)
            )
        self.in_ch = int(in_ch)
        self.height = int(height)
        self.width = int(width)
        self.heads = int(heads)
        self.d_k = int(d_k)
        self.d_v = int(d_v)
        self.dk_head = d_k // heads
        self.dv_head = d_v // heads

        def init(shape):
            if prng is None:
                return np.zeros(shape, dtype=dtype)
            return glorot_init(shape, prng, dtype)

        self.wq = init((in_ch, d_k))
        self.wk = init((in_ch, d_k))
        self.wv = init((in_ch, d_v))
        self.wo = init((d_v, d_v))
        self.rel_w = init((2 * self.width - 1, self.dk_head))
        self.rel_h = init((2 * self.height - 1, self.dk_head))

        self._scale = 1.0 / math.sqrt(self.dk_head)

    def _check(self, x):
        if x.ndim != 4 or x.shape[1] != self.in_ch:
            raise DimensionError(
                "attention expects (B,%d,H,W), got %s" % (self.in_ch, (x.shape,))
            )
        if x.shape[2] != self.height or x.shape[3] != self.width:
            raise DimensionError(
                "attention grid is %dx%d, got %dx%d"
                % (self.height, self.width, x.shape[2], x.shape[3])
            )

    def _split_heads(self, m, dim_head):
        b, n, _ = m.shape
        return m.reshape(b, n, self.heads, dim_head).transpose(0, 2, 1, 3)

    def forward_cache(self, x):
        self._check(x)
        b = x.shape[0]
        n = self.height * self.width
        xt = x.reshape(b, self.in_ch, n).transpose(0, 2, 1)
        q = self._split_heads(xt @ self.wq, self.dk_head)
        k = self._split_heads(xt @ self.wk, self.dk_head)
        v = self._split_heads(xt @ self.wv, self.dv_head)
        logits = relative_logits(q, k, self.rel_w, self.rel_h)
        attn = softmax_lastdim(logits, out=logits)
        heads_out = attn @ v
        ocat = heads_out.transpose(0, 2, 1, 3).reshape(b, n, self.d_v)
        y = (ocat @ self.wo).transpose(0, 2, 1).reshape(b, self.d_v, self.height, self.width)
        cache = (xt, q, k, v, attn, ocat)
        return y, cache

    def forward(self, x):
        return self.forward_cache(x)[0]

    def backward(self, cache, grad_y):
        xt, q, k, v, attn, ocat = cache
        b, n, _ = xt.shape
        h, w = self.height, self.width
        gy = grad_y.reshape(b, self.d_v, n).transpose(0, 2, 1)
        gwo = ocat.reshape(-1, self.d_v).T @ gy.reshape(-1, self.d_v)
        gocat = gy @ self.wo.T
        gheads = gocat.reshape(b, n, self.heads, self.dv_head).transpose(0, 2, 1, 3)
        gattn = gheads @ v.transpose(0, 1, 3, 2)
        gv = attn.transpose(0, 1, 3, 2) @ gheads
        glog = gattn
        glog -= (gattn * attn).sum(axis=-1, keepdims=True)
        glog *= attn
        glog *= self._scale
        gq = glog @ k
        gk = glog.transpose(0, 1, 3, 2) @ q
        glr = glog.reshape(b, self.heads, h, w, h, w)
        gqw = np.zeros((b, self.heads, h, w, 2 * w - 1), dtype=glog.dtype)
        _relative_to_absolute(gqw, w, -2)[...] = _sum_axis4(glr)
        gqw = gqw.reshape(b, self.heads, n, 2 * w - 1)
        gq += gqw @ self.rel_w
        grel_w = gqw.reshape(-1, 2 * w - 1).T @ q.reshape(-1, self.dk_head)
        gqh = np.zeros((b, self.heads, h, w, 2 * h - 1), dtype=glog.dtype)
        _relative_to_absolute(gqh, h, -3)[...] = glr.sum(axis=5)
        gqh = gqh.reshape(b, self.heads, n, 2 * h - 1)
        gq += gqh @ self.rel_h
        grel_h = gqh.reshape(-1, 2 * h - 1).T @ q.reshape(-1, self.dk_head)

        def merge(m, dim_head, total):
            return m.transpose(0, 2, 1, 3).reshape(b, n, total)

        gqm = merge(gq, self.dk_head, self.d_k)
        gkm = merge(gk, self.dk_head, self.d_k)
        gvm = merge(gv, self.dv_head, self.d_v)
        gxt = gqm @ self.wq.T + gkm @ self.wk.T + gvm @ self.wv.T
        xf = xt.reshape(-1, self.in_ch)
        grads = {
            "wq": xf.T @ gqm.reshape(-1, self.d_k),
            "wk": xf.T @ gkm.reshape(-1, self.d_k),
            "wv": xf.T @ gvm.reshape(-1, self.d_v),
            "wo": gwo,
            "rel_w": grel_w,
            "rel_h": grel_h,
        }
        grad_x = gxt.transpose(0, 2, 1).reshape(b, self.in_ch, h, w)
        return grad_x, grads

    def params(self):
        return [
            ("wq", self.wq),
            ("wk", self.wk),
            ("wv", self.wv),
            ("wo", self.wo),
            ("rel_w", self.rel_w),
            ("rel_h", self.rel_h),
        ]


def multi_head_attention(attn, x):
    """Full multi-head pass returning (B, d_v, H, W)."""
    return attn.forward(np.asarray(x))


class AugmentedAttentionConv:
    """Concat of a 3x3 conv branch and a self-attention branch.

    The conv branch produces out_ch - d_v channels and the attention branch
    d_v, so the concatenated map has exactly out_ch channels, conv first.
    """

    def __init__(self, in_ch, out_ch, height, width, heads=4, d_k=32, d_v=32,
                 prng=None, dtype=np.float32):
        if d_v >= out_ch:
            raise ConfigError(
                "d_v=%d must leave room for conv channels below out_ch=%d"
                % (d_v, out_ch)
            )
        self.out_ch = int(out_ch)
        self.conv = Conv2d(in_ch, out_ch - d_v, kernel=3, padding=1,
                           prng=prng, dtype=dtype)
        self.attn = RelativeSelfAttention2d(in_ch, height, width, heads,
                                            d_k, d_v, prng, dtype)

    def forward_cache(self, x):
        y_conv, cols = self.conv.forward_cols(x)
        y_attn, attn_cache = self.attn.forward_cache(x)
        y = np.concatenate([y_conv, y_attn], axis=1)
        return y, (cols, x.shape, attn_cache)

    def forward(self, x):
        return self.forward_cache(x)[0]

    def backward(self, cache, grad_y):
        cols, x_shape, attn_cache = cache
        split = self.conv.out_ch
        gx_conv, gw, gb = self.conv.backward_cols(cols, x_shape, grad_y[:, :split])
        gx_attn, attn_grads = self.attn.backward(attn_cache, grad_y[:, split:])
        grads = {"conv.weight": gw, "conv.bias": gb}
        for name, g in attn_grads.items():
            grads["attn." + name] = g
        return gx_conv + gx_attn, grads

    def params(self):
        out = [("conv.weight", self.conv.weight), ("conv.bias", self.conv.bias)]
        out.extend(("attn." + name, p) for name, p in self.attn.params())
        return out


def attention_augmented_conv(aac, x):
    """Forward pass of the augmented block returning (B, out_ch, H, W)."""
    return aac.forward(np.asarray(x))
