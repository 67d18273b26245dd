"""Convolutional building blocks with hand-written backward passes.

All spatial operators follow the cross-correlation convention (no kernel
flip) and pad with zeros. Activations live in (batch, channel, height,
width) order. The geometry is the network's and nothing else: Conv2d is
stride 1 with padding k // 2, so it keeps H and W (k = 3 in the trunk and
attention branch, k = 1 for the head and the SE spatial gate), and
TransposedConv2d is the 3x3 stride-2 upsampler that exactly doubles H and
W. Both 3x3 layers work from their input zero-padded once into a
channel-major flat buffer in which every kernel tap is a contiguous slice,
and their forward passes sum tap products over it (_tap_sum; a Conv2d
that widens its input gathers columns instead). Conv2d's grad_x is
_tap_sum too, of the output gradient padded the same way; the transposed
convolution's backward gathers with a stride-2 _im2col; 1x1 convolutions
stay per patch on x's own view. Backward passes are checked against loop
oracles and the central difference oracle.

Every layer has the same protocol: ``forward(x)`` returns the output and
keeps nothing; ``forward_cache(x)`` returns ``(y, cache)``; ``backward(cache,
g)`` returns ``(grad_x, *param_grads)`` with the parameter gradients in
``params()`` order; ``params()`` lists (name, array) pairs of plain numpy
arrays. A convolution's cache is its flat padded input and input shape,
about the size of the input itself; the dense and transposed layers cache
their input.
"""

import math

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import DimensionError, LabelError

# Working set of one block of a Conv2d pass: near the cache size, yet
# wide enough for efficient BLAS products.
_BLOCK_BYTES = 1 << 22


def glorot_init(shape, prng, dtype=np.float32):
    """Uniform samples in +-sqrt(6/(fan_in+fan_out)) for rank-2/4 shapes.

    For rank-4 weights the receptive field multiplies both fans, so the
    bound only depends on (shape[0]+shape[1]) * kh * kw and is valid for
    either (out, in, kh, kw) or (in, out, kh, kw) orderings.
    """
    shape = tuple(int(s) for s in shape)
    if len(shape) == 2:
        fan_sum = shape[0] + shape[1]
    elif len(shape) == 4:
        fan_sum = (shape[0] + shape[1]) * shape[2] * shape[3]
    else:
        raise DimensionError(
            "glorot_init expects a rank-2 or rank-4 shape, got %r" % (shape,)
        )
    bound = math.sqrt(6.0 / fan_sum)
    return prng.uniform(-bound, bound, size=shape, dtype=dtype)


def _pad_flat(x, kernel):
    """Zero-pad (B,C,H,W) by kernel // 2 once into a channel-major flat buffer.

    Returns xf of shape (C, B*Hp*Wp + (k-1)*(Wp+1)): the padded pixel
    (b, c, y, x) sits at xf[c, (b*Hp + y)*Wp + x], so kernel tap (i, j)
    over the whole padded grid is the contiguous slice that starts at
    i*Wp + j, and the zero tail keeps the last tap's slice in bounds.
    """
    b, c, h, w = x.shape
    p = kernel // 2
    hp, wp = h + 2 * p, w + 2 * p
    n = b * hp * wp
    xf = np.zeros((c, n + (kernel - 1) * (wp + 1)), dtype=x.dtype)
    grid = xf[:, :n].reshape(c, b, hp, wp)
    grid[:, :, p:p + h, p:p + w] = x.transpose(1, 0, 2, 3)
    return xf


def _grid(x_shape, kernel, stride):
    """(Hp, Wp, Ho, Wo): the input padded by kernel // 2, and the output."""
    p = kernel // 2
    hp, wp = x_shape[2] + 2 * p, x_shape[3] + 2 * p
    return hp, wp, (hp - kernel) // stride + 1, (wp - kernel) // stride + 1


def _im2col(xf, x_shape, kernel, stride):
    """Gather (C*k*k, B*Ho*Wo) columns from a _pad_flat buffer.

    Row (c*k + i)*k + j, column (b*Ho + y)*Wo + x holds the padded input at
    (b, c, y*stride + i, x*stride + j); overhanging windows are dropped.
    """
    b, c = x_shape[:2]
    hp, wp, ho, wo = _grid(x_shape, kernel, stride)
    s0, s1 = xf.strides
    view = as_strided(
        xf,
        (c, kernel, kernel, b, ho, wo),
        (s0, wp * s1, s1, hp * wp * s1, stride * wp * s1, stride * s1),
        writeable=False,
    )
    return view.reshape(c * kernel * kernel, b * ho * wo)


def _per_patch(wm, cols, b):
    """wm times each patch's strided view of channel-major cols: (B, O, P).

    One product per patch rounds each patch the same alone or in any batch;
    a single GEMM over all B*P columns does not: float64 BLAS rounds the last
    N mod 8 columns of a product its own way, and here they are outputs.
    """
    return np.matmul(wm, cols.reshape(cols.shape[0], b, -1).transpose(1, 0, 2))


def _tap_sum(weights, offsets, xf, x_shape):
    """Sum over taps t of weights[t] @ xf[:, offsets[t]:], valid outputs only.

    weights is a (T, O, C) stack of tap matrices and xf a _pad_flat buffer
    of a (B, C, H, W) input padded by 1; the result is (B, O, H, W), grid
    position (y, x) of each patch. Runs a block of whole patches at a time,
    so that the running sum and one tap's product fit in _BLOCK_BYTES. A
    patch's outputs come out the same alone or in any batch: the last
    N mod 8 columns of a product, which float64 BLAS rounds its own way,
    are the last patch's bottom padding rows, which hold no output.
    """
    b, out_ch = x_shape[0], weights.shape[1]
    hp, wp, ho, wo = _grid(x_shape, 3, 1)
    grid = hp * wp
    per = max(1, min(b, _BLOCK_BYTES // (2 * out_ch * grid * xf.itemsize)))
    total, part = np.empty((2, out_ch, per * grid), dtype=xf.dtype)
    y = np.empty((b, out_ch, ho, wo), dtype=xf.dtype)
    for b0 in range(0, b, per):
        nb = min(per, b - b0)
        m, q = nb * grid, b0 * grid
        cols = [xf[:, q + off:q + off + m] for off in offsets]
        acc = np.matmul(weights[0], cols[0], out=total[:, :m])
        for w_t, c_t in zip(weights[1:], cols[1:]):
            acc += np.matmul(w_t, c_t, out=part[:, :m])
        valid = acc.reshape(out_ch, nb, hp, wp)[:, :, :ho, :wo]
        y[b0:b0 + nb] = valid.transpose(1, 0, 2, 3)
    return y


class Conv2d:
    """Stride-1 2D convolution (cross-correlation) with bias, same size out.

    A k x k kernel pads by k // 2; k is 3 or 1. For k = 3 the input is
    zero-padded once into a channel-major flat buffer (see _pad_flat); the
    training tape keeps only that. With out_ch > in_ch the forward gathers the
    k*k-fold columns of the narrower input once and takes one product per
    patch, since k*k passes over the wider output would cost more;
    otherwise it sums k*k tap products over the padded grid. Backward pads
    the output gradient the same way: grad_w gathers the input buffer's taps
    one block of grid columns at a time, and grad_x is _tap_sum of the
    padded gradient with the transposed taps at mirrored offsets. A 1x1
    kernel multiplies each patch's own view of x.
    """

    def __init__(self, in_ch, out_ch, kernel=3, prng=None, dtype=np.float32):
        self.in_ch = int(in_ch)
        self.out_ch = int(out_ch)
        self.kernel = int(kernel)
        shape = (self.out_ch, self.in_ch, self.kernel, self.kernel)
        if prng is None:
            self.weight = np.zeros(shape, dtype=dtype)
        else:
            self.weight = glorot_init(shape, prng, dtype)
        self.bias = np.zeros(self.out_ch, dtype=dtype)

    def _taps(self, wp):
        """(k*k, O, C) tap weight matrices and each tap's flat offset i*wp + j."""
        k = self.kernel
        w = np.ascontiguousarray(self.weight.transpose(2, 3, 0, 1))
        offsets = [i * wp + j for i in range(k) for j in range(k)]
        return w.reshape(k * k, self.out_ch, self.in_ch), offsets

    def forward_cache(self, x):
        """Output plus the (flat padded input, input shape) cache backward needs."""
        if x.ndim != 4 or x.shape[1] != self.in_ch:
            raise DimensionError(
                "conv expects (B,%d,H,W), got %s" % (self.in_ch, (x.shape,))
            )
        b, k = x.shape[0], self.kernel
        if k == 1:
            cols = x.reshape(b, self.in_ch, -1)
            y = np.matmul(self.weight.reshape(self.out_ch, -1), cols)
            cache = (cols, x.shape)
        else:
            xf = _pad_flat(x, k)
            if self.out_ch > self.in_ch:
                cols = _im2col(xf, x.shape, k, 1)
                y = _per_patch(self.weight.reshape(self.out_ch, -1), cols, b)
            else:
                weights, offsets = self._taps(x.shape[3] + 2)
                y = _tap_sum(weights, offsets, xf, x.shape)
            cache = (xf, x.shape)
        y = y.reshape((b, self.out_ch) + x.shape[2:])
        y += self.bias[:, None, None]
        return y, cache

    def forward(self, x):
        return self.forward_cache(x)[0]

    def backward(self, cache, grad_out, input_grad=True):
        """(grad_x, grad_w, grad_b); grad_x is None when input_grad is False."""
        b = cache[1][0]
        g = grad_out.reshape(b, self.out_ch, -1)
        grad_b = g.sum(axis=(0, 2))
        if self.kernel == 1:
            cols, x_shape = cache
            grad_w = np.matmul(g, cols.transpose(0, 2, 1)).sum(axis=0)
            wm = self.weight.reshape(self.out_ch, -1)
            grad_x = np.matmul(wm.T, g).reshape(x_shape) if input_grad else None
            return grad_x, grad_w.reshape(self.weight.shape), grad_b
        xf, x_shape = cache
        wp = x_shape[3] + 2
        n = b * (x_shape[2] + 2) * wp
        # the output gradient padded by 1; from wp + 1 on, the padded grid
        # holds it at the outputs' own positions and zeros elsewhere
        gp = _pad_flat(grad_out, 3)
        grad_w = self._weight_grad(xf, gp[:, wp + 1:], wp, n)
        if not input_grad:
            return None, grad_w, grad_b
        # W[:, :, i, j]^T meets the gradient at the mirrored tap (2 - i, 2 - j)
        weights, offsets = self._taps(wp)
        grad_x = _tap_sum(weights.transpose(0, 2, 1), offsets[::-1], gp, grad_out.shape)
        return grad_x, grad_w, grad_b

    def _weight_grad(self, xf, gf, wp, n):
        """grad_w, one (O, C*k*k) product per block of padded-grid columns.

        Each block gathers its taps into a buffer of _BLOCK_BYTES, so the
        k*k-fold copy of the input never exists whole.
        """
        c, k = self.in_ch, self.kernel
        step = max(1, _BLOCK_BYTES // (c * k * k * xf.itemsize))
        buf = np.empty((c * k * k, min(step, n)), dtype=xf.dtype)
        grad_w = np.zeros((self.out_ch, c * k * k), dtype=gf.dtype)
        s0, s1 = xf.strides
        for q in range(0, n, step):
            m = min(step, n - q)
            block = buf[:, :m]
            block.reshape(c, k, k, m)[...] = as_strided(
                xf[:, q:], (c, k, k, m), (s0, wp * s1, s1, s1), writeable=False)
            grad_w += gf[:, q:q + m] @ block.T
        return grad_w.reshape(self.weight.shape)

    def params(self):
        return [("weight", self.weight), ("bias", self.bias)]


class Dense:
    """Fully connected layer: y = x W^T + b with weight shaped (out, in).

    Forward takes one product per row, so a row gets the same bits alone
    as in any batch; one (B, in) x (in, out) GEMM rounds a row differently
    depending on B, in both float32 and float64.
    """

    def __init__(self, in_dim, out_dim, prng=None, dtype=np.float32):
        self.in_dim = int(in_dim)
        self.out_dim = int(out_dim)
        if prng is None:
            self.weight = np.zeros((self.out_dim, self.in_dim), dtype=dtype)
        else:
            self.weight = glorot_init((self.out_dim, self.in_dim), prng, dtype)
        self.bias = np.zeros(self.out_dim, dtype=dtype)

    def forward(self, x):
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise DimensionError(
                "dense expects (B,%d), got %s" % (self.in_dim, (x.shape,))
            )
        return np.matmul(x[:, None], self.weight.T)[:, 0] + self.bias

    def forward_cache(self, x):
        return self.forward(x), x

    def backward(self, x, grad_out, input_grad=True):
        grad_w = grad_out.T @ x
        grad_b = grad_out.sum(axis=0)
        grad_x = grad_out @ self.weight if input_grad else None
        return grad_x, grad_w, grad_b

    def params(self):
        return [("weight", self.weight), ("bias", self.bias)]


class TransposedConv2d:
    """Stride-2 transposed 3x3 convolution that exactly doubles H and W.

    Weight is shaped (in_ch, out_ch, 3, 3): each input pixel stamps the
    kernel onto the 2H x 2W output grid padded by 1, the adjoint of a
    stride-2 3x3 convolution over the output padded by one leading zero
    row and column. Forward sums 1, 2, 2 or 4 tap products per sub-pixel
    phase (even or odd output row and column) with _tap_sum; backward
    gathers with a stride-2 _im2col.
    """

    def __init__(self, in_ch, out_ch, prng=None, dtype=np.float32):
        self.in_ch = int(in_ch)
        self.out_ch = int(out_ch)
        shape = (self.in_ch, self.out_ch, 3, 3)
        if prng is None:
            self.weight = np.zeros(shape, dtype=dtype)
        else:
            self.weight = glorot_init(shape, prng, dtype)
        self.bias = np.zeros(self.out_ch, dtype=dtype)

    def forward(self, x):
        if x.ndim != 4 or x.shape[1] != self.in_ch:
            raise DimensionError(
                "transposed conv expects (B,%d,H,W), got %s" % (self.in_ch, (x.shape,))
            )
        b, _, h, w = x.shape
        xf, wp = _pad_flat(x, 3), w + 2
        wt = np.ascontiguousarray(self.weight.transpose(2, 3, 1, 0))
        y = np.empty((b, self.out_ch, 2 * h, 2 * w), dtype=x.dtype)
        # output row 2y takes kernel row 1 at input row y, row 2y+1 takes
        # row 0 at y+1 and row 2 at y; columns likewise
        phases = ((1,), (0, 2))
        for a, rows in enumerate(phases):
            for c, cols in enumerate(phases):
                taps = wt[np.ix_(rows, cols)].reshape(-1, self.out_ch, self.in_ch)
                offsets = [(1 + (i == 0)) * wp + 1 + (j == 0)
                           for i in rows for j in cols]
                y[:, :, a::2, c::2] = _tap_sum(taps, offsets, xf, x.shape)
        y += self.bias[:, None, None]
        return y

    def forward_cache(self, x):
        return self.forward(x), x

    def backward(self, x, grad_out, input_grad=True):
        grad_b = grad_out.sum(axis=(0, 2, 3))
        gcols = _im2col(_pad_flat(grad_out, 3), grad_out.shape, 3, 2)
        wm = self.weight.reshape(self.in_ch, -1)
        grad_x = (_per_patch(wm, gcols, x.shape[0]).reshape(x.shape)
                  if input_grad else None)
        xm = x.transpose(1, 0, 2, 3).reshape(self.in_ch, -1)
        grad_w = (xm @ gcols.T).reshape(self.weight.shape)
        return grad_x, grad_w, grad_b

    def params(self):
        return [("weight", self.weight), ("bias", self.bias)]


def maxpool2d(x):
    """2x2 max pooling with stride 2.

    Returns the pooled map plus per-window argmax indices (0..3, row-major
    inside the window, first occurrence on ties) for backward routing,
    exactly as argmax over each window gives them for NaN-free input.
    """
    if x.ndim != 4:
        raise DimensionError("maxpool expects (B,C,H,W), got rank %d" % x.ndim)
    h, w = x.shape[2], x.shape[3]
    if h % 2 or w % 2:
        raise DimensionError("maxpool needs even spatial dims, got %dx%d" % (h, w))
    corners = a, b, c, d = _corners(x)
    out = np.maximum(np.maximum(a, b), np.maximum(c, d))
    # first corner equal to the maximum: 0 if a is, else 1 if b is, ...
    idx = (c != out).view(np.uint8) + np.uint8(1)
    idx *= (b != out).view(np.uint8)
    idx += np.uint8(1)
    idx *= (a != out).view(np.uint8)
    # np.maximum may return either of +0 and -0; keep the first, as argmax does
    zero = out == 0
    if zero.any():
        out[zero] = np.choose(idx[zero], [v[zero] for v in corners])
    return out, idx


def _corners(x):
    """The four 2x2-window positions of x as strided views, row-major."""
    return [x[:, :, i::2, j::2] for i in (0, 1) for j in (0, 1)]


def maxpool2d_backward(grad_out, idx):
    """Route each output gradient to its recorded argmax position."""
    b, c, ho, wo = grad_out.shape
    gx = np.empty((b, c, 2 * ho, 2 * wo), dtype=grad_out.dtype)
    # multiply the raw bits by the 0/1 mask: an exact copy or +0.0
    bits = np.dtype("u%d" % grad_out.itemsize)
    for k, corner in enumerate(_corners(gx.view(bits))):
        np.multiply(grad_out.view(bits), idx == k, out=corner)
    return gx


def _check_target(logits_shape, target):
    """Raise unless target is a 0/1 (B,H,W) map for (B,2,H,W) logits."""
    if len(logits_shape) != 4 or logits_shape[1] != 2:
        raise DimensionError("loss expects logits (B,2,H,W), got %s"
                             % (tuple(logits_shape),))
    b, _, h, w = logits_shape
    if target.shape != (b, h, w):
        raise DimensionError("target shape %s does not match logits %s"
                             % (target.shape, tuple(logits_shape)))
    if not (np.equal(target, 0) | np.equal(target, 1)).all():
        raise LabelError("target labels must be 0 or 1")


def loss_normalizer(logits_shape, target, pos_weight=None):
    """Check target against logits of logits_shape; the divisor of their loss.

    That is B*H*W, so the loss is a mean over pixels, or with pos_weight
    the total pixel weight, so it is a weighted mean.
    """
    target = np.asarray(target)
    _check_target(logits_shape, target)
    if pos_weight is None:
        return target.size
    return np.where(target == 1, float(pos_weight), 1.0).sum()


def cross_entropy_2class(logits, target, pos_weight=None, norm=None):
    """Softmax cross-entropy over two channels, summed and divided by norm.

    Returns (loss, grad wrt logits). ``pos_weight`` optionally scales the
    contribution of class-1 pixels. ``norm`` defaults to this batch's
    `loss_normalizer`, which makes the loss a (weighted) mean whose scale
    stays comparable to the unweighted case; a part of a batch passes the
    whole batch's, so that the parts' losses and gradients add up to the
    whole batch's.
    """
    logits = np.asarray(logits)
    target = np.asarray(target)
    if norm is None:
        norm = loss_normalizer(logits.shape, target, pos_weight)
    else:
        _check_target(logits.shape, target)
    t = target.astype(np.int64)[:, None]
    m = logits.max(axis=1, keepdims=True)
    z = logits - m
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    nll = (lse - np.take_along_axis(z, t, axis=1))[:, 0]
    prob = np.exp(z - lse)
    grad = prob.astype(logits.dtype, copy=True)
    picked = np.take_along_axis(grad, t, axis=1)
    np.put_along_axis(grad, t, picked - 1.0, axis=1)
    if pos_weight is None:
        loss = float(nll.sum() / norm)
        grad /= norm
    else:
        wmap = np.where(target == 1, float(pos_weight), 1.0)
        loss = float((nll * wmap).sum() / norm)
        grad *= (wmap / norm)[:, None]
    return loss, grad
