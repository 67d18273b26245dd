"""Convolutional building blocks with hand-written backward passes.

All spatial operators follow the cross-correlation convention (no kernel
flip) and pad with zeros. Activations live in (batch, channel, height,
width) order. A convolution unfolds its input into one channel-major
im2col buffer (C*k*k, B*Ho*Wo): weight and column gradients are one GEMM
each over the batch, forward one product per patch over strided views of
it, and _col2im folds columns back; the transposed convolution runs that
pair in reverse; 1x1 convolutions stay per patch on x's own view. Backward
passes are checked against loop oracles and the central difference oracle.

Every layer has the same protocol: ``forward(x)`` returns the output and
keeps nothing; ``forward_cache(x)`` returns ``(y, cache)``; ``backward(cache,
g)`` returns ``(grad_x, *param_grads)`` with the parameter gradients in
``params()`` order; ``params()`` lists (name, array) pairs of plain numpy
arrays. A convolution's cache is its column buffer and input shape, so
backward never unfolds the input again; the dense and transposed layers
cache their input.
"""

import math

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import DimensionError, LabelError


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


def _im2col(x, kernel, stride, padding):
    """Unfold (B,C,H,W) into (C*k*k, B*Ho*Wo) columns plus output dims.

    Row (c*k + i)*k + j, column (b*Ho + y)*Wo + x holds the padded input at
    (b, c, y*stride + i, x*stride + j); overhanging windows are dropped.
    """
    b, c = x.shape[:2]
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho = (x.shape[2] - kernel) // stride + 1
    wo = (x.shape[3] - kernel) // stride + 1
    s0, s1, s2, s3 = x.strides
    view = as_strided(
        x,
        (c, kernel, kernel, b, ho, wo),
        (s1, s2, s3, s0, s2 * stride, s3 * stride),
        writeable=False,
    )
    return view.reshape(c * kernel * kernel, b * ho * wo), ho, wo


def _col2im(gcols, x_shape, kernel, stride, padding):
    """Adjoint of _im2col: scatter-add channel-major columns onto (B,C,H,W)."""
    b, c, h, w = x_shape
    hp, wp = h + 2 * padding, w + 2 * padding
    ho = (hp - kernel) // stride + 1
    wo = (wp - kernel) // stride + 1
    g = gcols.reshape(c, kernel, kernel, b, ho, wo)
    gx = np.zeros((c, b, hp, wp), dtype=gcols.dtype)
    for i in range(kernel):
        for j in range(kernel):
            gx[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride] += g[:, i, j]
    gx = gx[:, :, padding:padding + h, padding:padding + w]
    return np.ascontiguousarray(gx.transpose(1, 0, 2, 3))


def _channel_major(x):
    """(B, C, H, W) -> (C, B*H*W): the batch as one GEMM operand."""
    return x.transpose(1, 0, 2, 3).reshape(x.shape[1], -1)


def _per_patch(wm, cols, b):
    """wm times each patch's strided view of channel-major cols: (B, O, P).

    One product per patch rounds each patch the same alone or in any batch;
    a single GEMM over all B*P columns does not.
    """
    return np.matmul(wm, cols.reshape(cols.shape[0], b, -1).transpose(1, 0, 2))


class Conv2d:
    """2D convolution (cross-correlation) with zero padding and bias."""

    def __init__(self, in_ch, out_ch, kernel=3, stride=1, padding=1,
                 prng=None, dtype=np.float32):
        self.in_ch = int(in_ch)
        self.out_ch = int(out_ch)
        self.kernel = int(kernel)
        self.stride = int(stride)
        self.padding = int(padding)
        shape = (self.out_ch, self.in_ch, self.kernel, self.kernel)
        if prng is None:
            self.weight = np.zeros(shape, dtype=dtype)
        else:
            self.weight = glorot_init(shape, prng, dtype)
        self.bias = np.zeros(self.out_ch, dtype=dtype)

    def _check(self, x):
        if x.ndim != 4 or x.shape[1] != self.in_ch:
            raise DimensionError(
                "conv expects (B,%d,H,W), got %s" % (self.in_ch, (x.shape,))
            )
        k, s, p = self.kernel, self.stride, self.padding
        if (x.shape[2] + 2 * p - k) % s or (x.shape[3] + 2 * p - k) % s:
            raise DimensionError(
                "spatial size %dx%d (padding %d) is not divisible for kernel %d stride %d"
                % (x.shape[2], x.shape[3], p, k, s)
            )

    def _pointwise(self):
        return self.kernel == 1 and self.stride == 1 and self.padding == 0

    def _cols(self, x):
        """Column buffer; a pointwise conv just views x as (B, C, H*W)."""
        if self._pointwise():
            return x.reshape(x.shape[0], self.in_ch, -1), x.shape[2], x.shape[3]
        return _im2col(x, self.kernel, self.stride, self.padding)

    def forward_cache(self, x):
        """Output plus the (column buffer, input shape) cache backward needs."""
        self._check(x)
        b = x.shape[0]
        cols, ho, wo = self._cols(x)
        wm = self.weight.reshape(self.out_ch, -1)
        y = np.matmul(wm, cols) if self._pointwise() else _per_patch(wm, cols, b)
        y += self.bias[:, None]
        return y.reshape(b, self.out_ch, ho, wo), (cols, x.shape)

    def forward(self, x):
        return self.forward_cache(x)[0]

    def backward(self, cache, grad_out, input_grad=True):
        """(grad_x, grad_w, grad_b); grad_x is None when input_grad is False."""
        cols, x_shape = cache
        b = x_shape[0]
        wm = self.weight.reshape(self.out_ch, -1)
        g = grad_out.reshape(b, self.out_ch, -1)
        grad_b = g.sum(axis=(0, 2))
        if self._pointwise():
            grad_w = np.matmul(g, cols.transpose(0, 2, 1)).sum(axis=0)
            grad_x = np.matmul(wm.T, g).reshape(x_shape) if input_grad else None
        else:
            g = _channel_major(grad_out)
            grad_w = g @ cols.T
            grad_x = _col2im(wm.T @ g, x_shape, self.kernel, self.stride,
                             self.padding) if input_grad else None
        return grad_x, grad_w.reshape(self.weight.shape), grad_b

    def params(self):
        return [("weight", self.weight), ("bias", self.bias)]


class Dense:
    """Fully connected layer: y = x W^T + b with weight shaped (out, in)."""

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
        return x @ self.weight.T + self.bias

    def forward_cache(self, x):
        return self.forward(x), x

    def backward(self, x, grad_out):
        grad_w = grad_out.T @ x
        grad_b = grad_out.sum(axis=0)
        grad_x = grad_out @ self.weight
        return grad_x, grad_w, grad_b

    def params(self):
        return [("weight", self.weight), ("bias", self.bias)]


class TransposedConv2d:
    """Stride-2 transposed 3x3 convolution that exactly doubles H and W.

    Weight is shaped (in_ch, out_ch, kh, kw). Forward is W^T x, one kernel
    stamp per input pixel, scattered by _col2im onto the output grid padded
    by `padding` (output padding rows stay unstamped), the adjoint of a
    padded strided convolution; backward gathers with _im2col.
    """

    def __init__(self, in_ch, out_ch, kernel=3, stride=2, padding=1,
                 output_padding=1, prng=None, dtype=np.float32):
        self.in_ch = int(in_ch)
        self.out_ch = int(out_ch)
        self.kernel = int(kernel)
        self.stride = int(stride)
        self.padding = int(padding)
        self.output_padding = int(output_padding)
        shape = (self.in_ch, self.out_ch, self.kernel, self.kernel)
        if prng is None:
            self.weight = np.zeros(shape, dtype=dtype)
        else:
            self.weight = glorot_init(shape, prng, dtype)
        self.bias = np.zeros(self.out_ch, dtype=dtype)

    def out_size(self, h, w):
        k, s, p, op = self.kernel, self.stride, self.padding, self.output_padding
        return (h - 1) * s - 2 * p + k + op, (w - 1) * s - 2 * p + k + op

    def forward(self, x):
        if x.ndim != 4 or x.shape[1] != self.in_ch:
            raise DimensionError(
                "transposed conv expects (B,%d,H,W), got %s" % (self.in_ch, (x.shape,))
            )
        b, _, h, w = x.shape
        if self.output_padding > self.padding or self.output_padding >= self.stride:
            raise DimensionError(
                "output padding %d must be below stride %d and at most padding %d"
                % (self.output_padding, self.stride, self.padding)
            )
        wm = self.weight.reshape(self.in_ch, -1)
        stamps = wm.T @ _channel_major(x)
        y_shape = (b, self.out_ch) + self.out_size(h, w)
        y = _col2im(stamps, y_shape, self.kernel, self.stride, self.padding)
        y += self.bias[:, None, None]
        return y

    def forward_cache(self, x):
        return self.forward(x), x

    def backward(self, x, grad_out):
        grad_b = grad_out.sum(axis=(0, 2, 3))
        gcols, _, _ = _im2col(grad_out, self.kernel, self.stride, self.padding)
        wm = self.weight.reshape(self.in_ch, -1)
        grad_x = _per_patch(wm, gcols, x.shape[0]).reshape(x.shape)
        grad_w = (_channel_major(x) @ gcols.T).reshape(self.weight.shape)
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


def cross_entropy_2class(logits, target, pos_weight=None):
    """Mean softmax cross-entropy over two channels.

    Returns (loss, grad wrt logits). ``pos_weight`` optionally scales the
    contribution of class-1 pixels; the loss is then a weighted mean so its
    scale stays comparable to the unweighted case.
    """
    logits = np.asarray(logits)
    target = np.asarray(target)
    if logits.ndim != 4 or logits.shape[1] != 2:
        raise DimensionError("loss expects logits (B,2,H,W), got %s" % (logits.shape,))
    b, _, h, w = logits.shape
    if target.shape != (b, h, w):
        raise DimensionError(
            "target shape %s does not match logits %s" % (target.shape, logits.shape)
        )
    if not (np.equal(target, 0) | np.equal(target, 1)).all():
        raise LabelError("target labels must be 0 or 1")
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
        loss = float(nll.mean())
        grad /= b * h * w
    else:
        wmap = np.where(target == 1, float(pos_weight), 1.0)
        total = wmap.sum()
        loss = float((nll * wmap).sum() / total)
        grad *= (wmap / total)[:, None]
    return loss, grad
