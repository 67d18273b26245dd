"""Shared fixture builders and reference oracles for the test suite."""

import contextlib
import math
import os
import struct
import threading

import numpy as np
import pytest

from seishet.attention import relative_logits
from seishet.errors import DimensionError, EvaluationError
from seishet.layers import cross_entropy_2class
from seishet.numcore import Prng, blas_threads, set_blas_threads, softmax_lastdim
from seishet.train import (
    AdamState,
    EpochStats,
    adam_step,
    evaluate_batched,
    stack_samples,
)


@pytest.fixture
def two_blas_threads():
    """numpy's OpenBLAS at two threads for the test, so forward fans out."""
    before = blas_threads()
    set_blas_threads(2)
    try:
        if blas_threads() != 2 or len(os.sched_getaffinity(0)) < 2:
            pytest.skip("needs numpy's bundled OpenBLAS and two CPUs")
        yield
    finally:
        set_blas_threads(before)


@contextlib.contextmanager
def one_blas_thread():
    """numpy's OpenBLAS at one thread inside the block."""
    before = blas_threads()
    set_blas_threads(1)
    try:
        yield
    finally:
        set_blas_threads(before)


def spy_on_walks(model):
    """Record (rows, thread name, tape given, start, stop) of every walk
    the model makes; returns the list."""
    calls, walk = [], model.walk

    def spy(x, tape=None, start=0, stop=None):
        calls.append((len(x), threading.current_thread().name,
                      tape is not None, start, stop))
        return walk(x, tape, start, stop)

    model.walk = spy
    return calls


def forward_chunks(n, workers):
    """Rows of each walk that forward(n patches) makes at `workers`
    workers: chunks of at most 8, as many as the smallest multiple of
    `workers` that allows, at most n, sizes differing by at most one,
    larger ones first."""
    count = -(-n // 8)
    count = min(n, -(-count // workers) * workers)
    return [n // count + (i < n % count) for i in range(count)]


def ieee_to_ibm_word(value):
    """Encode a float as an IBM 32-bit word (inverse helper for fixtures).

    Only needs to cover values exactly representable in both formats,
    which is all the fixtures use.
    """
    if value == 0.0:
        return 0
    sign = 0
    if value < 0:
        sign = 1
        value = -value
    exponent = 64
    mantissa = value
    while mantissa >= 1.0:
        mantissa /= 16.0
        exponent += 1
    while mantissa < 1.0 / 16.0:
        mantissa *= 16.0
        exponent -= 1
    frac = int(round(mantissa * (1 << 24)))
    if frac == 1 << 24:
        frac >>= 4
        exponent += 1
    return (sign << 31) | (exponent << 24) | frac


def write_segy(path, traces, fmt=5, ns=None, interval_us=4000,
               inline_byte=189, crossline_byte=193, extra_tail=b""):
    """Write a minimal rev1 big-endian SEG-Y file.

    `traces` is a list of (inline, crossline, samples) tuples; every sample
    vector must share one length unless `ns` overrides the declared count.
    """
    if ns is None:
        ns = len(traces[0][2])
    buf = bytearray()
    buf += b" " * 3200
    binary = bytearray(400)
    struct.pack_into(">H", binary, 3216 - 3200, interval_us)
    struct.pack_into(">H", binary, 3220 - 3200, ns)
    struct.pack_into(">H", binary, 3224 - 3200, fmt)
    buf += binary
    for il, xl, samples in traces:
        hdr = bytearray(240)
        struct.pack_into(">H", hdr, 114, len(samples))
        struct.pack_into(">i", hdr, inline_byte - 1, il)
        struct.pack_into(">i", hdr, crossline_byte - 1, xl)
        buf += hdr
        if fmt == 5:
            buf += np.asarray(samples, dtype=">f4").tobytes()
        else:
            words = [ieee_to_ibm_word(float(v)) for v in samples]
            buf += np.asarray(words, dtype=">u4").tobytes()
    buf += extra_tail
    with open(path, "wb") as fh:
        fh.write(bytes(buf))
    return path


def write_raw_section(section, path):
    """Store a section as raw little-endian float32, row-major."""
    arr = np.ascontiguousarray(section, dtype="<f4")
    if arr.ndim != 2:
        raise DimensionError("raw section must be 2D")
    with open(path, "wb") as fh:
        fh.write(arr.tobytes())


def normalize_patch(patch):
    """Min-max map to [-1, 1]; a constant patch becomes all zeros.

    The one-patch reference for synthgen.normalize_windows.
    """
    lo = float(patch.min())
    hi = float(patch.max())
    if hi <= lo:
        return np.zeros(patch.shape, dtype=np.float32)
    return (2.0 * (patch - lo) / (hi - lo) - 1.0).astype(np.float32)


def self_attention_head(q, k, v, rel_w, rel_h):
    """Softmax over keys of the relative logits, then value mixing."""
    weights = softmax_lastdim(relative_logits(q, k, rel_w, rel_h))
    return weights @ np.asarray(v)


def finite_difference_grad(f, x, h=1e-5):
    """Central-difference gradient of a scalar-valued f, element by element.

    Works on a float64 copy of x so callers' arrays are never touched.
    Raises EvaluationError if any probe of f is non-finite.
    """
    x = np.array(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat_x = x.reshape(-1)
    flat_g = grad.reshape(-1)
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + h
        f_plus = float(f(x))
        flat_x[i] = orig - h
        f_minus = float(f(x))
        flat_x[i] = orig
        if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
            raise EvaluationError(
                "finite difference probe at flat index %d was non-finite" % i
            )
        flat_g[i] = (f_plus - f_minus) / (2.0 * h)
    return grad


def relative_error(a, b):
    """Max absolute difference scaled by the larger operand's max magnitude.

    The denominator is floored at 1e-8 so comparing near-zero arrays does
    not blow up.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionError(
            "relative_error operands differ in shape: %s vs %s" % (a.shape, b.shape)
        )
    denom = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), 1e-8)
    return float(np.abs(a - b).max(initial=0.0) / denom)


def col2im(cols, shape, stride):
    """Scatter-add (C*9, B*Ho*Wo) 3x3 columns onto a (B, C, H, W) grid.

    The column form of a 3x3 convolution padded by 1, at stride 1 or 2:
    row (c*3 + i)*3 + j, column (b*Ho + y)*Wo + x lands on padded pixel
    (b, c, y*stride + i, x*stride + j), taps added in (i, j) order, and the
    padding is cropped. With cols = W^T x it is a transposed convolution's
    forward (stride 2) or a convolution's input gradient (stride 1).
    """
    b, c, h, w = shape
    ho, wo = (h - 1) // stride + 1, (w - 1) // stride + 1
    g = cols.reshape(c, 3, 3, b, ho, wo)
    grid = np.zeros((c, b, h + 2, w + 2), dtype=cols.dtype)
    for i in range(3):
        for j in range(3):
            grid[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride] += g[:, i, j]
    return np.ascontiguousarray(grid[:, :, 1:h + 1, 1:w + 1].transpose(1, 0, 2, 3))


def channel_major(x):
    """(B, C, H, W) -> (C, B*H*W): the batch as one GEMM operand."""
    return x.transpose(1, 0, 2, 3).reshape(x.shape[1], -1)


def reference_train(model, samples, config, heldout=None):
    """train() as a plain loop that runs the whole network in every step.

    The oracle for train()'s cached frozen-prefix features: the same
    shuffle, batches, optimizer and per-epoch evaluation, with every step
    and every evaluation starting from the stacked patches.
    """
    config.validate()
    model.set_freeze_prefix(config.freeze_prefix)
    x, y = stack_samples(samples)
    hx, hy = stack_samples(heldout) if heldout else (x, y)
    params = model.named_parameters()
    state = AdamState(params, config.learning_rate)
    shuffle_master = Prng(config.shuffle_seed)
    n = x.shape[0]
    stats = []
    for epoch in range(1, config.epochs + 1):
        perm = shuffle_master.derive(epoch).permutation(n)
        loss_sum = 0.0
        for i in range(0, n, config.batch_size):
            take = perm[i:i + config.batch_size]
            loss, _, grads = model.loss_and_grads(x[take], y[take],
                                                  config.pos_weight)
            adam_step(state, params, grads, model.freeze)
            loss_sum += loss * len(take)
        report = evaluate_batched(model, hx, hy, max(config.batch_size, 16))
        stats.append(EpochStats(epoch, loss_sum / n, report.iou,
                                report.precision, report.recall, report.f1))
    return model, stats


def chunked_step(model, x, target, pos_weight=None, start=0):
    """loss_and_grads as a serial loop over 8-patch chunks at one BLAS thread.

    The oracle for the training step: each chunk is walked from step
    `start`, scored against the whole batch's loss normalizer and walked
    back on the calling thread, and losses and gradients are added in chunk
    order. Returns (loss, logits, grads).
    """
    norm = (target.size if pos_weight is None
            else np.where(target == 1, float(pos_weight), 1.0).sum())
    loss, logits, grads = 0.0, [], {}
    with one_blas_thread():
        for i in range(0, len(x), 8):
            tape = []
            out = model.walk(x[i:i + 8], tape, start)
            part, g = cross_entropy_2class(out, target[i:i + 8], pos_weight,
                                           norm)
            loss += part
            logits.append(out)
            for name, pg in model.backward(tape, g, start).items():
                grads[name] = grads[name] + pg if name in grads else pg
    return loss, np.concatenate(logits), grads
