"""Shared fixture builders and reference oracles for the test suite."""

import math
import os
import struct

import numpy as np
import pytest

from seishet.attention import relative_logits
from seishet.errors import DimensionError, EvaluationError
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
