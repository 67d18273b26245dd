"""Numeric primitives: deterministic randomness, activations, and a
finite-difference gradient oracle.

Tensors are plain numpy arrays in row-major order. Training code runs in
float32; gradient checks run in float64. Functions here preserve the dtype
of their input unless stated otherwise.

Randomness is counter based so streams are reproducible and splittable.
``Prng`` wraps numpy's Philox bit generator keyed by a 64-bit seed. Child
streams are derived by mixing (seed, index) through SplitMix64, using the
constants 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9 and 0x94D049BB133111EB.
The same seed yields the same scalar stream on every platform numpy
supports.
"""

import math

import numpy as np
from scipy.special import erf, expit

from .errors import DimensionError, EvaluationError

_MASK64 = (1 << 64) - 1

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def splitmix64(value):
    """One SplitMix64 step: mix a 64-bit integer into a well-spread hash."""
    z = (int(value) + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class Prng:
    """Deterministic random stream with cheap independent child streams.

    ``derive(index)`` hashes the parent seed together with the index so that
    children neither overlap each other nor the parent, and deriving the
    same index twice gives the same stream.
    """

    def __init__(self, seed):
        self.seed = int(seed) & _MASK64
        self._gen = np.random.Generator(np.random.Philox(key=self.seed))

    def derive(self, index):
        if index < 0:
            raise ValueError("derive index must be nonnegative")
        return Prng(splitmix64(self.seed ^ splitmix64(index)))

    def uniform(self, low, high, size=None, dtype=np.float64):
        if size is None:
            return float(self._gen.uniform(low, high))
        return self._gen.uniform(low, high, size).astype(dtype, copy=False)

    def normal(self, mean=0.0, std=1.0, size=None, dtype=np.float64):
        if size is None:
            return float(self._gen.normal(mean, std))
        return self._gen.normal(mean, std, size).astype(dtype, copy=False)

    def randint(self, low, high, size=None):
        """Integers drawn uniformly from [low, high] inclusive."""
        if size is None:
            return int(self._gen.integers(low, high, endpoint=True))
        return self._gen.integers(low, high, size=size, endpoint=True)

    def permutation(self, n):
        return self._gen.permutation(n)


def matmul(a, b):
    """Product of two rank-2 tensors."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionError(
            "matmul expects rank-2 operands, got ranks %d and %d" % (a.ndim, b.ndim)
        )
    if a.shape[1] != b.shape[0]:
        raise DimensionError(
            "matmul shapes do not chain: %s x %s" % (a.shape, b.shape)
        )
    return a @ b


# Float32 GeLU: Abramowitz & Stegun 7.1.26 for erf, rewritten for the
# Gaussian CDF as Phi(-|x|) = poly(t) * exp(-x^2/2) with
# t = 1 / (1 + p |x| / sqrt 2) and the factor 1/2 folded into the
# coefficients (a5 first, for Horner). Max abs error of Phi, gelu and its
# derivative on float32 inputs: under 5e-7 against the erf forms.
_AS_P = 0.3275911 * _INV_SQRT2
_AS_HALF_COEFFS = tuple(0.5 * a for a in (
    1.061405429, -1.453152027, 1.421413741, -0.284496736, 0.254829592))
_SIGN32 = np.uint32(0x80000000)
_GELU_BLOCK = 32768


def _gelu_f32(x, outputs):
    """Float32 Phi(x), x*Phi(x) and Phi(x) + x*phi(x) from numpy ufuncs.

    `outputs` names the arrays to return, in order, from "cdf", "value"
    and "grad". The input is processed in blocks of _GELU_BLOCK elements
    through block-sized scratch buffers, so no full-size temporary is made;
    every step is elementwise, so an element's bits do not depend on its
    block. Overflow of x*x (|x| > 1.8e19) gives exp(-inf) = 0 as intended,
    and inf*0 = nan at x = -inf (gelu) or +-inf (grad) matches the erf
    forms; both are computed with those warnings silenced.
    """
    shape = x.shape
    flat = np.ascontiguousarray(x).reshape(-1)
    n = flat.size
    out = {name: np.empty(n, np.float32) for name in outputs}
    cdf_out, value_out, grad_out = (out.get(k) for k in ("cdf", "value", "grad"))
    m = min(n, _GELU_BLOCK)
    e, t, cdf = (np.empty(m, np.float32) for _ in range(3))
    sign = np.empty(m, np.uint32)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, n, _GELU_BLOCK):
            hi = min(lo + _GELU_BLOCK, n)
            xb = flat[lo:hi]
            eb, tb, cb, sb = e[:hi - lo], t[:hi - lo], cdf[:hi - lo], sign[:hi - lo]
            np.abs(xb, out=tb)
            np.multiply(tb, tb, out=eb)
            np.multiply(eb, -0.5, out=eb)
            np.exp(eb, out=eb)
            np.multiply(tb, _AS_P, out=tb)
            np.add(tb, 1.0, out=tb)
            np.divide(1.0, tb, out=tb)
            np.multiply(tb, _AS_HALF_COEFFS[0], out=cb)
            for a in _AS_HALF_COEFFS[1:]:
                cb += a
                cb *= tb
            cb *= eb                          # Phi(-|x|)
            np.subtract(0.5, cb, out=cb)      # |Phi(x) - 1/2|, then x's sign
            np.bitwise_and(xb.view(np.uint32), _SIGN32, out=sb)
            np.bitwise_or(cb.view(np.uint32), sb, out=cb.view(np.uint32))
            cb += 0.5                         # Phi(x)
            if cdf_out is not None:
                cdf_out[lo:hi] = cb
            if value_out is not None:
                np.multiply(xb, cb, out=value_out[lo:hi])
            if grad_out is not None:
                gb = grad_out[lo:hi]
                np.multiply(xb, eb, out=gb)
                gb *= _INV_SQRT_2PI
                gb += cb
    return [out[name].reshape(shape) for name in outputs]


def gelu(x):
    """x * Phi(x): the exact erf form, or _gelu_f32 for float32 input."""
    x = np.asarray(x)
    if x.dtype == np.float32:
        return _gelu_f32(x, ("value",))[0]
    return 0.5 * x * (1.0 + erf(x * _INV_SQRT2))


def gelu_grad(x):
    """d/dx gelu(x) = Phi(x) + x * phi(x)."""
    x = np.asarray(x)
    if x.dtype == np.float32:
        return _gelu_f32(x, ("grad",))[0]
    cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))
    pdf = _INV_SQRT_2PI * np.exp(-0.5 * x * x)
    return cdf + x * pdf


def gelu_cache(x):
    """gelu(x) along with the term its backward needs.

    That term is the Gaussian CDF for float64 input and the whole
    derivative gelu_grad(x) for float32 input, computed from the same
    exp(-x^2/2); either way one array per activation.
    """
    x = np.asarray(x)
    if x.dtype == np.float32:
        return tuple(_gelu_f32(x, ("value", "grad")))
    cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))
    return x * cdf, cdf


def gelu_grad_cached(x, cache):
    """gelu_grad(x) given the cache term returned by gelu_cache."""
    if np.asarray(x).dtype == np.float32:
        return cache
    return cache + x * (_INV_SQRT_2PI * np.exp(-0.5 * x * x))


def sigmoid(x):
    """Logistic function, computed without overflow for large |x|."""
    return expit(np.asarray(x))


def softmax_lastdim(x, out=None):
    """Softmax along the last axis, stabilised by subtracting the row max."""
    x = np.asarray(x)
    if x.ndim < 1 or x.shape[-1] < 1:
        raise DimensionError("softmax needs a last axis of width >= 1")
    e = np.exp(np.subtract(x, x.max(axis=-1, keepdims=True), out=out), out=out)
    e /= e.sum(axis=-1, keepdims=True)
    return e


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
