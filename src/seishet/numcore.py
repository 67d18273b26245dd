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


def gelu(x):
    """x * Phi(x) with the exact erf-based Gaussian CDF."""
    x = np.asarray(x)
    return 0.5 * x * (1.0 + erf(x * _INV_SQRT2))


def gelu_grad(x):
    """d/dx gelu(x) = Phi(x) + x * phi(x)."""
    x = np.asarray(x)
    cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))
    pdf = _INV_SQRT_2PI * np.exp(-0.5 * x * x)
    return cdf + x * pdf


def gelu_cache(x):
    """gelu(x) along with the Gaussian CDF term, reusable in backward."""
    x = np.asarray(x)
    cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))
    return x * cdf, cdf


def gelu_grad_cached(x, cdf):
    """gelu_grad(x) given the CDF already computed by gelu_cache."""
    return cdf + x * (_INV_SQRT_2PI * np.exp(-0.5 * x * x))


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
