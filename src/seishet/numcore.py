"""Numeric primitives: deterministic randomness, activations and softmax.

Tensors are plain numpy arrays in row-major order. Training code runs in
float32; gradient checks run in float64. Functions here preserve the dtype
of their input unless stated otherwise. A training step keeps one array
per GeLU for backward: the derivative that ``gelu_cache`` returns beside
the activation, which ``gelu_grad_cached`` multiplies into the incoming
gradient; the pre-activation itself is not kept.

scipy loads only where one of its functions runs: ``sigmoid`` (SE
attention's gates) calls ``scipy.special.expit``, and the float64
branches of ``gelu``, ``gelu_grad`` and ``gelu_cache`` call its ``erf``.
Importing this module, or a float32 GeLU, does not import scipy.

Randomness is counter based so streams are reproducible and splittable.
``Prng`` wraps numpy's Philox bit generator keyed by a 64-bit seed. Child
streams are derived by mixing (seed, index) through SplitMix64, using the
constants 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9 and 0x94D049BB133111EB.
The same seed yields the same scalar stream on every platform numpy
supports.

``blas_threads`` and ``set_blas_threads`` read and set the thread count
of the OpenBLAS that numpy bundles, through ctypes on its
``scipy_openblas_{get,set}_num_threads64_``. The count is process-wide.
"""

import ctypes
import functools
import math

import numpy as np

from .errors import DimensionError

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
    """Float32 gelu x*Phi(x) and its derivative Phi(x) + x*phi(x) from ufuncs.

    `outputs` names the arrays to return, in order, from "value" and
    "grad". The input is processed in blocks of _GELU_BLOCK elements
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
    value_out, grad_out = out.get("value"), out.get("grad")
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
    from scipy.special import erf
    return 0.5 * x * (1.0 + erf(x * _INV_SQRT2))


def gelu_grad(x):
    """d/dx gelu(x) = Phi(x) + x * phi(x)."""
    x = np.asarray(x)
    if x.dtype == np.float32:
        return _gelu_f32(x, ("grad",))[0]
    from scipy.special import erf
    cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))
    pdf = _INV_SQRT_2PI * np.exp(-0.5 * x * x)
    return cdf + x * pdf


def gelu_cache(x):
    """(gelu(x), gelu_grad(x)): the activation and all its backward reads.

    Float32 input gets both from one _gelu_f32 pass over the same
    exp(-x^2/2); float64 input gets the erf forms of gelu and gelu_grad.
    """
    x = np.asarray(x)
    if x.dtype == np.float32:
        return tuple(_gelu_f32(x, ("value", "grad")))
    from scipy.special import erf
    cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))
    return x * cdf, cdf + x * (_INV_SQRT_2PI * np.exp(-0.5 * x * x))


def gelu_grad_cached(grad_out, derivative):
    """GeLU backward: grad_out times the derivative gelu_cache returned."""
    return grad_out * derivative


@functools.cache
def _openblas_thread_calls():
    """numpy's OpenBLAS (get, set) thread-count functions, or (None, None)."""
    try:
        from numpy._core import _multiarray_umath as core
        lib = ctypes.CDLL(core.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        put = lib.scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):
        return None, None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


def blas_threads():
    """Threads numpy's OpenBLAS runs a product on; 1 when it is not found."""
    get = _openblas_thread_calls()[0]
    return get() if get else 1


def set_blas_threads(count):
    """Set numpy's OpenBLAS thread count, for every thread of the process."""
    put = _openblas_thread_calls()[1]
    if put:
        put(int(count))


def sigmoid(x):
    """Logistic function, computed without overflow for large |x|."""
    from scipy.special import expit
    return expit(np.asarray(x))


def softmax_lastdim(x, out=None):
    """Softmax along the last axis, stabilised by subtracting the row max."""
    x = np.asarray(x)
    if x.ndim < 1 or x.shape[-1] < 1:
        raise DimensionError("softmax needs a last axis of width >= 1")
    e = np.exp(np.subtract(x, x.max(axis=-1, keepdims=True), out=out), out=out)
    e /= e.sum(axis=-1, keepdims=True)
    return e
