"""Numeric core: deterministic streams, activations, gradient oracle."""

import math
import warnings

import numpy as np
import pytest
from scipy.special import erf

from conftest import finite_difference_grad, relative_error
from seishet import numcore
from seishet.errors import DimensionError, EvaluationError
from seishet.numcore import (
    Prng,
    gelu,
    gelu_cache,
    gelu_grad,
    gelu_grad_cached,
    sigmoid,
    softmax_lastdim,
    splitmix64,
)

# Frozen against an arbitrary-precision erf evaluation:
# gelu(1) = 0.5 * (1 + erf(1/sqrt(2))).
GELU_AT_ONE = 0.8413447460685429
# Frozen against a high-precision exponential evaluation: 1/(1+e^-2).
SIGMOID_AT_TWO = 0.8807970779778823


def test_prng_same_seed_same_stream():
    a = Prng(1234).normal(size=(3, 5))
    b = Prng(1234).normal(size=(3, 5))
    np.testing.assert_array_equal(a, b)


def test_prng_distinct_seeds_differ():
    a = Prng(1).uniform(0.0, 1.0, size=64)
    b = Prng(2).uniform(0.0, 1.0, size=64)
    assert not np.array_equal(a, b)


def test_prng_derive_is_stable_and_independent():
    root = Prng(99)
    c1 = root.derive(0).normal(size=16)
    c1_again = Prng(99).derive(0).normal(size=16)
    c2 = root.derive(1).normal(size=16)
    np.testing.assert_array_equal(c1, c1_again)
    assert not np.array_equal(c1, c2)
    # children do not echo the parent stream
    assert not np.array_equal(c1, Prng(99).normal(size=16))


def test_prng_derive_rejects_negative_index():
    with pytest.raises(ValueError):
        Prng(0).derive(-1)


def test_prng_scalar_draws_are_python_scalars():
    p = Prng(5)
    assert isinstance(p.uniform(0.0, 1.0), float)
    assert isinstance(p.normal(), float)
    assert isinstance(p.randint(0, 10), int)


def test_prng_randint_endpoints_inclusive():
    draws = Prng(7).randint(2, 4, size=2000)
    assert set(np.unique(draws)) == {2, 3, 4}


def test_splitmix64_spreads_and_masks():
    assert splitmix64(0) != 0
    assert 0 <= splitmix64(2**64 - 1) < 2**64
    assert splitmix64(1) != splitmix64(2)


def test_gelu_zero_and_saturation():
    assert gelu(np.array(0.0)) == 0.0
    assert abs(gelu(np.array(10.0)) - 10.0) < 1e-6
    assert abs(gelu(np.array(-10.0))) < 1e-6


def test_gelu_at_one_matches_frozen_oracle():
    assert abs(float(gelu(np.array(1.0))) - GELU_AT_ONE) < 1e-7


def test_gelu_grad_matches_finite_difference():
    x = Prng(3).normal(size=6)
    num = np.array(
        [(gelu(xi + 1e-6) - gelu(xi - 1e-6)) / 2e-6 for xi in x]
    )
    np.testing.assert_allclose(gelu_grad(x), num, atol=1e-6)


def test_gelu_cache_consistent_with_plain_forms():
    x = Prng(4).normal(size=(2, 7))
    g = Prng(5).normal(size=(2, 7))
    y, derivative = gelu_cache(x)
    np.testing.assert_allclose(y, gelu(x), rtol=0, atol=0)
    np.testing.assert_allclose(derivative, gelu_grad(x), rtol=0, atol=0)
    np.testing.assert_allclose(gelu_grad_cached(g, derivative), g * gelu_grad(x),
                               rtol=0, atol=0)


# Reference erf forms: float64 GeLU must match them bit for bit, float32
# within 1e-6, and both on edge values.
def _erf_cdf(x):
    return 0.5 * (1.0 + erf(x * (1.0 / math.sqrt(2.0))))


def _erf_pdf_term(x):
    return x * ((1.0 / math.sqrt(2.0 * math.pi)) * np.exp(-0.5 * x * x))


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_gelu_float64_is_bit_identical_to_erf_forms():
    x = np.concatenate([Prng(5).normal(std=3.0, size=4000),
                        np.linspace(-12.0, 12.0, 2001), [0.0, -0.0, 40.0, -40.0]])
    cdf = _erf_cdf(x)
    y, cache = gelu_cache(x)
    assert _same_bits(gelu(x), 0.5 * x * (1.0 + erf(x * (1.0 / math.sqrt(2.0)))))
    assert _same_bits(y, x * cdf)
    assert _same_bits(cache, cdf + _erf_pdf_term(x))
    assert _same_bits(gelu_grad(x), cdf + _erf_pdf_term(x))
    g = Prng(6).normal(size=x.shape)
    assert _same_bits(gelu_grad_cached(g, cache), g * (cdf + _erf_pdf_term(x)))


def test_gelu_float32_within_1e6_of_float64_erf_forms():
    x = np.linspace(-12.0, 12.0, 480_001, dtype=np.float32)
    xd = x.astype(np.float64)
    cdf = _erf_cdf(xd)
    grad = cdf + _erf_pdf_term(xd)
    (phi,) = numcore._gelu_f32(x, ("cdf",))
    y, cache = gelu_cache(x)
    assert phi.dtype == y.dtype == cache.dtype == np.float32
    assert np.abs(phi - cdf).max() <= 1e-6
    assert np.abs(y - xd * cdf).max() <= 1e-6
    assert np.abs(cache - grad).max() <= 1e-6
    assert _same_bits(gelu(x), y)
    assert _same_bits(gelu_grad(x), cache)
    assert _same_bits(gelu_grad_cached(x, cache), x * cache)


def test_gelu_float32_edge_values_match_erf_forms():
    f = np.finfo(np.float32)
    x = np.array([0.0, -0.0, f.smallest_subnormal, -f.smallest_subnormal,
                  f.tiny, -f.tiny, 1e-20, -1e-20, 2e19, -2e19, f.max, -f.max,
                  np.inf, -np.inf, np.nan], dtype=np.float32)
    with np.errstate(all="ignore"):
        cdf = _erf_cdf(x)
        old_value = x * cdf
        old_grad = cdf + _erf_pdf_term(x)
    y, cache = gelu_cache(x)
    # Same bits, signed zeros and NaNs included: gelu(-inf), grad(+-inf)
    # and everything at NaN are NaN, as in the erf forms.
    assert _same_bits(y, old_value)
    assert _same_bits(cache, old_grad)
    assert np.isnan(y[-2:]).all() and np.isnan(cache[-3:]).all()


def test_gelu_float32_emits_no_warning():
    f = np.finfo(np.float32)
    x = np.array([f.max, -f.max, 1e30, -1e30, np.inf, -np.inf, np.nan,
                  f.smallest_subnormal, -0.0], dtype=np.float32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y, cache = gelu_cache(x)
        gelu(x)
        gelu_grad(x)
        gelu_grad_cached(np.ones_like(x), cache)
        numcore._gelu_f32(x, ("cdf",))


def test_gelu_float32_batch_bits_equal_per_patch_across_blocks():
    block = numcore._GELU_BLOCK
    # Each patch is larger than one block and starts at a different offset
    # inside one; the batch also ends partway through a block.
    shape = (3, block // (45 * 53) + 2, 45, 53)
    patch = shape[1] * 45 * 53
    assert patch > block and patch % block
    x = Prng(6).normal(std=2.5, size=shape).astype(np.float32)
    y, cache = gelu_cache(x)
    assert y.shape == cache.shape == shape
    for b in range(shape[0]):
        yb, cb = gelu_cache(x[b])
        assert _same_bits(y[b], yb) and _same_bits(cache[b], cb)
        assert _same_bits(gelu(x[b]), yb) and _same_bits(gelu_grad(x[b]), cb)
    # A non-contiguous view gives the same bits as its contiguous copy.
    view = x.transpose(0, 2, 3, 1)
    assert _same_bits(gelu(view), gelu(np.ascontiguousarray(view)))


def test_sigmoid_values():
    assert sigmoid(np.array(0.0)) == 0.5
    assert abs(float(sigmoid(np.array(2.0))) - SIGMOID_AT_TWO) < 1e-6
    x = Prng(8).uniform(-30.0, 30.0, size=100)
    np.testing.assert_allclose(sigmoid(x) + sigmoid(-x), 1.0, atol=1e-7)
    big = sigmoid(np.array([-1000.0, 1000.0]))
    assert big[0] == 0.0 and big[1] == 1.0  # saturates without overflow


def test_softmax_equal_and_shifted_logits():
    np.testing.assert_allclose(softmax_lastdim(np.array([0.0, 0.0])), [0.5, 0.5])
    np.testing.assert_allclose(
        softmax_lastdim(np.array([1000.0, 1000.0])), [0.5, 0.5]
    )


def test_softmax_matches_direct_formula():
    x = np.array([1.0, 2.0, 3.0])
    direct = np.array([math.exp(v) for v in x])
    direct /= direct.sum()
    np.testing.assert_allclose(softmax_lastdim(x), direct, atol=1e-7)


def test_softmax_rows_sum_to_one_at_large_magnitude():
    x = Prng(13).uniform(-1e3, 1e3, size=(4, 6, 5))
    s = softmax_lastdim(x)
    assert s.min() >= 0.0
    np.testing.assert_allclose(s.sum(axis=-1), 1.0, atol=1e-6)


def test_softmax_rejects_empty_last_axis():
    with pytest.raises(DimensionError):
        softmax_lastdim(np.zeros((2, 0)))


def test_finite_difference_on_sum_of_squares():
    g = finite_difference_grad(lambda v: float((v * v).sum()), np.array([1.0, 2.0]))
    np.testing.assert_allclose(g, [2.0, 4.0], atol=1e-8)


def test_finite_difference_on_constant_is_zero():
    g = finite_difference_grad(lambda v: 3.25, np.array([[1.0, -2.0], [0.5, 4.0]]))
    np.testing.assert_array_equal(g, np.zeros((2, 2)))


def test_finite_difference_leaves_input_untouched():
    x = np.array([1.0, 2.0, 3.0])
    before = x.copy()
    finite_difference_grad(lambda v: float(v.sum() ** 2), x)
    np.testing.assert_array_equal(x, before)


def test_finite_difference_rejects_non_finite_probe():
    with pytest.raises(EvaluationError):
        finite_difference_grad(lambda v: float("nan"), np.array([1.0]))


def test_relative_error_basics():
    assert relative_error(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0
    assert abs(relative_error(np.array([100.0]), np.array([99.0])) - 0.01) < 1e-12
    # near-zero operands do not divide by zero
    assert relative_error(np.zeros(3), np.zeros(3)) == 0.0
    with pytest.raises(DimensionError):
        relative_error(np.zeros(3), np.zeros(4))
