"""Quadrature weight formulas: frozen hand values and structural properties."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fraclv.solvers import corrector_weights, predictor_weights


def test_corrector_collapses_to_trapezoid():
    # k=1, n=1, h=0.1: classical trapezoid weights
    np.testing.assert_allclose(corrector_weights(1, 1.0, 0.1), [0.05, 0.1, 0.05], rtol=1e-14)


def test_corrector_first_step():
    # k=0, n=1, h=1: i=0 case evaluates to 1 * (1/2), i=k+1 case to 1/2
    np.testing.assert_allclose(corrector_weights(0, 1.0, 1.0), [0.5, 0.5], rtol=1e-14)


@pytest.mark.parametrize("k", [1, 2, 5, 40])
def test_corrector_middle_weights_equal_h_at_order_one(k):
    # (m+2)^2 - 2(m+1)^2 + m^2 = 2 for all m
    h = 0.3
    w = corrector_weights(k, 1.0, h)
    assert w.shape == (k + 2,)
    np.testing.assert_allclose(w[1:-1], h, rtol=1e-14)
    np.testing.assert_allclose(w[[0, -1]], h / 2.0, rtol=1e-14)


def test_predictor_rectangle_at_order_one():
    np.testing.assert_allclose(predictor_weights(2, 1.0, 0.5), [0.5, 0.5, 0.5], rtol=1e-14)


def test_predictor_fractional_exponent():
    # k=1, n=0.5, h=1: (h^n/n) * [(k-i+1)^n - (k-i)^n] evaluated by hand;
    # the prefactor 1/n = 2 applies to both entries
    expected = [2.0 * (math.sqrt(2.0) - 1.0), 2.0]
    np.testing.assert_allclose(predictor_weights(1, 0.5, 1.0), expected, rtol=1e-14)


@pytest.mark.parametrize("k", [0, 3, 17])
def test_predictor_sum_telescopes_at_order_one(k):
    h = 0.25
    w = predictor_weights(k, 1.0, h)
    assert w.shape == (k + 1,)
    np.testing.assert_allclose(w.sum(), (k + 1) * h, rtol=1e-13)


@given(
    k=st.integers(min_value=0, max_value=150),
    n=st.floats(min_value=1e-3, max_value=1.0),
    h=st.floats(min_value=1e-3, max_value=10.0),
)
def test_all_weights_positive(k, n, h):
    assert np.all(corrector_weights(k, n, h) > 0.0)
    assert np.all(predictor_weights(k, n, h) > 0.0)


@pytest.mark.parametrize("func", [corrector_weights, predictor_weights])
def test_rejects_bad_arguments(func):
    with pytest.raises(ValueError):
        func(-1, 1.0, 0.1)
    with pytest.raises(ValueError):
        func(1, 0.0, 0.1)
    with pytest.raises(ValueError):
        func(1, 1.0, 0.0)
    with pytest.raises(ValueError):
        func(1, -0.5, 0.1)
