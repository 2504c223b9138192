"""Caputo ABM weight tables: frozen hand values and structural properties.

``_caputo_tables(num, alpha, h)`` returns (lagged, c0, new) with
1/Gamma(alpha) folded in.  ``lagged`` is a (num, 2) table whose row num-1-m
holds the predictor and the corrector weight of lag m, so at step k the tail
``lagged[num-1-k:]`` pairs with g_0..g_k.  The effective weight of g_0 in the
corrector is ``c0[k] + lagged[num-1-k, 1]``, so the corrector row of step k
is ``[c0[k] + mid[0], *mid[1:], new]`` with ``mid = lagged[num-1-k:, 1]``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fraclv.solvers import _caputo_tables


def first_weights(lagged, c0):
    """The effective weight of g_0 at each step k: c0[k] plus the lag-k corrector weight."""
    return c0 + lagged[::-1, 1]


def corrector_row(k, num, alpha, h):
    lagged, c0, new = _caputo_tables(num, alpha, h)
    mid = lagged[num - 1 - k :, 1]  # lags k..0, paired with g_0..g_k
    return np.concatenate(([c0[k] + mid[0]], mid[1:], [new]))


def test_corrector_collapses_to_trapezoid():
    # k=1, alpha=1, h=0.1: classical trapezoid weights
    np.testing.assert_allclose(corrector_row(1, 2, 1.0, 0.1), [0.05, 0.1, 0.05], rtol=1e-14)


def test_corrector_first_step():
    # k=0, alpha=1, h=1: the initial-value weight 1 * (1/2), the predicted-value weight 1/2
    np.testing.assert_allclose(corrector_row(0, 1, 1.0, 1.0), [0.5, 0.5], rtol=1e-14)


@pytest.mark.parametrize("k", [1, 2, 5, 40])
def test_corrector_middle_weights_equal_h_at_order_one(k):
    # (m+2)^2 - 2(m+1)^2 + m^2 = 2 for all m
    h = 0.3
    lagged, c0, new = _caputo_tables(k + 1, 1.0, h)
    assert lagged.shape == (k + 1, 2)
    assert c0.shape == (k + 1,)
    np.testing.assert_allclose(lagged[:, 1], h, rtol=1e-14)
    np.testing.assert_allclose(first_weights(lagged, c0), h / 2.0, rtol=1e-14)
    assert new == pytest.approx(h / 2.0, rel=1e-14)


def test_first_weight_fractional_exponent():
    # k=1, alpha=0.5, h=1: C [k^(a+1) - (k-a) (k+1)^a] with C = 1 / (a (a+1) Gamma(a)),
    # evaluated by hand; at k=0 the bracket is a
    c = 1.0 / (0.75 * math.gamma(0.5))
    lagged, c0, _ = _caputo_tables(2, 0.5, 1.0)
    expected = [c * 0.5, c * (1.0 - 0.5 * math.sqrt(2.0))]
    np.testing.assert_allclose(first_weights(lagged, c0), expected, rtol=1e-14)


def test_predictor_rectangle_at_order_one():
    np.testing.assert_allclose(_caputo_tables(3, 1.0, 0.5)[0][:, 0], [0.5, 0.5, 0.5], rtol=1e-14)


def test_predictor_fractional_exponent():
    # k=1, alpha=0.5, h=1: (h^a/a) * [(k-i+1)^a - (k-i)^a] / Gamma(a) evaluated
    # by hand; the prefactor 1/a = 2 applies to both entries
    expected = np.array([2.0 * (math.sqrt(2.0) - 1.0), 2.0]) / math.gamma(0.5)
    np.testing.assert_allclose(_caputo_tables(2, 0.5, 1.0)[0][:, 0], expected, rtol=1e-14)


@pytest.mark.parametrize("k", [0, 3, 17])
def test_predictor_sum_telescopes_at_order_one(k):
    h = 0.25
    pred = _caputo_tables(k + 1, 1.0, h)[0][:, 0]
    assert pred.shape == (k + 1,)
    np.testing.assert_allclose(pred.sum(), (k + 1) * h, rtol=1e-13)


@given(
    k=st.integers(min_value=0, max_value=150),
    n=st.floats(min_value=1e-3, max_value=1.0),
    h=st.floats(min_value=1e-3, max_value=10.0),
)
def test_all_weights_positive(k, n, h):
    lagged, c0, new = _caputo_tables(k + 1, n, h)
    assert np.all(lagged > 0.0)
    assert np.all(first_weights(lagged, c0) > 0.0)
    assert new > 0.0
