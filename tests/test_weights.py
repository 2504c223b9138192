"""Caputo ABM weight tables: frozen hand values and structural properties.

``_caputo_weights(num, alpha, h)`` returns (lags, c0, new) with
1/Gamma(alpha) folded in.  ``lags`` is a (num, 2) table in lag order: row m
holds the predictor and the corrector weight of lag m, so at step k the
rows ``lags[k::-1]`` pair with g_0..g_k.  The effective weight of g_0 in the
corrector is ``c0[k] + lags[k, 1]``, so the corrector row of step k is
``[c0[k] + mid[0], *mid[1:], new]`` with ``mid = lags[k::-1, 1]``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fraclv.solvers import _caputo_weights

from oracles import mp_caputo_weights


def corrector_row(k, num, alpha, h):
    lags, c0, new = _caputo_weights(num, alpha, h)
    mid = lags[k::-1, 1]  # lags k..0, paired with g_0..g_k
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
    lags, c0, new = _caputo_weights(k + 1, 1.0, h)
    assert lags.shape == (k + 1, 2)
    assert c0.shape == (k + 1,)
    np.testing.assert_allclose(lags[:, 1], h, rtol=1e-14)
    np.testing.assert_allclose(c0 + lags[:, 1], h / 2.0, rtol=1e-14)
    assert new == pytest.approx(h / 2.0, rel=1e-14)


def test_first_weight_fractional_exponent():
    # k=1, alpha=0.5, h=1: C [k^(a+1) - (k-a) (k+1)^a] with C = 1 / (a (a+1) Gamma(a)),
    # evaluated by hand; at k=0 the bracket is a
    c = 1.0 / (0.75 * math.gamma(0.5))
    lags, c0, _ = _caputo_weights(2, 0.5, 1.0)
    expected = [c * 0.5, c * (1.0 - 0.5 * math.sqrt(2.0))]
    np.testing.assert_allclose(c0 + lags[:, 1], expected, rtol=1e-14)


def test_predictor_rectangle_at_order_one():
    np.testing.assert_allclose(_caputo_weights(3, 1.0, 0.5)[0][:, 0], [0.5, 0.5, 0.5], rtol=1e-14)


def test_predictor_fractional_exponent():
    # k=1, alpha=0.5, h=1: (h^a/a) * [(k-i+1)^a - (k-i)^a] / Gamma(a) evaluated
    # by hand, in lag order m = k-i = 0, 1; the prefactor 1/a = 2 applies to both
    expected = np.array([2.0, 2.0 * (math.sqrt(2.0) - 1.0)]) / math.gamma(0.5)
    np.testing.assert_allclose(_caputo_weights(2, 0.5, 1.0)[0][:, 0], expected, rtol=1e-14)


@pytest.mark.parametrize("k", [0, 3, 17])
def test_predictor_sum_telescopes_at_order_one(k):
    h = 0.25
    pred = _caputo_weights(k + 1, 1.0, h)[0][:, 0]
    assert pred.shape == (k + 1,)
    np.testing.assert_allclose(pred.sum(), (k + 1) * h, rtol=1e-13)


@given(
    k=st.integers(min_value=0, max_value=150),
    n=st.floats(min_value=1e-3, max_value=1.0),
    h=st.floats(min_value=1e-3, max_value=10.0),
)
def test_all_weights_positive(k, n, h):
    lags, c0, new = _caputo_weights(k + 1, n, h)
    assert np.all(lags > 0.0)
    assert np.all(c0 + lags[:, 1] > 0.0)
    assert new > 0.0


@pytest.mark.parametrize("alpha", [0.3, 0.6, 0.98])
def test_lag_weights_do_not_depend_on_the_table_length(alpha):
    # integrate_caputo builds its table for whole blocks of steps, so a run's
    # rows match a longer run's only if the weights of a lag and c0 match
    lags, c0, new = _caputo_weights(5120, alpha, 0.01)
    for num in (1000, 1024, 2048, 3333):
        short, short_c0, short_new = _caputo_weights(num, alpha, 0.01)
        assert short.tobytes() == lags[:num].tobytes()
        assert short_c0.tobytes() == c0[:num].tobytes() and short_new == new


def formula_weights(num, alpha, h):
    """The weights of lags 0..num-1 evaluated formula by formula, each of the
    seven ``**`` on its own contiguous array: (predictor, corrector, c0, new)."""
    inv_gamma = 1.0 / math.gamma(alpha)
    m = np.arange(num, dtype=float)
    scale = h ** alpha / (alpha * (alpha + 1.0))
    pred = inv_gamma * ((h ** alpha / alpha) * ((m + 1.0) ** alpha - m ** alpha))
    corr = inv_gamma * (scale * ((m + 2.0) ** (alpha + 1.0) - 2.0 * (m + 1.0) ** (alpha + 1.0)
                                 + m ** (alpha + 1.0)))
    new = inv_gamma * scale
    first = new * (m ** (alpha + 1.0) - (m - alpha) * (m + 1.0) ** alpha)
    return pred, corr, first - corr, new


@pytest.mark.parametrize("alpha", [0.05, 0.3, 0.6, 0.98, 1.0])
@pytest.mark.parametrize("num", [1, 2, 513, 5000, 20480])
def test_shared_powers_give_the_formula_weights_bit_for_bit(num, alpha):
    # the table takes its seven powers from two arrays, k^a and k^(a+1), by slicing
    lags, c0, new = _caputo_weights(num, alpha, 0.01)
    pred, corr, rest, formula_new = formula_weights(num, alpha, 0.01)
    assert lags[:, 0].tobytes() == pred.tobytes()
    assert lags[:, 1].tobytes() == corr.tobytes()
    assert c0.tobytes() == rest.tobytes() and new == formula_new


@pytest.mark.parametrize("h", [0.01, 0.3, 1.0])
@pytest.mark.parametrize("num", [1, 2, 513, 20480])
def test_weights_are_exact_at_order_one(num, h):
    # at alpha = 1 every bracket is a small integer: each lag weight is exactly h,
    # the predicted value's exactly h/2, and so is the rest of g_0's, -h/2
    lags, c0, new = _caputo_weights(num, 1.0, h)
    assert np.all(lags == h)
    assert new == h / 2.0
    assert np.all(c0 == -h / 2.0)


#: The largest relative error against mpmath of each weight (predictor,
#: corrector, the whole weight c0[k] + lags[k, 1] of g_0), over every 7th lag
#: and alpha in {0.3, 0.6, 0.98}, at h = 0.01.  Measured (CPython 3.11,
#: numpy 2.4.6): 3.3e-13, 4.2e-10 and 2.1e-9 at N = 1,024; 2.0e-12, 1.3e-8
#: and 8.3e-8 at N = 5,000.  The corrector brackets cancel ~2 log10(m)
#: digits, so these bounds, each under twice its measured value, record a
#: defect: ROADMAP item 4 is to bring every weight to a few ulp.
WEIGHT_ERROR_BOUNDS = {1024: (6.6e-13, 8.4e-10, 4.0e-9), 5000: (3.9e-12, 2.5e-8, 1.6e-7)}


@pytest.mark.parametrize("num", sorted(WEIGHT_ERROR_BOUNDS))
def test_weights_against_the_mpmath_formulas(num):
    lags = np.arange(0, num, 7)
    worst = np.zeros(3)
    for alpha in (0.3, 0.6, 0.98):
        table, c0, _ = _caputo_weights(num, alpha, 0.01)
        got = np.column_stack((table[lags], c0[lags] + table[lags, 1]))
        ref = mp_caputo_weights(lags.tolist(), alpha, 0.01)
        worst = np.maximum(worst, np.max(np.abs(got - ref) / np.abs(ref), axis=0))
    assert np.all(worst <= WEIGHT_ERROR_BOUNDS[num]), worst
