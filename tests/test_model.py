"""Vector field, equilibria, Jacobian and existence conditions."""

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fraclv.model import ModelParams, equilibria, jacobian, vector_field
from fraclv.presets import PRESETS
from fraclv.spectral import characteristic_cubic, cubic_roots
from fraclv.stability import equilibrium_report

from oracles import multiset_distance, rhs

EX1 = PRESETS["example1"].params
EX2 = PRESETS["example2"].params
EX3 = PRESETS["example3"].params

positive_coeff = st.floats(min_value=0.25, max_value=4.0)
params_strategy = st.builds(
    ModelParams, *(positive_coeff for _ in range(7))
)


def test_params_reject_nonpositive():
    with pytest.raises(ValueError):
        ModelParams(3, 0.5, 4, 3, 4, 9, 0.0)
    with pytest.raises(ValueError):
        ModelParams(-1, 0.5, 4, 3, 4, 9, 4)
    # an infinite coefficient once gave E4 = (1.0, nan, nan) with a y row True
    with pytest.raises(ValueError, match="coefficient a5 must be positive and finite, got inf"):
        ModelParams(10, 0.5, 4, 3, math.inf, 9, 1e308)


def test_params_hold_python_floats():
    values = (3.0, 0.5, 4.0, 3.0, 14.0, 9.0, 4.0)
    from_numpy = ModelParams(*np.array(values))
    assert from_numpy.as_tuple() == values
    assert all(type(v) is float for v in from_numpy.as_tuple())
    assert all(type(v) is float for v in ModelParams(3, 1, 4, 1, 5, 9, 2).as_tuple())


def test_numpy_scalars_do_not_reach_the_report():
    # the same report as for float input, down to the types: float points and
    # the shared Table 1 and existence rows, which hold Python bools
    from_numpy = equilibrium_report(ModelParams(*np.array([3.0, 0.5, 4.0, 3.0, 14.0, 9.0, 4.0])), 0.6)
    from_floats = equilibrium_report(EX2, 0.6)
    assert repr(from_numpy) == repr(from_floats)
    for rep in from_numpy:
        assert all(type(v) is float for v in rep.equilibrium.point)
        assert all(type(ok) is bool for _, ok in rep.equilibrium.conditions + rep.table1)
    assert from_numpy[4].equilibrium.conditions[2][1] is True  # E4's z row


def test_params_reject_an_integer_past_the_float_range():
    with pytest.raises(ValueError, match="coefficient a1 must be finite"):
        ModelParams(10**400, 1, 1, 1, 1, 1, 1)


@pytest.mark.parametrize("bad", ["3.0", None, complex(1.0, 0.0), True, [1.0]])
def test_params_reject_a_non_number(bad):
    with pytest.raises(ValueError, match="coefficient a4 must be a real number"):
        ModelParams(3.0, 0.5, 4.0, bad, 14.0, 9.0, 4.0)


state_component = st.floats(min_value=-1e50, max_value=1e50)


@given(params=params_strategy, x=state_component, y=state_component, z=state_component)
def test_vector_field_is_bit_identical_to_rhs(params, x, y, z):
    state = np.array([x, y, z])
    out = np.asarray(vector_field(params)(0.0, state))
    ref = rhs(params, state)
    assert np.array_equal(out, ref)
    assert out.dtype == ref.dtype and out.tobytes() == ref.tobytes()  # signed zeros too


def _source_value(field, state):
    """``field.source`` at ``state``, its placeholders read as the names of
    locals that hold the state's components and the coefficients."""
    exprs, coefficients = field.source
    names = [f"x{i}" for i in range(len(state))] + [f"c{j}" for j in range(len(coefficients))]
    scope = dict(zip(names, [*state, *coefficients]))
    return tuple(eval(e.format(**{n: n for n in names}), {}, scope) for e in exprs)


overflowing = (st.floats() | st.floats(min_value=1e150, max_value=1.7e308)
               | st.floats(min_value=-1.7e308, max_value=-1e150))
huge_coeff = positive_coeff | st.floats(min_value=1e150, max_value=1e308)


@given(params=st.builds(ModelParams, *(huge_coeff for _ in range(7))),
       state=st.tuples(overflowing, overflowing, overflowing))
@example(params=EX1, state=(1e200, -1e200, 1e200))  # x * x and its sums overflow to +-inf
@example(params=EX1, state=(math.inf, 0.0, math.nan))  # inf * 0 and nan
@settings(max_examples=200)
def test_source_text_is_bit_identical_to_the_rhs_oracle(params, state):
    # what the step loops evaluate inline, and the call compiled from the same
    # text, against the hand-written oracle on Python floats, down to the sign
    # of zeros and the bits of the NaNs where they overflow
    field = vector_field(params)
    want = struct.pack("3d", *rhs(params, list(state)))
    assert struct.pack("3d", *_source_value(field, state)) == want
    assert struct.pack("3d", *field(0.0, np.array(state))) == want


def test_rhs_vanishes_at_interior_equilibrium():
    np.testing.assert_allclose(rhs(EX2, [1.0, 1.0, 1.5]), 0.0, atol=1e-12)


def test_rhs_at_origin():
    assert np.array_equal(rhs(EX1, [0.0, 0.0, 0.0]), np.zeros(3))


def test_rhs_hand_substitution():
    # x(a1 - a2 x - y - z) = 0.5 * 1.75, y((1-a3) + a4 x) = 0.9 * (-1.5),
    # z((1-a5) + a6 x + a7 y) = 0.1 * 5.1
    np.testing.assert_allclose(
        rhs(EX1, [0.5, 0.9, 0.1]), [0.875, -1.35, 0.51], atol=1e-12
    )


def test_equilibria_example1():
    eqs = {eq.kind: eq for eq in equilibria(EX1)}
    np.testing.assert_allclose(eqs["E1"].point, [6.0, 0.0, 0.0])
    assert eqs["E1"].admissible
    np.testing.assert_allclose(eqs["E2"].point, [1.0 / 3.0, 0.0, 17.0 / 6.0], atol=1e-12)
    np.testing.assert_allclose(eqs["E4"].point, [1.0, -1.5, 4.0], atol=1e-12)
    assert not eqs["E4"].admissible


def test_equilibria_example3_repaired_coefficients():
    eqs = {eq.kind: eq for eq in equilibria(EX3)}
    np.testing.assert_allclose(eqs["E1"].point, [160.0, 0.0, 0.0])
    np.testing.assert_allclose(eqs["E2"].point, [2.0 / 3.0, 0.0, 71.7 / 9.0], atol=1e-12)
    np.testing.assert_allclose(eqs["E3"].point, [3.0, 7.85, 0.0], atol=1e-12)
    np.testing.assert_allclose(eqs["E4"].point, [3.0, -5.25, 13.1], atol=1e-12)
    assert not eqs["E4"].admissible


@given(params=params_strategy)
@settings(max_examples=60)
def test_origin_always_present_and_admissible(params):
    eqs = equilibria(params)
    assert tuple(eq.kind for eq in eqs) == ("E0", "E1", "E2", "E3", "E4")
    assert np.array_equal(eqs[0].point, np.zeros(3))
    assert eqs[0].admissible
    assert eqs[1].admissible  # E1 = (a1/a2, 0, 0) with positive coefficients


@given(params=params_strategy)
@settings(max_examples=60)
def test_fixed_point_residual(params):
    # closed forms must zero the field; bound point size so float rounding
    # stays under the coefficient-relative budget
    eqs = equilibria(params)
    for eq in eqs:
        if np.max(np.abs(eq.point)) > 50.0:
            continue
        tol = 1e-12 * max(1.0, *params.as_tuple())
        assert np.max(np.abs(rhs(params, eq.point))) <= tol


@pytest.mark.parametrize("params", [EX1, EX2, EX3])
def test_fixed_point_residual_presets(params):
    tol = 1e-12 * max(1.0, *params.as_tuple())
    for eq in equilibria(params):
        assert np.max(np.abs(rhs(params, eq.point))) <= tol


@given(
    params=params_strategy,
    x=st.floats(-5, 5),
    y=st.floats(-5, 5),
    z=st.floats(-5, 5),
)
@settings(max_examples=60)
def test_axis_invariance_is_exact(params, x, y, z):
    assert rhs(params, [x, 0.0, z])[1] == 0.0
    assert rhs(params, [x, y, 0.0])[2] == 0.0


def test_jacobian_at_origin_is_diagonal():
    np.testing.assert_array_equal(
        jacobian(EX1, [0.0, 0.0, 0.0]), np.diag([3.0, -3.0, -3.0])
    )


@given(params=params_strategy)
@settings(max_examples=40)
def test_jacobian_off_diagonals_vanish_at_origin(params):
    j = jacobian(params, [0.0, 0.0, 0.0])
    assert np.count_nonzero(j - np.diag(np.diag(j))) == 0


def test_jacobian_spectrum_example2_interior():
    spec = cubic_roots(characteristic_cubic(jacobian(EX2, [1.0, 1.0, 1.5])))
    printed = [complex(0.276, -4.123), complex(0.276, 4.123), complex(-1.053, 0.0)]
    assert multiset_distance(spec.eigenvalues, printed) < 1e-2


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(7)
    h = 1e-5
    for _ in range(100):
        params = ModelParams(*rng.uniform(0.3, 3.0, 7))
        point = rng.uniform(0.1, 3.0, 3)
        j = jacobian(params, point)
        fd = np.empty((3, 3))
        for col in range(3):
            dp = np.zeros(3)
            dp[col] = h
            fd[:, col] = (rhs(params, point + dp) - rhs(params, point - dp)) / (2.0 * h)
        assert np.max(np.abs(fd - j)) < 1e-6


def test_e1_spectrum_literal_form():
    # J(E1) is triangular: spectrum is {-a1, 1-a3+a1*a4/a2, 1-a5+a1*a6/a2}
    for params in (EX1, EX2, EX3):
        a1, a2, a3, a4, a5, a6, a7 = params.as_tuple()
        e1 = {eq.kind: eq for eq in equilibria(params)}["E1"]
        spec = cubic_roots(characteristic_cubic(jacobian(params, e1.point)))
        literal = [-a1, 1.0 - a3 + a1 * a4 / a2, 1.0 - a5 + a1 * a6 / a2]
        scale = max(1.0, max(abs(v) for v in literal))
        assert multiset_distance(spec.eigenvalues, literal) < 1e-9 * scale


def test_existence_report_example1():
    eqs = equilibria(EX1)
    e4_rows = dict(eqs[4].conditions)
    assert eqs[4].kind == "E4"
    assert e4_rows["y >= 0: a4*(a5 - 1) >= a6*(a3 - 1)"] is False  # y4 = -1.5
    assert all(ok for eq in eqs[:2] for _, ok in eq.conditions)  # E0, E1


def test_existence_report_example2_all_admissible():
    assert all(ok for eq in equilibria(EX2) for _, ok in eq.conditions)
    assert all(eq.admissible for eq in equilibria(EX2))


def test_degenerate_a3_boundary():
    # a3 = 1 makes every (a3 - 1) term vanish: E3 = (0, a1*a4/a4, 0) = (0, a1, 0);
    # a4 = 2 keeps the division exact in floats
    params = ModelParams(3.0, 0.5, 1.0, 2.0, 4.0, 9.0, 4.0)
    e3 = {eq.kind: eq for eq in equilibria(params)}["E3"]
    assert e3.point[0] == 0.0
    assert e3.point[1] == params.a1
    assert e3.point[2] == 0.0
    np.testing.assert_allclose(rhs(params, e3.point), 0.0, atol=1e-13)


def test_points_and_jacobians_are_float_tuples():
    for eq in equilibria(EX1):
        assert type(eq.point) is tuple and len(eq.point) == 3
        assert all(type(v) is float for v in eq.point)
        j = jacobian(EX1, eq.point)
        assert type(j) is tuple and len(j) == 3
        assert all(type(row) is tuple and len(row) == 3 for row in j)
        assert all(type(v) is float for row in j for v in row)


def test_equilibria_are_hashable_values():
    first, second = equilibria(EX2), equilibria(EX2)
    assert first == second
    assert [hash(eq) for eq in first] == [hash(eq) for eq in second]
    with pytest.raises(TypeError):
        first[4].point[0] = 99.0
    assert first == second


def test_e4_with_an_underflowed_denominator():
    # a7 * a4 = 5e-324 * 1e-320 underflows to 0: E4's y and z are the IEEE
    # quotients, signed inf for a nonzero numerator and NaN for 0/0
    e4 = equilibria(ModelParams(3.0, 0.5, 4.0, 1e-320, 4.0, 9.0, 5e-324))[4]
    assert e4.point == (math.inf, -math.inf, math.inf)
    assert not e4.admissible
    # a3 = a5 = 1 zeroes both numerators
    e4 = equilibria(ModelParams(3.0, 0.5, 1.0, 1e-320, 1.0, 9.0, 5e-324))[4]
    assert e4.point[0] == 0.0 and math.isnan(e4.point[1]) and math.isnan(e4.point[2])
    assert not e4.admissible
