"""Characteristic cubic, closed-form roots, and the Routh-Hurwitz oracle.

The companion-matrix oracle is validated first (constructed roots), then the
closed-form branches are checked against it and against frozen values.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fraclv.model import equilibria, jacobian
from fraclv.presets import PRESETS
from fraclv.spectral import (
    BRANCH_ONE_REAL_PAIR,
    BRANCH_REPEATED,
    BRANCH_THREE_REAL,
    SAFE_SCALE,
    CubicCoefficients,
    _jacobian_spectrum,
    characteristic_cubic,
    cubic_roots,
)

from oracles import (
    coefficients_from_roots,
    companion_eigenvalues,
    cubic_value,
    mp_cubic_roots,
    multiset_distance,
    random_cubic,
    routh_hurwitz_cubic,
)

EX1 = PRESETS["example1"].params
EX2 = PRESETS["example2"].params
EX3 = PRESETS["example3"].params


# ---------------------------------------------------------------------------
# oracle validation (before anything relies on it)


def test_oracle_recovers_constructed_separated_roots():
    rng = np.random.default_rng(3)
    for _ in range(200):
        roots = np.sort(rng.uniform(-5.0, 5.0, 3))
        if min(np.diff(roots)) < 0.2:
            continue
        a, b, c = coefficients_from_roots(*roots)
        got = companion_eigenvalues(a, b, c)
        assert multiset_distance(got, roots) < 1e-10


def test_oracle_recovers_constructed_conjugate_pairs():
    rng = np.random.default_rng(4)
    for _ in range(200):
        r = rng.uniform(-5.0, 5.0)
        re, im = rng.uniform(-5.0, 5.0), rng.uniform(0.2, 5.0)
        a, b, c = coefficients_from_roots(r, complex(re, im), complex(re, -im))
        got = companion_eigenvalues(a, b, c)
        assert multiset_distance(got, [r, complex(re, im), complex(re, -im)]) < 1e-10


def test_oracle_resolves_exact_double_roots():
    # dyadic coefficients are exact, so the true roots are exactly (r, r, s);
    # the extended-precision refinement must get inside the 1e-9 budget that
    # plain companion eigenvalues (~sqrt(eps)) would miss
    for r, s in ((1.0, -2.0), (0.75, 2.5), (-3.25, 0.5), (2.0, 2.25)):
        a, b, c = -(2 * r + s), r * r + 2 * r * s, -(r * r * s)
        got = companion_eigenvalues(a, b, c)
        assert multiset_distance(got, [r, r, s]) < 5e-10


# ---------------------------------------------------------------------------
# characteristic cubic


def test_identity_matrix_cubic():
    coeffs = characteristic_cubic(np.eye(3))
    assert (coeffs.a, coeffs.b, coeffs.c) == (-3.0, 3.0, -1.0)
    spec = cubic_roots(coeffs)
    assert multiset_distance(spec.eigenvalues, [1.0, 1.0, 1.0]) < 1e-12


def test_random_matrix_coefficients_match_eigvals_oracle():
    rng = np.random.default_rng(11)
    for _ in range(100):
        m = rng.normal(size=(3, 3))
        coeffs = characteristic_cubic(m)
        mine = cubic_roots(coeffs).eigenvalues
        ref = np.linalg.eigvals(m)
        assert multiset_distance(mine, ref) < 1e-8


def test_e2_block_structure_example1():
    # J(E2) has the (w - D)(w^2 - A w - C E) factorization; frozen spectrum
    e2 = {eq.kind: eq for eq in equilibria(EX1)}["E2"]
    spec = cubic_roots(characteristic_cubic(jacobian(EX1, e2.point)))
    printed = [complex(-0.083, -2.914), complex(-0.083, 2.914), -2.0]
    assert multiset_distance(spec.eigenvalues, printed) < 1e-2
    assert any(abs(w - (-2.0)) < 1e-9 for w in spec.eigenvalues)


def test_characteristic_cubic_rejects_wrong_shape():
    with pytest.raises(ValueError):
        characteristic_cubic(np.eye(2))


def test_characteristic_cubic_reads_any_3x3_sequence():
    # the Jacobian's float tuples, the same rows as lists and as an ndarray
    e4 = equilibria(EX2)[4]
    j = jacobian(EX2, e4.point)
    assert type(j) is tuple
    forms = (j, [list(row) for row in j], np.array(j))
    coeffs = [characteristic_cubic(m) for m in forms]
    assert len({(c.a.hex(), c.b.hex(), c.c.hex()) for c in coeffs}) == 1
    assert all(type(v) is float for c in coeffs for v in (c.a, c.b, c.c))
    # ints, numpy integer scalars and Fractions give the bits of their floats
    ints = np.random.default_rng(5).integers(-9, 10, size=(3, 3))
    for m in (ints, ints.tolist(), [[Fraction(int(v), 3) for v in row] for row in ints]):
        floats = [[float(v) for v in row] for row in m]
        assert repr(characteristic_cubic(m)) == repr(characteristic_cubic(floats))


@pytest.mark.parametrize("matrix", [
    np.ones((3, 4)),
    [[1.0, 2.0, 3.0], [4.0, 5.0], [7.0, 8.0, 9.0]],
    [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0, 0.0], [7.0, 8.0, 9.0]],
    [[1.0, 2.0, 3.0]] * 4,
    [1.0, 2.0, 3.0],
])
def test_characteristic_cubic_rejects_non_3x3(matrix):
    with pytest.raises(ValueError, match="3x3"):
        characteristic_cubic(matrix)


@pytest.mark.parametrize("matrix,message", [
    ([["1", "0", "0"], ["0", " 2 ", "0"], [True, "0", "3e0"]],
     "matrix entry (0, 0) must be a real number, got '1'"),
    ([[1, 0, 0], [0, 2, 0], [True, 0, 3]], "matrix entry (2, 0) must be a real number, got True"),
    ([[1.0, 0.0, None], [0.0, 2.0, 0.0], [0.0, 0.0, 3.0]],
     "matrix entry (0, 2) must be a real number, got None"),
    ([[1.0, 0.0, 0.0], [0.0, 2.0, 1j], [0.0, 0.0, 3.0]],
     "matrix entry (1, 2) must be a real number, got 1j"),
    ([[1.0, 0.0, 0.0], [0.0, 10 ** 400, 0.0], [0.0, 0.0, 3.0]],
     "matrix entry (1, 1) must be finite, got an integer past the float range"),
], ids=["str", "True", "None", "complex", "huge-int"])
def test_characteristic_cubic_follows_the_real_number_rule(matrix, message):
    with pytest.raises(ValueError) as info:
        characteristic_cubic(matrix)
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# cubic analysis


@pytest.mark.parametrize("coeffs", [
    (1e200, 0.0, 0.0),  # a ** 3 overflows
    (0.0, -1e200, 0.0),  # p ** 3 overflows
    (0.0, 0.0, 1e300),  # delta and the tolerance overflow to inf
    (1e200, 1e200, 1e200),
])
def test_overflowing_cubic_terms_raise_value_error(coeffs):
    # (0, 0, 1e300) used to take the repeated branch and return -1.587e100 and
    # 7.94e99 twice; the roots of w^3 = -1e300 are -1e100 and 5e99 +- 8.66e99i
    with pytest.raises(ValueError, match="overflow the float range"):
        cubic_roots(CubicCoefficients(*coeffs))


def test_tiny_cubic_roots_match_the_mpmath_reference():
    # w^3 + 1e-320: unscaled, delta and its tolerance underflow and the
    # repeated branch gave moduli 3.42e-107 and 1.71e-107; every root has
    # modulus c^(1/3) ~ 2.15e-107 (c is the subnormal nearest 1e-320)
    spec = cubic_roots(CubicCoefficients(0.0, 0.0, 1e-320))
    ref = mp_cubic_roots(0.0, 0.0, 1e-320)
    modulus = abs(ref[0])
    assert 2.15e-107 < modulus < 2.16e-107
    for w, r in zip(spec.eigenvalues, ref):
        assert abs(w - r) <= 1e-9 * abs(r)
        assert abs(abs(w) - modulus) <= 1e-9 * modulus
    assert spec.branch == BRANCH_ONE_REAL_PAIR
    assert spec.eigenvalues[1] == spec.eigenvalues[2].conjugate()


@pytest.mark.parametrize("roots", [
    (1.0, complex(-0.5, 2.0), complex(-0.5, -2.0)),  # one real and a pair
    (-3.0, 0.5, 2.0),  # three real
    (1.0, 1.0, -2.0),  # repeated
    (-1.0, -1.0, -1.0),  # triple
])
@pytest.mark.parametrize("k", [-200, -330])
def test_cubics_below_the_safe_scale_are_solved_rescaled(roots, k):
    # (a, b, c) = (a0 2^k, b0 4^k, c0 8^k) is exact and has roots 2^k times the
    # given ones; their scale is below SAFE_SCALE = 2^-150, so delta ~ S^6
    # would underflow unscaled
    a0, b0, c0 = coefficients_from_roots(*roots)
    a, b, c = math.ldexp(a0, k), math.ldexp(b0, 2 * k), math.ldexp(c0, 3 * k)
    spec = cubic_roots(CubicCoefficients(a, b, c))
    ref = mp_cubic_roots(a, b, c)
    # a double root is only defined to ~sqrt(eps) of the cubic's scale
    tol = 1e-7 if len(set(roots)) < 3 else 1e-9
    assert multiset_distance(spec.eigenvalues, ref) <= tol * 2.0 ** k * 3.0
    assert multiset_distance(spec.eigenvalues, [w * 2.0 ** k for w in roots]) <= tol * 2.0 ** k * 3.0


def test_safe_scale_boundary():
    # at SAFE_SCALE the cubic is solved as given: its spectrum has p = -a^2/3
    # of the given a; just below it p is that of the rescaled cubic
    at = cubic_roots(CubicCoefficients(SAFE_SCALE, 0.0, 0.0))
    assert at.p == -SAFE_SCALE ** 2 / 3.0
    below = cubic_roots(CubicCoefficients(SAFE_SCALE / 2.0, 0.0, 0.0))
    assert 0.01 < abs(below.p) < 1.0
    assert below.eigenvalues[0] == -SAFE_SCALE / 2.0


def test_analysis_repeated_example():
    spec = cubic_roots(CubicCoefficients(0.0, -3.0, 2.0))  # (w-1)^2 (w+2)
    assert (spec.p, spec.q) == (-3.0, 2.0)
    assert abs(spec.delta) < 1e-15
    assert spec.branch == BRANCH_REPEATED


def test_analysis_one_real_pair_example():
    spec = cubic_roots(CubicCoefficients(0.0, 0.0, -1.0))  # w^3 = 1
    assert (spec.p, spec.q) == (0.0, -1.0)
    assert spec.delta == pytest.approx(0.25)
    assert spec.branch == BRANCH_ONE_REAL_PAIR


def test_analysis_three_real_example():
    spec = cubic_roots(CubicCoefficients(0.0, -1.0, 0.0))  # w^3 = w
    assert (spec.p, spec.q) == (-1.0, 0.0)
    assert spec.delta == pytest.approx(-1.0 / 27.0)
    assert spec.branch == BRANCH_THREE_REAL


# ---------------------------------------------------------------------------
# roots


def test_unit_cube_roots():
    spec = cubic_roots(CubicCoefficients(0.0, 0.0, -1.0))
    expected = [complex(-0.5, -np.sqrt(3.0) / 2.0), complex(-0.5, np.sqrt(3.0) / 2.0), 1.0]
    assert multiset_distance(spec.eigenvalues, expected) < 1e-12


def test_repeated_roots_frozen():
    spec = cubic_roots(CubicCoefficients(0.0, -3.0, 2.0))
    assert multiset_distance(spec.eigenvalues, [-2.0, 1.0, 1.0]) < 1e-12


def test_three_real_roots_frozen():
    spec = cubic_roots(CubicCoefficients(0.0, -1.0, 0.0))
    assert multiset_distance(spec.eigenvalues, [-1.0, 0.0, 1.0]) < 1e-12


def test_example2_interior_cubic_matches_printed_values():
    e4 = {eq.kind: eq for eq in equilibria(EX2)}["E4"]
    spec = cubic_roots(characteristic_cubic(jacobian(EX2, e4.point)))
    printed = [complex(0.276, -4.123), complex(0.276, 4.123), -1.053]
    assert multiset_distance(spec.eigenvalues, printed) < 1e-2


def test_example3_spectra_match_printed_values():
    eqs = {eq.kind: eq for eq in equilibria(EX3)}
    spec3 = cubic_roots(characteristic_cubic(jacobian(EX3, eqs["E3"].point)))
    assert multiset_distance(
        spec3.eigenvalues,
        [complex(-0.075, -4.852), complex(-0.075, 4.852), 52.4],
    ) < 1e-2
    e2 = {eq.kind: eq for eq in equilibria(EX2)}["E2"]
    spec2 = cubic_roots(characteristic_cubic(jacobian(EX2, e2.point)))
    assert multiset_distance(
        spec2.eigenvalues,
        [complex(-0.361, -5.429), complex(-0.361, 5.429), 1.333],
    ) < 1e-2


def test_500_random_cubics_against_oracle():
    rng = np.random.default_rng(17)
    for trial in range(500):
        a, b, c = random_cubic(rng, trial % 3)
        mine = cubic_roots(CubicCoefficients(a, b, c)).eigenvalues
        ref = companion_eigenvalues(a, b, c)
        assert multiset_distance(mine, ref) < 1e-9


@pytest.mark.parametrize("coeffs", [(np.nan, 0.0, 0.0), (0.0, np.inf, 0.0),
                                    (0.0, 0.0, -np.inf)])
def test_non_finite_coefficient_is_rejected(coeffs):
    with pytest.raises(ValueError, match="finite"):
        cubic_roots(CubicCoefficients(*coeffs))


@pytest.mark.parametrize("value,message", [
    (10 ** 400, "must be finite, got an integer past the float range"),
    ("1", "must be a real number, got '1'"),
    (None, "must be a real number, got None"),
    (1j, "must be a real number, got 1j"),
    (True, "must be a real number, got True"),
], ids=["huge-int", "str", "None", "complex", "True"])
def test_cubic_coefficients_follow_the_real_number_rule(value, message):
    with pytest.raises(ValueError, match=f"^cubic coefficient b {message}$"):
        CubicCoefficients(1.0, value, 3.0)


def test_cubic_coefficients_are_stored_as_floats():
    # numpy scalars, ints and Fractions become the Python floats they equal,
    # and a float is stored as given
    coeffs = CubicCoefficients(np.float64(-6.0), 11, Fraction(-6))
    assert [type(v) for v in (coeffs.a, coeffs.b, coeffs.c)] == [float] * 3
    assert coeffs == CubicCoefficients(-6.0, 11.0, -6.0)  # (w-1)(w-2)(w-3)
    assert repr(cubic_roots(coeffs)) == repr(cubic_roots(CubicCoefficients(-6.0, 11.0, -6.0)))


def test_diagonal_spectrum():
    spec = cubic_roots(characteristic_cubic(np.diag([3.0, -3.0, -3.0])))
    assert multiset_distance(spec.eigenvalues, [-3.0, -3.0, 3.0]) < 1e-12


coeff = st.floats(min_value=-100.0, max_value=100.0)


@given(a=coeff, b=coeff, c=coeff, seed=st.integers(0, 2 ** 32 - 1), k=st.sampled_from([0, 200]))
@settings(max_examples=300)
def test_root_residual_and_ordering(a, b, c, seed, k):
    # the drawn cubic, and one cubic of each random_cubic family (three real,
    # one real and a pair, repeated) scaled exactly by 2^-k: at k = 200 its
    # scale is below SAFE_SCALE and it is solved rescaled.  Each root w of a
    # scaled cubic is 2^-k times a root of the unscaled one.
    rng = np.random.default_rng(seed)
    cubics = [(a, b, c, 0)] + [(*random_cubic(rng, mode), k) for mode in range(3)]
    for a0, b0, c0, j in cubics:
        spec = cubic_roots(CubicCoefficients(math.ldexp(a0, -j), math.ldexp(b0, -2 * j),
                                             math.ldexp(c0, -3 * j)))
        scale = max(1.0, abs(a0), abs(b0), abs(c0))
        for w in spec.eigenvalues:
            w = complex(math.ldexp(w.real, j), math.ldexp(w.imag, j))
            assert abs(cubic_value(a0, b0, c0, w)) <= 1e-9 * scale
        keys = [(w.real, w.imag) for w in spec.eigenvalues]
        assert keys == sorted(keys)


@given(a=coeff, b=coeff, c=coeff)
@settings(max_examples=300)
def test_conjugate_pairs_are_exact(a, b, c):
    spec = cubic_roots(CubicCoefficients(a, b, c))
    complex_roots = [w for w in spec.eigenvalues if w.imag != 0.0]
    assert len(complex_roots) in (0, 2)
    if complex_roots:
        assert complex_roots[0] == complex_roots[1].conjugate()


# ---------------------------------------------------------------------------
# Routh-Hurwitz


def test_routh_hurwitz_triple_root():
    assert routh_hurwitz_cubic(CubicCoefficients(3.0, 3.0, 1.0))  # (w+1)^3


def test_routh_hurwitz_rejects_example2_interior():
    e4 = {eq.kind: eq for eq in equilibria(EX2)}["E4"]
    coeffs = characteristic_cubic(jacobian(EX2, e4.point))
    assert routh_hurwitz_cubic(coeffs) is False  # spectrum has Re = +0.276


def test_routh_hurwitz_on_constructed_stable_matrices():
    rng = np.random.default_rng(23)
    for _ in range(50):
        r = rng.normal(size=(3, 3))
        m = -np.eye(3) - r @ r.T  # eigenvalues <= -1
        assert routh_hurwitz_cubic(characteristic_cubic(m))


def test_routh_hurwitz_agrees_with_root_signs():
    rng = np.random.default_rng(29)
    checked = 0
    for _ in range(400):
        a, b, c = (rng.uniform(-8.0, 8.0) for _ in range(3))
        coeffs = CubicCoefficients(a, b, c)
        max_real = max(w.real for w in cubic_roots(coeffs).eigenvalues)
        if abs(max_real) < 1e-6:
            continue  # bounded away from the imaginary axis
        checked += 1
        assert routh_hurwitz_cubic(coeffs) == (max_real < 0.0)
    assert checked > 300


# ---------------------------------------------------------------------------
# the float-level solver of equilibrium_report


def _diagonal(d0, d1, d2):
    return ((d0, 0.0, 0.0), (0.0, d1, 0.0), (0.0, 0.0, d2))


#: Example matrices for each path of the solver, checked below.
BELOW_SAFE_SCALE = _diagonal(1e-50, -2e-50, 3e-50)  # scale ~3e-50 < 2^-150, solved rescaled
REPEATED = _diagonal(1.0, 1.0, -2.0)  # (w-1)^2 (w+2)
THREE_REAL = _diagonal(-3.0, 0.5, 2.0)
OVERFLOWING = _diagonal(1e200, 0.0, 0.0)  # a ** 3 overflows
NON_FINITE = _diagonal(math.inf, 0.0, 0.0)  # inf * 0 makes b and c NaN


def _solved(solve, matrix):
    """The Spectrum, or the ValueError's message."""
    try:
        return solve(matrix)
    except ValueError as exc:
        return str(exc)


def test_the_solver_examples_take_their_paths():
    below = _jacobian_spectrum(BELOW_SAFE_SCALE)
    assert 0.01 < abs(below.p) < 1.0  # the rescaled cubic's p (unscaled ~1e-99)
    assert below.eigenvalues[0] == pytest.approx(-2e-50, rel=1e-12)
    assert _jacobian_spectrum(REPEATED).branch == BRANCH_REPEATED
    assert _jacobian_spectrum(THREE_REAL).branch == BRANCH_THREE_REAL
    assert _solved(_jacobian_spectrum, OVERFLOWING) == (
        "cubic terms overflow the float range for CubicCoefficients(a=-1e+200, b=0.0, c=-0.0)")
    assert _solved(_jacobian_spectrum, NON_FINITE) == (
        "cubic coefficients must be finite, got CubicCoefficients(a=-inf, b=nan, c=nan)")


ENTRY = st.floats(-1e3, 1e3) | st.floats()  # mostly moderate; huge, tiny and non-finite too


@given(matrix=st.tuples(*[st.tuples(ENTRY, ENTRY, ENTRY)] * 3))
@settings(max_examples=500)
@example(matrix=BELOW_SAFE_SCALE)
@example(matrix=REPEATED)
@example(matrix=THREE_REAL)
@example(matrix=OVERFLOWING)
@example(matrix=NON_FINITE)
def test_the_float_level_solver_is_the_public_path_bit_for_bit(matrix):
    fast = _solved(_jacobian_spectrum, matrix)
    slow = _solved(lambda m: cubic_roots(characteristic_cubic(m)), matrix)
    assert fast == slow and repr(fast) == repr(slow)
