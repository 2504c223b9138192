"""Independent numerical oracles for the test suite.

The cubic-root oracle builds the companion matrix and takes its eigenvalues,
then polishes each one with Newton iterations on the polynomial in extended
precision.  Plain companion eigenvalues carry ~sqrt(eps) ~ 1e-8 error at
repeated roots, which would drown the 1e-9 comparison budget, so clustered
eigenvalues are refined at 50 decimal digits with mpmath; well-separated ones
are refined in 80-bit long double, which is plenty for simple roots.

Plain Newton converges only linearly at a root of multiplicity m (each step
keeps (m-1)/m of the error), so a cluster of m eigenvalues is taken as one
m-fold root and refined with the step ``z - m f/f'``, which converges
quadratically there (the suite's clustered cubics have exact double roots; a
pair of distinct roots closer than _CLUSTER_SEP would need plain Newton).
Both refinements stop once a step falls below their working precision,
which takes a few steps instead of the 40 allowed.

``pece_direct`` is a direct full-history PECE engine for both operators, the
reference for ``integrate_caputo`` and ``integrate_cf``: every step sums the
whole field history with one dot product against the weight formulas, at
O(N^2) cost for either operator (the CF integrator keeps a running sum, and
the Caputo integrator takes the history before its current block by FFT).

``reference_rk4`` is classical fixed-step RK4, the ground truth at alpha = 1;
like ``pece_direct`` it is a self-contained numpy loop with its own
divergence guard and field-length check, sharing no step code with the
integrators it checks.  ``rhs`` is the model's right-hand side written out
as a numpy array, and ``routh_hurwitz_cubic`` the Routh-Hurwitz test on the
characteristic cubic.

``mp_cubic_roots`` solves a cubic in mpmath at any exponent range, for
cubics too small or too large for the companion matrix in doubles.

``linear_cf_exact`` is the exact solution of the scalar linear CF problem,
the reference for ``integrate_cf`` in corrected mode.  ``mittag_leffler``
gives the exact solution of the scalar linear Caputo problem,
``x(t) = E_alpha(lam t^alpha)`` for ``D^alpha x = lam x`` and x(0) = 1: a
reference for ``integrate_caputo`` that shares no weight formula with it.
"""

from __future__ import annotations

import cmath
import math
from typing import Sequence

import numpy as np

from fraclv.solvers import (
    DIVERGENCE_LIMIT,
    DivergenceError,
    SolverConfig,
    Trajectory,
    VectorField,
    check_order,
)

_CLUSTER_SEP = 1e-4
_NEWTON_STEPS = 40
#: A refinement stops once its steps fall below this fraction of max(|z|, 1):
#: far below double precision, and above the rounding noise of each working
#: precision (an m-fold root is attainable only to ~eps**(1/m), ~1e-25 for a
#: double root at 50 digits).
_LONGDOUBLE_STOP = 1e-17
_MPMATH_STOP = 1e-20


def cubic_value(a: float, b: float, c: float, w: complex) -> complex:
    return ((w + a) * w + b) * w + c


def routh_hurwitz_cubic(coeffs) -> bool:
    """True iff every root of the monic cubic w^3 + a w^2 + b w + c has negative real part."""
    a, b, c = coeffs.a, coeffs.b, coeffs.c
    return a > 0.0 and c > 0.0 and a * b > c


def rhs(params, state: Sequence[float]) -> np.ndarray:
    """The three-species field at ``state`` for ``ModelParams`` ``params``."""
    a1, a2, a3, a4, a5, a6, a7 = params.as_tuple()
    x, y, z = state
    return np.array(
        [
            x * (a1 - a2 * x - y - z),
            y * ((1.0 - a3) + a4 * x),
            z * ((1.0 - a5) + a6 * x + a7 * y),
        ]
    )


def _refine_longdouble(roots: np.ndarray, a: float, b: float, c: float) -> np.ndarray:
    z = roots.astype(np.clongdouble)
    al, bl, cl = np.longdouble(a), np.longdouble(b), np.longdouble(c)
    for _ in range(_NEWTON_STEPS):
        f = ((z + al) * z + bl) * z + cl
        d = (3.0 * z + 2.0 * al) * z + bl
        safe = d != 0
        step = np.where(safe, f / np.where(safe, d, 1.0), 0.0)
        z = z - step
        if np.all(np.abs(step) <= _LONGDOUBLE_STOP * np.maximum(np.abs(z), 1.0)):
            break
    return z.astype(complex)


def _refine_mpmath(roots: np.ndarray, a: float, b: float, c: float) -> np.ndarray:
    """Each root refined as a root of multiplicity m, the size of its cluster."""
    import mpmath as mp

    out = []
    with mp.workdps(50):
        am, bm, cm = mp.mpf(a), mp.mpf(b), mp.mpf(c)
        for z0 in roots:
            m = int(np.sum(np.abs(roots - z0) < _CLUSTER_SEP))
            z = mp.mpc(complex(z0))
            for _ in range(_NEWTON_STEPS):
                f = ((z + am) * z + bm) * z + cm
                d = (3 * z + 2 * am) * z + bm
                if d == 0:
                    break
                step = m * f / d
                z = z - step
                if abs(step) <= _MPMATH_STOP * max(abs(z), 1):
                    break
            out.append(complex(z))
    return np.array(out)


def companion_eigenvalues(a: float, b: float, c: float) -> list[complex]:
    """Roots of w^3 + a w^2 + b w + c, sorted by (real, imag)."""
    companion = np.array(
        [[0.0, 0.0, -c],
         [1.0, 0.0, -b],
         [0.0, 1.0, -a]]
    )
    lam = np.linalg.eigvals(companion)
    sep = min(
        abs(lam[0] - lam[1]), abs(lam[0] - lam[2]), abs(lam[1] - lam[2])
    )
    if sep < _CLUSTER_SEP:
        lam = _refine_mpmath(lam, a, b, c)
    else:
        lam = _refine_longdouble(lam, a, b, c)
    return sorted((complex(w) for w in lam), key=lambda w: (w.real, w.imag))


def mp_cubic_roots(a: float, b: float, c: float) -> list[complex]:
    """Roots of w^3 + a w^2 + b w + c at 60 digits, sorted by (real, imag).

    mpmath's exponent range is unbounded, so the cubic is solved as the cubic
    in u = w / s with s = max(|a|, |b|^(1/2), |c|^(1/3)), whose coefficients
    are at most 1, and the roots are scaled back before rounding to doubles.
    """
    import mpmath as mp

    with mp.workdps(60):
        am, bm, cm = mp.mpf(a), mp.mpf(b), mp.mpf(c)
        s = max(abs(am), mp.sqrt(abs(bm)), mp.cbrt(abs(cm)))
        roots = mp.polyroots([1, am / s, bm / s ** 2, cm / s ** 3], maxsteps=200, extraprec=200)
        return sorted((complex(s * r) for r in roots), key=lambda w: (w.real, w.imag))


def multiset_distance(xs, ys) -> float:
    """Max pairwise distance after sorting both multisets by (real, imag)."""
    xs = sorted((complex(w) for w in xs), key=lambda w: (w.real, w.imag))
    ys = sorted((complex(w) for w in ys), key=lambda w: (w.real, w.imag))
    return max(abs(u - v) for u, v in zip(xs, ys))


def coefficients_from_roots(r1: complex, r2: complex, r3: complex) -> tuple[float, float, float]:
    """Monic cubic coefficients with the given roots (imaginary parts must cancel)."""
    a = -(r1 + r2 + r3)
    b = r1 * r2 + r1 * r3 + r2 * r3
    c = -(r1 * r2 * r3)
    for v in (a, b, c):
        assert abs(v.imag) < 1e-12 * max(1.0, abs(v)), "roots must form a real cubic"
    return (a.real, b.real, c.real)


def random_cubic(rng: np.random.Generator, mode: int) -> tuple[float, float, float]:
    """One sample per discriminant branch family.

    mode 0: three well-separated real roots        (delta < 0)
    mode 1: one real root plus a conjugate pair    (delta > 0)
    mode 2: exact double root on a dyadic grid     (delta = 0 up to rounding)
    """
    if mode == 0:
        while True:
            rts = rng.uniform(-6.0, 6.0, 3)
            if min(abs(rts[0] - rts[1]), abs(rts[0] - rts[2]), abs(rts[1] - rts[2])) > 0.05:
                return coefficients_from_roots(*rts)
    if mode == 1:
        real = rng.uniform(-6.0, 6.0)
        re = rng.uniform(-6.0, 6.0)
        im = rng.uniform(0.05, 6.0)
        return coefficients_from_roots(real, complex(re, im), complex(re, -im))
    # dyadic quarters keep every coefficient product exactly representable
    while True:
        r = int(rng.integers(-16, 17)) / 4.0
        s = int(rng.integers(-16, 17)) / 4.0
        if abs(r - s) >= 0.25:
            return (-(2.0 * r + s), r * r + 2.0 * r * s, -(r * r * s))


def pece_direct(
    field: VectorField,
    initial: Sequence[float],
    n: float,
    scale: float,
    cf_coeff: float,
    config: SolverConfig,
) -> Trajectory:
    """Full-history PECE engine: every step re-applies the weight formulas.

    n         weight exponent (1 for CF, alpha for Caputo)
    scale     alpha for CF, 1/Gamma(alpha) for Caputo
    cf_coeff  1-alpha in corrected CF mode, 0 otherwise
    """
    x0 = np.asarray(initial, dtype=float)
    if x0.ndim != 1 or x0.size == 0:
        raise ValueError("initial state must be a non-empty 1-d vector")
    g0 = np.asarray(field(0.0, x0), dtype=float)
    if g0.shape != x0.shape:
        raise ValueError(
            f"field dimension {g0.shape} does not match initial state {x0.shape}"
        )

    h = config.step
    num = config.num_steps
    times = h * np.arange(num + 1)
    states = np.empty((num + 1, x0.size))
    gvals = np.empty((num + 1, x0.size))
    states[0] = x0
    gvals[0] = g0

    # weight tables indexed by j = k - i; per step the reversed slices line up
    # with history order i = 0..k
    j = np.arange(0, num + 1, dtype=float)
    pdiff = (h ** n / n) * ((j + 1.0) ** n - j ** n)
    wmid = (j + 2.0) ** (n + 1.0) - 2.0 * (j + 1.0) ** (n + 1.0) + j ** (n + 1.0)
    kk = np.arange(0, num, dtype=float)
    b0 = kk ** (n + 1.0) - (kk - n) * (kk + 1.0) ** n
    cb = scale * h ** n / (n * (n + 1.0))

    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(num):
            xp = x0 + scale * (pdiff[k::-1] @ gvals[: k + 1])
            if cf_coeff:
                xp = xp + cf_coeff * (gvals[k] - g0)
            gp = np.asarray(field(times[k + 1], xp), dtype=float)
            hist = b0[k] * g0
            if k >= 1:
                hist = hist + wmid[k - 1 :: -1] @ gvals[1 : k + 1]
            xc = x0 + cb * (hist + gp)
            if cf_coeff:
                xc = xc + cf_coeff * (gp - g0)
            if not np.all(np.isfinite(xc)) or np.max(np.abs(xc)) > DIVERGENCE_LIMIT:
                partial = Trajectory(times[: k + 1], states[: k + 1].copy())
                raise DivergenceError(k + 1, times[k + 1], partial)
            states[k + 1] = xc
            gvals[k + 1] = field(times[k + 1], xc)

    return Trajectory(times, states)


def caputo_direct(field: VectorField, initial, alpha: float, config: SolverConfig) -> Trajectory:
    return pece_direct(field, initial, alpha, 1.0 / math.gamma(alpha), 0.0, config)


def cf_direct(field: VectorField, initial, alpha: float, config: SolverConfig) -> Trajectory:
    cf_coeff = 1.0 - alpha if config.cf_mode == "corrected" else 0.0
    return pece_direct(field, initial, 1.0, alpha, cf_coeff, config)


def reference_rk4(field: VectorField, initial, config: SolverConfig) -> Trajectory:
    """Classical fixed-step 4th-order integration; ground truth at alpha = 1.

    A state with a component outside +-DIVERGENCE_LIMIT (NaN included) raises
    DivergenceError, and a field value of the wrong length ValueError.
    """
    x = np.asarray(initial, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("initial state must be a non-empty 1-d vector")
    d = x.size

    def f(t, y):
        g = np.asarray(field(t, y), dtype=float)
        if g.shape != (d,):
            raise ValueError(f"field returned {g.size} components at t = {t:g}, expected {d}")
        return g

    h = config.step
    num = config.num_steps
    times = h * np.arange(num + 1)
    states = np.empty((num + 1, d))
    states[0] = x
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(num):
            t = times[k]
            k1 = f(t, x)
            k2 = f(t + h / 2.0, x + h / 2.0 * k1)
            k3 = f(t + h / 2.0, x + h / 2.0 * k2)
            k4 = f(t + h, x + h * k3)
            x = x + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.abs(x) <= DIVERGENCE_LIMIT):
                partial = Trajectory(times[: k + 1], states[: k + 1].copy())
                raise DivergenceError(k + 1, times[k + 1], partial)
            states[k + 1] = x
    return Trajectory(times, states)


def linear_cf_exact(
    lam: complex,
    order: float,
    x0: complex,
    t: float,
) -> complex:
    """Exact solution of the scalar CF problem ``D^alpha x = lam x`` (M = 1).

    Returns ``x0 * exp(alpha * lam * t / (1 - (1-alpha) * lam))``, the scalar
    case of the CF-as-ODE reformulation ``(1 - (1-alpha) lam) x' = alpha lam x``
    (Losada & Nieto 2015).  The modulus is constant in time exactly on the
    circle ``|lam - c| = c`` with ``c = 1/(2(1-alpha))``.
    """
    alpha = check_order(order)
    denom = 1.0 - (1.0 - alpha) * lam
    if denom == 0:
        raise ValueError(f"singular parameter combination: (1 - alpha) * lam = 1 (lam={lam})")
    return x0 * cmath.exp(alpha * lam * t / denom)


def mittag_leffler(alpha: float, z: float) -> float:
    """E_alpha(z) = sum_k z^k / Gamma(alpha k + 1) for real z, summed in mpmath.

    For alpha in (0, 1] the terms are unimodal in k, and the largest is about
    exp(|z|^(1/alpha)); for z < 0 they alternate, so the sum cancels that
    many digits.  The working precision is 30 digits plus those, and the sum
    stops once a term falls below 10^-30 of the largest.
    """
    import mpmath as mp

    alpha = check_order(alpha)
    cancelled = int(abs(z) ** (1.0 / alpha) / math.log(10.0)) + 1
    with mp.workdps(30 + cancelled):
        z, a = mp.mpf(z), mp.mpf(alpha)
        tol = mp.mpf(10) ** -30
        total, largest, k = mp.mpf(0), mp.mpf(0), 0
        while True:
            term = z ** k / mp.gamma(a * k + 1)
            total += term
            largest = max(largest, abs(term))
            if abs(term) < tol * largest:
                return float(total)
            k += 1
