"""Closed-form eigenvalues of 3x3 Jacobians via the characteristic cubic.

The monic characteristic polynomial L(w) = w^3 + a w^2 + b w + c is built from
trace, principal minors and determinant; its roots come from the depressed
cubic w = y - a/3 with

    p = b - a^2/3,  q = 2a^3/27 - a b/3 + c,  delta = q^2/4 + p^3/27.

delta > 0: one real root plus a conjugate pair (Cardano, with the stable
cube-root pairing u, v = -p/(3u) to avoid cancellation); |delta| within a
relative tolerance of zero: repeated real roots; delta < 0: three distinct
real roots by the trigonometric method.  Eigenvalues are reported sorted by
(real, imaginary), complex pairs exactly conjugate.  A non-finite
coefficient has no roots to report and raises ValueError, as do coefficients
whose depressed-cubic terms overflow the float range.  The module computes
on Python floats throughout.

A cubic's scale is S = max(|a|, |b|^(1/2), |c|^(1/3)).  Down to
S = 2**-150 (``SAFE_SCALE``) delta and its tolerance, both ~S^6, stay
normal floats and the cubic is solved as given.  A smaller cubic would
underflow them, so it is solved as the cubic in u = w / 2**k with 2**k ~ S,
whose coefficients a/2**k, b/4**k, c/8**k are exact, and its roots are scaled
back.  Above S ~ 2**170 the terms overflow and ValueError is raised.

The value types are slotted frozen dataclasses: no per-instance ``__dict__``,
with the fields, ``repr``, ``==`` and ``hash`` of plain frozen dataclasses.
No row here is constant; the reports that hold a ``Spectrum`` share theirs
through ``fraclv.model._SHARED`` (see ``fraclv.stability``, which gives the
memory per report).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "BRANCH_ONE_REAL_PAIR",
    "BRANCH_REPEATED",
    "BRANCH_THREE_REAL",
    "REPEATED_TOLERANCE_FACTOR",
    "SAFE_SCALE",
    "CubicAnalysis",
    "CubicCoefficients",
    "Spectrum",
    "characteristic_cubic",
    "cubic_roots",
]

BRANCH_ONE_REAL_PAIR = "one-real-pair"
BRANCH_REPEATED = "repeated"
BRANCH_THREE_REAL = "three-real"

# The repeated-root branch fires when |delta| is within rounding of zero.
# p and q are differences of much larger intermediates, so delta's rounding
# floor is eps * (|q|*S_q + p^2*S_p) with S_* the summand magnitudes, not
# eps * max(q^2, |p|^3).  The factor keeps ~50x headroom above that floor for
# exact double roots while staying small enough that collapsing a barely
# split pair cannot breach the 1e-9 residual budget; genuinely split roots
# land in the adjacent branches, which are stable for tiny delta.
REPEATED_TOLERANCE_FACTOR = 64.0

#: Cubics of scale S below this are solved rescaled (see the module docstring).
SAFE_SCALE = 2.0 ** -150
_SAFE_B = SAFE_SCALE ** 2
_SAFE_C = SAFE_SCALE ** 3


@dataclass(frozen=True, slots=True)
class CubicCoefficients:
    """Monic cubic L(w) = w^3 + a w^2 + b w + c."""

    a: float
    b: float
    c: float


@dataclass(frozen=True, slots=True)
class CubicAnalysis:
    """Depressed-cubic terms and the branch the roots come from.

    For a cubic rescaled below ``SAFE_SCALE``, p, q and delta are those of
    the cubic in u = w / 2**k that was solved (the unscaled terms underflow);
    the branch is that of both cubics.
    """

    p: float
    q: float
    delta: float
    branch: str


@dataclass(frozen=True, slots=True)
class Spectrum:
    """Exactly three eigenvalues, sorted by (real, imaginary)."""

    eigenvalues: tuple[complex, complex, complex]
    analysis: CubicAnalysis


def characteristic_cubic(matrix: Sequence[Sequence[float]]) -> CubicCoefficients:
    """a = -trace, b = sum of principal 2x2 minors, c = -det.

    ``matrix`` is any 3x3 sequence of numbers (tuples, lists or an ndarray);
    anything else, ragged rows included, raises ValueError.
    """
    try:
        (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = matrix
        m00, m01, m02, m10, m11, m12, m20, m21, m22 = (
            float(m00), float(m01), float(m02), float(m10), float(m11), float(m12),
            float(m20), float(m21), float(m22))
    except (TypeError, ValueError):
        raise ValueError(f"expected a 3x3 matrix, got {matrix!r}") from None
    a = -(m00 + m11 + m22)
    b = (m11 * m22 - m12 * m21) + (m00 * m22 - m02 * m20) + (m00 * m11 - m01 * m10)
    det = (
        m00 * (m11 * m22 - m12 * m21)
        - m01 * (m10 * m22 - m12 * m20)
        + m02 * (m10 * m21 - m11 * m20)
    )
    return CubicCoefficients(a=a, b=b, c=-det)


def _scaled(coeffs: CubicCoefficients) -> tuple[float, float, float, int]:
    """(a, b, c) of the cubic that is solved, in u = w / 2**k, and k.

    k = 0 unless the cubic's scale is below ``SAFE_SCALE``; scaling such a
    cubic up by a power of two is exact.  A NaN coefficient stays NaN.
    """
    a, b, c = coeffs.a, coeffs.b, coeffs.c
    if abs(a) >= SAFE_SCALE or abs(b) >= _SAFE_B or abs(c) >= _SAFE_C:
        return a, b, c, 0
    k = math.frexp(max(abs(a), math.sqrt(abs(b)), abs(c) ** (1.0 / 3.0)))[1]
    return math.ldexp(a, -k), math.ldexp(b, -2 * k), math.ldexp(c, -3 * k), k


def _analysis(a: float, b: float, c: float, coeffs: CubicCoefficients) -> CubicAnalysis:
    """Terms and branch of w^3 + a w^2 + b w + c; errors name ``coeffs``."""
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c)):
        raise ValueError(f"cubic coefficients must be finite, got {coeffs}")
    p = b - a * a / 3.0
    try:
        q = 2.0 * a ** 3 / 27.0 - a * b / 3.0 + c
        delta = q * q / 4.0 + p ** 3 / 27.0
        scale_q = max(2.0 * abs(a) ** 3 / 27.0, abs(a * b) / 3.0, abs(c))
    except OverflowError:  # a power past the float range
        q = delta = scale_q = math.inf
    scale_p = max(abs(b), a * a / 3.0)
    eps = sys.float_info.epsilon
    tol = REPEATED_TOLERANCE_FACTOR * eps * (abs(q) * scale_q + p * p * scale_p)
    if not (math.isfinite(p) and math.isfinite(q) and math.isfinite(delta) and math.isfinite(tol)):
        raise ValueError(f"cubic terms overflow the float range for {coeffs}")
    if abs(delta) <= tol:
        branch = BRANCH_REPEATED
    elif delta > 0.0:
        branch = BRANCH_ONE_REAL_PAIR
    else:
        branch = BRANCH_THREE_REAL
    return CubicAnalysis(p=p, q=q, delta=delta, branch=branch)


def _cbrt(x: float) -> float:
    return math.copysign(abs(x) ** (1.0 / 3.0), x)


def _before(u: complex, v: complex) -> bool:
    """(u.real, u.imag) < (v.real, v.imag)."""
    return u.real < v.real or (u.real == v.real and u.imag < v.imag)


def cubic_roots(coeffs: CubicCoefficients) -> Spectrum:
    a, b, c, k = _scaled(coeffs)
    analysis = _analysis(a, b, c, coeffs)
    p, q = analysis.p, analysis.q
    shift = -a / 3.0

    if analysis.branch == BRANCH_REPEATED:
        m = _cbrt(q / 2.0)
        r0, r1, r2 = complex(-2.0 * m + shift), complex(m + shift), complex(m + shift)
    elif analysis.branch == BRANCH_ONE_REAL_PAIR:
        sq = math.sqrt(analysis.delta)
        # pick the non-cancelling cube-root argument; the partner root follows
        # from u*v = -p/3
        if q <= 0.0:
            u = _cbrt(-q / 2.0 + sq)
        else:
            u = _cbrt(-q / 2.0 - sq)
        v = -p / (3.0 * u)
        y1 = u + v
        re = -y1 / 2.0 + shift
        im = math.sqrt(max(3.0 * y1 * y1 + 4.0 * p, 0.0)) / 2.0
        r0, r1, r2 = complex(y1 + shift), complex(re, -im), complex(re, im)
    else:
        r = math.sqrt(-p / 3.0)
        arg = 3.0 * math.sqrt(3.0) * q / (2.0 * (-p) ** 1.5)
        phi = math.asin(min(1.0, max(-1.0, arg))) / 3.0
        r0 = complex(2.0 * r * math.sin(phi) + shift)
        r1 = complex(-2.0 * r * math.sin(phi + math.pi / 3.0) + shift)
        r2 = complex(2.0 * r * math.cos(phi + math.pi / 6.0) + shift)
    if k:
        r0, r1, r2 = (complex(math.ldexp(r0.real, k), math.ldexp(r0.imag, k)),
                      complex(math.ldexp(r1.real, k), math.ldexp(r1.imag, k)),
                      complex(math.ldexp(r2.real, k), math.ldexp(r2.imag, k)))

    # a stable sort of three by (real, imaginary), as list.sort with that key
    if _before(r1, r0):
        r0, r1 = r1, r0
    if _before(r2, r1):
        r1, r2 = r2, r1
        if _before(r1, r0):
            r0, r1 = r1, r0
    return Spectrum(eigenvalues=(r0, r1, r2), analysis=analysis)
