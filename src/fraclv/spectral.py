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
    "CubicAnalysis",
    "CubicCoefficients",
    "Spectrum",
    "characteristic_cubic",
    "cubic_analysis",
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


@dataclass(frozen=True)
class CubicCoefficients:
    """Monic cubic L(w) = w^3 + a w^2 + b w + c."""

    a: float
    b: float
    c: float


@dataclass(frozen=True)
class CubicAnalysis:
    p: float
    q: float
    delta: float
    branch: str


@dataclass(frozen=True)
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
        (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = (map(float, row) for row in matrix)
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


def cubic_analysis(coeffs: CubicCoefficients) -> CubicAnalysis:
    """Depressed-cubic terms and branch; ValueError on a non-finite coefficient or term."""
    a, b, c = coeffs.a, coeffs.b, coeffs.c
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
    if not all(map(math.isfinite, (p, q, delta, tol))):
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


def cubic_roots(coeffs: CubicCoefficients) -> Spectrum:
    analysis = cubic_analysis(coeffs)
    p, q = analysis.p, analysis.q
    shift = -coeffs.a / 3.0

    if analysis.branch == BRANCH_REPEATED:
        m = _cbrt(q / 2.0)
        roots = [complex(-2.0 * m + shift), complex(m + shift), complex(m + shift)]
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
        roots = [complex(y1 + shift), complex(re, -im), complex(re, im)]
    else:
        r = math.sqrt(-p / 3.0)
        arg = 3.0 * math.sqrt(3.0) * q / (2.0 * (-p) ** 1.5)
        phi = math.asin(min(1.0, max(-1.0, arg))) / 3.0
        roots = [
            complex(2.0 * r * math.sin(phi) + shift),
            complex(-2.0 * r * math.sin(phi + math.pi / 3.0) + shift),
            complex(2.0 * r * math.cos(phi + math.pi / 6.0) + shift),
        ]

    roots.sort(key=lambda w: (w.real, w.imag))
    return Spectrum(eigenvalues=tuple(roots), analysis=analysis)
