"""Stability classification under both fractional operators.

Caputo (power kernel): an equilibrium is asymptotically stable iff every
eigenvalue w of the Jacobian satisfies |arg(w)| > alpha*pi/2.  The unstable
set is a cone around the positive real axis that widens with alpha; at
alpha = 1 the test coincides with the classical Re(w) < 0 criterion.

Caputo-Fabrizio (exponential kernel), two equivalent-in-practice views:

* theorem form: an eigenvalue passes if any of
    (1) |w| >= 1/(1-alpha) and w != 1/(1-alpha)
    (2) Re(w) > 1/(1-alpha)
    (3) Re(w) < 0
    (4) |Im(w)| > 1/(2(1-alpha))
* disk form: the unstable region is the closed disk of radius
  c = 1/(2(1-alpha)) centered at c on the real axis; an eigenvalue passes iff
  it lies strictly outside.  Every theorem pass implies a disk pass.

Boundary policy: cone boundary and circle membership count as unstable
(asymptotic stability is an open condition), and a zero eigenvalue is always
unstable.  Neither CF criterion is defined at alpha = 1.

Orders are plain floats, checked by ``solvers.check_order``: the Caputo
functions accept alpha in (0, 1], the CF criteria, ``classify_region`` and
``table1_conditions`` only alpha in (0, 1).

The plane splits into four classes by the two single-eigenvalue tests:
A = stable for both, B = Caputo only, C = neither, D = CF only.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .model import Equilibrium, ModelParams, equilibria, jacobian
from .spectral import Spectrum, characteristic_cubic, cubic_roots
from .solvers import check_order

__all__ = [
    "EquilibriumReport",
    "StabilityVerdict",
    "caputo_stable",
    "cf_disk_verdict",
    "cf_stable_disk",
    "cf_stable_theorem",
    "classify_region",
    "equilibrium_report",
    "table1_conditions",
]

SpectrumLike = Union[Spectrum, Sequence[complex]]


@dataclass(frozen=True)
class StabilityVerdict:
    """Per-operator verdict; stable iff every eigenvalue satisfied a condition.

    ``per_eigenvalue`` pairs each eigenvalue with the identifier of the
    condition it satisfied ("cone", "1".."4", "disk") or None.
    """

    operator: str  # "caputo", "cf-theorem" or "cf-disk"
    stable: bool
    per_eigenvalue: tuple[tuple[complex, Optional[str]], ...]


@dataclass(frozen=True)
class EquilibriumReport:
    """Everything the verdict matrix needs for one equilibrium.

    ``cf_theorem``, ``cf_disk`` and ``regions`` are None at alpha = 1, where
    the CF criteria are undefined.
    """

    equilibrium: Equilibrium
    spectrum: Spectrum
    caputo: StabilityVerdict
    cf_theorem: Optional[StabilityVerdict]
    cf_disk: Optional[StabilityVerdict]
    table1: tuple[tuple[str, bool], ...]
    regions: Optional[tuple[str, ...]]


def _finite(eigs: tuple[complex, ...]) -> tuple[complex, ...]:
    if not all(map(cmath.isfinite, eigs)):
        raise ValueError(f"eigenvalues must be finite, got {eigs}")
    return eigs


def _eigs(spectrum: SpectrumLike) -> tuple[complex, ...]:
    if isinstance(spectrum, Spectrum):
        return _finite(spectrum.eigenvalues)
    return _finite(tuple(complex(w) for w in spectrum))


def _caputo_pass(w: complex, alpha: float) -> bool:
    if w == 0:
        return False
    # math.atan2, not cmath.phase: phase raises OverflowError when atan2 underflows (2+5e-324j).
    return abs(math.atan2(w.imag, w.real)) > alpha * math.pi / 2.0


def caputo_stable(spectrum: SpectrumLike, order: float) -> StabilityVerdict:
    """Cone criterion |arg(w)| > alpha*pi/2 for every eigenvalue.

    Accepts alpha = 1, where the test is exactly the classical Re(w) < 0.
    """
    alpha = check_order(order)
    per = tuple((w, "cone" if _caputo_pass(w, alpha) else None) for w in _eigs(spectrum))
    return StabilityVerdict("caputo", all(tag is not None for _, tag in per), per)


def _cf_theorem_pass(w: complex, alpha: float) -> Optional[str]:
    thr = 1.0 / (1.0 - alpha)
    half = thr / 2.0
    if abs(w) >= thr and w != complex(thr, 0.0):
        return "1"
    if w.real > thr:
        return "2"
    if w.real < 0.0:
        return "3"
    if abs(w.imag) > half:
        return "4"
    return None


def cf_stable_theorem(spectrum: SpectrumLike, order: float) -> StabilityVerdict:
    """Any-of-four condition test, applied per eigenvalue."""
    alpha = check_order(order, allow_one=False)
    per = tuple((w, _cf_theorem_pass(w, alpha)) for w in _eigs(spectrum))
    return StabilityVerdict("cf-theorem", all(tag is not None for _, tag in per), per)


def cf_stable_disk(lam: complex, order: float) -> bool:
    """True iff lam lies strictly outside the closed instability disk."""
    alpha = check_order(order, allow_one=False)
    c = 1.0 / (2.0 * (1.0 - alpha))
    return abs(complex(lam) - c) > c


def cf_disk_verdict(spectrum: SpectrumLike, order: float) -> StabilityVerdict:
    per = tuple(
        (w, "disk" if cf_stable_disk(w, order) else None) for w in _eigs(spectrum)
    )
    return StabilityVerdict("cf-disk", all(tag is not None for _, tag in per), per)


def classify_region(lam: complex, order: float) -> str:
    """Four-way partition of the plane by the two single-eigenvalue tests.

    Raises ValueError on a non-finite eigenvalue, which has no region.
    """
    alpha = check_order(order, allow_one=False)
    (lam,) = _finite((complex(lam),))
    cap = _caputo_pass(lam, alpha)
    cf = cf_stable_disk(lam, alpha)
    if cap and cf:
        return "A"
    if cap:
        return "B"
    if cf:
        return "D"
    return "C"


def _csqrt(x: float) -> complex:
    return cmath.sqrt(complex(x, 0.0))


def table1_conditions(params: ModelParams, order: float, kind: str) -> list[tuple[str, bool]]:
    """Closed-form stability conditions per equilibrium, raw booleans for audit.

    These are the printed sufficient conditions, not the operative verdicts;
    the verdicts in ``equilibrium_report`` always come from the spectrum.
    Threshold comparisons against closed-form eigenvalue expressions use the
    real part when the expression is complex.
    """
    alpha = check_order(order, allow_one=False)
    a1, a2, a3, a4, a5, a6, a7 = params.as_tuple()
    thr = 1.0 / (1.0 - alpha)
    ratio = alpha / (1.0 - alpha)

    if kind == "E0":
        return [
            ("caputo: always saddle (unstable at every order)", True),
            ("cf: a1 > 1/(1-alpha)", a1 > thr),
        ]

    if kind == "E1":
        return [
            ("caputo: a1*a4 < a2*a3 - a2", a1 * a4 < a2 * a3 - a2),
            ("caputo: a1*a6 < a2*a5 - a2", a1 * a6 < a2 * a5 - a2),
            ("cf: (a1*a4 - a2*a3)/a2 > alpha/(1-alpha)", (a1 * a4 - a2 * a3) / a2 > ratio),
            ("cf: (a1*a6 - a2*a5)/a2 > alpha/(1-alpha)", (a1 * a6 - a2 * a5) / a2 > ratio),
        ]

    if kind == "E2":
        lam1 = 1.0 - a3 - (a4 / a6) * (1.0 - a5)
        disc = a2 ** 2 * (1.0 - a5) ** 2 + 4.0 * a6 * (1.0 - a5) * (a1 * a6 + a2 * (1.0 - a5))
        root = _csqrt(disc)
        lam2 = (a2 * (1.0 - a5) + root) / (2.0 * a6)
        lam3 = (a2 * (1.0 - a5) - root) / (2.0 * a6)
        return [
            ("caputo: (a5-1)/a6 < a1/a2", (a5 - 1.0) / a6 < a1 / a2),
            ("caputo: a1/a2 < (a3-1)/a4", a1 / a2 < (a3 - 1.0) / a4),
            ("cf: lambda1 > 1/(1-alpha)", lam1 > thr),
            ("cf: lambda2 > 1/(1-alpha)", lam2.real > thr),
            ("cf: lambda3 > 1/(1-alpha)", lam3.real > thr),
        ]

    if kind == "E3":
        w = 1.0 - a5 - (a6 / a4) * (1.0 - a3) + (a7 / a4) * (a1 * a4 + a2 * (1.0 - a3))
        disc = a2 ** 2 * (1.0 - a3) ** 2 + 4.0 * a4 * (1.0 - a3) * (a1 * a4 + a2 * (1.0 - a3))
        root = _csqrt(disc)
        lam2 = (a2 * (1.0 - a3) + root) / (2.0 * a4)
        lam3 = (a2 * (1.0 - a3) - root) / (2.0 * a4)
        return [
            ("caputo: (a3-1)/a4 < a1/a2", (a3 - 1.0) / a4 < a1 / a2),
            ("caputo: a1/a2 < (a5-1)/a6", a1 / a2 < (a5 - 1.0) / a6),
            ("cf: lambda1 > 1/(1-alpha)", w > thr),
            ("cf: lambda2 > 1/(1-alpha)", lam2.real > thr),
            ("cf: lambda3 > 1/(1-alpha)", lam3.real > thr),
        ]

    if kind == "E4":
        point = {eq.kind: eq.point for eq in equilibria(params)}["E4"]
        return _e4_conditions(params, alpha, cubic_roots(characteristic_cubic(jacobian(params, point))))

    raise ValueError(f"unknown equilibrium kind {kind!r}")


def _e4_conditions(params: ModelParams, alpha: float, spectrum: Spectrum) -> list[tuple[str, bool]]:
    """Table 1 conditions for E4, given E4's spectrum."""
    a1, a2, a3, a4, a5, a6, a7 = params.as_tuple()
    thr = 1.0 / (1.0 - alpha)
    w = a4 * (1.0 + a1 * a7 - a5) + (a6 - a2 * a7) * (a3 - 1.0)
    denom = w * (a2 + a4) + a2 * a4 * (a3 - 1.0)
    if denom != 0.0:
        rh = a6 > a2 * a4 * (a3 - 1.0) * (w + a2 * (a3 - 1.0)) / denom
    else:
        rh = False
    all_above = all(v.real > thr for v in spectrum.eigenvalues)
    return [
        ("caputo (routh-hurwitz): a6 > a2*a4*(a3-1)*(w + a2*(a3-1)) / "
         "(w*(a2+a4) + a2*a4*(a3-1))", rh),
        ("cf: all characteristic roots > 1/(1-alpha)", all_above),
    ]


def equilibrium_report(params: ModelParams, order: float) -> list[EquilibriumReport]:
    """Spectrum, all three verdicts, audit conditions and region classes per
    equilibrium, in fixed order E0..E4.

    At alpha = 1 the CF verdicts, region classes and audit conditions are
    None (the CF criteria are undefined there); the Caputo verdict degrades
    to the classical test.
    """
    alpha = check_order(order)
    cf_defined = alpha < 1.0
    reports = []
    for eq in equilibria(params):
        spectrum = cubic_roots(characteristic_cubic(jacobian(params, eq.point)))
        caputo = caputo_stable(spectrum, alpha)
        if cf_defined:
            cf_thm = cf_stable_theorem(spectrum, alpha)
            cf_dsk = cf_disk_verdict(spectrum, alpha)
            if eq.kind == "E4":  # reuse the spectrum rather than re-solving it
                table1 = tuple(_e4_conditions(params, alpha, spectrum))
            else:
                table1 = tuple(table1_conditions(params, alpha, eq.kind))
            regions = tuple(classify_region(w, alpha) for w in spectrum.eigenvalues)
        else:
            cf_thm = None
            cf_dsk = None
            table1 = ()
            regions = None
        reports.append(
            EquilibriumReport(
                equilibrium=eq,
                spectrum=spectrum,
                caputo=caputo,
                cf_theorem=cf_thm,
                cf_disk=cf_dsk,
                table1=table1,
                regions=regions,
            )
        )
    return reports
