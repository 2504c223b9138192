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

Each criterion is one per-eigenvalue test, evaluated once per eigenvalue;
each function checks the order and the spectrum's finiteness once.  The
region classes come from the cone and disk results: A = stable for both,
B = Caputo only, C = neither, D = CF only.
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


def _eig(lam: complex, spectrum: tuple[complex, ...] = ()) -> complex:
    """``lam`` as a complex number; ValueError if it is not finite.

    The error names ``spectrum``, the eigenvalues ``lam`` came with, or
    ``(lam,)`` when it came alone.
    """
    w = complex(lam)
    if not cmath.isfinite(w):
        raise ValueError(f"eigenvalues must be finite, got {spectrum or (w,)}")
    return w


def _eigs(spectrum: SpectrumLike) -> tuple[complex, ...]:
    """The eigenvalues as complex numbers; ValueError if any is not finite."""
    eigs = spectrum.eigenvalues if isinstance(spectrum, Spectrum) else tuple(map(complex, spectrum))
    for w in eigs:
        _eig(w, eigs)
    return eigs


# The per-eigenvalue tests take a checked order and a finite eigenvalue and
# return the tag of the condition it satisfied, or None.


def _cone(w: complex, alpha: float) -> Optional[str]:
    # math.atan2, not cmath.phase: phase raises OverflowError when atan2 underflows (2+5e-324j).
    return "cone" if w != 0 and abs(math.atan2(w.imag, w.real)) > alpha * math.pi / 2.0 else None


def _theorem(w: complex, alpha: float) -> Optional[str]:
    thr = 1.0 / (1.0 - alpha)
    if abs(w) >= thr and w != complex(thr, 0.0):
        return "1"
    if w.real > thr:
        return "2"
    if w.real < 0.0:
        return "3"
    if abs(w.imag) > thr / 2.0:
        return "4"
    return None


def _disk(w: complex, alpha: float) -> Optional[str]:
    c = 1.0 / (2.0 * (1.0 - alpha))
    return "disk" if abs(w - c) > c else None


#: Region class by the (cone, disk) tags of one eigenvalue.
_REGIONS = {("cone", "disk"): "A", ("cone", None): "B", (None, None): "C", (None, "disk"): "D"}


def _verdict(operator: str, test, eigs: tuple[complex, ...], alpha: float) -> StabilityVerdict:
    per = tuple((w, test(w, alpha)) for w in eigs)
    return StabilityVerdict(operator, all(tag is not None for _, tag in per), per)


def caputo_stable(spectrum: SpectrumLike, order: float) -> StabilityVerdict:
    """Cone criterion |arg(w)| > alpha*pi/2 for every eigenvalue.

    Accepts alpha = 1, where the test is exactly the classical Re(w) < 0.
    """
    alpha = check_order(order)
    return _verdict("caputo", _cone, _eigs(spectrum), alpha)


def cf_stable_theorem(spectrum: SpectrumLike, order: float) -> StabilityVerdict:
    """Any-of-four condition test, applied per eigenvalue."""
    alpha = check_order(order, allow_one=False)
    return _verdict("cf-theorem", _theorem, _eigs(spectrum), alpha)


def cf_stable_disk(lam: complex, order: float) -> bool:
    """True iff lam lies strictly outside the closed instability disk."""
    alpha = check_order(order, allow_one=False)
    return _disk(_eig(lam), alpha) is not None


def cf_disk_verdict(spectrum: SpectrumLike, order: float) -> StabilityVerdict:
    alpha = check_order(order, allow_one=False)
    return _verdict("cf-disk", _disk, _eigs(spectrum), alpha)


def classify_region(lam: complex, order: float) -> str:
    """Four-way partition of the plane by the two single-eigenvalue tests.

    Raises ValueError on a non-finite eigenvalue, which has no region.
    """
    alpha = check_order(order, allow_one=False)
    w = _eig(lam)
    return _REGIONS[_cone(w, alpha), _disk(w, alpha)]


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
    reports = []
    for eq in equilibria(params):
        spectrum = cubic_roots(characteristic_cubic(jacobian(params, eq.point)))
        eigs = _eigs(spectrum)
        caputo = _verdict("caputo", _cone, eigs, alpha)
        cf_thm = cf_dsk = regions = None
        table1 = ()
        if alpha < 1.0:
            cf_thm = _verdict("cf-theorem", _theorem, eigs, alpha)
            cf_dsk = _verdict("cf-disk", _disk, eigs, alpha)
            if eq.kind == "E4":  # reuse the spectrum rather than re-solving it
                table1 = tuple(_e4_conditions(params, alpha, spectrum))
            else:
                table1 = tuple(table1_conditions(params, alpha, eq.kind))
            regions = tuple(_REGIONS[cone, disk] for (_, cone), (_, disk)
                            in zip(caputo.per_eigenvalue, cf_dsk.per_eigenvalue))
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
