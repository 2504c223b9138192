"""Stability classification under both fractional operators.

Caputo (power kernel): an equilibrium is asymptotically stable iff every
eigenvalue w of the Jacobian satisfies |arg(w)| > alpha*pi/2.  The unstable
set is a cone around the positive real axis that widens with alpha; at
alpha = 1 the test coincides with the classical Re(w) < 0 criterion.

Caputo-Fabrizio (exponential kernel), two views:

* theorem form: an eigenvalue passes if any of
    (1) |w| >= 1/(1-alpha) and w != 1/(1-alpha)
    (2) Re(w) > 1/(1-alpha)   [implies (1), as |w| >= Re(w): never decides]
    (3) Re(w) < 0
    (4) |Im(w)| > 1/(2(1-alpha))
  tested as (1), (3), (4) in that order; the tags are "1", "3" and "4".
* disk form (``cf_disk_verdict``): the unstable region is the closed disk of
  radius c = 1/(2(1-alpha)) centered at c on the real axis; an eigenvalue
  passes iff it lies strictly outside.  That is the Hurwitz stability of the
  linearization's CF ODE form (I - (1-alpha) J) x' = alpha J x, whose rates
  are mu = alpha w / (1 - (1-alpha) w) for the eigenvalues w of J:
      Re mu < 0  <=>  Re w - (1-alpha) |w|^2 < 0    (times |1 - (1-alpha) w|^2 / alpha)
                 <=>  |w - c|^2 > c^2                (times -2c, as 2c (1-alpha) = 1),
  and its singular point w = 1/(1-alpha) = 2c lies on the circle.  A theorem
  pass implies a disk pass, not conversely (w = c (0.1 + 0.9i) passes the disk
  and no condition), so the theorem is sufficient only.

Boundary policy: cone boundary and circle membership count as unstable
(asymptotic stability is an open condition), and a zero eigenvalue is always
unstable.  Neither CF criterion is defined at alpha = 1.  A modulus past the
float range (|w| or |w - c| for a finite w near 1.7e308) counts as inf.

Orders are plain floats, checked by ``solvers.check_order``: the Caputo
functions accept alpha in (0, 1], the CF criteria, ``classify_region`` and
``table1_conditions`` only alpha in (0, 1).  An eigenvalue may be any number
(``numbers.Complex``: ints, floats, Fractions, numpy scalars) but a bool, and
is taken as a complex; anything else, a spectrum that is not iterable, or an
integer past the float range raises ValueError naming its position.

Each criterion is one per-eigenvalue test, evaluated once per eigenvalue.
Each function checks the order and the spectrum's finiteness once, and
computes the order's constants (alpha*pi/2, 1/(1-alpha), c) once, not per
eigenvalue; ``equilibrium_report`` does both once per call and runs all
three tests in one pass over each spectrum.
The region classes come from the cone and disk results: A = stable for both,
B = Caputo only, C = neither, D = CF only.  A report's ``regions`` are read
off its Caputo and disk verdicts' tags, not stored.

``table1_conditions`` takes the equilibrium's spectrum, which only E4's CF row
(it has no closed form) reads; no Table 1 row solves a spectrum.

A report solves each Jacobian on the float-level path
``spectral._jacobian_spectrum`` (the Spectrum of
``cubic_roots(characteristic_cubic(...))``, bit for bit), and gives all its
Table 1s the ``params.as_tuple()``, 1/(1-alpha) and alpha/(1-alpha) it
computes once per call.

The value types are slotted frozen dataclasses (no per-instance ``__dict__``);
``EquilibriumReport``'s ``__init__``, from ``spectral._value_type``, sets its
six slots through their member descriptors.  A verdict is its operator, its
outcome and one tag per eigenvalue; the eigenvalues themselves are the
spectrum's.  Constant values are shared whole, not built per call, through the
one table ``fraclv.model._SHARED``: each Table 1 (one of 88) under
``(kind, flags)`` and each three-eigenvalue verdict (8 cone, 64 theorem or
8 disk) under ``(operator, tags)``.  These keys are tuples of str, bool and
None, which hash and compare in C, so a warm lookup builds nothing; a value is
built on its key's first miss only, and no input grows the table past those
sets.  A report of five equilibria retains ~3.0 KB (CPython 3.11.7), nearly
all of it the equilibria and spectra.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .model import _SHARED, Equilibrium, ModelParams, equilibria, jacobian
# characteristic_cubic and cubic_roots are not called here: a report solves
# through _jacobian_spectrum.  perfbench/tracing.py still wraps both names here.
from .spectral import (Spectrum, _jacobian_spectrum, _value_type,  # noqa: F401
                       characteristic_cubic, cubic_roots)
from .solvers import check_order

__all__ = [
    "EquilibriumReport",
    "StabilityVerdict",
    "caputo_stable",
    "cf_disk_verdict",
    "cf_stable_theorem",
    "classify_region",
    "equilibrium_report",
    "table1_conditions",
]

SpectrumLike = Union[Spectrum, Sequence[complex]]


@dataclass(frozen=True, slots=True)
class StabilityVerdict:
    """Per-operator verdict; stable iff every eigenvalue satisfied a condition.

    ``tags[i]`` is the identifier of the condition the spectrum's i-th
    eigenvalue satisfied ("cone"; "1", "3" or "4"; "disk") or None.  A
    verdict over three eigenvalues is the one shared instance in
    ``fraclv.model._SHARED`` for its operator and tags.
    """

    operator: str  # "caputo", "cf-theorem" or "cf-disk"
    stable: bool
    tags: tuple[Optional[str], ...]


@_value_type
class EquilibriumReport:
    """Everything the verdict matrix needs for one equilibrium.

    ``cf_theorem``, ``cf_disk`` and the derived ``regions`` are None at
    alpha = 1, where the CF criteria are undefined.
    """

    equilibrium: Equilibrium
    spectrum: Spectrum
    caputo: StabilityVerdict
    cf_theorem: Optional[StabilityVerdict]
    cf_disk: Optional[StabilityVerdict]
    table1: tuple[tuple[str, bool], ...]

    @property
    def regions(self) -> Optional[tuple[str, ...]]:
        """The region class of each eigenvalue, from its cone and disk tags."""
        if self.cf_disk is None:
            return None
        return tuple(map(_REGIONS.__getitem__, zip(self.caputo.tags, self.cf_disk.tags)))


def _as_complex(value, what: str) -> complex:
    """``value`` as a complex if it is a number but not a bool, else ValueError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Complex):
        raise ValueError(f"{what} must be a number, got {value!r}")
    try:
        return complex(value)
    except OverflowError:
        raise ValueError(f"{what} must be finite, got a value past the float range") from None


def _eigs(spectrum: SpectrumLike) -> tuple[complex, ...]:
    """The eigenvalues as complex numbers; ValueError, naming them all, if any is not finite."""
    if isinstance(spectrum, Spectrum):
        eigs = spectrum.eigenvalues
    else:
        try:
            values = list(spectrum)
        except TypeError:
            raise ValueError(f"spectrum must be a sequence of eigenvalues, got {spectrum!r}") from None
        eigs = tuple([_as_complex(v, f"eigenvalue {i}") for i, v in enumerate(values)])
    if not all(map(cmath.isfinite, eigs)):
        raise ValueError(f"eigenvalues must be finite, got {eigs}")
    return eigs


# The per-eigenvalue tests take a finite eigenvalue and the constants of a
# checked order, which each caller computes once with the expressions below:
# alpha*pi/2 for the cone, and ``_cf_constants`` for the CF tests.  Each
# returns the tag of the condition the eigenvalue satisfied, or None.


def _cone(w: complex, half_angle: float) -> Optional[str]:
    # math.atan2, not cmath.phase: phase raises OverflowError when atan2 underflows (2+5e-324j).
    return "cone" if w != 0 and abs(math.atan2(w.imag, w.real)) > half_angle else None


def _modulus(w: complex) -> float:
    # abs(w), or inf where complex abs raises OverflowError.  Not math.hypot:
    # it can differ from abs by an ulp, which moves points across the circle.
    try:
        return abs(w)
    except OverflowError:
        return math.inf


def _cf_constants(alpha: float) -> tuple[float, float]:
    """``(thr, c)`` with thr = 1/(1-alpha) and c = 1/(2(1-alpha)), alpha < 1."""
    return 1.0 / (1.0 - alpha), 1.0 / (2.0 * (1.0 - alpha))


def _theorem(w: complex, thr: float, c: float) -> Optional[str]:
    # no test of (2) Re(w) > thr: it implies (1), which comes first
    if _modulus(w) >= thr and w != thr:
        return "1"
    if w.real < 0.0:
        return "3"
    if abs(w.imag) > c:  # c == thr / 2 bit for bit: halving commutes with rounding
        return "4"
    return None


def _disk(w: complex, c: float) -> Optional[str]:
    return "disk" if _modulus(w - c) > c else None


#: Region class by the (cone, disk) tags of one eigenvalue.
_REGIONS = {("cone", "disk"): "A", ("cone", None): "B", (None, None): "C", (None, "disk"): "D"}


def _verdict(operator: str, tags: tuple[Optional[str], ...]) -> StabilityVerdict:
    """The verdict from each eigenvalue's tag (None where its test failed).

    A three-eigenvalue verdict is the shared one, found under the plain key
    ``(operator, tags)`` and built on the first miss only; other lengths,
    which are unbounded in number, give a new verdict."""
    if len(tags) != 3:
        return StabilityVerdict(operator, None not in tags, tags)
    key = (operator, tags)
    return _SHARED.get(key) or _SHARED.setdefault(key, StabilityVerdict(operator, None not in tags, tags))


def caputo_stable(spectrum: SpectrumLike, order: float) -> StabilityVerdict:
    """Cone criterion |arg(w)| > alpha*pi/2 for every eigenvalue.

    Accepts alpha = 1, where the test is exactly the classical Re(w) < 0.
    """
    half_angle = check_order(order) * math.pi / 2.0
    return _verdict("caputo", tuple([_cone(w, half_angle) for w in _eigs(spectrum)]))


def cf_stable_theorem(spectrum: SpectrumLike, order: float) -> StabilityVerdict:
    """Any-of-four condition test, applied per eigenvalue."""
    thr, c = _cf_constants(check_order(order, allow_one=False))
    return _verdict("cf-theorem", tuple([_theorem(w, thr, c) for w in _eigs(spectrum)]))


def cf_disk_verdict(spectrum: SpectrumLike, order: float) -> StabilityVerdict:
    """Disk criterion: every eigenvalue strictly outside the closed instability disk."""
    c = _cf_constants(check_order(order, allow_one=False))[1]
    return _verdict("cf-disk", tuple([_disk(w, c) for w in _eigs(spectrum)]))


def classify_region(lam: complex, order: float) -> str:
    """Four-way partition of the plane by the two single-eigenvalue tests.

    Raises ValueError on a non-finite eigenvalue, which has no region.
    """
    alpha = check_order(order, allow_one=False)
    w = lam if type(lam) is complex else _as_complex(lam, "eigenvalue")  # a map passes complexes
    if not cmath.isfinite(w):
        raise ValueError(f"eigenvalues must be finite, got {(w,)}")
    # c inline, not through _cf_constants: a region map calls this per point
    return _REGIONS[_cone(w, alpha * math.pi / 2.0), _disk(w, 1.0 / (2.0 * (1.0 - alpha)))]


def _planar_pair(params: ModelParams, a: float, k: float) -> tuple[complex, complex]:
    """Table 1's closed-form eigenvalue pair of the planar block: E2 with
    (a, k) = (a5, a6), E3 with (a3, a4).  ValueError if a square overflows."""
    a1, a2 = params.a1, params.a2
    try:
        disc = a2 ** 2 * (1.0 - a) ** 2 + 4.0 * k * (1.0 - a) * (a1 * k + a2 * (1.0 - a))
    except OverflowError:  # not a2 * a2, whose inf - inf = NaN would give silent NaN rows
        raise ValueError(f"Table 1's planar eigenvalue pair overflows for {params}") from None
    root = cmath.sqrt(disc)
    return (a2 * (1.0 - a) + root) / (2.0 * k), (a2 * (1.0 - a) - root) / (2.0 * k)


#: Table 1's condition labels by equilibrium kind, in printed order.
_TABLE1_LABELS = {
    "E0": ("caputo: always saddle (unstable at every order)", "cf: a1 > 1/(1-alpha)"),
    "E1": ("caputo: a1*a4 < a2*a3 - a2",
           "caputo: a1*a6 < a2*a5 - a2",
           "cf: (a1*a4 - a2*a3)/a2 > alpha/(1-alpha)",
           "cf: (a1*a6 - a2*a5)/a2 > alpha/(1-alpha)"),
    "E2": ("caputo: (a5-1)/a6 < a1/a2",
           "caputo: a1/a2 < (a3-1)/a4",
           "cf: lambda1 > 1/(1-alpha)",
           "cf: lambda2 > 1/(1-alpha)",
           "cf: lambda3 > 1/(1-alpha)"),
    "E3": ("caputo: (a3-1)/a4 < a1/a2",
           "caputo: a1/a2 < (a5-1)/a6",
           "cf: lambda1 > 1/(1-alpha)",
           "cf: lambda2 > 1/(1-alpha)",
           "cf: lambda3 > 1/(1-alpha)"),
    "E4": ("caputo (routh-hurwitz): a6 > a2*a4*(a3-1)*(w + a2*(a3-1)) / "
           "(w*(a2+a4) + a2*a4*(a3-1))",
           "cf: all characteristic roots > 1/(1-alpha)"),
}


def table1_conditions(
    params: ModelParams, order: float, kind: str, spectrum: SpectrumLike
) -> list[tuple[str, bool]]:
    """Closed-form stability conditions per equilibrium, raw booleans for audit.

    These are the printed sufficient conditions, not the operative verdicts;
    the verdicts in ``equilibrium_report`` always come from the spectrum.
    ``spectrum`` is the equilibrium's spectrum; only E4's CF row, which has
    no closed form, reads it, and no row solves one.  Threshold comparisons
    against closed-form eigenvalue expressions use the real part when the
    expression is complex.
    """
    alpha = check_order(order, allow_one=False)
    return list(_table1(params, params.as_tuple(), 1.0 / (1.0 - alpha), alpha / (1.0 - alpha),
                        kind, _eigs(spectrum) if kind == "E4" else ()))


def _table1(params: ModelParams, coefficients: tuple[float, ...], thr: float, ratio: float,
            kind: str, eigs: tuple[complex, ...]) -> tuple[tuple[str, bool], ...]:
    """The shared Table 1 of ``kind``, found under the plain key ``(kind, flags)``
    and built on the first miss only.  The caller computes once per call
    ``coefficients = params.as_tuple()`` and, at its checked order alpha < 1,
    ``thr = 1/(1-alpha)`` and ``ratio = alpha/(1-alpha)``.  ``eigs`` are the
    equilibrium's checked eigenvalues; only E4 reads them."""
    a1, a2, a3, a4, a5, a6, a7 = coefficients

    if kind == "E0":
        flags = (True, a1 > thr)
    elif kind == "E1":
        flags = (a1 * a4 < a2 * a3 - a2, a1 * a6 < a2 * a5 - a2,
                 (a1 * a4 - a2 * a3) / a2 > ratio, (a1 * a6 - a2 * a5) / a2 > ratio)
    elif kind == "E2":
        lam1 = 1.0 - a3 - (a4 / a6) * (1.0 - a5)
        lam2, lam3 = _planar_pair(params, a5, a6)
        flags = ((a5 - 1.0) / a6 < a1 / a2, a1 / a2 < (a3 - 1.0) / a4,
                 lam1 > thr, lam2.real > thr, lam3.real > thr)
    elif kind == "E3":
        w = 1.0 - a5 - (a6 / a4) * (1.0 - a3) + (a7 / a4) * (a1 * a4 + a2 * (1.0 - a3))
        lam2, lam3 = _planar_pair(params, a3, a4)
        flags = ((a3 - 1.0) / a4 < a1 / a2, a1 / a2 < (a5 - 1.0) / a6,
                 w > thr, lam2.real > thr, lam3.real > thr)
    elif kind == "E4":
        w = a4 * (1.0 + a1 * a7 - a5) + (a6 - a2 * a7) * (a3 - 1.0)
        denom = w * (a2 + a4) + a2 * a4 * (a3 - 1.0)
        rh = denom != 0.0 and a6 > a2 * a4 * (a3 - 1.0) * (w + a2 * (a3 - 1.0)) / denom
        flags = (rh, all(v.real > thr for v in eigs))
    else:
        raise ValueError(f"unknown equilibrium kind {kind!r}")
    key = (kind, flags)
    return _SHARED.get(key) or _SHARED.setdefault(key, tuple(zip(_TABLE1_LABELS[kind], flags)))


def equilibrium_report(params: ModelParams, order: float) -> list[EquilibriumReport]:
    """Spectrum, all three verdicts, audit conditions and region classes per
    equilibrium, in fixed order E0..E4.

    At alpha = 1 the CF verdicts and region classes are None and the audit
    conditions empty (the CF criteria are undefined there); the Caputo
    verdict degrades to the classical test.  The order is checked and its
    constants computed once per call, and the cone, theorem and disk tests
    run in one pass over each spectrum.  A ValueError from a Jacobian's
    cubic ends with its equilibrium: ``(equilibrium E3 at (inf, -inf, 0.0))``.
    """
    alpha = check_order(order)
    half_angle = alpha * math.pi / 2.0
    if alpha < 1.0:
        thr, c = _cf_constants(alpha)
        ratio, coefficients = alpha / (1.0 - alpha), params.as_tuple()
    reports = []
    for eq in equilibria(params):
        try:
            spectrum = _jacobian_spectrum(jacobian(params, eq.point))
        except ValueError as exc:  # the cubic is not finite or overflows
            raise ValueError(f"{exc} (equilibrium {eq.kind} at {eq.point})") from None
        eigs = w1, w2, w3 = _eigs(spectrum)  # a Spectrum holds exactly three
        cones = (_cone(w1, half_angle), _cone(w2, half_angle), _cone(w3, half_angle))
        if alpha == 1.0:
            reports.append(EquilibriumReport(eq, spectrum, _verdict("caputo", cones), None, None, ()))
            continue
        theorems = (_theorem(w1, thr, c), _theorem(w2, thr, c), _theorem(w3, thr, c))
        disks = (_disk(w1, c), _disk(w2, c), _disk(w3, c))
        reports.append(EquilibriumReport(
            eq, spectrum, _verdict("caputo", cones), _verdict("cf-theorem", theorems),
            _verdict("cf-disk", disks), _table1(params, coefficients, thr, ratio, eq.kind, eigs)))
    return reports
