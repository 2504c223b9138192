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

``characteristic_cubic`` checks its matrix's shape and converts each entry
by the real-number rule of ``solvers._as_float`` before the one coefficient
formula, and ``cubic_roots`` reads a ``CubicCoefficients``, whose
coefficients are floats by the same rule, before the one root solver.
``equilibrium_report`` calls the private float-level path
``_jacobian_spectrum``, which hands the nine floats of a
``model.jacobian`` straight to the same arithmetic (no check, no conversion,
no ``CubicCoefficients``): the same Spectrum bit for bit, and ValueErrors
that name ``CubicCoefficients(a=..., b=..., c=...)`` as the public path's do.

The value types are slotted frozen dataclasses: no per-instance ``__dict__``,
with the fields, ``repr``, ``==`` and ``hash`` of plain frozen dataclasses.
``Spectrum``, ``model.Equilibrium`` and ``stability.EquilibriumReport``,
which every report builds, are made by ``_value_type``, whose ``__init__``
sets each slot through its member descriptor.  A Spectrum holds its
eigenvalues together with the depressed-cubic terms and branch they come
from.  The reports share their constant values through
``fraclv.model._SHARED`` (see ``fraclv.stability`` for the memory per report).
"""

from __future__ import annotations

import math
import sys
from dataclasses import MISSING, dataclass, fields
from typing import Sequence

from .solvers import _as_float

__all__ = [
    "BRANCH_ONE_REAL_PAIR",
    "BRANCH_REPEATED",
    "BRANCH_THREE_REAL",
    "REPEATED_TOLERANCE_FACTOR",
    "SAFE_SCALE",
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
_EPS = sys.float_info.epsilon


def _value_type(cls: type) -> type:
    """``dataclass(frozen=True, slots=True)`` with a cheaper ``__init__``.

    The ``__init__``, generated once per class from ``fields``, sets each slot
    through its member descriptor, at ~0.5x the cost of the dataclass's
    ``object.__setattr__`` calls.  All else is the dataclass's: signature and
    ``TypeError``s, ``FrozenInstanceError``, no ``__dict__``, ``repr``, ``==``,
    ``hash``, ``replace``, copying and pickling.  A default, a
    ``default_factory``, an ``init=False`` or ``kw_only`` field, or a
    ``__post_init__`` would need more than that ``__init__``: TypeError.
    """
    cls = dataclass(frozen=True, slots=True)(cls)
    if hasattr(cls, "__post_init__"):
        raise TypeError(f"value type {cls.__qualname__} must not define __post_init__")
    names = []
    for f in fields(cls):
        if f.default is not MISSING or f.default_factory is not MISSING or not f.init or f.kw_only:
            raise TypeError(f"value type {cls.__qualname__}: field {f.name!r} must be a required "
                            "positional init field (no default, default_factory, init=False "
                            "or kw_only)")
        names.append(f.name)
    setters = [f"_set_{name}" for name in names]
    source = (f"def _make({', '.join(setters)}):\n"
              f" def __init__(self, {', '.join(names)}):\n"
              + "".join(f"  {setter}(self, {name})\n" for setter, name in zip(setters, names))
              + " return __init__\n")
    # __name__ makes cls's module that of __init__, for warning filters too
    namespace = {"__name__": cls.__module__}
    exec(source, namespace)
    init = namespace["_make"](*[cls.__dict__[name].__set__ for name in names])
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__annotations__ = {f.name: f.type for f in fields(cls)} | {"return": None}
    cls.__init__ = init
    return cls


@dataclass(frozen=True, slots=True)
class CubicCoefficients:
    """Monic cubic L(w) = w^3 + a w^2 + b w + c, its coefficients stored as
    Python floats: any real number but a bool is converted with ``float``, as
    ``ModelParams`` does, and anything else, or an integer past the float
    range, raises ValueError naming the coefficient.  NaN and inf are stored;
    ``cubic_roots`` refuses them."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        for name in ("a", "b", "c"):
            value = getattr(self, name)
            if type(value) is not float:  # a float is stored as given
                object.__setattr__(self, name, _as_float(value, f"cubic coefficient {name}"))


@_value_type
class Spectrum:
    """Exactly three eigenvalues, sorted by (real, imaginary), with the
    depressed-cubic terms p, q and delta and the branch the roots come from.

    For a cubic rescaled below ``SAFE_SCALE``, p, q and delta are those of
    the cubic in u = w / 2**k that was solved (the unscaled terms underflow);
    the branch is that of both cubics.
    """

    eigenvalues: tuple[complex, complex, complex]
    p: float
    q: float
    delta: float
    branch: str


def _coefficients(m00: float, m01: float, m02: float, m10: float, m11: float, m12: float,
                  m20: float, m21: float, m22: float) -> tuple[float, float, float]:
    """(a, b, c) of the matrix's characteristic cubic, from its entries row by row."""
    minor = m11 * m22 - m12 * m21
    a = -(m00 + m11 + m22)
    b = minor + (m00 * m22 - m02 * m20) + (m00 * m11 - m01 * m10)
    det = m00 * minor - m01 * (m10 * m22 - m12 * m20) + m02 * (m10 * m21 - m11 * m20)
    return a, b, -det


def characteristic_cubic(matrix: Sequence[Sequence[float]]) -> CubicCoefficients:
    """a = -trace, b = sum of principal 2x2 minors, c = -det.

    ``matrix`` is any 3x3 sequence (tuples, lists or an ndarray) of real
    numbers, each converted by the real-number rule of ``solvers._as_float``;
    another shape, ragged rows included, raises ValueError, and so does an
    entry that is not a real number (a str or a bool, say) or an integer past
    the float range, naming the entry.
    """
    try:
        (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = matrix
    except (TypeError, ValueError):
        raise ValueError(f"expected a 3x3 matrix, got {matrix!r}") from None
    entries = (m00, m01, m02, m10, m11, m12, m20, m21, m22)
    a, b, c = _coefficients(*(_as_float(v, f"matrix entry ({k // 3}, {k % 3})")
                              for k, v in enumerate(entries)))
    return CubicCoefficients(a, b, c)


def cubic_roots(coeffs: CubicCoefficients) -> Spectrum:
    return _roots(coeffs.a, coeffs.b, coeffs.c)


def _jacobian_spectrum(rows: tuple[tuple[float, float, float], ...]) -> Spectrum:
    """``cubic_roots(characteristic_cubic(rows))`` for three rows of three
    Python floats, such as ``model.jacobian`` returns, with no check and no
    ``CubicCoefficients`` built: the same arithmetic, so the same Spectrum
    bit for bit, and the same ValueErrors."""
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = rows
    a, b, c = _coefficients(m00, m01, m02, m10, m11, m12, m20, m21, m22)
    return _roots(a, b, c)


def _rescaled(a: float, b: float, c: float) -> tuple[float, float, float, int]:
    """(a, b, c) of the cubic in u = w / 2**k with 2**k ~ its scale, and k,
    for a cubic of scale below ``SAFE_SCALE``; the scaling is exact."""
    k = math.frexp(max(abs(a), math.sqrt(abs(b)), abs(c) ** (1.0 / 3.0)))[1]
    return math.ldexp(a, -k), math.ldexp(b, -2 * k), math.ldexp(c, -3 * k), k


def _cbrt(x: float) -> float:
    return math.copysign(abs(x) ** (1.0 / 3.0), x)


def _before(u: complex, v: complex) -> bool:
    """(u.real, u.imag) < (v.real, v.imag)."""
    return u.real < v.real or (u.real == v.real and u.imag < v.imag)


def _roots(a0: float, b0: float, c0: float) -> Spectrum:
    """The Spectrum of w^3 + a0 w^2 + b0 w + c0; errors name ``CubicCoefficients(a0, b0, c0)``."""
    if abs(a0) >= SAFE_SCALE or abs(b0) >= _SAFE_B or abs(c0) >= _SAFE_C:
        a, b, c, k = a0, b0, c0, 0
    else:  # a NaN coefficient lands here, stays NaN and is refused below
        a, b, c, k = _rescaled(a0, b0, c0)
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c)):
        raise ValueError(f"cubic coefficients must be finite, got {CubicCoefficients(a0, b0, c0)}")
    p = b - a * a / 3.0
    try:
        q = 2.0 * a ** 3 / 27.0 - a * b / 3.0 + c
        delta = q * q / 4.0 + p ** 3 / 27.0
        scale_q = max(2.0 * abs(a) ** 3 / 27.0, abs(a * b) / 3.0, abs(c))
    except OverflowError:  # a power past the float range
        q = delta = scale_q = math.inf
    scale_p = max(abs(b), a * a / 3.0)
    tol = REPEATED_TOLERANCE_FACTOR * _EPS * (abs(q) * scale_q + p * p * scale_p)
    if not (math.isfinite(p) and math.isfinite(q) and math.isfinite(delta) and math.isfinite(tol)):
        raise ValueError(f"cubic terms overflow the float range for {CubicCoefficients(a0, b0, c0)}")
    shift = -a / 3.0

    if abs(delta) <= tol:
        branch = BRANCH_REPEATED
        m = _cbrt(q / 2.0)
        r0, r1, r2 = complex(-2.0 * m + shift), complex(m + shift), complex(m + shift)
    elif delta > 0.0:
        branch = BRANCH_ONE_REAL_PAIR
        sq = math.sqrt(delta)
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
        branch = BRANCH_THREE_REAL
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

    # a stable sort of three by (real, imaginary), as list.sort with that key:
    # every branch gives r1 <= r2 (the shift and the exact scaling keep order),
    # so two compare-and-swaps place all three
    if _before(r1, r0):
        r0, r1 = r1, r0
    if _before(r2, r1):
        r1, r2 = r2, r1
    return Spectrum((r0, r1, r2), p, q, delta, branch)
