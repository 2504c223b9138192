"""Three-species Lotka-Volterra vector field, equilibria and Jacobian.

The system in state (x, y, z) with positive rate coefficients a1..a7:

    x' = x (a1 - a2 x - y - z)
    y' = y ((1 - a3) + a4 x)
    z' = z ((1 - a5) + a6 x + a7 y)

x is the prey population, y and z the two predators.  Every right-hand side
carries its own state component as a factor, so each coordinate plane is
invariant: a component that starts at exactly zero stays exactly zero.

The field has five closed-form fixed points E0..E4, returned in that fixed
order together with their admissibility (all components non-negative).  When
the symbolic existence conditions and the computed point disagree within
rounding of a boundary, non-negativity of the point is the operative test.

Points and Jacobian rows are tuples of floats, so an ``Equilibrium`` is a
hashable value.  If ``a7 * a4`` underflows to 0, E4's y and z are IEEE's
quotients (signed inf, or NaN for 0/0), not a ZeroDivisionError.

The value types are slotted frozen dataclasses (no per-instance ``__dict__``).
``Equilibrium``'s ``__init__``, from ``spectral._value_type``, sets its slots
through their member descriptors; ``ModelParams``, which converts in
``__post_init__``, is a plain one and holds Python floats whatever real
numbers it is given.  Each E2 and E3 condition pair, and each of E4's rows
whose label carries no number, is the one instance that ``_shared`` keeps for
it, so all equilibria share it; a pair is shared whole, not row by row, and
only E4's z row, whose label states its bound, is built per call.  Its table
``_SHARED`` is the one sharing table of the package: ``fraclv.stability``
shares its Table 1s and verdicts through it too, under plain keys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Hashable, Sequence, TypeVar

import numpy as np

from .solvers import _as_float
from .spectral import _value_type

__all__ = [
    "Equilibrium",
    "ModelParams",
    "equilibria",
    "jacobian",
    "vector_field",
]

_Hashable = TypeVar("_Hashable", bound=Hashable)


@dataclass(frozen=True, slots=True)
class ModelParams:
    """The seven positive rate coefficients, stored as Python floats.

    Any real number is accepted (numpy scalars included) and converted with
    ``float``, so a float comes through bit for bit and no numpy scalar
    reaches a result.  A non-number, an integer past the float range or a
    value that is not positive and finite raises ValueError naming the
    coefficient.
    """

    a1: float
    a2: float
    a3: float
    a4: float
    a5: float
    a6: float
    a7: float

    def __post_init__(self):
        for name, value in self.as_dict().items():
            if type(value) is not float:  # a float is stored as given
                object.__setattr__(self, name, _as_float(value, f"coefficient {name}"))
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"coefficient {name} must be positive and finite, got {value}")

    def as_tuple(self) -> tuple[float, ...]:
        return (self.a1, self.a2, self.a3, self.a4, self.a5, self.a6, self.a7)

    def as_dict(self) -> dict[str, float]:
        return {f"a{i}": v for i, v in enumerate(self.as_tuple(), start=1)}


@_value_type
class Equilibrium:
    """One fixed point with its admissibility audit.

    ``conditions`` lists the symbolic existence conditions for this kind;
    ``admissible`` is the operative component-wise non-negativity test.
    """

    kind: str
    point: tuple[float, float, float]
    admissible: bool
    conditions: tuple[tuple[str, bool], ...]


#: The one instance of each constant value in use.  ``_shared`` keys this
#: module's condition rows and pairs by themselves; ``fraclv.stability`` finds
#: its Table 1s and verdicts under plain tuples of str, bool and None with
#: ``_SHARED.get(key) or _SHARED.setdefault(key, value)``, which builds
#: ``value`` on a miss only (every value is truthy).  Only values from
#: finite sets enter it, so no input grows it past a few hundred entries.
_SHARED: dict = {}


def _shared(value: _Hashable) -> _Hashable:
    """The one shared instance of the constant ``value``, which must come from a finite set."""
    return _SHARED.setdefault(value, value)


def vector_field(params: ModelParams) -> Callable[[float, np.ndarray], tuple[float, float, float]]:
    """Autonomous (t, state) -> derivative adapter for the integrators.

    ``state`` is a 1-d float array; the derivative comes back as a tuple of
    three Python floats.  Its attribute ``floats`` is the same arithmetic on
    a sequence of three Python floats, which the integrators call in its
    place, so a step builds no array (that costs more than the arithmetic).
    The coefficients are unpacked to Python floats once.
    """
    a1, a2, a3, a4, a5, a6, a7 = params.as_tuple()
    b3, b5 = 1.0 - a3, 1.0 - a5

    def floats(_t: float, state: Sequence[float]) -> tuple[float, float, float]:
        x, y, z = state
        return (x * (a1 - a2 * x - y - z), y * (b3 + a4 * x), z * (b5 + a6 * x + a7 * y))

    def field(t: float, state: np.ndarray) -> tuple[float, float, float]:
        return floats(t, state.tolist())

    field.floats = floats
    return field


def jacobian(params: ModelParams, point: Sequence[float]) -> tuple[tuple[float, float, float], ...]:
    """The Jacobian at ``point`` as three rows of three floats."""
    a1, a2, a3, a4, a5, a6, a7 = params.as_tuple()
    x, y, z = point
    return (
        (a1 - 2.0 * a2 * x - y - z, -x, -x),
        (a4 * y, 1.0 - a3 + a4 * x, 0.0),
        (a6 * z, a7 * z, a6 * x - a5 + a7 * y + 1.0),
    )


def _e4_z_condition(params: ModelParams) -> tuple[str, bool]:
    # z4 >= 0  <=>  a4*(1 + a1 a7 - a5) + (a6 - a2 a7)(a3 - 1) >= 0, split into
    # the sign branches of s = 1 + a1 a7 - a5 for the audit trail
    a1, a2, a3, a4, a5, a6, a7 = params.as_tuple()
    s = 1.0 + a1 * a7 - a5
    if s > 0.0:
        bound = (a2 * a7 - a6) * (a3 - 1.0) / s
        return (f"z >= 0: a4 >= (a2*a7 - a6)*(a3 - 1)/(1 + a1*a7 - a5) = {bound:.6g}", a4 >= bound)
    if s < 0.0:
        bound = (a2 * a7 - a6) * (a3 - 1.0) / s
        return (f"z >= 0: a4 <= (a2*a7 - a6)*(a3 - 1)/(1 + a1*a7 - a5) = {bound:.6g}", a4 <= bound)
    return _shared(("z >= 0: (a6 - a2*a7)*(a3 - 1) >= 0 (since 1 + a1*a7 - a5 = 0)",
                    (a6 - a2 * a7) * (a3 - 1.0) >= 0.0))


def _quotient(num: float, den: float) -> float:
    # num / den with IEEE's result where Python raises ZeroDivisionError
    if den != 0.0:
        return num / den
    if num == 0.0 or math.isnan(num):
        return math.nan
    return math.copysign(math.inf, num) * math.copysign(1.0, den)


def equilibria(params: ModelParams) -> list[Equilibrium]:
    """All five fixed points, in fixed order E0..E4 regardless of admissibility."""
    a1, a2, a3, a4, a5, a6, a7 = params.as_tuple()
    a74 = a7 * a4
    always = (("always exists", True),)
    table = (
        ("E0", (0.0, 0.0, 0.0), always),
        ("E1", (a1 / a2, 0.0, 0.0), always),
        ("E2", ((a5 - 1.0) / a6, 0.0, (a1 * a6 - a2 * (a5 - 1.0)) / a6),
         _shared((("a5 >= 1", a5 >= 1.0), ("a1*a6 >= a2*(a5 - 1)", a1 * a6 >= a2 * (a5 - 1.0))))),
        ("E3", ((a3 - 1.0) / a4, (a1 * a4 - a2 * (a3 - 1.0)) / a4, 0.0),
         _shared((("a3 >= 1", a3 >= 1.0), ("a1*a4 >= a2*(a3 - 1)", a1 * a4 >= a2 * (a3 - 1.0))))),
        ("E4", (
            (a3 - 1.0) / a4,
            _quotient(a4 * (a5 - 1.0) - a6 * (a3 - 1.0), a74),
            _quotient(a4 * (1.0 + a1 * a7 - a5) + (a6 - a2 * a7) * (a3 - 1.0), a74),
        ), (
            _shared(("x >= 0: a3 >= 1", a3 >= 1.0)),
            _shared(("y >= 0: a4*(a5 - 1) >= a6*(a3 - 1)", a4 * (a5 - 1.0) >= a6 * (a3 - 1.0))),
            _e4_z_condition(params),
        )),
    )
    out = []
    for kind, point, conditions in table:
        x, y, z = point
        out.append(Equilibrium(kind, point, bool(x >= 0.0 and y >= 0.0 and z >= 0.0), conditions))
    return out
