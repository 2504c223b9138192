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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "EQUILIBRIUM_KINDS",
    "Equilibrium",
    "ModelParams",
    "equilibria",
    "jacobian",
    "rhs",
    "vector_field",
]

EQUILIBRIUM_KINDS = ("E0", "E1", "E2", "E3", "E4")


@dataclass(frozen=True)
class ModelParams:
    """The seven positive rate coefficients."""

    a1: float
    a2: float
    a3: float
    a4: float
    a5: float
    a6: float
    a7: float

    def __post_init__(self):
        for name, value in self.as_dict().items():
            if not value > 0.0:
                raise ValueError(f"coefficient {name} must be positive, got {value}")

    def as_tuple(self) -> tuple[float, ...]:
        return (self.a1, self.a2, self.a3, self.a4, self.a5, self.a6, self.a7)

    def as_dict(self) -> dict[str, float]:
        return {f"a{i}": v for i, v in enumerate(self.as_tuple(), start=1)}


@dataclass(frozen=True)
class Equilibrium:
    """One fixed point with its admissibility audit.

    ``conditions`` lists the symbolic existence conditions for this kind;
    ``admissible`` is the operative component-wise non-negativity test.
    """

    kind: str
    point: np.ndarray
    admissible: bool
    conditions: tuple[tuple[str, bool], ...]


def rhs(params: ModelParams, state: Sequence[float]) -> np.ndarray:
    a1, a2, a3, a4, a5, a6, a7 = params.as_tuple()
    x, y, z = state
    return np.array(
        [
            x * (a1 - a2 * x - y - z),
            y * ((1.0 - a3) + a4 * x),
            z * ((1.0 - a5) + a6 * x + a7 * y),
        ]
    )


def vector_field(params: ModelParams) -> Callable[[float, np.ndarray], tuple[float, float, float]]:
    """Autonomous (t, state) -> derivative adapter for the integrators.

    ``state`` is a 1-d float array; the derivative comes back as a tuple of
    three Python floats, which the integrators' float-level steps use as is
    (building an array per call would cost as much as the arithmetic).  The
    values are bit-identical to ``rhs``: the same float operations in the
    same order, on Python floats unpacked once per call.
    """
    a1, a2, a3, a4, a5, a6, a7 = params.as_tuple()
    b3, b5 = 1.0 - a3, 1.0 - a5

    def field(_t: float, state: np.ndarray) -> tuple[float, float, float]:
        x, y, z = state.tolist()
        return (x * (a1 - a2 * x - y - z), y * (b3 + a4 * x), z * (b5 + a6 * x + a7 * y))

    return field


def jacobian(params: ModelParams, point: Sequence[float]) -> np.ndarray:
    a1, a2, a3, a4, a5, a6, a7 = params.as_tuple()
    x, y, z = point
    return np.array(
        [
            [a1 - 2.0 * a2 * x - y - z, -x, -x],
            [a4 * y, 1.0 - a3 + a4 * x, 0.0],
            [a6 * z, a7 * z, a6 * x - a5 + a7 * y + 1.0],
        ]
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
    return ("z >= 0: (a6 - a2*a7)*(a3 - 1) >= 0 (since 1 + a1*a7 - a5 = 0)",
            (a6 - a2 * a7) * (a3 - 1.0) >= 0.0)


def _conditions(params: ModelParams, kind: str) -> tuple[tuple[str, bool], ...]:
    a1, a2, a3, a4, a5, a6, a7 = params.as_tuple()
    if kind in ("E0", "E1"):
        return (("always exists", True),)
    if kind == "E2":
        return (
            ("a5 >= 1", a5 >= 1.0),
            ("a1*a6 >= a2*(a5 - 1)", a1 * a6 >= a2 * (a5 - 1.0)),
        )
    if kind == "E3":
        return (
            ("a3 >= 1", a3 >= 1.0),
            ("a1*a4 >= a2*(a3 - 1)", a1 * a4 >= a2 * (a3 - 1.0)),
        )
    if kind == "E4":
        return (
            ("x >= 0: a3 >= 1", a3 >= 1.0),
            ("y >= 0: a4*(a5 - 1) >= a6*(a3 - 1)", a4 * (a5 - 1.0) >= a6 * (a3 - 1.0)),
            _e4_z_condition(params),
        )
    raise ValueError(f"unknown equilibrium kind {kind!r}")


def _points(params: ModelParams) -> dict[str, np.ndarray]:
    a1, a2, a3, a4, a5, a6, a7 = params.as_tuple()
    return {
        "E0": np.array([0.0, 0.0, 0.0]),
        "E1": np.array([a1 / a2, 0.0, 0.0]),
        "E2": np.array(
            [(a5 - 1.0) / a6, 0.0, (a1 * a6 - a2 * (a5 - 1.0)) / a6]
        ),
        "E3": np.array(
            [(a3 - 1.0) / a4, (a1 * a4 - a2 * (a3 - 1.0)) / a4, 0.0]
        ),
        "E4": np.array(
            [
                (a3 - 1.0) / a4,
                (a4 * (a5 - 1.0) - a6 * (a3 - 1.0)) / (a7 * a4),
                (a4 * (1.0 + a1 * a7 - a5) + (a6 - a2 * a7) * (a3 - 1.0)) / (a7 * a4),
            ]
        ),
    }


def equilibria(params: ModelParams) -> list[Equilibrium]:
    """All five fixed points, in fixed order E0..E4 regardless of admissibility."""
    out = []
    for kind, point in _points(params).items():
        out.append(
            Equilibrium(
                kind=kind,
                point=point,
                admissible=bool(np.all(point >= 0.0)),
                conditions=_conditions(params, kind),
            )
        )
    return out

