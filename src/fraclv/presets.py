"""Bundled example systems and their published reference data.

Three coefficient sets ship with the package.  For each one the reference
table records the fixed points, their spectra to the printed precision, the
admissibility flags and the published per-operator stability marks that the
``reproduce-table2`` command re-derives.  Example 3 is stored with the
repaired coefficients a2 = 0.05, a3 = 4: the source table misprints a2 = 0.5
and lists a2 twice, but only the repaired values reproduce its own printed
E1 = (160, 0, 0), spectra and the remaining rows.

The verdict matrix has one cell per (example, equilibrium, operator); the
example1 cells cover both of its published order regimes (0.98 and 0.66), so
the matrix has 3 * 5 * 2 = 30 cells.  Exactly one is expected to disagree
with the published mark and is reported as a known discrepancy: example2 E4
under CF, whose spectrum {0.276 +/- 4.123i, -1.053} satisfies the CF criteria
at alpha = 0.6 even though the published mark says unstable.

``SCENARIOS`` holds the trajectory runs that reproduce the published
steady-state behaviors, with their convergence targets and the documented
5e-2 terminal tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import ModelParams

__all__ = [
    "KNOWN_DISCREPANCIES",
    "PRESETS",
    "SCENARIOS",
    "TABLE2",
    "Preset",
    "Scenario",
]


@dataclass(frozen=True, slots=True)
class Preset:
    """One bundled coefficient set; its ``PRESETS`` key is its name."""

    params: ModelParams
    initial: tuple[float, float, float]
    alphas: tuple[float, ...]


@dataclass(frozen=True, slots=True)
class Scenario:
    """One trajectory run with its expected limit point."""

    preset: str
    operator: str  # "caputo" or "cf"
    alpha: float
    initial: tuple[float, float, float]
    step: float
    horizon: float
    cf_mode: str
    target: tuple[float, float, float]
    tolerance: float


PRESETS: dict[str, Preset] = {
    "example1": Preset(
        params=ModelParams(3.0, 0.5, 4.0, 3.0, 4.0, 9.0, 4.0),
        initial=(0.5, 0.9, 0.1),
        alphas=(0.98, 0.66),
    ),
    "example2": Preset(
        params=ModelParams(3.0, 0.5, 4.0, 3.0, 14.0, 9.0, 4.0),
        initial=(2.0, 2.0, 3.0),
        alphas=(0.6,),
    ),
    "example3": Preset(
        params=ModelParams(8.0, 0.05, 4.0, 1.0, 7.0, 9.0, 4.0),
        initial=(0.5, 0.1, 5.0),
        alphas=(0.4,),
    ),
}

# Published rows: point and eigenvalues to printed precision, admissibility,
# and the stability marks keyed by (operator, alpha).
TABLE2: dict[str, dict] = {
    "example1": {
        "E0": {
            "point": (0.0, 0.0, 0.0),
            "eigenvalues": (-3.0, -3.0, 3.0),
            "admissible": True,
            "marks": {("caputo", 0.98): False, ("cf", 0.98): False,
                      ("caputo", 0.66): False, ("cf", 0.66): True},
        },
        "E1": {
            "point": (6.0, 0.0, 0.0),
            "eigenvalues": (-3.0, 15.0, 51.0),
            "admissible": True,
            "marks": {("caputo", 0.98): False, ("cf", 0.98): False,
                      ("caputo", 0.66): False, ("cf", 0.66): True},
        },
        "E2": {
            "point": (0.33, 0.0, 2.83),
            "eigenvalues": (complex(-0.083, -2.914), complex(-0.083, 2.914), -2.0),
            "admissible": True,
            "marks": {("caputo", 0.98): True, ("cf", 0.98): True,
                      ("caputo", 0.66): True, ("cf", 0.66): True},
        },
        "E3": {
            "point": (1.0, 2.5, 0.0),
            "eigenvalues": (complex(-0.25, -2.727), complex(-0.25, 2.727), 16.0),
            "admissible": True,
            "marks": {("caputo", 0.98): False, ("cf", 0.98): False,
                      ("caputo", 0.66): False, ("cf", 0.66): True},
        },
        "E4": {
            "point": (1.0, -1.5, 4.0),
            "eigenvalues": (complex(-1.239, -5.904), complex(-1.239, 5.904), 1.978),
            "admissible": False,
            "marks": {("caputo", 0.98): False, ("cf", 0.98): False,
                      ("caputo", 0.66): False, ("cf", 0.66): False},
        },
    },
    "example2": {
        "E0": {
            "point": (0.0, 0.0, 0.0),
            "eigenvalues": (-13.0, -3.0, 3.0),
            "admissible": True,
            "marks": {("caputo", 0.6): False, ("cf", 0.6): True},
        },
        "E1": {
            "point": (6.0, 0.0, 0.0),
            "eigenvalues": (-3.0, 15.0, 41.0),
            "admissible": True,
            "marks": {("caputo", 0.6): False, ("cf", 0.6): True},
        },
        "E2": {
            "point": (1.44, 0.0, 2.28),
            "eigenvalues": (complex(-0.361, -5.429), complex(-0.361, 5.429), 1.333),
            "admissible": True,
            "marks": {("caputo", 0.6): False, ("cf", 0.6): False},
        },
        "E3": {
            "point": (1.0, 2.5, 0.0),
            "eigenvalues": (complex(-0.25, -2.727), complex(-0.25, 2.727), 6.0),
            "admissible": True,
            "marks": {("caputo", 0.6): False, ("cf", 0.6): True},
        },
        "E4": {
            "point": (1.0, 1.0, 1.5),
            "eigenvalues": (complex(0.276, -4.123), complex(0.276, 4.123), -1.053),
            "admissible": True,
            "marks": {("caputo", 0.6): True, ("cf", 0.6): False},
        },
    },
    "example3": {
        "E0": {
            "point": (0.0, 0.0, 0.0),
            "eigenvalues": (-6.0, -3.0, 8.0),
            "admissible": True,
            "marks": {("caputo", 0.4): False, ("cf", 0.4): True},
        },
        "E1": {
            "point": (160.0, 0.0, 0.0),
            "eigenvalues": (-8.0, 157.0, 1434.0),
            "admissible": True,
            "marks": {("caputo", 0.4): False, ("cf", 0.4): True},
        },
        "E2": {
            "point": (0.666, 0.0, 7.966),
            "eigenvalues": (complex(-0.016, -6.913), complex(-0.016, 6.913), -2.333),
            "admissible": True,
            "marks": {("caputo", 0.4): True, ("cf", 0.4): True},
        },
        "E3": {
            "point": (3.0, 7.85, 0.0),
            "eigenvalues": (complex(-0.075, -4.852), complex(-0.075, 4.852), 52.4),
            "admissible": True,
            "marks": {("caputo", 0.4): False, ("cf", 0.4): True},
        },
        "E4": {
            "point": (3.0, -5.25, 13.1),
            "eigenvalues": (complex(-1.274, -18.50), complex(-1.274, 18.50), 2.398),
            "admissible": False,
            "marks": {("caputo", 0.4): False, ("cf", 0.4): True},
        },
    },
}

#: Cells whose computed verdict is expected to contradict the published mark.
KNOWN_DISCREPANCIES: frozenset[tuple[str, str, str]] = frozenset(
    {("example2", "E4", "cf")}
)

# The CF run at alpha = 0.98 needs the corrected scheme: the paper-mode
# limit is the time-rescaled classical system, whose slow spiral toward E2 is
# still ~0.14 away at t = 50.  The planar CF run keeps paper mode; corrected
# mode is not explicitly integrable there ((1-alpha) * L > 1 on that orbit).
SCENARIOS: dict[str, Scenario] = {
    "example1-caputo": Scenario(
        preset="example1", operator="caputo", alpha=0.98,
        initial=(0.5, 0.9, 0.1), step=0.01, horizon=50.0, cf_mode="paper",
        target=(1.0 / 3.0, 0.0, 17.0 / 6.0), tolerance=5e-2,
    ),
    "example1-cf": Scenario(
        preset="example1", operator="cf", alpha=0.98,
        initial=(0.5, 0.9, 0.1), step=0.01, horizon=50.0, cf_mode="corrected",
        target=(1.0 / 3.0, 0.0, 17.0 / 6.0), tolerance=5e-2,
    ),
    "example1-cf-planar": Scenario(
        preset="example1", operator="cf", alpha=0.6,
        initial=(1.6, 1.9, 0.0), step=0.01, horizon=50.0, cf_mode="paper",
        target=(1.0, 2.5, 0.0), tolerance=5e-2,
    ),
    "example2-caputo": Scenario(
        preset="example2", operator="caputo", alpha=0.6,
        initial=(2.0, 2.0, 3.0), step=0.01, horizon=100.0, cf_mode="paper",
        target=(1.0, 1.0, 1.5), tolerance=5e-2,
    ),
}
