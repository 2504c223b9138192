"""Fractional-order three-species Lotka-Volterra toolkit.

Solvers for the Caputo and Caputo-Fabrizio operators, closed-form equilibria
and spectra of the three-species Lotka-Volterra system, stability verdicts
under both operators, and a CLI for simulation and reproduction runs.
"""

__version__ = "0.1.0"

from .model import Equilibrium, ModelParams, equilibria, existence_report, jacobian, rhs, vector_field
from .presets import PRESETS, SCENARIOS, TABLE2, Preset, Scenario
from .solvers import (
    DivergenceError,
    FractionalOrder,
    SolverConfig,
    Trajectory,
    corrector_weights,
    integrate_caputo,
    integrate_cf,
    linear_cf_exact,
    predictor_weights,
    reference_rk4,
)
from .spectral import (
    CubicAnalysis,
    CubicCoefficients,
    Spectrum,
    characteristic_cubic,
    cubic_analysis,
    cubic_roots,
    eigenvalues,
    routh_hurwitz_cubic,
)
from .stability import (
    EquilibriumReport,
    StabilityVerdict,
    caputo_stable,
    cf_stable_disk,
    cf_stable_theorem,
    classify_region,
    equilibrium_report,
    table1_conditions,
)

__all__ = [
    "__version__",
    "DivergenceError",
    "Equilibrium",
    "EquilibriumReport",
    "FractionalOrder",
    "CubicAnalysis",
    "CubicCoefficients",
    "ModelParams",
    "PRESETS",
    "Preset",
    "SCENARIOS",
    "Scenario",
    "SolverConfig",
    "Spectrum",
    "StabilityVerdict",
    "TABLE2",
    "Trajectory",
    "caputo_stable",
    "cf_stable_disk",
    "cf_stable_theorem",
    "characteristic_cubic",
    "classify_region",
    "corrector_weights",
    "cubic_analysis",
    "cubic_roots",
    "eigenvalues",
    "equilibria",
    "equilibrium_report",
    "existence_report",
    "integrate_caputo",
    "integrate_cf",
    "jacobian",
    "linear_cf_exact",
    "predictor_weights",
    "reference_rk4",
    "rhs",
    "routh_hurwitz_cubic",
    "table1_conditions",
    "vector_field",
]
