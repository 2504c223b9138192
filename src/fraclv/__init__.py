"""Fractional-order three-species Lotka-Volterra toolkit.

Solvers for the Caputo and Caputo-Fabrizio operators, closed-form equilibria
and spectra of the three-species Lotka-Volterra system, stability verdicts
under both operators, and a CLI for simulation and reproduction runs.

The top level re-exports the names of the README's library example and the
bundled presets; everything else is imported from its submodule
(``fraclv.model``, ``fraclv.solvers``, ``fraclv.spectral``,
``fraclv.stability``, ``fraclv.presets``, ``fraclv.cli``).
"""

__version__ = "0.1.0"

from .model import ModelParams, vector_field
from .presets import PRESETS, SCENARIOS
from .solvers import SolverConfig, integrate_caputo, integrate_cf
from .spectral import CubicCoefficients, cubic_roots
from .stability import classify_region, equilibrium_report

__all__ = [
    "__version__",
    "CubicCoefficients",
    "ModelParams",
    "PRESETS",
    "SCENARIOS",
    "SolverConfig",
    "classify_region",
    "cubic_roots",
    "equilibrium_report",
    "integrate_caputo",
    "integrate_cf",
    "vector_field",
]
