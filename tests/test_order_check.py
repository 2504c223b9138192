"""One order check for every entry point that takes a fractional order."""

import pytest

from fraclv.model import vector_field
from fraclv.presets import PRESETS
from fraclv.solvers import SolverConfig, integrate_caputo, integrate_cf, linear_cf_exact
from fraclv.stability import (
    caputo_stable,
    cf_disk_verdict,
    cf_stable_disk,
    cf_stable_theorem,
    classify_region,
    equilibrium_report,
    table1_conditions,
)

EX1 = PRESETS["example1"].params
FIELD = vector_field(EX1)
CONFIG = SolverConfig(step=0.1, horizon=0.5)
SPECTRUM = [complex(-1.0, 2.0), complex(-1.0, -2.0), -3.0]

# (name, call with the order, accepts alpha = 1)
ENTRY_POINTS = [
    ("integrate_caputo", lambda a: integrate_caputo(FIELD, [0.5, 0.9, 0.1], a, CONFIG), True),
    ("integrate_cf", lambda a: integrate_cf(FIELD, [0.5, 0.9, 0.1], a, CONFIG), True),
    ("linear_cf_exact", lambda a: linear_cf_exact(-1.0, a, 1.0, 0.5), True),
    ("caputo_stable", lambda a: caputo_stable(SPECTRUM, a), True),
    ("equilibrium_report", lambda a: equilibrium_report(EX1, a), True),
    ("cf_stable_theorem", lambda a: cf_stable_theorem(SPECTRUM, a), False),
    ("cf_stable_disk", lambda a: cf_stable_disk(SPECTRUM[0], a), False),
    ("cf_disk_verdict", lambda a: cf_disk_verdict(SPECTRUM, a), False),
    ("classify_region", lambda a: classify_region(SPECTRUM[0], a), False),
    ("table1_conditions", lambda a: table1_conditions(EX1, a, "E0"), False),
]
IDS = [name for name, _, _ in ENTRY_POINTS]


@pytest.mark.parametrize("name,call,accepts_one", ENTRY_POINTS, ids=IDS)
def test_order_one(name, call, accepts_one):
    if accepts_one:
        call(1.0)
    else:
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            call(1.0)


@pytest.mark.parametrize("name,call,accepts_one", ENTRY_POINTS, ids=IDS)
@pytest.mark.parametrize("alpha", [0.0, 1.2, float("nan")])
def test_order_out_of_range_rejected(name, call, accepts_one, alpha):
    with pytest.raises(ValueError, match="order alpha must be in"):
        call(alpha)

