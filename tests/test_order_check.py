"""One order check for every entry point that takes a fractional order."""

from fractions import Fraction

import numpy as np
import pytest

from fraclv.model import vector_field
from fraclv.presets import PRESETS
from fraclv.solvers import SolverConfig, check_order, integrate_caputo, integrate_cf
from fraclv.stability import (
    caputo_stable,
    cf_disk_verdict,
    cf_stable_theorem,
    classify_region,
    equilibrium_report,
    table1_conditions,
)

from oracles import linear_cf_exact

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
    ("cf_disk_verdict", lambda a: cf_disk_verdict(SPECTRUM, a), False),
    ("classify_region", lambda a: classify_region(SPECTRUM[0], a), False),
    # an empty spectrum has nothing per eigenvalue, so the order must be checked up front
    ("caputo_stable-empty", lambda a: caputo_stable([], a), True),
    ("cf_stable_theorem-empty", lambda a: cf_stable_theorem([], a), False),
    ("cf_disk_verdict-empty", lambda a: cf_disk_verdict([], a), False),
    ("table1_conditions", lambda a: table1_conditions(EX1, a, "E0", SPECTRUM), False),
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


# ModelParams' rule: any real number but a bool is an order; the rest is a ValueError
@pytest.mark.parametrize("name,call,accepts_one", ENTRY_POINTS, ids=IDS)
@pytest.mark.parametrize("alpha,message", [
    (True, "a real number"), (False, "a real number"), ("0.5", "a real number"),
    (None, "a real number"), (0.5j, "a real number"), ([0.5], "a real number"),
    (10 ** 400, "finite, got an integer past the float range"),
], ids=["True", "False", "str", "None", "complex", "list", "huge-int"])
def test_order_that_is_not_a_real_number_rejected(name, call, accepts_one, alpha, message):
    with pytest.raises(ValueError, match=f"order alpha must be {message}"):
        call(alpha)


@pytest.mark.parametrize("alpha,expected", [
    (0.5, 0.5), (1, 1.0), (np.float64(0.25), 0.25), (np.float32(0.5), 0.5), (Fraction(1, 4), 0.25),
])
def test_real_orders_come_back_as_floats(alpha, expected):
    value = check_order(alpha)
    assert type(value) is float and value == expected


def test_a_float_order_is_returned_as_given():
    alpha = 0.3
    assert check_order(alpha) is alpha


@pytest.mark.parametrize("field", ["step", "horizon"])
@pytest.mark.parametrize("value", [True, "0.1", None, 0.1j, 10 ** 400])
def test_solver_config_numbers_follow_the_same_rule(field, value):
    kwargs = {"step": 0.1, "horizon": 1.0, field: value}
    with pytest.raises(ValueError, match=f"^{field} must be "):
        SolverConfig(**kwargs)


def test_solver_config_stores_floats():
    config = SolverConfig(step=np.float64(0.5), horizon=2)
    assert type(config.step) is float and type(config.horizon) is float
    assert config.num_steps == 4
