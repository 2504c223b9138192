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


# the same rule for each component of an initial state, named in the error
@pytest.mark.parametrize("integrate", [integrate_caputo, integrate_cf])
@pytest.mark.parametrize("value", [True, "0.5", None, 1 + 0j, 10 ** 400],
                         ids=["True", "str", "None", "complex", "huge-int"])
def test_initial_state_components_follow_the_same_rule(integrate, value):
    with pytest.raises(ValueError, match="^initial state component 1 must be "):
        integrate(FIELD, [0.5, value, 0.1], 0.9, CONFIG)


# and for each component of the field's value at t = 0, g_0
@pytest.mark.parametrize("integrate", [integrate_caputo, integrate_cf])
@pytest.mark.parametrize("value", [True, "1.0", None, 1j, 10 ** 400],
                         ids=["True", "str", "None", "complex", "huge-int"])
def test_field_value_components_at_zero_follow_the_same_rule(integrate, value):
    field = lambda t, x: [x[0], value, x[2]]
    with pytest.raises(ValueError, match=r"^field value component 1 at t = 0 must be "):
        integrate(field, [0.5, 0.9, 0.1], 0.9, CONFIG)


@pytest.mark.parametrize("integrate", [integrate_caputo, integrate_cf])
@pytest.mark.parametrize("wrap", [
    lambda g: [int(v) for v in g],
    lambda g: np.array(g, dtype=np.float32),
], ids=["int", "float32"])
def test_real_field_values_run_as_their_floats(integrate, wrap):
    # g_0 is taken as the floats of the field's value; later values are used
    # as returned (a float32 value keeps float32 arithmetic in the step).
    # Tuples, lists and float64 arrays: test_tuple_list_and_ndarray_returns_agree_bitwise
    def as_floats(t, x):
        g = wrap(FIELD(t, x))
        return [float(v) for v in g] if t == 0.0 else g

    run = integrate(lambda t, x: wrap(FIELD(t, x)), [0.5, 0.9, 0.1], 0.9, CONFIG).states
    assert run.tobytes() == integrate(as_floats, [0.5, 0.9, 0.1], 0.9, CONFIG).states.tobytes()


@pytest.mark.parametrize("integrate", [integrate_caputo, integrate_cf])
@pytest.mark.parametrize("initial", [
    [Fraction(1, 2), 1, np.float64(0.1)],
    np.array([0.5, 0.9, 0.1], dtype=np.float32),
    np.array([0.5, 0.9, 0.1]),
], ids=["int-Fraction", "float32", "float64"])
def test_real_initial_states_run_as_their_floats(integrate, initial):
    as_floats = [float(v) for v in initial]
    run = integrate(FIELD, initial, 0.9, CONFIG).states
    assert run.tobytes() == integrate(FIELD, as_floats, 0.9, CONFIG).states.tobytes()
    assert run[0].tolist() == as_floats
