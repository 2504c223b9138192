"""Integrator behavior: oracles, reductions, invariants and failure modes."""

import math

import numpy as np
import pytest

from fraclv.model import vector_field
from fraclv.presets import PRESETS, SCENARIOS
from fraclv.solvers import (
    DIVERGENCE_LIMIT,
    DivergenceError,
    SolverConfig,
    corrector_weights,
    integrate_caputo,
    integrate_cf,
    linear_cf_exact,
    predictor_weights,
    reference_rk4,
)

from oracles import caputo_direct, cf_direct

EX1 = PRESETS["example1"].params


def decay(_t, x):
    return -x


# ---------------------------------------------------------------------------
# reference_rk4 (itself an oracle; pinned against exact solutions)


def test_rk4_exponential_decay():
    traj = reference_rk4(decay, [1.0], SolverConfig(step=0.01, horizon=1.0))
    assert abs(traj.final_state[0] - math.exp(-1.0)) < 1e-8


def test_rk4_zero_field_constant():
    traj = reference_rk4(lambda t, x: np.zeros_like(x), [2.0, -3.0, 0.5],
                         SolverConfig(step=0.1, horizon=2.0))
    assert np.array_equal(traj.states, np.tile([2.0, -3.0, 0.5], (21, 1)))


# ---------------------------------------------------------------------------
# linear_cf_exact


def test_cf_exact_classical_limit():
    assert abs(linear_cf_exact(-1.0, 1.0, 1.0, 1.0) - math.exp(-1.0)) < 1e-15


def test_cf_exact_hand_value():
    # exponent = alpha*lam*t / (1 - (1-alpha)*lam) = 0.5*(-1)*3 / 1.5 = -1
    assert abs(linear_cf_exact(-1.0, 0.5, 1.0, 3.0) - math.exp(-1.0)) < 1e-15


def test_cf_exact_cross_checked_by_integration():
    # high-resolution corrected-mode run lands on the closed form
    lam, alpha, horizon = -1.0, 0.5, 3.0
    config = SolverConfig(step=1e-3, horizon=horizon, cf_mode="corrected")
    traj = integrate_cf(lambda t, x: lam * x, [1.0], alpha, config)
    exact = linear_cf_exact(lam, alpha, 1.0, horizon).real
    assert abs(traj.final_state[0] - exact) < 5e-4


def test_cf_exact_neutral_circle():
    # |lam - c| = c with c = 1/(2(1-alpha)): the modulus is constant in time
    alpha = 0.6
    c = 1.0 / (2.0 * (1.0 - alpha))
    for theta in (0.3, 1.2, 2.5, 4.0):
        lam = c + c * complex(math.cos(theta), math.sin(theta))
        values = [abs(linear_cf_exact(lam, alpha, 1.0, t)) for t in (0.0, 1.0, 5.0, 20.0)]
        np.testing.assert_allclose(values, 1.0, rtol=1e-12)


def test_cf_exact_rejects_singular_parameter():
    with pytest.raises(ValueError):
        linear_cf_exact(2.0, 0.5, 1.0, 1.0)  # (1-alpha)*lam = 1


# ---------------------------------------------------------------------------
# engine cross-check against the public weight functions


@pytest.mark.parametrize(
    "integrate,n_of,scale_of,mode",
    [
        (integrate_cf, lambda a: 1.0, lambda a: a, "paper"),
        (integrate_caputo, lambda a: a, lambda a: 1.0 / math.gamma(a), "paper"),
    ],
)
def test_engine_matches_manual_weight_application(integrate, n_of, scale_of, mode):
    alpha = 0.7
    h = 0.2
    steps = 4
    params = EX1
    field = vector_field(params)
    config = SolverConfig(step=h, horizon=h * steps, cf_mode=mode)
    traj = integrate(field, [0.5, 0.9, 0.1], alpha, config)

    n = n_of(alpha)
    scale = scale_of(alpha)
    x0 = np.array([0.5, 0.9, 0.1])
    gvals = [np.asarray(field(0.0, x0))]
    states = [x0]
    for k in range(steps):
        t_next = h * (k + 1)
        dw = predictor_weights(k, n, h)
        xp = x0 + scale * sum(w * g for w, g in zip(dw, gvals))
        gp = np.asarray(field(t_next, xp))
        bw = corrector_weights(k, n, h)
        xc = x0 + scale * (sum(w * g for w, g in zip(bw[:-1], gvals)) + bw[-1] * gp)
        states.append(xc)
        gvals.append(np.asarray(field(t_next, xc)))

    # differences are pure summation-order rounding (BLAS dot vs Python sum)
    np.testing.assert_allclose(traj.states, np.array(states), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_steppers_match_direct_engine_on_scenarios(name):
    # the running CF sum and the contiguous Caputo tables only reorder the
    # history sums; measured max difference 3.2e-14
    sc = SCENARIOS[name]
    field = vector_field(PRESETS[sc.preset].params)
    config = SolverConfig(step=sc.step, horizon=sc.horizon, cf_mode=sc.cf_mode)
    integrate, direct = {"caputo": (integrate_caputo, caputo_direct),
                         "cf": (integrate_cf, cf_direct)}[sc.operator]
    traj = integrate(field, sc.initial, sc.alpha, config)
    ref = direct(field, sc.initial, sc.alpha, config)
    assert np.array_equal(traj.times, ref.times)
    assert np.max(np.abs(traj.states - ref.states)) <= 1e-12
    for component, value in enumerate(sc.initial):
        if value == 0.0:
            assert np.all(traj.states[:, component] == 0.0)


# ---------------------------------------------------------------------------
# reductions at alpha = 1


def test_cf_equals_caputo_at_order_one():
    field = vector_field(EX1)
    config = SolverConfig(step=0.01, horizon=5.0)
    cf = integrate_cf(field, [0.5, 0.9, 0.1], 1.0, config)
    caputo = integrate_caputo(field, [0.5, 0.9, 0.1], 1.0, config)
    np.testing.assert_allclose(cf.states, caputo.states, atol=1e-12)
    # the corrected-mode extra term carries a (1 - alpha) factor: gone at 1
    corrected = integrate_cf(field, [0.5, 0.9, 0.1], 1.0,
                             SolverConfig(step=0.01, horizon=5.0, cf_mode="corrected"))
    assert np.array_equal(corrected.states, cf.states)


def test_reduction_to_classical_reference():
    # both fractional integrators at alpha=1 track the 4th-order reference
    field = vector_field(EX1)
    config = SolverConfig(step=0.01, horizon=5.0)
    initial = [0.3, 0.1, 2.9]
    ref = reference_rk4(field, initial, config)
    for integrate in (integrate_cf, integrate_caputo):
        traj = integrate(field, initial, 1.0, config)
        assert np.max(np.abs(traj.states - ref.states)) < 1e-3


def test_scalar_decay_at_order_one():
    config = SolverConfig(step=0.01, horizon=1.0)
    traj = integrate_caputo(decay, [1.0], 1.0, config)
    assert abs(traj.final_state[0] - 0.3679) < 1e-3


# ---------------------------------------------------------------------------
# CF corrected mode converges to the exact CF solution


def test_cf_corrected_matches_linear_oracle():
    lam, alpha = -1.0, 0.5
    config = SolverConfig(step=0.01, horizon=2.0, cf_mode="corrected")
    traj = integrate_cf(lambda t, x: lam * x, [1.0], alpha, config)
    exact = np.array([linear_cf_exact(lam, alpha, 1.0, t).real for t in traj.times])
    # first-order scheme; measured max error 1.12e-3 at h = 0.01
    assert np.max(np.abs(traj.states[:, 0] - exact)) < 2.5e-3


def test_cf_corrected_error_halves_with_step():
    lam, alpha, horizon = -1.0, 0.5, 2.0
    exact = linear_cf_exact(lam, alpha, 1.0, horizon).real
    errors = []
    for h in (0.04, 0.02, 0.01):
        config = SolverConfig(step=h, horizon=horizon, cf_mode="corrected")
        traj = integrate_cf(lambda t, x: lam * x, [1.0], alpha, config)
        errors.append(abs(traj.final_state[0] - exact))
    assert errors[0] / errors[1] >= 1.5
    assert errors[1] / errors[2] >= 1.5


def test_cf_paper_mode_tracks_rescaled_classical_limit():
    # dropping the non-integral term leaves x' = alpha * g(x)
    lam, alpha, horizon = -1.0, 0.5, 2.0
    config = SolverConfig(step=0.01, horizon=horizon, cf_mode="paper")
    traj = integrate_cf(lambda t, x: lam * x, [1.0], alpha, config)
    assert abs(traj.final_state[0] - math.exp(alpha * lam * horizon)) < 1e-4


# ---------------------------------------------------------------------------
# structural invariants


def test_trajectory_grid_and_initial_state():
    field = vector_field(EX1)
    config = SolverConfig(step=0.01, horizon=50.0)
    traj = integrate_caputo(field, [0.5, 0.9, 0.1], 0.98, config)
    assert len(traj.times) == 5001  # floor(50/0.01) + 1, no float shortfall
    assert traj.times[0] == 0.0
    np.testing.assert_allclose(np.diff(traj.times), 0.01, rtol=1e-12)
    assert np.array_equal(traj.states[0], np.array([0.5, 0.9, 0.1]))
    assert traj.operator == "caputo"
    assert traj.alpha == 0.98


def test_determinism_bitwise():
    field = vector_field(EX1)
    config = SolverConfig(step=0.01, horizon=3.0)
    a = integrate_caputo(field, [0.5, 0.9, 0.1], 0.6, config)
    b = integrate_caputo(field, [0.5, 0.9, 0.1], 0.6, config)
    assert np.array_equal(a.states, b.states)
    c = integrate_cf(field, [0.5, 0.9, 0.1], 0.6, config)
    d = integrate_cf(field, [0.5, 0.9, 0.1], 0.6, config)
    assert np.array_equal(c.states, d.states)


@pytest.mark.parametrize("component,initial", [(1, [0.5, 0.0, 2.5]), (2, [1.6, 1.9, 0.0])])
def test_axis_component_stays_exactly_zero(component, initial):
    # the component multiplies its own rate, so every history term is 0.0
    field = vector_field(EX1)
    runs = [
        integrate_caputo(field, initial, 0.6, SolverConfig(step=0.01, horizon=5.0)),
        integrate_cf(field, initial, 0.6, SolverConfig(step=0.01, horizon=5.0)),
        integrate_cf(field, initial, 0.98,
                     SolverConfig(step=0.01, horizon=5.0, cf_mode="corrected")),
    ]
    for traj in runs:
        assert np.all(traj.states[:, component] == 0.0)


def test_divergence_raises_with_step_index():
    blowup = lambda t, x: x * x * x
    config = SolverConfig(step=0.05, horizon=10.0)
    with pytest.raises(DivergenceError) as excinfo:
        integrate_caputo(blowup, [2.0], 0.9, config)
    err = excinfo.value
    assert err.step_index >= 1
    assert len(err.partial.times) == err.step_index
    assert np.all(np.isfinite(err.partial.states))
    assert str(err.step_index) in str(err)


@pytest.mark.parametrize("integrate", [
    lambda f, x0, c: integrate_caputo(f, x0, 0.6, c),
    lambda f, x0, c: integrate_cf(f, x0, 0.6, c),
    lambda f, x0, c: reference_rk4(f, x0, c),
])
def test_divergence_guard_catches_nan(integrate):
    # a NaN state fails every comparison, so the guard must not rely on one passing
    nan_after_start = lambda t, x: np.full_like(x, np.nan) if t > 0.0 else -x
    with pytest.raises(DivergenceError) as excinfo:
        integrate(nan_after_start, [1.0, 2.0], SolverConfig(step=0.1, horizon=1.0))
    assert np.all(np.isfinite(excinfo.value.partial.states))


# The guard's edges: exactly +-L passes, the next double up trips it, and so do
# +-inf and NaN in any component.  Each runner has order 1 and a step where
# the state after one nonzero field value v is exactly gain * v (gain a power
# of two), so a field that switches on at t = 3 places the value exactly.
GUARDED = {
    "caputo": (lambda f, x0, c: integrate_caputo(f, x0, 1.0, c), 0.5, 0.25),
    "cf": (lambda f, x0, c: integrate_cf(f, x0, 1.0, c), 0.5, 0.25),
    "rk4": (lambda f, x0, c: reference_rk4(f, x0, c), 0.75, 0.125),
}


@pytest.mark.parametrize("name", sorted(GUARDED))
def test_guard_passes_a_component_of_exactly_the_limit(name):
    run, h, _ = GUARDED[name]
    initial = [0.0, DIVERGENCE_LIMIT, -DIVERGENCE_LIMIT]
    traj = run(lambda t, x: (0.0, 0.0, 0.0), initial, SolverConfig(step=h, horizon=10 * h))
    assert np.array_equal(traj.states, np.tile(initial, (11, 1)))


@pytest.mark.parametrize("name", sorted(GUARDED))
@pytest.mark.parametrize("component", [1, 2])
@pytest.mark.parametrize("value", [math.nextafter(DIVERGENCE_LIMIT, math.inf),
                                   -math.nextafter(DIVERGENCE_LIMIT, math.inf),
                                   math.inf, -math.inf, math.nan])
def test_guard_trips_beyond_the_limit(name, component, value):
    run, h, gain = GUARDED[name]
    kick = [0.0, 0.0, 0.0]
    kick[component] = value / gain

    def switched(t, x):
        return tuple(kick) if t >= 3.0 else (0.0, 0.0, 0.0)

    with pytest.raises(DivergenceError) as excinfo:
        run(switched, [0.0, 0.0, 0.0], SolverConfig(step=h, horizon=20 * h))
    err = excinfo.value
    step = round(3.0 / h)  # the first state built from the kick
    assert err.step_index == step
    assert np.array_equal(err.partial.times, h * np.arange(step))
    assert np.array_equal(err.partial.states, np.zeros((step, 3)))


@pytest.mark.parametrize("name", sorted(GUARDED))
def test_overflow_in_field_or_step_is_divergence(name):
    # Python float * and + overflow to inf without raising; the guard then trips
    run, h, _ = GUARDED[name]
    cube = lambda t, x: [v * v * v for v in x.tolist()]
    with pytest.raises(DivergenceError):
        run(cube, [10.0, 20.0], SolverConfig(step=h, horizon=50 * h))
    huge = lambda t, x: [1.7e308, -1.7e308]  # the step's own sums overflow
    with pytest.raises(DivergenceError) as excinfo:
        run(huge, [1.0, 2.0], SolverConfig(step=h, horizon=50 * h))
    assert np.all(np.isfinite(excinfo.value.partial.states))


# ---------------------------------------------------------------------------
# field contract: an ndarray in, any length-d sequence of floats out


@pytest.mark.parametrize("name", ["caputo", "cf"])
def test_field_called_2n_plus_1_times_with_a_float_vector(name):
    integrate = {"caputo": integrate_caputo, "cf": integrate_cf}[name]
    field = vector_field(EX1)
    seen = []

    def counting(t, x):
        seen.append((type(x), x.dtype, x.shape))
        return field(t, x)

    config = SolverConfig(step=0.01, horizon=2.0)
    integrate(counting, [0.5, 0.9, 0.1], 0.8, config)
    assert len(seen) == 2 * config.num_steps + 1
    assert set(seen) == {(np.ndarray, np.dtype(np.float64), (3,))}


@pytest.mark.parametrize("mode", ["paper", "corrected"])
def test_tuple_list_and_ndarray_returns_agree_bitwise(mode):
    field = vector_field(EX1)
    shapes = (field, lambda t, x: list(field(t, x)), lambda t, x: np.array(field(t, x)))
    config = SolverConfig(step=0.01, horizon=3.0, cf_mode=mode)
    runs = [
        lambda f: integrate_caputo(f, [0.5, 0.9, 0.1], 0.7, config),
        lambda f: integrate_cf(f, [0.5, 0.9, 0.1], 0.95, config),
        lambda f: reference_rk4(f, [0.5, 0.9, 0.1], config),
    ]
    for run in runs:
        tuple_run, list_run, array_run = (run(f).states for f in shapes)
        assert tuple_run.tobytes() == list_run.tobytes() == array_run.tobytes()


@pytest.mark.parametrize("name", sorted(GUARDED))
def test_field_output_length_change_is_rejected(name):
    run, h, _ = GUARDED[name]
    shrinking = lambda t, x: (0.0, 0.0, 0.0) if t < 1.0 else (0.0, 0.0)
    with pytest.raises(ValueError, match="field returned 2 components"):
        run(shrinking, [1.0, 2.0, 3.0], SolverConfig(step=h, horizon=10 * h))


def test_cf_corrected_explicit_instability_is_caught():
    # (1-alpha) * L > 1 along this orbit: the explicit treatment of the
    # non-integral term cannot contract, and the guard must fire
    field = vector_field(EX1)
    config = SolverConfig(step=0.01, horizon=50.0, cf_mode="corrected")
    with pytest.raises(DivergenceError):
        integrate_cf(field, [1.6, 1.9, 0.0], 0.6, config)


def test_dimension_mismatch_rejected():
    bad = lambda t, x: np.array([1.0, 2.0])
    with pytest.raises(ValueError):
        integrate_cf(bad, [1.0, 2.0, 3.0], 0.5, SolverConfig(step=0.1, horizon=1.0))


def test_fractional_order_validation():
    field = vector_field(EX1)
    config = SolverConfig(step=0.1, horizon=1.0)
    with pytest.raises(ValueError):
        integrate_caputo(field, [0.3, 0.1, 2.9], 0.0, config)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(step=0.0, horizon=1.0)
    with pytest.raises(ValueError):
        SolverConfig(step=0.5, horizon=0.2)
    with pytest.raises(ValueError):
        SolverConfig(step=0.1, horizon=1.0, normalization=0.0)
    with pytest.raises(ValueError):
        SolverConfig(step=0.1, horizon=1.0, cf_mode="bogus")
    assert SolverConfig(step=0.01, horizon=50.0).num_steps == 5000
    assert SolverConfig(step=0.3, horizon=1.0).num_steps == 3
