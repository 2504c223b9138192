"""Integrator behavior: oracles, reductions, invariants and failure modes."""

import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import fraclv.solvers
from fraclv.model import vector_field
from fraclv.presets import PRESETS, SCENARIOS
from fraclv.solvers import (
    DIVERGENCE_LIMIT,
    HISTORY_BLOCK,
    DivergenceError,
    SolverConfig,
    integrate_caputo,
    integrate_cf,
)

from oracles import caputo_direct, cf_direct, linear_cf_exact, mittag_leffler, reference_rk4

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
# linear_cf_exact (itself an oracle; pinned against hand values)


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
# engine cross-check against the weight formulas, written out per step


def predictor_weights(k, n, h):
    """d_{i,k+1} = (h^n / n) [(k-i+1)^n - (k-i)^n], i = 0..k."""
    return [h ** n / n * ((k - i + 1) ** n - (k - i) ** n) for i in range(k + 1)]


def corrector_weights(k, n, h):
    """b_{i,k+1}, i = 0..k+1, times the prefactor h^n / (n (n+1)):

    i = 0       : k^(n+1) - (k - n) (k+1)^n
    1 <= i <= k : (k-i+2)^(n+1) - 2 (k-i+1)^(n+1) + (k-i)^(n+1)
    i = k+1     : 1
    """
    w = [k ** (n + 1) - (k - n) * (k + 1) ** n]
    w += [(k - i + 2) ** (n + 1) - 2 * (k - i + 1) ** (n + 1) + (k - i) ** (n + 1)
          for i in range(1, k + 1)]
    w.append(1.0)
    return [h ** n / (n * (n + 1)) * v for v in w]


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
    # the running CF sum and the blocked Caputo history only reorder the
    # history sums and add the FFT's rounding; measured max difference 3.1e-14
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


@pytest.mark.parametrize(
    "alpha,h,field,initial",
    [(0.3, 5e-4, vector_field(EX1), SCENARIOS["example1-caputo"].initial),
     (0.6, 0.01, vector_field(EX1), SCENARIOS["example1-caputo"].initial),
     (1.0, 0.01, vector_field(EX1), SCENARIOS["example1-caputo"].initial),
     (0.9, 0.01, lambda t, x: -100.0 * x, (1e6,))],
    ids=["example1-0.3", "example1-0.6", "example1-1.0", "transient-0.9"],
)
def test_fft_history_matches_direct_engine(alpha, h, field, initial):
    # 3B + 17 steps: three block starts take the far history by FFT, and the
    # last block is partial.  An FFT convolution's rounding scales with the
    # norm of the whole history, so the bound is 1e-12 of the initial scale.
    # example1: measured max difference 8.9e-15, 1.8e-14 and 2.0e-13.  The
    # transient falls from 1e6 to ~48 (E_0.9(-100 t^0.9)); measured 3.3e-8,
    # i.e. 3.3e-14 of the scale and 6.7e-10 relative on the last states.  A
    # long-double run of the same scheme puts the blocked engine closer to it
    # than the direct one (9.7e-11 against 6.4e-10 relative), so that gap is
    # mostly the direct engine's own rounding.
    steps = 3 * HISTORY_BLOCK + 17
    config = SolverConfig(step=h, horizon=h * steps)
    assert config.num_steps == steps
    traj = integrate_caputo(field, initial, alpha, config)
    ref = caputo_direct(field, initial, alpha, config)
    scale = max(1.0, max(abs(v) for v in initial))
    assert np.max(np.abs(traj.states - ref.states)) <= 1e-12 * scale


def test_numpy_fft_is_not_loaded_by_import_or_a_one_block_run():
    # integrate_caputo reaches np.fft at call time, so start-up, the analysis
    # commands and runs of at most HISTORY_BLOCK steps never load it; likewise
    # the CSV kernel fraclv._csv is loaded by the first trajectory.csv written
    src = os.path.dirname(os.path.dirname(fraclv.solvers.__file__))
    code = ("import sys, fraclv.cli\n"
            "assert 'fraclv._csv' not in sys.modules\n"
            "from fraclv.solvers import HISTORY_BLOCK, SolverConfig, integrate_caputo\n"
            "integrate_caputo(lambda t, x: -x, [1.0], 0.5, SolverConfig(1.0, HISTORY_BLOCK))\n"
            "assert 'numpy.fft' not in sys.modules and 'fraclv._csv' not in sys.modules\n")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": path})


def test_late_divergence_matches_direct_engine():
    # D^0.9 x = 0.35 x grows like E_0.9(0.35 t^0.9) and leaves the guard's
    # range after the first block, so the step that trips it reads FFT sums
    config = SolverConfig(step=0.05, horizon=400.0)
    errors = []
    for integrate in (integrate_caputo, caputo_direct):
        with pytest.raises(DivergenceError) as excinfo:
            integrate(lambda t, x: 0.35 * x, [1.0], 0.9, config)
        errors.append(excinfo.value)
    fast, direct = errors
    assert fast.step_index == direct.step_index > HISTORY_BLOCK
    assert np.array_equal(fast.partial.times, direct.partial.times)
    # the prefix grows to ~1e12; measured max relative difference 8.0e-15
    np.testing.assert_allclose(fast.partial.states, direct.partial.states, rtol=1e-12, atol=0.0)


def test_mittag_leffler_hand_values():
    # E_1(z) = exp(z) and E_1/2(z) = exp(z^2) erfc(-z)
    assert mittag_leffler(1.0, -1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert mittag_leffler(0.5, -1.0) == pytest.approx(math.e * math.erfc(1.0), rel=1e-15)
    assert mittag_leffler(0.5, -3.0) == pytest.approx(math.exp(9.0) * math.erfc(3.0), rel=1e-14)
    assert mittag_leffler(0.7, 0.0) == 1.0


@pytest.mark.parametrize("alpha", [0.3, 0.6, 0.9])
def test_caputo_converges_to_mittag_leffler_at_order_one_plus_alpha(alpha):
    # D^alpha x = -x, x(0) = 1 has x(t) = E_alpha(-t^alpha); the PECE error at
    # a fixed t > 0 is O(h^(1+alpha)) for alpha < 1 (Diethelm, Ford & Freed
    # 2004).  The runs span 2, 4 and 8 history blocks; measured orders 1.36,
    # 1.60 and 1.89
    horizon = 1.0
    exact = mittag_leffler(alpha, -horizon ** alpha)
    errors = []
    for steps in (2 * HISTORY_BLOCK, 4 * HISTORY_BLOCK, 8 * HISTORY_BLOCK):
        config = SolverConfig(step=horizon / steps, horizon=horizon)
        traj = integrate_caputo(lambda t, x: -x, [1.0], alpha, config)
        errors.append(abs(traj.final_state[0] - exact))
    for coarse, fine in zip(errors, errors[1:]):
        assert math.log2(coarse / fine) >= 1.0 + alpha - 0.2


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


@pytest.mark.parametrize("integrate", [integrate_caputo, integrate_cf])
@pytest.mark.parametrize("initial", [[[1.0, 2.0, 3.0]], []], ids=["2-d", "empty"])
def test_initial_state_must_be_a_non_empty_vector(integrate, initial):
    with pytest.raises(ValueError, match="non-empty 1-d"):
        integrate(decay, initial, 0.6, SolverConfig(step=0.1, horizon=1.0))


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
# The rk4 row is the test oracle, which keeps the integrators' guard and
# field contract with code of its own.
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


def test_float_level_form_called_2n_plus_1_times_with_python_floats():
    # vector_field's own form takes the steps' lists; the ndarray path stays unused
    floats = vector_field(EX1).floats
    seen = []

    def counting(t, xs):
        seen.append((type(xs) in (list, tuple), len(xs), all(type(v) is float for v in xs)))
        return floats(t, xs)

    def ndarray_path(t, x):
        raise AssertionError("the ndarray path was called")

    ndarray_path.floats = counting
    config = SolverConfig(step=0.01, horizon=2.0)
    for integrate in (integrate_caputo, integrate_cf):
        seen.clear()
        integrate(ndarray_path, [0.5, 0.9, 0.1], 0.8, config)
        assert len(seen) == 2 * config.num_steps + 1
        assert set(seen) == {(True, 3, True)}


def _both_paths(params):
    """``vector_field(params)``, which the steps call through its float-level
    form, and a plain wrapper of it, which they call through the ndarray adapter."""
    field = vector_field(params)
    return {"floats": field, "adapter": lambda t, x: field(t, x)}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_float_and_adapter_paths_agree_bitwise(name):
    sc = SCENARIOS[name]
    integrate = {"caputo": integrate_caputo, "cf": integrate_cf}[sc.operator]
    modes = ("paper", "corrected") if sc.operator == "cf" else ("paper",)
    for mode in modes:
        config = SolverConfig(step=sc.step, horizon=sc.horizon, cf_mode=mode)
        runs = {}
        for path, field in _both_paths(PRESETS[sc.preset].params).items():
            try:
                runs[path] = integrate(field, sc.initial, sc.alpha, config).states
            except DivergenceError as err:  # corrected mode on the planar scenario
                runs[path] = err.partial.states
        assert runs["floats"].tobytes() == runs["adapter"].tobytes()


@pytest.mark.parametrize("path", ["floats", "adapter"])
@pytest.mark.parametrize("integrate", [integrate_caputo, integrate_cf])
@pytest.mark.parametrize("h,starts,later", [(0.01, (-0.01, -0.012), False),
                                            (0.004, (-1e-6, -1.1e-6), True)],
                         ids=["first-block", "later-block"])
def test_divergence_partial_equals_the_run_cut_before_it(monkeypatch, integrate, path, h,
                                                         starts, later):
    # np.empty filled with NaN: a row of ``states`` left unwritten would show.
    # The two starts of x trip the guard on the first and on the second step
    # of a Caputo pair (an even and an odd offset from the block start).
    monkeypatch.setattr(fraclv.solvers.np, "empty", lambda shape: np.full(shape, np.nan))
    offsets = set()
    for x in starts:
        initial = [x, 0.9, 0.1]
        with pytest.raises(DivergenceError) as excinfo:  # x runs off to -inf
            integrate(_both_paths(EX1)[path], initial, 0.9, SolverConfig(step=h, horizon=50.0))
        k = excinfo.value.step_index - 1
        assert (k > HISTORY_BLOCK) == later
        offsets.add(k % HISTORY_BLOCK % 2)
        partial = excinfo.value.partial
        cut = integrate(_both_paths(EX1)[path], initial, 0.9, SolverConfig(step=h, horizon=k * h))
        assert partial.states.shape == (k + 1, 3)
        assert np.all(np.isfinite(partial.states))
        assert np.array_equal(partial.times, cut.times)
        assert partial.states.tobytes() == cut.states.tobytes()
    if integrate is integrate_caputo:
        assert offsets == {0, 1}


@pytest.mark.parametrize("name", ["example1-caputo", "example2-caputo"])
def test_caputo_run_is_the_prefix_of_a_longer_run(name):
    # a run's last block reads the same lag weights, full blocks' worth, as a
    # longer run's, so cutting the horizon inside a block moves no row
    sc = SCENARIOS[name]
    field = vector_field(PRESETS[sc.preset].params)
    run = lambda horizon: integrate_caputo(field, sc.initial, sc.alpha,
                                           SolverConfig(step=sc.step, horizon=horizon)).states
    full = run(50.0)
    for horizon in (11.0, 15.0, 25.0, 30.0, 41.0):
        cut = run(horizon)
        assert cut.tobytes() == full[: len(cut)].tobytes(), horizon


@pytest.mark.parametrize("mode", ["paper", "corrected"])
def test_tuple_list_and_ndarray_returns_agree_bitwise(mode):
    field = vector_field(EX1)
    shapes = (field, lambda t, x: list(field(t, x)), lambda t, x: np.array(field(t, x)))
    config = SolverConfig(step=0.01, horizon=3.0, cf_mode=mode)
    runs = [
        lambda f: integrate_caputo(f, [0.5, 0.9, 0.1], 0.7, config),
        lambda f: integrate_cf(f, [0.5, 0.9, 0.1], 0.95, config),
    ]
    for run in runs:
        tuple_run, list_run, array_run = (run(f).states for f in shapes)
        assert tuple_run.tobytes() == list_run.tobytes() == array_run.tobytes()


def _shrinks_at(call):
    """A zero field of three components that returns two on its ``call``-th call
    (from 0) only, so only the check at that call site can catch it."""
    calls = iter(range(call + 2))

    def field(t, x):
        return (0.0, 0.0) if next(calls, None) == call else (0.0, 0.0, 0.0)

    return field


@pytest.mark.parametrize("name", sorted(GUARDED))
def test_field_output_length_change_is_rejected(name):
    run, h, _ = GUARDED[name]
    shrinking = lambda t, x: (0.0, 0.0, 0.0) if t < 1.0 else (0.0, 0.0)
    with pytest.raises(ValueError, match="field returned 2 components"):
        run(shrinking, [1.0, 2.0, 3.0], SolverConfig(step=h, horizon=10 * h))
    if name == "rk4":
        return
    # every call site of the integrators: step k makes call 2k+1 (predictor) and
    # call 2k+2 (corrector), on the first and second step of a Caputo pair, in
    # the first block and in a later one
    config = SolverConfig(step=h, horizon=(HISTORY_BLOCK + 2) * h)
    for k in (0, 1, HISTORY_BLOCK, HISTORY_BLOCK + 1):
        for call in (2 * k + 1, 2 * k + 2):
            message = f"field returned 2 components at t = {(k + 1) * h:g}, expected 3"
            with pytest.raises(ValueError, match=re.escape(message)):
                run(_shrinks_at(call), [1.0, 2.0, 3.0], config)


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
        SolverConfig(step=0.1, horizon=1.0, cf_mode="bogus")
    assert SolverConfig(step=0.01, horizon=50.0).num_steps == 5000
    assert SolverConfig(step=0.3, horizon=1.0).num_steps == 3


@pytest.mark.parametrize("step,horizon", [(5e-324, 50.0), (1.0, math.inf),
                                          (math.inf, math.inf)])
def test_solver_config_rejects_a_non_finite_step_count(step, horizon):
    # horizon / step overflows to inf (or is inf / inf = NaN): no grid to build
    with pytest.raises(ValueError, match="horizon / step must be finite") as info:
        SolverConfig(step=step, horizon=horizon)
    assert repr(step) in str(info.value) and repr(horizon) in str(info.value)


@pytest.mark.parametrize("integrate", [integrate_caputo, integrate_cf])
@pytest.mark.parametrize("bad", [math.nan, 2e12, -math.inf])
def test_initial_state_beyond_the_guard_is_rejected(integrate, bad):
    # the initial state meets the guard's own comparison before any step runs
    with pytest.raises(ValueError, match=r"initial state component 0 is .*\+/-1e\+12"):
        integrate(vector_field(EX1), [bad, 0.9, 0.1], 0.9, SolverConfig(step=0.1, horizon=1.0))


@pytest.mark.parametrize("alpha", [5e-324, 5e-309])
def test_order_too_small_for_the_caputo_weights_is_named(alpha):
    # check_order accepts these orders, but Gamma(alpha) ~ 1/alpha is past the float range
    with pytest.raises(ValueError, match=rf"order alpha = {alpha!r} is too small: Gamma\(alpha\) overflows"):
        integrate_caputo(vector_field(EX1), [0.5, 0.9, 0.1], alpha, SolverConfig(step=0.1, horizon=1.0))


@pytest.mark.parametrize("integrate", [integrate_caputo, integrate_cf])
@pytest.mark.parametrize("horizon", [1e300, 1e18])
def test_step_count_too_large_to_allocate_is_named(integrate, horizon):
    # numpy refuses both shapes before allocating anything; the error names
    # the step count and the two fields it came from
    config = SolverConfig(step=1.0, horizon=horizon)
    with pytest.raises(ValueError) as info:
        integrate(vector_field(EX1), [0.5, 0.9, 0.1], 0.9, config)
    assert str(info.value).startswith(
        f"step count {horizon:g} (horizon {horizon} / step 1.0) is too large to allocate: ")


def test_failed_grid_allocation_is_named(monkeypatch):
    # a count that fits numpy's index range but not memory gives MemoryError
    def refuse(shape, *args, **kwargs):
        raise MemoryError(f"Unable to allocate array with shape {shape}")

    monkeypatch.setattr(fraclv.solvers.np, "empty", refuse)
    with pytest.raises(ValueError, match=r"step count 10 \(horizon 1.0 / step 0.1\) is too large"):
        integrate_cf(vector_field(EX1), [0.5, 0.9, 0.1], 0.9, SolverConfig(step=0.1, horizon=1.0))
