"""Integrator behavior: oracles, reductions, invariants and failure modes."""

import collections
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import fraclv.model
import fraclv.solvers
from fraclv.model import _SOURCE, vector_field
from fraclv.presets import PRESETS, SCENARIOS
from fraclv.solvers import (
    _GROUP,
    DIVERGENCE_LIMIT,
    HISTORY_BLOCK,
    DivergenceError,
    SolverConfig,
    _Source,
    integrate_caputo,
    integrate_cf,
)

from oracles import (
    caputo_direct,
    cf_direct,
    cf_ode_reference,
    linear_cf_exact,
    mittag_leffler,
    reference_rk4,
)

EX1 = PRESETS["example1"].params


def decay(_t, x):
    return -x


def _counted(call, source=None):
    """A field that calls ``call`` and counts its calls in ``.calls``; with
    ``source`` as its ``source`` attribute, if one is given."""
    def field(t, x):
        field.calls += 1
        return call(t, x)
    field.calls = 0
    if source is not None:
        field.source = source
    return field


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
    # 3B + 17 steps: three block starts take the far history from the block
    # spectra, and the last block is partial.  An FFT convolution's rounding
    # scales with the norm of the history it transforms, so the bound is 1e-12
    # of the initial scale.  example1: measured max difference 6.7e-15, 9.8e-15
    # and 3.2e-13.  The transient falls from 1e6 to ~89 (E_0.9(-100 t^0.9));
    # measured 2.6e-8, i.e. 2.6e-14 of the scale and 2.9e-11 relative on the
    # last states.
    steps = 3 * HISTORY_BLOCK + 17
    config = SolverConfig(step=h, horizon=h * steps)
    assert config.num_steps == steps
    traj = integrate_caputo(field, initial, alpha, config)
    ref = caputo_direct(field, initial, alpha, config)
    scale = max(1.0, max(abs(v) for v in initial))
    assert np.max(np.abs(traj.states - ref.states)) <= 1e-12 * scale


def coupled(d):
    """D^a x = A x with A = -I plus a ring coupling, d components: a field
    that returns an ndarray and one that returns the same values as a list."""
    eye = np.eye(d)
    matrix = -eye + 0.3 * np.roll(eye, 1, axis=1) - 0.2 * np.roll(eye, -1, axis=1)
    return {"ndarray": lambda t, x: matrix @ x, "list": lambda t, x: (matrix @ x).tolist()}


@pytest.mark.parametrize("run", ["caputo", "cf-paper", "cf-corrected"])
@pytest.mark.parametrize("d", [1, 2, 4])
def test_each_dimension_matches_direct_engine(d, run):
    # each d has a step loop of its own; 2B + 1 + last steps cross two block
    # boundaries, and the run's last step k = 2B + last ends it at each offset
    # ``last`` within a Caputo group of G steps
    operator, _, mode = run.partition("-")
    integrate, direct = {"caputo": (integrate_caputo, caputo_direct),
                         "cf": (integrate_cf, cf_direct)}[operator]
    initial = [1.0, -0.5, 0.25, 2.0][:d]
    for last in range(_GROUP):
        steps = 2 * HISTORY_BLOCK + 1 + last
        config = SolverConfig(step=0.01, horizon=0.01 * steps, cf_mode=mode or "paper")
        assert config.num_steps == steps
        runs = {path: integrate(field, initial, 0.8, config).states
                for path, field in coupled(d).items()}
        assert runs["list"].tobytes() == runs["ndarray"].tobytes()
        ref = direct(coupled(d)["ndarray"], initial, 0.8, config)
        assert np.max(np.abs(runs["list"] - ref.states)) <= 1e-12, last


@pytest.mark.parametrize("d", [1, 3])
def test_far_sums_over_many_segments_match_direct_engine(d):
    # 8B + 129 steps: the last block's far sums add up the spectra of 8 blocks
    # against 8 weight segments, and the run ends within a block and a group;
    # measured max difference 6.1e-15 (d = 1) and 2.1e-14 (d = 3)
    steps = 8 * HISTORY_BLOCK + 129
    config = SolverConfig(step=0.01, horizon=0.01 * steps)
    assert config.num_steps == steps
    field, initial = {1: (decay, [1.0]), 3: (vector_field(EX1), [0.5, 0.9, 0.1])}[d]
    traj = integrate_caputo(field, initial, 0.7, config)
    ref = caputo_direct(field, initial, 0.7, config)
    assert np.max(np.abs(traj.states - ref.states)) <= 1e-12


def test_numpy_fft_is_not_loaded_by_import_or_a_one_block_run():
    # integrate_caputo reaches np.fft at call time, so start-up, the analysis
    # commands and runs of at most HISTORY_BLOCK steps never load it; likewise
    # the CSV kernel fraclv._csv is loaded by the first trajectory.csv written,
    # and a step loop is generated by the first run that needs it, so neither
    # start-up nor an analysis command generates one
    src = os.path.dirname(os.path.dirname(fraclv.solvers.__file__))
    code = ("import contextlib, io, sys, fraclv.cli\n"
            "from fraclv.solvers import _step_loop\n"
            "assert 'fraclv._csv' not in sys.modules\n"
            "assert _step_loop.cache_info().currsize == 0\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert fraclv.cli.main(['reproduce-table2']) == 0\n"
            "assert _step_loop.cache_info().currsize == 0\n"
            "from fraclv.solvers import HISTORY_BLOCK, SolverConfig, integrate_caputo\n"
            "integrate_caputo(lambda t, x: -x, [1.0], 0.5, SolverConfig(1.0, HISTORY_BLOCK))\n"
            "assert 'numpy.fft' not in sys.modules and 'fraclv._csv' not in sys.modules\n"
            "assert _step_loop.cache_info().currsize == 1\n")
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
    # the prefix grows to ~1e12; measured max relative difference 7.6e-15
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


def test_cf_modes_against_the_ode_form_on_example1():
    # The CF problem is the ODE (I - (1-a) J(x)) x' = a g(x).  Corrected mode
    # converges to it at first order only (measured 1.12, 1.06, 1.03 per
    # halving from h = 1/64), and paper mode to x' = a g(x), ~1.9 away at
    # T = 1 (max abs).  Both figures document the schemes, not a target.
    alpha, initial = 0.98, [0.5, 0.9, 0.1]
    reference = cf_ode_reference(EX1, initial, alpha, 1.0, 2000)
    assert np.max(np.abs(reference - cf_ode_reference(EX1, initial, alpha, 1.0, 1000))) < 1e-9
    field = vector_field(EX1)
    errors = {}
    for mode in ("corrected", "paper"):
        errors[mode] = [np.max(np.abs(integrate_cf(field, initial, alpha,
                                                   SolverConfig(1.0 / n, 1.0, mode)).final_state
                                      - reference)) for n in (64, 128, 256, 512)]
    orders = [math.log2(a / b) for a, b in zip(errors["corrected"], errors["corrected"][1:])]
    assert all(0.9 <= order <= 1.3 for order in orders), orders
    assert min(errors["paper"]) >= 1.0, errors["paper"]


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
    # in d = 3 on components 1 and 2, and in d = 2 on components 0 and 1
    run, h, gain = GUARDED[name]
    for d in (3, 2):
        kick = [0.0] * d
        kick[component + d - 3] = value / gain

        def switched(t, x):
            return tuple(kick) if t >= 3.0 else (0.0,) * d

        with pytest.raises(DivergenceError) as excinfo:
            run(switched, [0.0] * d, SolverConfig(step=h, horizon=20 * h))
        err = excinfo.value
        step = round(3.0 / h)  # the first state built from the kick
        assert err.step_index == step
        assert np.array_equal(err.partial.times, h * np.arange(step))
        assert np.array_equal(err.partial.states, np.zeros((step, d)))


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


@pytest.mark.parametrize("run", ["caputo", "cf-paper", "cf-corrected"])
@pytest.mark.parametrize("d", [1, 3])
def test_a_field_that_overwrites_its_state_moves_no_row(d, run):
    # every call gets a fresh ndarray, the first (g_0) too: a field that writes
    # into its argument gives the rows of one that does not, and the caller's
    # initial array is left as it was; B + 3 steps cross a block boundary
    operator, _, mode = run.partition("-")
    integrate = {"caputo": integrate_caputo, "cf": integrate_cf}[operator]
    field = coupled(d)["ndarray"]

    def overwriting(t, x):
        g = field(t, x)
        x[:] = np.nan
        return g

    initial = np.array([1.0, -0.5, 0.25][:d])
    config = SolverConfig(step=0.01, horizon=0.01 * (HISTORY_BLOCK + 3), cf_mode=mode or "paper")
    runs = [integrate(f, initial, 0.8, config).states.tobytes() for f in (overwriting, field)]
    assert runs[0] == runs[1]
    assert initial.tolist() == [1.0, -0.5, 0.25][:d]


def _both_paths(params):
    """``vector_field(params)``, which the steps evaluate inline from its
    source text, and a lambda around it, which they call."""
    field = vector_field(params)
    return {"inline": field, "adapter": lambda t, x: field(t, x)}


def _each_path(integrate, params, initial, alpha, config):
    """Per path of ``_both_paths``: the run's states and None, or the partial
    states and the step index of its DivergenceError."""
    runs = {}
    for path, field in _both_paths(params).items():
        try:
            runs[path] = (integrate(field, initial, alpha, config).states.tobytes(), None)
        except DivergenceError as err:
            runs[path] = (err.partial.states.tobytes(), err.step_index)
    return runs


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_float_and_adapter_paths_agree_bitwise(name):
    sc = SCENARIOS[name]
    integrate = {"caputo": integrate_caputo, "cf": integrate_cf}[sc.operator]
    modes = ("paper", "corrected") if sc.operator == "cf" else ("paper",)
    for mode in modes:  # corrected mode diverges on the planar scenario
        config = SolverConfig(step=sc.step, horizon=sc.horizon, cf_mode=mode)
        runs = _each_path(integrate, PRESETS[sc.preset].params, sc.initial, sc.alpha, config)
        assert runs["inline"] == runs["adapter"]


LOOPS = {"caputo": (integrate_caputo, "paper"), "cf-paper": (integrate_cf, "paper"),
         "cf-corrected": (integrate_cf, "corrected")}


@pytest.mark.parametrize("loop", sorted(LOOPS))
def test_inlined_and_called_paths_agree_bitwise_on_jittered_runs(loop):
    # seeded jitter of example1's coefficients and start; 2B + 1 + last steps
    # cross two block boundaries and end the run at each offset ``last``
    # within a Caputo group; a run that diverges compares its partial
    integrate, mode = LOOPS[loop]
    rng = np.random.default_rng(2024)
    for _ in range(2):
        params = type(EX1)(*(EX1.as_tuple() * rng.uniform(0.8, 1.2, 7)))
        initial = (np.array([0.5, 0.9, 0.1]) * rng.uniform(0.8, 1.2, 3)).tolist()
        for last in range(_GROUP):
            config = SolverConfig(step=0.01, horizon=0.01 * (2 * HISTORY_BLOCK + 1 + last),
                                  cf_mode=mode)
            runs = _each_path(integrate, params, initial, 0.85, config)
            assert runs["inline"] == runs["adapter"], last


@pytest.mark.parametrize("start,loop", [("example3-E1", loop) for loop in sorted(LOOPS)]
                         + [("negative-x", "caputo")])
def test_inlined_and_called_divergence_partials_agree_bitwise(start, loop):
    # from 1e-3 off example3's E1 at alpha = 0.4, CF diverges at step 10
    # (paper mode) or 3 (corrected); from x < 0, Caputo runs x off to -inf
    integrate, mode = LOOPS[loop]
    if start == "example3-E1":
        params, alpha = PRESETS["example3"].params, 0.4
        starts = [[160.0 + sign * 1e-3, 1e-3, 1e-3] for sign in (1.0, -1.0)]
    else:
        params, alpha, starts = EX1, 0.9, [[-0.01, 0.9, 0.1], [-0.013, 0.9, 0.1]]
    config = SolverConfig(step=0.01, horizon=20.0, cf_mode=mode)
    for initial in starts:
        runs = _each_path(integrate, params, initial, alpha, config)
        assert runs["inline"][1] is not None, initial
        assert runs["inline"] == runs["adapter"], initial


def test_one_step_loop_per_operator_and_mode():
    # coefficients are an argument of the loop, not literals in its source,
    # so three coefficient sets share the loop of each operator and mode
    fraclv.solvers._step_loop.cache_clear()
    config = {mode: SolverConfig(step=0.01, horizon=0.05, cf_mode=mode)
              for mode in ("paper", "corrected")}
    for i, params in enumerate((EX1, PRESETS["example2"].params, PRESETS["example3"].params)):
        for integrate, mode in LOOPS.values():
            integrate(vector_field(params), [0.5, 0.9, 0.1], 0.9, config[mode])
        assert fraclv.solvers._step_loop.cache_info().currsize == len(LOOPS), i


def test_warning_filters_reach_the_generated_step_loops(monkeypatch):
    # a step loop is generated source run by exec, in a namespace that names
    # fraclv.solvers: a filter on the module "fraclv", as tier-1's, catches a
    # warning raised in the loop, here from the history sum's dot
    dot = np.dot

    def warning_dot(*args):
        warnings.warn("dot called", RuntimeWarning, stacklevel=2)
        return dot(*args)

    monkeypatch.setattr(np, "dot", warning_dot)
    fraclv.solvers._step_loop.cache_clear()  # the next loop is generated around warning_dot
    try:
        with warnings.catch_warnings(), pytest.raises(RuntimeWarning, match="dot called"):
            warnings.filterwarnings("error", module="fraclv")
            integrate_caputo(lambda t, x: -x, [1.0], 0.5, SolverConfig(step=0.01, horizon=0.05))
    finally:
        fraclv.solvers._step_loop.cache_clear()  # no later run gets that loop


@pytest.mark.parametrize("loop", sorted(LOOPS))
def test_a_vector_field_run_calls_its_field_once(monkeypatch, loop):
    # vector_field's field evaluates model._rhs once per call: a run inlines
    # its _Source and calls it for g_0 only, and a lambda around it is called
    integrate, mode = LOOPS[loop]
    calls, rhs = [], fraclv.model._rhs
    monkeypatch.setattr(fraclv.model, "_rhs", lambda *args: calls.append(args) or rhs(*args))
    config = SolverConfig(step=0.01, horizon=0.01 * (HISTORY_BLOCK + 3), cf_mode=mode)
    for path, expected in (("inline", 1), ("adapter", 2 * config.num_steps + 1)):
        calls.clear()
        integrate(_both_paths(EX1)[path], [0.5, 0.9, 0.1], 0.8, config)
        assert len(calls) == expected, path


_COEFFICIENTS = vector_field(EX1).source.coefficients


@pytest.mark.parametrize("source", [
    (_SOURCE, None),
    (_SOURCE, 3.0),
    (_SOURCE, iter(range(7))),
    "abc",
    (_SOURCE,),
    (None, (1.0,)),
    (list(_SOURCE), _COEFFICIENTS),
    (_SOURCE, _COEFFICIENTS),
    (("0.0", "0.0", "0.0"), ()),
    collections.namedtuple("_Source", "exprs coefficients")(_SOURCE, _COEFFICIENTS),
], ids=["None", "float", "iterator", "str", "one-item", "no-text", "list-text", "plain-tuple",
        "other-text", "look-alike"])
@pytest.mark.parametrize("loop", sorted(LOOPS))
def test_a_source_other_than_a_source_type_is_ignored(loop, source):
    # only vector_field's fields carry a _Source; a field whose ``source`` is
    # anything else, well formed or not, is called at every evaluation
    integrate, mode = LOOPS[loop]
    bare = vector_field(EX1)
    field = _counted(lambda t, x: bare(t, x), source)
    config = SolverConfig(step=0.01, horizon=0.2, cf_mode=mode)
    states = integrate(field, [0.5, 0.9, 0.1], 0.8, config).states
    assert field.calls == 2 * config.num_steps + 1
    plain = integrate(lambda t, x: bare(t, x), [0.5, 0.9, 0.1], 0.8, config).states
    assert states.tobytes() == plain.tobytes()


@pytest.mark.parametrize("d", [1, 2, 4])
def test_source_text_of_any_dimension_matches_its_call(d):
    # numbers, unary minus and parentheses; a coefficient left unused.  The
    # run with the _Source calls its field once, for g_0; the other 2N + 1 times
    source = _Source(tuple(f"-{{c0}} * {{x{i}}} + 2.5e-1 * ({{x{(i + 1) % d}}} - {{c2}})"
                           for i in range(d)), (1.5, 7.0, 0.125))
    call = lambda t, x: [-1.5 * v + 2.5e-1 * (w - 0.125) for v, w in zip(x, np.roll(x, -1))]
    initial = [1.0, -0.5, 0.25, 2.0][:d]
    for integrate, mode in LOOPS.values():
        config = SolverConfig(step=0.01, horizon=0.01 * (HISTORY_BLOCK + 3), cf_mode=mode)
        fields = (_counted(call, source), _counted(call))
        runs = [integrate(f, initial, 0.8, config).states for f in fields]
        assert runs[0].tobytes() == runs[1].tobytes()
        assert [f.calls for f in fields] == [1, 2 * config.num_steps + 1]


@pytest.mark.parametrize("path", ["inline", "adapter"])
@pytest.mark.parametrize("integrate", [integrate_caputo, integrate_cf])
@pytest.mark.parametrize("h,starts,later",
                         [(0.01, (-0.01, -0.013, -0.011, -0.012), False),
                          (0.004, (-1.1e-6, -1.2e-6, -1.25e-6, -1e-6), True)],
                         ids=["first-block", "later-block"])
def test_divergence_partial_equals_the_run_cut_before_it(monkeypatch, integrate, path, h,
                                                         starts, later):
    # np.empty filled with NaN: a row of ``states`` left unwritten would show.
    # The four starts of x trip the guard on the first, second, third and
    # fourth step of a Caputo group (offsets 0..3 from the block start, mod G).
    monkeypatch.setattr(fraclv.solvers.np, "empty", lambda shape: np.full(shape, np.nan))
    offsets = set()
    for x in starts:
        initial = [x, 0.9, 0.1]
        with pytest.raises(DivergenceError) as excinfo:  # x runs off to -inf
            integrate(_both_paths(EX1)[path], initial, 0.9, SolverConfig(step=h, horizon=50.0))
        k = excinfo.value.step_index - 1
        assert (k > HISTORY_BLOCK) == later
        offsets.add(k % HISTORY_BLOCK % _GROUP)
        partial = excinfo.value.partial
        cut = integrate(_both_paths(EX1)[path], initial, 0.9, SolverConfig(step=h, horizon=k * h))
        assert partial.states.shape == (k + 1, 3)
        assert np.all(np.isfinite(partial.states))
        assert np.array_equal(partial.times, cut.times)
        assert partial.states.tobytes() == cut.states.tobytes()
    if integrate is integrate_caputo:
        assert offsets == set(range(_GROUP))


@pytest.mark.parametrize("path", ["inline", "adapter"])
@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("loop", sorted(LOOPS))
def test_every_row_of_a_completed_run_is_written(monkeypatch, loop, d, path):
    # np.empty filled with NaN, as above, on runs that end at a step of either
    # side of a Caputo group and block edge; each step stores its own row.  At
    # d = 1 the inlined decay field is called once, for g_0, and the other 2N + 1 times
    integrate, mode = LOOPS[loop]
    if d == 3:
        field, initial = _both_paths(EX1)[path], [0.5, 0.9, 0.1]
    else:
        field = _counted(decay, _Source(("-{x0}",), ()) if path == "inline" else None)
        initial = [1.0]
    for steps in (1, _GROUP - 1, HISTORY_BLOCK - 1, HISTORY_BLOCK, HISTORY_BLOCK + 1,
                  2 * HISTORY_BLOCK + 3):
        config = SolverConfig(step=0.01, horizon=0.01 * steps, cf_mode=mode)
        if d == 1:
            field.calls = 0
        plain = integrate(field, initial, 0.85, config).states
        if d == 1:
            assert field.calls == (1 if path == "inline" else 2 * steps + 1), steps
        with monkeypatch.context() as patch:
            patch.setattr(fraclv.solvers.np, "empty", lambda shape: np.full(shape, np.nan))
            states = integrate(field, initial, 0.85, config).states
        assert states.shape == (steps + 1, d)
        assert np.all(np.isfinite(states)), steps
        assert states.tobytes() == plain.tobytes(), steps


@pytest.mark.parametrize("name", ["example1-caputo", "example2-caputo"])
def test_caputo_run_is_the_prefix_of_a_longer_run(name):
    # a run's last block reads the same lag weights, full blocks' worth, as a
    # longer run's, and its far sums the same weight segments, so cutting the
    # horizon inside a block moves no row; the cuts end the run's last step at
    # each offset within a Caputo group, and one ends the run on a block end
    sc = SCENARIOS[name]
    field = vector_field(PRESETS[sc.preset].params)
    run = lambda steps: integrate_caputo(field, sc.initial, sc.alpha,
                                         SolverConfig(step=sc.step, horizon=steps * sc.step)).states
    full = run(5000)
    assert len(full) == 5001
    cuts = [1100 + last for last in range(1, _GROUP + 1)] + [4 * HISTORY_BLOCK, 2500, 4100]
    assert sorted((steps - 1) % _GROUP for steps in cuts[:_GROUP]) == list(range(_GROUP))
    for steps in cuts:
        cut = run(steps)
        assert len(cut) == steps + 1
        assert cut.tobytes() == full[: len(cut)].tobytes(), steps


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


def _shrinks_at(call, d=3):
    """A zero field of d components that returns d - 1 on its ``call``-th call
    (from 0) only, so only the check at that call site can catch it."""
    calls = iter(range(call + 2))

    def field(t, x):
        return (0.0,) * (d - 1) if next(calls, None) == call else (0.0,) * d

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
    # call 2k+2 (corrector), on each step of a Caputo group of G, in the first
    # block and in a later one, in the step loops of d = 3 and d = 2
    config = SolverConfig(step=h, horizon=(HISTORY_BLOCK + _GROUP) * h)
    for initial in ([1.0, 2.0, 3.0], [1.0, 2.0]):
        d = len(initial)
        for k in [*range(_GROUP), *range(HISTORY_BLOCK, HISTORY_BLOCK + _GROUP)]:
            for call in (2 * k + 1, 2 * k + 2):
                message = f"field returned {d - 1} components at t = {(k + 1) * h:g}, expected {d}"
                with pytest.raises(ValueError, match=re.escape(message)):
                    run(_shrinks_at(call, d), initial, config)


def test_cf_corrected_explicit_instability_is_caught():
    # (1-alpha) * L > 1 along this orbit: the explicit treatment of the
    # non-integral term cannot contract, and the guard must fire
    field = vector_field(EX1)
    config = SolverConfig(step=0.01, horizon=50.0, cf_mode="corrected")
    with pytest.raises(DivergenceError):
        integrate_cf(field, [1.6, 1.9, 0.0], 0.6, config)


def test_dimension_mismatch_rejected():
    bad = lambda t, x: np.array([1.0, 2.0])
    message = r"^field dimension \(2,\) does not match initial state \(3,\)$"
    for integrate in (integrate_caputo, integrate_cf):
        with pytest.raises(ValueError, match=message):
            integrate(bad, [1.0, 2.0, 3.0], 0.5, SolverConfig(step=0.1, horizon=1.0))


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


@pytest.mark.parametrize("step", [0.01, 0.001, 0.07, 0.3, 1e-4])
@pytest.mark.parametrize("steps", [1, 3, 5000, 2**24 - 1, 2**24 + 3, 30000004, 123456789,
                                   10**9 + 7, 2**40 + 1])
def test_num_steps_keeps_the_last_step_of_long_horizons(step, steps):
    # horizon / step lands within a few ulp of the step count (300000.04 / 0.01 is
    # 30000003.999999996); past ~2^24 steps that is more than a fixed 1e-9 of slack
    assert SolverConfig(step=step, horizon=steps * step).num_steps == steps


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
