"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Every tolerance is pinned here, not configurable.

Criterion 4 note: the high-order CF run uses the corrected scheme.  The
paper-mode limit is the time-rescaled classical system, whose slowest spiral
is still ~0.14 from the target at t = 50 (measured at h = 0.001 as well, so
it is a property of the limit, not of the step size); the corrected scheme
restores the non-integral term and lands within 2e-5.  The planar CF run
keeps paper mode, where the orbit's ``(1-alpha) * L > 1`` rules the explicit
corrected treatment out.
"""

import time

import numpy as np

from fraclv.cli import main
from fraclv.model import equilibria, jacobian, vector_field
from fraclv.presets import KNOWN_DISCREPANCIES, PRESETS, SCENARIOS, TABLE2
from fraclv.solvers import SolverConfig, integrate_caputo, integrate_cf
from fraclv.spectral import CubicCoefficients, characteristic_cubic, cubic_roots
from fraclv.stability import caputo_stable, cf_disk_verdict, cf_stable_theorem

from oracles import (
    companion_eigenvalues,
    cubic_value,
    linear_cf_exact,
    multiset_distance,
    random_cubic,
    reference_rk4,
)

EX1 = PRESETS["example1"].params


def _passed(n, title):
    print(f"\nACCEPTANCE {n} ({title}): PASS")


# ---------------------------------------------------------------------------


def test_criterion_1_verdict_matrix(capsys):
    started = time.perf_counter()
    rc = main(["reproduce-table2"])
    elapsed = time.perf_counter() - started
    out = capsys.readouterr().out

    assert rc == 0
    assert elapsed < 60.0, f"reproduce-table2 took {elapsed:.1f}s"

    verdict_lines = [
        line for line in out.splitlines()
        if line.split(" ")[2:3] in (["caputo:"], ["cf:"])
    ]
    assert len(verdict_lines) == 30
    passes = [l for l in verdict_lines if ": PASS" in l]
    known = [l for l in verdict_lines if ": KNOWN-DISCREPANCY" in l]
    fails = [l for l in verdict_lines if ": FAIL" in l]
    assert len(passes) == 29
    assert len(fails) == 0
    assert len(known) == 1 and known[0].startswith("example2 E4 cf")
    assert KNOWN_DISCREPANCIES == {("example2", "E4", "cf")}
    with capsys.disabled():
        _passed(1, f"verdict matrix 29 PASS + 1 KNOWN-DISCREPANCY in {elapsed:.2f}s")


def test_criterion_2_equilibrium_values():
    for name, preset in PRESETS.items():
        eqs = {eq.kind: eq for eq in equilibria(preset.params)}
        for kind, row in TABLE2[name].items():
            err = np.max(np.abs(eqs[kind].point - np.array(row["point"])))
            assert err <= 1e-2, f"{name} {kind}: point error {err:.3e}"
            assert eqs[kind].admissible == row["admissible"]
    _passed(2, "all 15 published equilibrium points within 1e-2")


def test_criterion_3_eigenvalues():
    for name, preset in PRESETS.items():
        eqs = {eq.kind: eq for eq in equilibria(preset.params)}
        for kind, row in TABLE2[name].items():
            spec = cubic_roots(characteristic_cubic(jacobian(preset.params, eqs[kind].point)))
            err = multiset_distance(spec.eigenvalues, row["eigenvalues"])
            assert err <= 1e-2, f"{name} {kind}: eigenvalue error {err:.3e}"
    _passed(3, "all 15 published spectra within 1e-2 as multisets")


def test_criterion_4_trajectory_behaviors():
    summaries = []
    for name, scenario in SCENARIOS.items():
        params = PRESETS[scenario.preset].params
        field = vector_field(params)
        config = SolverConfig(step=scenario.step, horizon=scenario.horizon,
                              cf_mode=scenario.cf_mode)
        integrate = integrate_caputo if scenario.operator == "caputo" else integrate_cf
        started = time.perf_counter()
        traj = integrate(field, scenario.initial, scenario.alpha, config)
        elapsed = time.perf_counter() - started
        err = np.max(np.abs(traj.final_state - np.array(scenario.target)))
        assert elapsed < 30.0, f"{name}: run took {elapsed:.1f}s"
        assert err <= scenario.tolerance, f"{name}: terminal error {err:.3e}"
        summaries.append(f"{name} err={err:.1e} ({elapsed:.1f}s)")
    _passed(4, "; ".join(summaries))


def test_criterion_5a_order_one_reduction():
    config = SolverConfig(step=0.01, horizon=5.0)
    field = vector_field(EX1)
    # two documented configurations of the bundled system: a near-equilibrium
    # start and the planar scenario orbit
    for initial in ([0.3, 0.1, 2.9], [1.6, 1.9, 0.0]):
        ref = reference_rk4(field, initial, config)
        for integrate in (integrate_cf, integrate_caputo):
            traj = integrate(field, initial, 1.0, config)
            err = np.max(np.abs(traj.states - ref.states))
            assert err <= 1e-3, f"initial {initial}: max-norm error {err:.3e}"
    _passed(5, "a: alpha=1 reduction within 1e-3 of classical reference")


def test_criterion_5b_cf_convergence():
    lam, alpha, horizon = -1.0, 0.5, 2.0
    exact = linear_cf_exact(lam, alpha, 1.0, horizon).real
    errors = []
    for h in (0.04, 0.02, 0.01):
        config = SolverConfig(step=h, horizon=horizon, cf_mode="corrected")
        traj = integrate_cf(lambda t, x: lam * x, [1.0], alpha, config)
        errors.append(abs(traj.final_state[0] - exact))
    r1, r2 = errors[0] / errors[1], errors[1] / errors[2]
    assert r1 >= 1.5, f"halving 0.04 -> 0.02 shrank error only by {r1:.2f}"
    assert r2 >= 1.5, f"halving 0.02 -> 0.01 shrank error only by {r2:.2f}"
    _passed(5, f"b: terminal error ratios {r1:.2f}, {r2:.2f} >= 1.5")


def test_criterion_5c_exact_axis_invariance():
    field = vector_field(EX1)
    runs = [
        (integrate_caputo, 0.6, "paper"),
        (integrate_cf, 0.6, "paper"),
        (integrate_cf, 0.98, "corrected"),
    ]
    for component, initial in ((1, [0.5, 0.0, 2.5]), (2, [1.6, 1.9, 0.0])):
        for integrate, alpha, mode in runs:
            config = SolverConfig(step=0.01, horizon=5.0, cf_mode=mode)
            traj = integrate(field, initial, alpha, config)
            assert np.all(traj.states[:, component] == 0.0), (
                f"component {component} left exact zero ({integrate.__name__}, {mode})"
            )
    _passed(5, "c: zero-started components stay exactly 0.0 bitwise")


def test_criterion_6_spectral_oracle():
    rng = np.random.default_rng(2024)
    branches = {0: 0, 1: 0, 2: 0}
    worst_match = 0.0
    worst_residual = 0.0
    for trial in range(10_000):
        mode = trial % 10
        mode = 2 if mode >= 8 else (1 if mode >= 4 else 0)
        branches[mode] += 1
        a, b, c = random_cubic(rng, mode)
        mine = cubic_roots(CubicCoefficients(a, b, c)).eigenvalues
        ref = companion_eigenvalues(a, b, c)
        worst_match = max(worst_match, multiset_distance(mine, ref))
        scale = max(1.0, abs(a), abs(b), abs(c))
        worst_residual = max(
            worst_residual,
            max(abs(cubic_value(a, b, c, w)) for w in mine) / scale,
        )
    assert min(branches.values()) >= 1000  # all three branch families present
    assert worst_match <= 1e-9, f"worst oracle mismatch {worst_match:.3e}"
    assert worst_residual <= 1e-9, f"worst relative residual {worst_residual:.3e}"
    _passed(6, f"10^4 cubics: worst match {worst_match:.1e}, "
               f"worst residual {worst_residual:.1e}")


def test_criterion_7_criterion_geometry():
    rng = np.random.default_rng(777)
    n = 100_000
    res = rng.uniform(-100.0, 100.0, n)
    ims = rng.uniform(-100.0, 100.0, n)
    alphas = rng.uniform(0.01, 0.99, n)
    alphas2 = rng.uniform(0.01, 0.99, n)

    boundary_excluded = 0
    for re, im, a1, a2 in zip(res, ims, alphas, alphas2):
        lam = complex(re, im)
        lo, hi = min(a1, a2), max(a1, a2)

        # theorem pass implies disk pass, except exact-boundary samples
        c = 1.0 / (2.0 * (1.0 - a1))
        if abs(abs(lam - c) - c) < 1e-12:
            boundary_excluded += 1
        elif cf_stable_theorem([lam], a1).stable:
            assert cf_disk_verdict([lam], a1).stable, f"theorem held but disk failed: {lam}, {a1}"

        # cone monotonicity: stable at hi implies stable at every lower order
        if caputo_stable([lam], hi).stable:
            assert caputo_stable([lam], lo).stable, f"cone not monotone: {lam}"

        # disk nesting: failing at the smaller order implies failing at the larger
        if not cf_disk_verdict([lam], lo).stable:
            assert not cf_disk_verdict([lam], hi).stable, f"disks not nested: {lam}"

        # left half-plane is stable for both criteria
        if re < 0.0:
            assert caputo_stable([lam], a1).stable
            assert cf_stable_theorem([lam], a1).stable
            assert cf_disk_verdict([lam], a1).stable

    assert boundary_excluded < n // 1000
    _passed(7, f"10^5 samples: embedding, monotonicity, nesting, half-plane "
               f"({boundary_excluded} boundary-excluded)")
