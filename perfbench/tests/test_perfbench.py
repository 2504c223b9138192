"""Quick tests of the benchmark itself: each workload passes its checks at a
small size, each check rejects a wrong answer, and the tracer's bookkeeping
holds.  Run with: PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

import fraclv  # noqa: E402


@pytest.fixture(scope="module")
def scenarios(tmp_path_factory):
    wl = workloads.Scenarios(seed=3, work_dir=str(tmp_path_factory.mktemp("sc")), step_factor=2)
    return wl, wl.run_pass()


@pytest.fixture(scope="module")
def long_horizon():
    wl = workloads.LongHorizon(seed=3, work_dir=None, step_factor=5)
    return wl, wl.run_pass()


@pytest.fixture(scope="module")
def stability_map():
    wl = workloads.StabilityMap(seed=3, work_dir=None, grid=21, samples=3)
    return wl, wl.run_pass()


# ---------------------------------------------------------------------------
# each workload passes its checks at a small size


def test_scenarios_pass_their_checks(scenarios):
    wl, out = scenarios
    assert out == [0, 0, 0, 0]
    assert wl.failed(out) == 0
    assert wl.problems(out) == []


def test_long_horizon_passes_its_checks(long_horizon):
    wl, out = long_horizon
    assert [len(traj.times) for traj in out] == [4001, 4001]
    assert wl.problems(out) == []


def test_stability_map_passes_its_checks(stability_map):
    wl, out = stability_map
    assert len(out[0]) == 4 and len(out[0][0]) == 21 * 21
    assert wl.problems(out) == []
    assert 0 <= wl.failed(out) <= len(workloads.PROBES)


def test_seed_fixes_the_inputs():
    a, b, c = (workloads.StabilityMap(seed=s, work_dir=None, grid=5, samples=2) for s in (1, 1, 2))
    assert a.point_list == b.point_list and a.param_sets == b.param_sets
    assert a.point_list != c.point_list and a.param_sets != c.param_sets
    assert a.ops_per_pass == c.ops_per_pass


# ---------------------------------------------------------------------------
# each check rejects a wrong answer


def _simulate_problems(run, manifest, csv):
    return checks.simulate_problems(0, manifest, csv, step=run["step"], num_steps=run["num_steps"],
                                    params=run["params"], target=run["target"],
                                    tolerance=run["tolerance"], planar=run["planar"])


def test_simulate_check_rejects_moved_terminal_state(scenarios):
    wl, _ = scenarios
    run = wl.runs[0]
    manifest, csv = wl._files(run)
    lines = csv.splitlines()
    t, x, y, z = (float(v) for v in lines[-1].split(","))
    lines[-1] = f"{t:.16e},{x + 0.1:.16e},{y:.16e},{z:.16e}"
    assert _simulate_problems(run, manifest, "\n".join(lines) + "\n") != []


def test_simulate_check_rejects_dropped_row(scenarios):
    wl, _ = scenarios
    run = wl.runs[0]
    manifest, csv = wl._files(run)
    lines = csv.splitlines()
    del lines[len(lines) // 2]
    assert _simulate_problems(run, manifest, "\n".join(lines) + "\n") != []


def test_simulate_check_rejects_diverged_manifest_and_bad_header(scenarios):
    wl, _ = scenarios
    run = wl.runs[0]
    manifest, csv = wl._files(run)
    assert _simulate_problems(run, manifest.replace('"diverged": false', '"diverged": true'), csv)
    assert _simulate_problems(run, manifest, csv.replace("t,x,y,z", "t,x,y", 1))


def test_simulate_check_rejects_nonzero_z_in_planar_run(scenarios):
    wl, _ = scenarios
    run = next(r for r in wl.runs if r["planar"])
    manifest, csv = wl._files(run)
    lines = csv.splitlines()
    t, x, y, _ = lines[5].split(",")
    lines[5] = f"{t},{x},{y},{1e-300:.16e}"
    assert _simulate_problems(run, manifest, "\n".join(lines) + "\n") != []


def test_target_must_be_an_equilibrium():
    params = fraclv.PRESETS["example1"].params.as_tuple()
    assert checks.equilibrium_problems(params, (1.0 / 3.0, 0.0, 17.0 / 6.0)) == []
    assert checks.equilibrium_problems(params, (1.0 / 3.0 + 1e-3, 0.0, 17.0 / 6.0)) != []


def test_trajectory_check_rejects_moved_terminal_state(long_horizon):
    wl, out = long_horizon
    run, traj = wl.runs[0], out[0]
    states = traj.states.copy()
    kwargs = dict(step=run["step"], num_steps=run["num_steps"], target=run["target"],
                  tolerance=wl.TOLERANCE)
    assert checks.trajectory_problems(traj.times, states, **kwargs) == []
    states[-1, 0] += 0.1
    assert checks.trajectory_problems(traj.times, states, **kwargs) != []
    states[-1, 0] = np.nan
    assert checks.trajectory_problems(traj.times, states, **kwargs) != []


def test_positivity_check():
    states = np.ones((4, 3))
    assert checks.positivity_problems(states) == []
    states[2, 1] = -1e-12
    assert checks.positivity_problems(states) != []


def test_oracles_match_known_values():
    # E_1(z) = exp(z); E_{1/2}(-1) = exp(1) erfc(1)
    assert abs(checks.mittag_leffler(1.0, -1.0) - np.exp(-1.0)) < 1e-15
    assert abs(checks.mittag_leffler(0.5, -1.0) - 0.42758357615580705) < 1e-15
    assert checks.cf_linear_exact(0.5, -1.0, 1.0, 2.0) == pytest.approx(np.exp(-2.0 / 3.0))


def test_convergence_check_rejects_a_stalled_error():
    assert checks.convergence_problems("ok", [4e-4, 1e-4, 2.5e-5], 1.8, 1e-4) == []
    assert checks.convergence_problems("slow", [4e-4, 2e-4, 1e-4], 1.8, 1e-3) != []
    assert checks.convergence_problems("large", [4e-2, 1e-2, 2.5e-3], 1.8, 1e-3) != []


def test_region_check_rejects_one_flipped_class(stability_map):
    wl, out = stability_map
    alpha, classes = wl.GRID_ORDERS[0], np.array(out[0][0])
    _, _, _, margin = checks.region_reference(wl.points, alpha)
    i = int(np.argmax(margin))
    classes[i] = "C" if classes[i] != "C" else "A"
    assert checks.region_problems(wl.points, alpha, classes) != []


def test_report_check_rejects_a_moved_eigenvalue(stability_map):
    wl, out = stability_map
    params, report = wl.param_sets[0], wl.flatten(out[1][0][0])
    alpha = wl.REPORT_ORDERS[0]
    assert checks.report_problems(params.as_tuple(), alpha, report) == []
    kind, point, eigs, *rest = report[2]
    moved = (eigs[0] + 1e-3,) + tuple(eigs[1:])
    assert checks.report_problems(params.as_tuple(), alpha, report[:2] + [(kind, point, moved, *rest)]
                                  + report[3:]) != []


def test_report_check_rejects_a_flipped_verdict(stability_map):
    wl, out = stability_map
    params, report = wl.param_sets[0], wl.flatten(out[1][0][0])
    alpha = wl.REPORT_ORDERS[0]
    kind, point, eigs, caputo, cf_disk, cf_theorem, regions = report[1]  # E1: a clear saddle
    wrong = report[:1] + [(kind, point, eigs, not caputo, cf_disk, cf_theorem, regions)] + report[2:]
    assert checks.report_problems(params.as_tuple(), alpha, wrong) != []
    wrong = report[:1] + [(kind, point, eigs, caputo, not cf_disk, cf_theorem, regions)] + report[2:]
    assert checks.report_problems(params.as_tuple(), alpha, wrong) != []


def test_table2_check_rejects_a_changed_summary(stability_map):
    _, out = stability_map
    code, stdout = out[2]
    assert checks.table2_problems(code, stdout) == []
    assert checks.table2_problems(1, stdout) != []
    assert checks.table2_problems(code, stdout.replace("29 PASS", "28 PASS")) != []


def test_probe_checks():
    ref = checks.cubic_reference(0.0, 0.0, 1e-320)
    m = abs(1e-320) ** (1.0 / 3.0)
    assert all(abs(abs(w) - m) <= 1e-9 * m for w in ref)
    assert checks.roots_problems("ok", ref, ref) == []
    assert checks.roots_problems("small", [w * 0.8 for w in ref], ref) != []
    assert checks.roots_problems("nan", [complex("nan")] * 3, ref) != []


# ---------------------------------------------------------------------------
# tracer and command


def test_self_time_subtracts_direct_children():
    spans = [("a", 0, 100, -1), ("b", 10, 40, 0), ("c", 20, 30, 1), ("b", 50, 60, 0)]
    totals = tracing.layer_totals(spans)
    assert totals["a"] == pytest.approx((1, 100e-9, 60e-9))
    assert totals["b"] == pytest.approx((2, 40e-9, 30e-9))
    assert totals["c"] == pytest.approx((1, 10e-9, 10e-9))


def test_tracer_counts_calls_and_restores_functions(stability_map):
    wl, _ = stability_map
    originals = [getattr(m, a) for m, a, _ in tracing.TARGETS]
    tracer = tracing.Tracer()
    out = tracer.traced_pass(wl.run_pass)
    assert [getattr(m, a) for m, a, _ in tracing.TARGETS] == originals
    totals = tracing.layer_totals(tracer.spans)
    reports = len(wl.param_sets) * len(wl.REPORT_ORDERS)
    assert totals["stability.equilibrium_report"][0] == reports
    assert totals["stability.classify_region"][0] >= len(wl.GRID_ORDERS) * len(wl.points)
    assert wl.problems(out) == []


def test_run_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "scenarios", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60, env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout == ""
