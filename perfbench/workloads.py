"""The workloads: seeded inputs, one timed pass, and the checks.

A workload object is built once from the seed (set-up); ``run_pass`` then
makes every call of one pass through fraclv's public API and returns the raw
outputs, and ``problems`` checks the outputs of one pass with ``checks``.
Functions are looked up on their modules at call time (``fraclv.cli.main``,
``fraclv.integrate_caputo`` ...), so the traced run can wrap them there.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os

import numpy as np

import fraclv
import fraclv.cli

import checks

#: Relative jitter of the seeded initial states and parameter sets.
INITIAL_JITTER = 0.02
PARAM_JITTER = 0.10


def _jitter(rng, values, scale):
    """Each value times (1 + u), u uniform in [-scale, scale]; zeros stay zero."""
    return tuple(float(v * (1.0 + rng.uniform(-scale, scale))) for v in values)


def _num_steps(horizon, step):
    return int(round(horizon / step))


class Scenarios:
    """The four bundled SCENARIOS, each through ``fraclv simulate`` into a directory.

    Per-step solver overhead, history sums and the CLI's config validation,
    CSV and manifest writing all take part.  The seed jitters the initial
    states by up to 2% (an exactly-zero component stays zero, so the planar
    run stays planar).
    """

    name = "scenarios"

    def __init__(self, seed, work_dir, step_factor=1):
        rng = np.random.default_rng(seed)
        self.runs = []
        for name, sc in fraclv.SCENARIOS.items():
            params = fraclv.PRESETS[sc.preset].params
            step = sc.step * step_factor
            config = {
                "operator": sc.operator,
                "alpha": sc.alpha,
                "params": params.as_dict(),
                "initial": list(_jitter(rng, sc.initial, INITIAL_JITTER)),
                "horizon": sc.horizon,
                "step": step,
                "cf_mode": sc.cf_mode,
            }
            out_dir = os.path.join(work_dir, name)
            os.makedirs(out_dir, exist_ok=True)
            config_path = os.path.join(work_dir, f"{name}.json")
            with open(config_path, "w", encoding="utf-8") as fh:
                json.dump(config, fh)
            self.runs.append({
                "name": name,
                "argv": ["simulate", "--config", config_path, "--out", out_dir],
                "out_dir": out_dir,
                "step": step,
                "num_steps": _num_steps(sc.horizon, step),
                "params": params.as_tuple(),
                "target": sc.target,
                "tolerance": sc.tolerance,
                "planar": sc.initial[2] == 0.0,
            })
        self.ops_per_pass = len(self.runs)

    def run_pass(self):
        return [fraclv.cli.main(run["argv"]) for run in self.runs]

    def _files(self, run):
        texts = []
        for name in ("manifest.json", "trajectory.csv"):
            with open(os.path.join(run["out_dir"], name), encoding="utf-8") as fh:
                texts.append(fh.read())
        return texts

    def failed(self, out):
        return sum(code != 0 for code in out)

    def digest(self, out):
        """What every pass must reproduce bit for bit: exit codes and CSV bytes."""
        h = hashlib.sha256(repr(out).encode())
        for run in self.runs:
            h.update(self._files(run)[1].encode())
        return h.hexdigest()

    def bytes_written(self):
        return sum(os.path.getsize(os.path.join(run["out_dir"], name))
                   for run in self.runs for name in ("manifest.json", "trajectory.csv"))

    def problems(self, out):
        problems = []
        for run, code in zip(self.runs, out):
            manifest, csv = self._files(run)
            problems += [f"{run['name']}: {p}" for p in checks.simulate_problems(
                code, manifest, csv, step=run["step"], num_steps=run["num_steps"],
                params=run["params"], target=run["target"], tolerance=run["tolerance"],
                planar=run["planar"])]
        return problems + oracle_problems()


class LongHorizon:
    """One Caputo run (example2, alpha 0.6) and one corrected CF run (example1,
    alpha 0.98), 20,000 steps each, through the library with no file output.
    Run by hand only: BENCHMARK.json does not list it (see README.md).

    The O(N^2) history sums do most of the work.  The seed jitters the
    Caputo run's initial state by up to 2%.  The CF run starts from the
    bundled example1 state on every seed: it fails on every pass today (its
    y component goes negative near t = 5.5, which the exact solution cannot),
    and a failure kept in the count must not depend on the seed.
    """

    name = "long-horizon"
    HORIZON = 200.0
    STEP = 0.01
    TOLERANCE = 2e-2

    def __init__(self, seed, work_dir, step_factor=1):
        rng = np.random.default_rng(seed)
        step = self.STEP * step_factor
        self.runs = []
        for operator, preset, alpha, mode, kind in (
            ("caputo", "example2", 0.6, "paper", "E4"),
            ("cf", "example1", 0.98, "corrected", "E2"),
        ):
            params = fraclv.PRESETS[preset].params
            self.runs.append({
                "name": f"{preset}-{operator}",
                "operator": operator,
                "params": params,
                "initial": (_jitter(rng, fraclv.PRESETS[preset].initial, INITIAL_JITTER)
                            if operator == "caputo" else fraclv.PRESETS[preset].initial),
                "alpha": alpha,
                "config": fraclv.SolverConfig(step=step, horizon=self.HORIZON, cf_mode=mode),
                "step": step,
                "num_steps": _num_steps(self.HORIZON, step),
                "target": checks.lv_equilibria(params.as_tuple())[kind],
            })
        self.ops_per_pass = len(self.runs)

    def run_pass(self):
        out = []
        for run in self.runs:
            integrate = fraclv.integrate_caputo if run["operator"] == "caputo" else fraclv.integrate_cf
            field = fraclv.vector_field(run["params"])
            out.append(integrate(field, run["initial"], run["alpha"], run["config"]))
        return out

    def failed(self, out):
        """A run fails when a state leaves the positive orthant."""
        return sum(bool(checks.positivity_problems(traj.states)) for traj in out)

    def digest(self, out):
        h = hashlib.sha256()
        for traj in out:
            h.update(traj.states.tobytes())
        return h.hexdigest()

    def bytes_written(self):
        return 0

    def problems(self, out):
        problems = []
        for run, traj in zip(self.runs, out):
            problems += [f"{run['name']}: {p}" for p in checks.trajectory_problems(
                traj.times, traj.states, step=run["step"], num_steps=run["num_steps"],
                target=run["target"], tolerance=self.TOLERANCE)]
        return problems


def oracle_problems():
    """The two scalar oracles, at T = 1 and h = 1/32 .. 1/256, checked with scenarios.

    Caputo ABM on D^a x = -x against E_a(-t^a) must converge at order >= 1 + a - 0.2
    (measured 1.62-1.66 at a = 0.6).  Corrected CF on D^a x = -x against
    x0 exp(a lam t / (1 - (1 - a) lam)) must converge at order >= 0.8
    (measured 1.01-1.03: the scheme is first order).
    """
    alpha, lam = 0.6, -1.0
    steps = (32, 64, 128, 256)
    problems = []
    exact = checks.mittag_leffler(alpha, lam)
    errors = []
    for n in steps:
        traj = fraclv.integrate_caputo(lambda t, x: lam * x, [1.0], alpha,
                                       fraclv.SolverConfig(step=1.0 / n, horizon=1.0))
        errors.append(abs(traj.final_state[0] - exact))
    problems += checks.convergence_problems("Caputo D^a x = -x", errors, 1.0 + alpha - 0.2, 1e-5)
    exact = checks.cf_linear_exact(alpha, lam, 1.0, 1.0)
    errors = []
    for n in steps:
        config = fraclv.SolverConfig(step=1.0 / n, horizon=1.0, cf_mode="corrected")
        traj = fraclv.integrate_cf(lambda t, x: lam * x, [1.0], alpha, config)
        errors.append(abs(traj.final_state[0] - exact))
    problems += checks.convergence_problems("CF D^a x = -x", errors, 0.8, 1e-3)
    return problems


#: The three operations that fail on every pass today, with the fault each names.
PROBES = (
    ("cubic_roots(1e200, 1e200, 1e200)", "raises a raw OverflowError"),
    ("cubic_roots(0, 0, 1e-320)", "roots of the wrong magnitude: delta and tol underflow"),
    ("classify_region(nan, 0.5)", "returns 'C' where a ValueError is owed"),
)


def _probe(call):
    try:
        return ("returned", call())
    except Exception as exc:  # a probe's failure is recorded, not raised
        return ("raised", exc)


class StabilityMap:
    """Region map, equilibrium reports and reproduce-table2; no integrator runs.

    * ``classify_region`` on a 121 x 121 grid over Re in [-10, 30],
      Im in [-20, 20], at orders 0.3, 0.5, 0.7 and 0.9; the seed shifts the
      grid by up to half a cell in each direction.
    * ``equilibrium_report`` on 200 parameter sets around each of the three
      presets (each coefficient times 1 + u, u uniform in [-0.1, 0.1]), at
      orders 0.4, 0.66 and 0.98.
    * one ``fraclv reproduce-table2``.
    * the three PROBES.
    """

    name = "stability-map"
    GRID = 121
    GRID_ORDERS = (0.3, 0.5, 0.7, 0.9)
    SAMPLES = 200
    REPORT_ORDERS = (0.4, 0.66, 0.98)

    def __init__(self, seed, work_dir, grid=GRID, samples=SAMPLES):
        rng = np.random.default_rng(seed)
        cell = 40.0 / (grid - 1)
        re = np.linspace(-10.0, 30.0, grid) + rng.uniform(-0.5, 0.5) * cell
        im = np.linspace(-20.0, 20.0, grid) + rng.uniform(-0.5, 0.5) * cell
        self.points = (re[None, :] + 1j * im[:, None]).ravel()
        self.point_list = [complex(w) for w in self.points]
        self.param_sets = []
        for preset in fraclv.PRESETS.values():
            for _ in range(samples):
                values = _jitter(rng, preset.params.as_tuple(), PARAM_JITTER)
                self.param_sets.append(fraclv.ModelParams(*values))
        self._probe_refs = None
        self.ops_per_pass = (len(self.GRID_ORDERS) * len(self.point_list)
                             + len(self.REPORT_ORDERS) * len(self.param_sets) + 1 + len(PROBES))

    def run_pass(self):
        classify = fraclv.classify_region
        regions = [[classify(w, alpha) for w in self.point_list] for alpha in self.GRID_ORDERS]
        report = fraclv.equilibrium_report
        reports = [[report(p, alpha) for p in self.param_sets] for alpha in self.REPORT_ORDERS]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = fraclv.cli.main(["reproduce-table2"])
        probes = (
            _probe(lambda: fraclv.cubic_roots(fraclv.CubicCoefficients(1e200, 1e200, 1e200))),
            _probe(lambda: fraclv.cubic_roots(fraclv.CubicCoefficients(0.0, 0.0, 1e-320))),
            _probe(lambda: fraclv.classify_region(complex(math.nan, 0.0), 0.5)),
        )
        return regions, reports, (code, stdout.getvalue()), probes

    def probe_problems(self, probes):
        """One problem list per probe; a ValueError counts as a correct answer."""
        if self._probe_refs is None:
            self._probe_refs = (checks.cubic_reference(1e200, 1e200, 1e200),
                                checks.cubic_reference(0.0, 0.0, 1e-320), None)
        out = []
        for (label, _), (how, value), ref in zip(PROBES, probes, self._probe_refs):
            if how == "raised":
                out.append([] if isinstance(value, ValueError) else [f"{label}: raised {value!r}"])
            elif ref is None:
                out.append([f"{label}: returned {value!r}, a ValueError is owed"])
            else:
                out.append(checks.roots_problems(label, value.eigenvalues, ref))
        return out

    def failed(self, out):
        return sum(bool(p) for p in self.probe_problems(out[3]))

    def digest(self, out):
        regions, reports, table2, probes = out
        h = hashlib.sha256(repr(regions).encode())
        for per_order in reports:
            for rep in per_order:
                for r in rep:
                    h.update(repr(r.spectrum.eigenvalues).encode())
        h.update(repr(table2).encode())
        h.update(repr([(how, repr(v)) for how, v in probes]).encode())
        return h.hexdigest()

    def bytes_written(self):
        return 0

    @staticmethod
    def flatten(report):
        """Plain data of one equilibrium_report for checks.report_problems."""
        return [(r.equilibrium.kind, np.asarray(r.equilibrium.point, dtype=float),
                 r.spectrum.eigenvalues, r.caputo.stable, r.cf_disk.stable,
                 r.cf_theorem.stable, r.regions) for r in report]

    def problems(self, out):
        regions, reports, (code, stdout), _ = out
        problems = []
        for alpha, classes in zip(self.GRID_ORDERS, regions):
            problems += checks.region_problems(self.points, alpha, np.array(classes))
        for alpha, per_order in zip(self.REPORT_ORDERS, reports):
            for params, report in zip(self.param_sets, per_order):
                problems += checks.report_problems(params.as_tuple(), alpha, self.flatten(report))
        return problems + checks.table2_problems(code, stdout)


WORKLOADS = {cls.name: cls for cls in (Scenarios, LongHorizon, StabilityMap)}
