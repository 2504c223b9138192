"""Spans around fraclv's public functions, and the per-layer metrics they give.

The tracer replaces each function in TARGETS on the module where the program
looks it up with a wrapper that records a span (name, start, end, parent);
``uninstall`` puts the originals back.  Fields made by ``vector_field`` are
wrapped too, so every evaluation of the right-hand side is a span.  No file
of the program changes.
"""

from __future__ import annotations

import json
import time

import fraclv
import fraclv.cli
import fraclv.stability

#: (module, attribute, span name).  A function is wrapped wherever it is looked up.
TARGETS = (
    (fraclv.cli, "cmd_simulate", "cli.simulate"),
    (fraclv.cli, "cmd_reproduce_table2", "cli.reproduce_table2"),
    (fraclv.cli, "integrate_caputo", "solvers.caputo"),
    (fraclv, "integrate_caputo", "solvers.caputo"),
    (fraclv.cli, "integrate_cf", "solvers.cf"),
    (fraclv, "integrate_cf", "solvers.cf"),
    (fraclv.cli, "equilibria", "model.equilibria"),
    (fraclv.stability, "equilibria", "model.equilibria"),
    (fraclv.cli, "jacobian", "model.jacobian"),
    (fraclv.stability, "jacobian", "model.jacobian"),
    (fraclv.cli, "characteristic_cubic", "spectral.characteristic_cubic"),
    (fraclv.stability, "characteristic_cubic", "spectral.characteristic_cubic"),
    (fraclv.cli, "cubic_roots", "spectral.cubic_roots"),
    (fraclv.stability, "cubic_roots", "spectral.cubic_roots"),
    (fraclv, "cubic_roots", "spectral.cubic_roots"),
    (fraclv.cli, "equilibrium_report", "stability.equilibrium_report"),
    (fraclv, "equilibrium_report", "stability.equilibrium_report"),
    (fraclv.stability, "table1_conditions", "stability.table1_conditions"),
    (fraclv.stability, "classify_region", "stability.classify_region"),
    (fraclv, "classify_region", "stability.classify_region"),
)
#: Factories whose products are wrapped: each field evaluation is a span.
FIELD_FACTORIES = ((fraclv.cli, "vector_field"), (fraclv, "vector_field"))
FIELD = "model.field"
PASS = "bench.pass"


class Tracer:
    """Spans in memory: ``spans[i] = (name, start_ns, end_ns, parent index or -1)``."""

    def __init__(self):
        self.spans = []
        self.steps = {"caputo": 0, "cf": 0}
        self._stack = []
        self._saved = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, clock(), parent)
                stack.pop()

        return traced

    def _count_steps(self, operator, integrate):
        def counted(*args, **kwargs):
            traj = integrate(*args, **kwargs)
            self.steps[operator] += len(traj.times) - 1
            return traj

        return counted

    def _wrap_factory(self, factory):
        def traced_factory(*args, **kwargs):
            return self.wrap(FIELD, factory(*args, **kwargs))

        return traced_factory

    def install(self):
        for module, attr, name in TARGETS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            if name.startswith("solvers."):
                original = self._count_steps(name.split(".")[1], original)
            setattr(module, attr, self.wrap(name, original))
        for module, attr in FIELD_FACTORIES:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap_factory(original))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def traced_pass(self, run_pass):
        """One pass under a root span; returns its output.

        ``spans`` then holds this pass's spans only, and ``steps`` its solver
        steps per operator.
        """
        del self.spans[:]
        self.steps = dict.fromkeys(self.steps, 0)
        self.install()
        try:
            return self.wrap(PASS, run_pass)()
        finally:
            self.uninstall()

    def write(self, path, extra):
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        base = self.spans[0][1] if self.spans else 0
        payload = dict(extra, names=names, columns=["name", "start_ns", "end_ns", "parent"],
                       spans=[[code[n], s - base, e - base, p] for n, s, e, p in self.spans])
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def layer_totals(spans):
    """Per span name: calls, total time and self time (s).

    Self time is a span's duration minus the durations of its direct children.
    """
    child = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    totals = {}
    for (name, start, end, _), child_ns in zip(spans, child):
        calls, total, self_ns = totals.get(name, (0, 0, 0))
        totals[name] = (calls + 1, total + end - start, self_ns + end - start - child_ns)
    return {n: (c, t * 1e-9, s * 1e-9) for n, (c, t, s) in totals.items()}


def _per(value, count, scale=1.0):
    return scale * value / count if count else 0.0


#: Per-layer metric name -> unit.
UNITS = {
    "cli.simulate_s": "s",
    "cli.simulate_self_s": "s",
    "cli.bytes_written": "bytes",
    "cli.reproduce_table2_s": "s",
    "solvers.caputo_s": "s",
    "solvers.cf_s": "s",
    "solvers.caputo_self_s": "s",
    "solvers.cf_self_s": "s",
    "solvers.caputo_self_us_per_step": "us",
    "solvers.cf_self_us_per_step": "us",
    "solvers.steps": "count",
    "model.field_calls": "count",
    "model.field_s": "s",
    "model.field_us_per_call": "us",
    "model.equilibria_calls": "count",
    "model.jacobian_calls": "count",
    "spectral.cubic_roots_calls": "count",
    "spectral.cubic_roots_s": "s",
    "spectral.characteristic_cubic_s": "s",
    "stability.equilibrium_report_calls": "count",
    "stability.equilibrium_report_self_s": "s",
    "stability.table1_conditions_s": "s",
    "stability.classify_region_calls": "count",
    "stability.classify_region_us_per_call": "us",
    "trace.overhead_s": "s",
}


def layer_metrics(totals, steps, bytes_written):
    """Per-layer metrics of one traced pass (all but trace.overhead_s)."""
    def get(name):
        return totals.get(name, (0, 0.0, 0.0))

    simulate, table2 = get("cli.simulate"), get("cli.reproduce_table2")
    caputo, cf, field = get("solvers.caputo"), get("solvers.cf"), get(FIELD)
    roots, report = get("spectral.cubic_roots"), get("stability.equilibrium_report")
    classify = get("stability.classify_region")
    return {
        "cli.simulate_s": simulate[1],
        "cli.simulate_self_s": simulate[2],
        "cli.bytes_written": bytes_written,
        "cli.reproduce_table2_s": table2[1],
        "solvers.caputo_s": caputo[1],
        "solvers.cf_s": cf[1],
        "solvers.caputo_self_s": caputo[2],
        "solvers.cf_self_s": cf[2],
        "solvers.caputo_self_us_per_step": _per(caputo[2], steps["caputo"], 1e6),
        "solvers.cf_self_us_per_step": _per(cf[2], steps["cf"], 1e6),
        "solvers.steps": steps["caputo"] + steps["cf"],
        "model.field_calls": field[0],
        "model.field_s": field[1],
        "model.field_us_per_call": _per(field[1], field[0], 1e6),
        "model.equilibria_calls": get("model.equilibria")[0],
        "model.jacobian_calls": get("model.jacobian")[0],
        "spectral.cubic_roots_calls": roots[0],
        "spectral.cubic_roots_s": roots[1],
        "spectral.characteristic_cubic_s": get("spectral.characteristic_cubic")[1],
        "stability.equilibrium_report_calls": report[0],
        "stability.equilibrium_report_self_s": report[2],
        "stability.table1_conditions_s": get("stability.table1_conditions")[1],
        "stability.classify_region_calls": classify[0],
        "stability.classify_region_us_per_call": _per(classify[1], classify[0], 1e6),
    }
