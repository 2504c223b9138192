"""fraclv benchmark: one workload, timed end to end or traced by layer.

Usage (from the root of a fraclv checkout):

    python3 perfbench/run.py --workload scenarios --seed 1 --seconds 50 --trace 0

Workloads: scenarios and stability-map, which BENCHMARK.json lists, and
long-horizon, run by hand (see README.md).  The run
is a closed loop in this one process: one warm-up pass, then whole passes
until --seconds have gone.  With --trace 0 it prints the end-to-end metrics
(medians over the timed passes); with --trace 1 it alternates untraced and
traced passes and prints the per-layer metrics, and writes the spans of the
last traced pass to perfbench/out/.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

fraclv is imported from src/ of the checkout this file sits in; without it
the run exits 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: Fresh interpreters that repeat the set-up, besides this process.
SETUP_SAMPLES = 6
#: Timed passes per run at least, whatever --seconds says.
MIN_PASSES = 3

END_TO_END_UNITS = {"setup_s": "s", "time_to_solution_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("scenarios", "long-horizon", "stability-map"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs, print the set-up time and exit")
    return parser.parse_args(argv)


def _setup(args, work_dir):
    """Import numpy and fraclv and build the workload's inputs."""
    if not os.path.isfile(os.path.join(SRC, "fraclv", "__init__.py")):
        raise SystemExit(f"error: no fraclv package under {SRC}; run from a fraclv checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import workloads

    module_dir = os.path.dirname(os.path.abspath(workloads.fraclv.__file__))
    if module_dir != os.path.join(SRC, "fraclv"):
        raise SystemExit(f"error: fraclv imported from {module_dir}, not from {SRC}")
    return workloads.WORKLOADS[args.workload](args.seed, work_dir)


def _setup_samples(args):
    """Set-up time of SETUP_SAMPLES fresh interpreters, one after another."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def _timed(run_pass):
    """Run one pass on a collected heap; return its outputs, wall and CPU time.

    The caller drops the previous pass's outputs first, so the collector's
    full passes in the timed pass walk only what this pass allocates, not
    outputs the benchmark still holds.
    """
    gc.collect()
    wall, cpu = time.perf_counter(), time.process_time()
    out = run_pass()
    return out, time.perf_counter() - wall, time.process_time() - cpu


def main(argv=None):
    started = time.perf_counter()
    args = _parse(argv)
    os.makedirs(OUT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        wl = _setup(args, work_dir)
        setup_s = time.perf_counter() - started
        if args.setup_only:
            print(f"{setup_s:.9f}")
            return 0
        return _measure(args, wl, setup_s)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _measure(args, wl, setup_s):
    import tracing

    deadline = time.perf_counter() + args.seconds
    out = wl.run_pass()  # warm-up: first-call costs, caches; not timed
    passes, failed, digests = 1, wl.failed(out), {wl.digest(out)}
    walls, cpus, traced_walls, per_layer = [], [], [], []
    tracer = tracing.Tracer() if args.trace else None

    while len(walls) < MIN_PASSES or time.perf_counter() < deadline:
        out = None
        out, wall, cpu = _timed(wl.run_pass)
        walls.append(wall)
        cpus.append(cpu)
        passes, failed = passes + 1, failed + wl.failed(out)
        digests.add(wl.digest(out))
        if tracer:
            out = None
            out, wall, _ = _timed(lambda: tracer.traced_pass(wl.run_pass))
            traced_walls.append(wall)
            passes, failed = passes + 1, failed + wl.failed(out)
            digests.add(wl.digest(out))
            totals = tracing.layer_totals(tracer.spans)
            per_layer.append(tracing.layer_metrics(totals, tracer.steps, wl.bytes_written()))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = wl.problems(out)
    if len(digests) != 1:
        problems.append(f"passes disagree: {len(digests)} distinct outputs over {passes} passes")
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)

    setup_samples = []
    if tracer:
        metrics = {name: statistics.median(m[name] for m in per_layer) for name in per_layer[0]}
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        units = tracing.UNITS
        path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
        tracer.write(path, {"workload": args.workload, "seed": args.seed,
                            "per_pass": per_layer, "untraced_s": walls, "traced_s": traced_walls})
    else:
        setup_samples = [setup_s] + _setup_samples(args)
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "time_to_solution_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS

    result = {
        "correct": not problems,
        "attempted": passes * wl.ops_per_pass,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    print(f"{args.workload} operations: {result['attempted']} attempted, {failed} failed, "
          f"{passes} passes ({len(walls)} timed untraced)")
    line = json.dumps(result)
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(dict(result, pass_wall_s=walls, pass_cpu_s=cpus, traced_pass_wall_s=traced_walls,
                       setup_samples_s=setup_samples), fh, indent=1)
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
