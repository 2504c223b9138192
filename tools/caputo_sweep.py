"""Time integrate_caputo across history block sizes B and group sizes G.

Usage:
    PYTHONPATH=src python tools/caputo_sweep.py [--steps 5000,10000,...] [--repeat 3]

Runs example1 at alpha = 0.98, h = 0.01, for each step count and each
(B, G) in {512, 1024} x {4, 8}, by setting ``fraclv.solvers.HISTORY_BLOCK``
and ``fraclv.solvers._GROUP`` and regenerating the step loop.  The (B, G)
pairs alternate within each round, and each figure is the best of
``--repeat`` rounds.  Prints one JSON object on stdout: seconds per run, by
step count and by "B,G"; a progress line per step count goes to stderr.
"""

import argparse
import json
import sys
import time

import fraclv.solvers as solvers
from fraclv.model import vector_field
from fraclv.presets import PRESETS

SIZES = [(512, 4), (512, 8), (1024, 4), (1024, 8)]


def run_time(field, steps: int, block: int, group: int) -> float:
    solvers.HISTORY_BLOCK, solvers._GROUP = block, group
    solvers._step_loop.cache_clear()
    solvers.integrate_caputo(field, [0.5, 0.9, 0.1], 0.98, solvers.SolverConfig(0.01, 0.05))
    config = solvers.SolverConfig(step=0.01, horizon=0.01 * steps)
    start = time.perf_counter()
    solvers.integrate_caputo(field, [0.5, 0.9, 0.1], 0.98, config)
    return time.perf_counter() - start


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", default="5000,10000,20000,50000,100000,200000")
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()
    field = vector_field(PRESETS["example1"].params)
    best = {}
    for steps in map(int, args.steps.split(",")):
        row = best.setdefault(steps, {f"{b},{g}": float("inf") for b, g in SIZES})
        for _ in range(args.repeat):
            for b, g in SIZES:
                row[f"{b},{g}"] = min(row[f"{b},{g}"], run_time(field, steps, b, g))
        progress = {key: round(value, 4) for key, value in row.items()}
        print(steps, progress, file=sys.stderr, flush=True)
    print(json.dumps({"seconds": best}))


if __name__ == "__main__":
    main()
