"""Command-line interface: simulation, analysis and reproduction harness.

Subcommands
    simulate          integrate one run config, write trajectory.csv + manifest.json
    equilibria        print the five fixed points with admissibility audit
    stability         print the full per-equilibrium verdict report
    classify          region class A-D for one complex number and order
    reproduce-table2  re-derive the bundled reference matrix, PASS/FAIL per cell

Exit codes: 0 success, 1 usage, configuration or input error (including an
initial state beyond the divergence limit, a step count too large to
allocate, an output value that is not finite, which JSON cannot carry, and an
output path that cannot be created or written), 2 numerical divergence (the
partial trajectory is still written).
Every error is reported on stderr as one ``error: <message>`` line.  The
``--alpha`` and ``--mode`` flags replace the config's ``alpha`` and
``cf_mode`` before it is validated, and an error in such a config names the
flags, e.g. ``error: command-line --alpha 1.5 over cfg.json: ...``.

The run config is a single JSON object; unknown keys are rejected so a typo
cannot silently change a run.  Schema (cf_mode optional):

    {
      "operator": "caputo" | "cf",
      "alpha": 0.98,
      "params": {"a1": 3, "a2": 0.5, "a3": 4, "a4": 3, "a5": 4, "a6": 9, "a7": 4},
      "initial": [0.5, 0.9, 0.1],
      "horizon": 50.0,
      "step": 0.01,
      "cf_mode": "paper" | "corrected"
    }

The CF operator is taken with M(alpha) = 1, as in the stability criteria.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from . import __version__
from .model import ModelParams, equilibria, jacobian, vector_field
from .presets import KNOWN_DISCREPANCIES, PRESETS, TABLE2
from .solvers import (
    DivergenceError,
    SolverConfig,
    Trajectory,
    _as_float,
    check_order,
    integrate_caputo,
    integrate_cf,
)
from .spectral import characteristic_cubic, cubic_roots
from .stability import (
    caputo_stable,
    cf_stable_theorem,
    classify_region,
    equilibrium_report,
)

__all__ = ["ConfigError", "RunConfig", "load_config", "main", "console_main"]

_REQUIRED_KEYS = {"operator", "alpha", "params", "initial", "horizon", "step"}
_OPTIONAL_KEYS = {"cf_mode"}
_PARAM_KEYS = {f"a{i}" for i in range(1, 8)}

#: Comparison tolerance for the reference-matrix value cells (printed data
#: carries 2-3 decimals).
TABLE_VALUE_TOL = 1e-2

#: Rows formatted per block when writing trajectory.csv.
_CSV_BLOCK_ROWS = 1024


class ConfigError(ValueError):
    """Malformed run configuration; message carries a file/field diagnostic."""


@dataclass(frozen=True, slots=True)
class RunConfig:
    operator: str
    alpha: float
    params: ModelParams
    initial: tuple[float, float, float]
    solver: SolverConfig

    def as_dict(self) -> dict:
        return {
            "operator": self.operator,
            "alpha": self.alpha,
            "params": self.params.as_dict(),
            "initial": list(self.initial),
            "horizon": self.solver.horizon,
            "step": self.solver.step,
            "cf_mode": self.solver.cf_mode,
        }


def _finite_number(raw, where: str) -> float:
    try:  # the library's rule for real numbers: no bool, no integer past the float range
        value = _as_float(raw, f"{where}: value")
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if not math.isfinite(value):
        raise ConfigError(f"{where}: value must be finite, got {value}")
    return value


def parse_config(data: dict, where: str = "config") -> RunConfig:
    """Validate a decoded config object; rejects unknown or missing fields.

    Checks here cover what only raw JSON can get wrong (shape, keys, number
    types, finiteness); the value ranges are checked once, by ``ModelParams``,
    ``SolverConfig`` and ``check_order``, whose errors come back as
    ConfigError.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected a JSON object at top level")
    unknown = set(data) - _REQUIRED_KEYS - _OPTIONAL_KEYS
    if unknown:
        raise ConfigError(f"{where}: unknown field(s) {sorted(unknown)}")
    missing = _REQUIRED_KEYS - set(data)
    if missing:
        raise ConfigError(f"{where}: missing field(s) {sorted(missing)}")

    operator = data["operator"]
    if operator not in ("caputo", "cf"):
        raise ConfigError(f"{where}.operator: must be 'caputo' or 'cf', got {operator!r}")

    alpha = _finite_number(data["alpha"], f"{where}.alpha")

    raw_params = data["params"]
    if not isinstance(raw_params, dict):
        raise ConfigError(f"{where}.params: expected an object with keys a1..a7")
    bad = set(raw_params) ^ _PARAM_KEYS
    if bad:
        raise ConfigError(f"{where}.params: keys must be exactly a1..a7 (mismatch: {sorted(bad)})")
    values = {k: _finite_number(v, f"{where}.params.{k}") for k, v in raw_params.items()}

    initial = data["initial"]
    if not isinstance(initial, (list, tuple)) or len(initial) != 3:
        raise ConfigError(f"{where}.initial: expected a list of 3 numbers")
    initial = tuple(_finite_number(v, f"{where}.initial[{i}]") for i, v in enumerate(initial))

    horizon = _finite_number(data["horizon"], f"{where}.horizon")
    step = _finite_number(data["step"], f"{where}.step")
    cf_mode = data.get("cf_mode", "paper")

    try:
        check_order(alpha)
        params = ModelParams(**values)
        solver = SolverConfig(step, horizon, cf_mode)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    return RunConfig(operator=operator, alpha=alpha, params=params, initial=initial, solver=solver)


def load_config(path: str, alpha=None, cf_mode=None) -> RunConfig:
    """The config at ``path``, with the command line's ``--alpha`` and
    ``--mode`` (when given) written into the decoded object before its one
    parse.  An error then names the flags as well as the file:
    ``command-line --alpha 1.5 over cfg.json: ...``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    flags = [(key, flag, value) for key, flag, value
             in (("alpha", "--alpha", alpha), ("cf_mode", "--mode", cf_mode)) if value is not None]
    where = path
    if flags and isinstance(data, dict):
        data.update((key, value) for key, _, value in flags)
        where = "command-line " + " ".join(f"{flag} {value}" for _, flag, value in flags)
        where += f" over {path}"
    return parse_config(data, where=where)


# ---------------------------------------------------------------------------
# output helpers


def _non_finite(value, path: str):
    """(path, value) of the first non-finite float in a payload, or None."""
    if isinstance(value, float):
        return None if math.isfinite(value) else (path, value)
    if isinstance(value, dict):
        items = ((f"{path}.{k}" if path else str(k), v) for k, v in value.items())
    elif isinstance(value, list):
        items = ((f"{path}[{i}]", v) for i, v in enumerate(value))
    else:
        return None
    for where, item in items:
        found = _non_finite(item, where)
        if found:
            return found
    return None


def _json(payload) -> str:
    # allow_nan=False: a non-finite value raises ValueError (exit 1) naming
    # where it is, instead of printing bare NaN/Infinity, which is not JSON
    try:
        return json.dumps(payload, indent=2, allow_nan=False)
    except ValueError:
        found = _non_finite(payload, "")
        if found is None:
            raise
        path, value = found
        raise ValueError(f"{path} is {value}; JSON cannot carry a non-finite number") from None


def _write_atomic(path: str, chunks: Iterable[bytes]) -> None:
    """Write the byte ``chunks`` to a temporary file, then move it onto ``path``."""
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.writelines(chunks)
    os.replace(tmp, path)


def _trajectory_csv(traj: Trajectory) -> Iterator[bytes]:
    """trajectory.csv as ASCII chunks: the header, then one per block of rows.

    17 significant digits parse back to the exact same double.  A block is
    formatted in numpy by ``fraclv._csv``, which gives the exact bytes of
    ``%.16e``; a block with a value outside its range (nonzero below 1e-11
    or from 2^51 in magnitude, or not finite) goes through ``%`` on Python
    floats.
    """
    from ._csv import format_block  # loaded by the first CSV written, not by import

    table = np.column_stack((traj.times, traj.states))
    yield b"t,x,y,z\n"
    for start in range(0, len(table), _CSV_BLOCK_ROWS):
        block = table[start : start + _CSV_BLOCK_ROWS]
        text = format_block(block)
        if text is None:
            text = (("%.16e,%.16e,%.16e,%.16e\n" * len(block))
                    % tuple(block.ravel().tolist())).encode("ascii")
        yield text


def _complex_pair(w: complex) -> list[float]:
    return [w.real, w.imag]


def _verdict_dict(verdict, eigenvalues) -> dict:
    return {
        "operator": verdict.operator,
        "stable": verdict.stable,
        "per_eigenvalue": [
            {"eigenvalue": _complex_pair(w), "condition": tag}
            for w, tag in zip(eigenvalues, verdict.tags)
        ],
    }


def _equilibrium_dict(eq) -> dict:
    return {
        "kind": eq.kind,
        "point": list(eq.point),
        "admissible": eq.admissible,
        "conditions": [[name, ok] for name, ok in eq.conditions],
    }


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(config_path: str, out_dir: str, alpha=None, cf_mode=None) -> int:
    config = load_config(config_path, alpha, cf_mode)
    os.makedirs(out_dir, exist_ok=True)

    started = time.perf_counter()
    diverged_at = None
    integrate = integrate_caputo if config.operator == "caputo" else integrate_cf
    try:
        traj = integrate(vector_field(config.params), config.initial, config.alpha, config.solver)
    except DivergenceError as exc:
        traj = exc.partial
        diverged_at = exc.step_index
        print(f"warning: {exc}", file=sys.stderr)
    duration = time.perf_counter() - started

    csv_path = os.path.join(out_dir, "trajectory.csv")
    _write_atomic(csv_path, _trajectory_csv(traj))
    manifest = {
        "config": config.as_dict(),
        "version": __version__,
        "outputs": ["trajectory.csv"],
        "duration_seconds": duration,
        "diverged": diverged_at is not None,
        "divergence_step": diverged_at,
    }
    _write_atomic(os.path.join(out_dir, "manifest.json"), [(_json(manifest) + "\n").encode()])
    return 2 if diverged_at is not None else 0


def cmd_equilibria(config_path: str) -> int:
    config = load_config(config_path)
    print(_json([_equilibrium_dict(eq) for eq in equilibria(config.params)]))
    return 0


def cmd_stability(config_path: str, out_dir=None, alpha=None) -> int:
    config = load_config(config_path, alpha)
    reports = equilibrium_report(config.params, config.alpha)
    payload = {
        "alpha": config.alpha,
        "params": config.params.as_dict(),
        "cf_applicable": config.alpha < 1.0,
        "equilibria": [],
    }
    for rep in reports:
        entry = _equilibrium_dict(rep.equilibrium)
        spectrum = rep.spectrum
        eigs = spectrum.eigenvalues
        entry["eigenvalues"] = [_complex_pair(w) for w in eigs]
        entry["cubic"] = {"p": spectrum.p, "q": spectrum.q, "delta": spectrum.delta,
                          "branch": spectrum.branch}
        entry["verdicts"] = {
            "caputo": _verdict_dict(rep.caputo, eigs),
            "cf_theorem": _verdict_dict(rep.cf_theorem, eigs) if rep.cf_theorem else "not applicable",
            "cf_disk": _verdict_dict(rep.cf_disk, eigs) if rep.cf_disk else "not applicable",
        }
        entry["table1_conditions"] = [[name, ok] for name, ok in rep.table1]
        entry["regions"] = list(rep.regions) if rep.regions is not None else "not applicable"
        payload["equilibria"].append(entry)
    text = _json(payload)
    if out_dir:  # written first, so a bad --out leaves stdout empty
        os.makedirs(out_dir, exist_ok=True)
        _write_atomic(os.path.join(out_dir, "stability_report.json"), [(text + "\n").encode()])
    print(text)
    return 0


def cmd_classify(lam_real: float, lam_imag: float, alpha: float) -> int:
    lam = complex(lam_real, lam_imag)
    region = classify_region(lam, alpha)  # A: cone and disk, B: cone only, D: disk only
    theorem = cf_stable_theorem([lam], alpha)
    print(_json({
        "lambda": _complex_pair(lam),
        "alpha": alpha,
        "region": region,
        "caputo_stable": region in ("A", "B"),
        "cf_disk_stable": region in ("A", "D"),
        "cf_theorem_pass": theorem.stable,
    }))
    return 0


def _multiset_distance(computed, printed) -> float:
    """``computed`` is a Spectrum's eigenvalues, already sorted by (real, imaginary)."""
    ys = sorted((complex(v) for v in printed), key=lambda w: (w.real, w.imag))
    return max(abs(u - v) for u, v in zip(computed, ys))


def cmd_reproduce_table2() -> int:
    """Re-derive every reference cell; exit 0 iff nothing FAILs.

    Verdict cells compare the computed stability verdict (cone test for
    caputo, any-of-four test for cf) against the published mark, across every
    published order regime of the example.  Value cells compare points and
    spectra within TABLE_VALUE_TOL.
    """
    n_pass = n_known = n_fail = 0
    v_pass = v_fail = 0
    for name, preset in PRESETS.items():
        rows = TABLE2[name]
        eqs = {eq.kind: eq for eq in equilibria(preset.params)}
        for kind, row in rows.items():
            eq = eqs[kind]
            spectrum = cubic_roots(characteristic_cubic(jacobian(preset.params, eq.point)))

            point_err = max(abs(a - b) for a, b in zip(eq.point, row["point"]))
            point_ok = point_err <= TABLE_VALUE_TOL and eq.admissible == row["admissible"]
            v_pass, v_fail = v_pass + point_ok, v_fail + (not point_ok)
            print(f"{name} {kind} point: {'PASS' if point_ok else 'FAIL'} "
                  f"(max component error {point_err:.2e}, admissible={eq.admissible})")

            eig_err = _multiset_distance(spectrum.eigenvalues, row["eigenvalues"])
            eig_ok = eig_err <= TABLE_VALUE_TOL
            v_pass, v_fail = v_pass + eig_ok, v_fail + (not eig_ok)
            print(f"{name} {kind} eigenvalues: {'PASS' if eig_ok else 'FAIL'} "
                  f"(multiset error {eig_err:.2e})")

            for operator, criterion in (("caputo", caputo_stable), ("cf", cf_stable_theorem)):
                cells = [(alpha, criterion(spectrum, alpha).stable, row["marks"][(operator, alpha)])
                         for alpha in preset.alphas]
                agree = all(got == want for _, got, want in cells)
                detail = ", ".join(
                    f"alpha={a:g}: computed={'stable' if g else 'unstable'} "
                    f"published={'stable' if w else 'unstable'}" for a, g, w in cells
                )
                if agree:
                    n_pass += 1
                    print(f"{name} {kind} {operator}: PASS ({detail})")
                elif (name, kind, operator) in KNOWN_DISCREPANCIES:
                    n_known += 1
                    print(f"{name} {kind} {operator}: KNOWN-DISCREPANCY ({detail})")
                else:
                    n_fail += 1
                    print(f"{name} {kind} {operator}: FAIL ({detail})")

    total = n_pass + n_known + n_fail
    print(f"stability cells: {total} total, {n_pass} PASS, "
          f"{n_known} KNOWN-DISCREPANCY, {n_fail} FAIL")
    print(f"value cells: {v_pass + v_fail} total, {v_pass} PASS, {v_fail} FAIL")
    return 0 if n_fail == 0 and v_fail == 0 else 1


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache  # built once per process: each ``main`` call parses with the same parser
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fraclv",
        description="Fractional-order three-species Lotka-Volterra toolkit",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="integrate a run config to CSV")
    p.add_argument("--config", required=True, help="path to JSON run config")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--alpha", type=float, default=None, help="override config alpha")
    p.add_argument("--mode", choices=("paper", "corrected"), default=None,
                   help="override cf_mode")
    p.set_defaults(run=lambda a: cmd_simulate(a.config, a.out, alpha=a.alpha, cf_mode=a.mode))

    p = sub.add_parser("equilibria", help="print the five fixed points")
    p.add_argument("--config", required=True)
    p.set_defaults(run=lambda a: cmd_equilibria(a.config))

    p = sub.add_parser("stability", help="print the per-equilibrium verdict report")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="also write stability_report.json here")
    p.add_argument("--alpha", type=float, default=None, help="override config alpha")
    p.set_defaults(run=lambda a: cmd_stability(a.config, out_dir=a.out, alpha=a.alpha))

    p = sub.add_parser("classify", help="region class of one eigenvalue",
                       description="Region class of one eigenvalue.  Put -- before the numbers "
                                   "if one reads like an option: fraclv classify -- 1 -1e-3 0.5")
    p.add_argument("real", type=float)
    p.add_argument("imag", type=float)
    p.add_argument("alpha", type=float)
    p.set_defaults(run=lambda a: cmd_classify(a.real, a.imag, a.alpha))

    p = sub.add_parser("reproduce-table2", help="re-derive the bundled reference matrix")
    p.set_defaults(run=lambda a: cmd_reproduce_table2())
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; remap to the documented code 1
        code = exc.code if isinstance(exc.code, int) else 0
        return 0 if code == 0 else 1
    try:
        return args.run(args)
    except (ValueError, OSError) as exc:  # ConfigError included; OSError from --out
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
