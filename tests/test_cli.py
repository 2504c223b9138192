"""CLI contract: config validation, exit codes, file schemas, round trips."""

import copy
import hashlib
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import fraclv._csv
import fraclv.cli
import fraclv.stability
from fraclv.cli import ConfigError, _trajectory_csv, load_config, main, parse_config
from fraclv.presets import PRESETS, SCENARIOS
from fraclv.solvers import Trajectory


def _base_config(**overrides):
    data = {
        "operator": "caputo",
        "alpha": 0.98,
        "params": PRESETS["example1"].params.as_dict(),
        "initial": [0.5, 0.9, 0.1],
        "horizon": 1.0,
        "step": 0.1,
    }
    data.update(overrides)
    return data


def scenario_config(scenario):
    """The run config of a bundled scenario."""
    return {
        "operator": scenario.operator,
        "alpha": scenario.alpha,
        "params": PRESETS[scenario.preset].params.as_dict(),
        "initial": list(scenario.initial),
        "horizon": scenario.horizon,
        "step": scenario.step,
        "cf_mode": scenario.cf_mode,
    }


def _write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# config parsing


def test_unknown_top_level_key_rejected(tmp_path):
    path = _write_config(tmp_path, _base_config(stepp=0.1))
    with pytest.raises(ConfigError, match="stepp"):
        load_config(path)


def test_missing_field_rejected():
    data = _base_config()
    del data["horizon"]
    with pytest.raises(ConfigError, match="horizon"):
        parse_config(data)


def test_unknown_param_key_rejected():
    data = _base_config()
    data["params"] = dict(data["params"], a8=1.0)
    with pytest.raises(ConfigError, match="a8"):
        parse_config(data)


def test_malformed_json_reports_line_and_column(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"operator": "caputo",\n  "alpha": }', encoding="utf-8")
    with pytest.raises(ConfigError, match=r":2:\d+"):
        load_config(str(path))


@pytest.mark.parametrize("data,message", [
    ([_base_config()], "expected a JSON object at top level"),
    (_base_config(params=[1.0] * 7), ".params: expected an object with keys a1..a7"),
    (None, "cannot read config"),  # no file at the path
])
def test_malformed_config_is_one_error_line(tmp_path, capsys, data, message):
    path = _write_config(tmp_path, data) if data is not None else str(tmp_path / "missing.json")
    assert main(["equilibria", "--config", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}") and message in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "overrides",
    [
        {"operator": "riemann"},
        {"alpha": 0.0},
        {"alpha": 1.5},
        {"horizon": 0.0},
        {"step": -0.1},
        {"cf_mode": "fancy"},
        {"normalization": 0.0},
        {"initial": [1.0, 2.0]},
        {"initial": [1.0, 2.0, float("nan")]},
    ],
)
def test_invalid_values_rejected(overrides):
    with pytest.raises(ConfigError):
        parse_config(_base_config(**overrides))


def test_dataclass_error_names_file_and_field(tmp_path):
    # the range check lives in SolverConfig; load_config reports it as ConfigError
    path = _write_config(tmp_path, _base_config(step=0))
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert path in str(info.value)
    assert "step" in str(info.value)


def test_config_error_exits_1(tmp_path, capsys):
    path = _write_config(tmp_path, _base_config(horizon=0.0))
    rc = main(["simulate", "--config", path, "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "horizon" in capsys.readouterr().err


def test_subnormal_step_is_a_config_error(tmp_path, capsys):
    # 1.0 / 5e-324 overflows: the step count is not finite, so no grid is built
    path = _write_config(tmp_path, _base_config(step=5e-324))
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: horizon / step must be finite")
    assert err.count("\n") == 1


@pytest.mark.parametrize("horizon", [1e300, 1e18])
def test_step_count_too_large_to_allocate_is_one_error_line(tmp_path, capsys, horizon):
    # a finite step count past numpy's array limits; nothing is allocated
    path = _write_config(tmp_path, _base_config(horizon=horizon, step=1.0))
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: step count {horizon:g} (horizon {horizon} / step 1.0) ")
    assert err.count("\n") == 1


def test_usage_error_exits_1():
    assert main(["simulate"]) == 1  # missing required flags


def test_parser_built_once_keeps_no_state_between_calls(tmp_path, capsys):
    # main parses every call with the one parser of the process: an override or
    # a usage error of one call must not reach the next
    path = _write_config(tmp_path, _base_config(operator="cf"))
    out = tmp_path / "out"
    alphas = []
    for extra in (["--alpha", "0.9"], []):
        assert main(["simulate", "--config", path, "--out", str(out), *extra]) == 0
        alphas.append(json.loads((out / "manifest.json").read_text())["config"]["alpha"])
    assert alphas == [0.9, 0.98]
    assert main(["simulate", "--config", path]) == 1
    assert main(["simulate", "--config", path, "--out", str(out)]) == 0
    assert fraclv.cli._build_parser() is fraclv.cli._build_parser()


@pytest.mark.parametrize("command", ["simulate", "stability"])
@pytest.mark.parametrize("field,overrides", [
    ("horizon", {"horizon": 10 ** 400}),
    ("params.a1", {"params": dict(PRESETS["example1"].params.as_dict(), a1=10 ** 400)}),
])
def test_integer_past_the_float_range_is_a_config_error(tmp_path, capsys, command, field, overrides):
    # float(10**400) raises OverflowError; the config error names the file, then the field
    path = _write_config(tmp_path, _base_config(**overrides))
    assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    named = {"horizon": "horizon", "params.a1": "coefficient a1"}[field]  # as the library names it
    assert captured.err == (f"error: {path}: {named} must be finite, "
                            "got an integer past the float range\n")


def test_integer_past_the_digit_limit_is_a_config_error(tmp_path):
    # json.load refuses integer literals of more than 4300 digits with a plain ValueError
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_base_config()).replace('"horizon": 1.0', '"horizon": ' + "9" * 5000))
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: invalid JSON: Exceeds the limit"):
        load_config(str(path))


@pytest.mark.parametrize("command", ["simulate", "stability"])
def test_bad_override_names_the_command_line(tmp_path, capsys, command):
    path = _write_config(tmp_path, _base_config())
    assert main([command, "--config", path, "--out", str(tmp_path / "out"), "--alpha", "1.5"]) == 1
    assert capsys.readouterr().err == (f"error: command-line --alpha 1.5 over {path}: "
                                       "order alpha must be in (0, 1], got 1.5\n")


@pytest.mark.parametrize("command", ["simulate", "stability"])
@pytest.mark.parametrize("alpha", ["nan", "inf"])
def test_non_finite_override_is_checked_by_the_order_rule(tmp_path, capsys, command, alpha):
    # no field is glued onto the path: the order's one check names alpha
    path = _write_config(tmp_path, _base_config())
    assert main([command, "--config", path, "--out", str(tmp_path / "out"), "--alpha", alpha]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: command-line --alpha {alpha} over {path}: "
                            f"order alpha must be in (0, 1], got {alpha}\n")


@pytest.mark.parametrize("overrides,message", [
    ({"alpha": "0.5"}, "order alpha must be a real number, got '0.5'"),
    ({"alpha": True}, "order alpha must be a real number, got True"),
    ({"alpha": float("nan")}, "order alpha must be in (0, 1], got nan"),
    ({"params": dict(PRESETS["example1"].params.as_dict(), a3=None)},
     "coefficient a3 must be a real number, got None"),
    ({"params": dict(PRESETS["example1"].params.as_dict(), a7=float("inf"))},
     "coefficient a7 must be positive and finite, got inf"),
    ({"step": False}, "step must be a real number, got False"),
    ({"step": float("nan")}, "step must be positive, got nan"),
    ({"horizon": [1.0]}, "horizon must be a real number, got [1.0]"),
    ({"cf_mode": 1}, "cf_mode must be 'paper' or 'corrected', got 1"),
    ({"initial": [0.5, "0.9", 0.1]}, "initial[1] must be a real number, got '0.9'"),
    ({"initial": [0.5, 0.9, float("-inf")]}, "initial[2] must be finite, got -inf"),
], ids=["alpha-str", "alpha-bool", "alpha-nan", "a3-null", "a7-inf", "step-bool", "step-nan",
        "horizon-list", "cf_mode-int", "initial-str", "initial-inf"])
def test_each_bad_value_names_the_file_then_the_field(tmp_path, capsys, overrides, message):
    # every value is checked once, by the library's rule for it, and the
    # error is the config's path, then the library's message naming the field
    path = _write_config(tmp_path, _base_config(**overrides))
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [[], ["--alpha", "0.9"], ["--alpha", "0.9", "--mode", "corrected"]])
def test_simulate_parses_the_config_once(tmp_path, monkeypatch, argv):
    calls = []
    original = fraclv.cli.parse_config

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(fraclv.cli, "parse_config", counted)
    path = _write_config(tmp_path, _base_config(operator="cf"))
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "out"), *argv]) == 0
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# simulate


def test_simulate_writes_csv_and_manifest(tmp_path):
    path = _write_config(tmp_path, _base_config())
    out = tmp_path / "out"
    assert main(["simulate", "--config", path, "--out", str(out)]) == 0

    csv_text = (out / "trajectory.csv").read_text(encoding="utf-8")
    lines = csv_text.split("\n")
    assert lines[0] == "t,x,y,z"
    assert lines[-1] == ""  # trailing LF
    rows = lines[1:-1]
    assert len(rows) == 11  # floor(1.0/0.1) + 1
    assert "\r" not in csv_text
    first = rows[0].split(",")
    assert len(first) == 4
    assert [float(v) for v in first] == [0.0, 0.5, 0.9, 0.1]
    # >= 12 significant digits per field
    assert all(re.fullmatch(r"-?\d\.\d{16}e[+-]\d{2,3}", v) for v in rows[3].split(","))

    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["outputs"] == ["trajectory.csv"]
    assert manifest["diverged"] is False
    assert manifest["divergence_step"] is None
    assert manifest["config"]["alpha"] == 0.98
    assert manifest["config"]["cf_mode"] == "paper"
    assert manifest["duration_seconds"] >= 0.0


def test_manifest_round_trip_is_bit_identical(tmp_path):
    path = _write_config(tmp_path, _base_config(operator="cf", alpha=0.9))
    out1 = tmp_path / "run1"
    assert main(["simulate", "--config", path, "--out", str(out1)]) == 0
    manifest = json.loads((out1 / "manifest.json").read_text(encoding="utf-8"))

    echoed = _write_config(tmp_path, manifest["config"], name="echoed.json")
    out2 = tmp_path / "run2"
    assert main(["simulate", "--config", echoed, "--out", str(out2)]) == 0
    assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()


def test_simulate_divergence_exits_2_with_partial_output(tmp_path):
    # corrected CF mode cannot treat this orbit explicitly: (1-alpha)*L > 1
    data = scenario_config(SCENARIOS["example1-cf-planar"])
    data["cf_mode"] = "corrected"
    path = _write_config(tmp_path, data)
    out = tmp_path / "out"
    rc = main(["simulate", "--config", path, "--out", str(out)])
    assert rc == 2
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["diverged"] is True
    assert manifest["divergence_step"] >= 1
    rows = (out / "trajectory.csv").read_text().strip().split("\n")[1:]
    assert len(rows) == manifest["divergence_step"]
    assert all(math.isfinite(float(v)) for v in rows[-1].split(","))


def test_initial_state_beyond_the_limit_exits_1(tmp_path, capsys):
    # rejected before the first step, so no trajectory is written
    path = _write_config(tmp_path, _base_config(initial=[2e12, 0.9, 0.1]))
    out = tmp_path / "out"
    assert main(["simulate", "--config", path, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: initial state component 0 is 2000000000000.0")
    assert not (out / "trajectory.csv").exists()


def test_simulate_mode_and_alpha_overrides(tmp_path):
    path = _write_config(tmp_path, _base_config(operator="cf"))
    out = tmp_path / "out"
    rc = main(["simulate", "--config", path, "--out", str(out),
               "--alpha", "0.95", "--mode", "corrected"])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["config"]["alpha"] == 0.95
    assert manifest["config"]["cf_mode"] == "corrected"


def test_simulate_scenario_terminal_state(tmp_path):
    # short high-order caputo run from the bundled scenario; full-horizon runs
    # live in the acceptance suite
    scenario = SCENARIOS["example1-caputo"]
    data = scenario_config(scenario)
    data["horizon"] = 50.0
    path = _write_config(tmp_path, data)
    out = tmp_path / "out"
    assert main(["simulate", "--config", path, "--out", str(out)]) == 0
    rows = (out / "trajectory.csv").read_text().strip().split("\n")[1:]
    terminal = np.array([float(v) for v in rows[-1].split(",")])
    assert abs(terminal[0] - 50.0) < 1e-9
    assert np.max(np.abs(terminal[1:] - np.array(scenario.target))) < scenario.tolerance


@pytest.mark.parametrize("name,extra,digest", [
    ("example1-cf", [],
     "7ce4dacd8f7d988047ac3435b7a6b49199ccfa21d96a2c6d5d4a8ddb0547dbd1"),
    ("example1-cf-planar", [],
     "5a193a37450f3af5ee63d34485cab75e97940aa606af78d8c4ddc7427e9c0683"),
    ("example1-cf-planar", ["--alpha", "0.9"],
     "55685c7bdb2376bacaa1028aeb14ab65d9e2918d502a19f34287b3da9a28c560"),
])
def test_cf_scenario_trajectory_bytes_are_pinned(tmp_path, name, extra, digest):
    # A CF step is IEEE + - * on doubles only (no BLAS, no libm), so these
    # bytes are the same on every platform.  The Caputo runs go through
    # math.gamma, pow and BLAS, whose last bits may vary, so they are not pinned.
    path = _write_config(tmp_path, scenario_config(SCENARIOS[name]))
    out = tmp_path / "out"
    assert main(["simulate", "--config", path, "--out", str(out), *extra]) == 0
    assert hashlib.sha256((out / "trajectory.csv").read_bytes()).hexdigest() == digest


def test_trajectory_csv_matches_row_by_row_formatting(monkeypatch):
    # reference: .16e on the numpy scalars of each row, one f-string per row.
    # 4,000 rows are four formatting blocks: the first three hold rows with
    # values outside the numpy kernel's range, which go through % (the last
    # row of block 0, the first two of block 1 and rows in the middle), and
    # every other row goes through the kernel
    special = np.array([
        [0.5, -0.9, 0.0],
        [-0.0, 5e-324, -2.2250738585072014e-308],
        [1e300, -1.7976931348623157e308, 1.0 / 3.0],
        [2.0 ** -1074 * 3, -123.456, 7e-310],
    ])
    states = np.random.default_rng(3).normal(size=(4000, 3))
    states[:2500:500] = special[0]
    states[1:2500:700] = special[1]
    states[1023:1026] = special[1:]
    traj = Trajectory(0.01 * np.arange(4000), states)
    lines = ["t,x,y,z"]
    for t, row in zip(traj.times, traj.states):
        lines.append(f"{t:.16e},{row[0]:.16e},{row[1]:.16e},{row[2]:.16e}")
    calls = []  # per call: its path and its rows

    def spy(function, path):
        def recorded(block, *rest):
            calls.append((path, block.copy()))
            return function(block, *rest)
        return recorded

    monkeypatch.setattr(fraclv._csv, "_kernel", spy(fraclv._csv._kernel, "kernel"))
    monkeypatch.setattr(fraclv._csv, "_percent", spy(fraclv._csv._percent, "%"))
    chunks = list(_trajectory_csv(traj))
    assert b"".join(chunks).decode("ascii") == "\n".join(lines) + "\n"
    assert len(chunks) == 5
    table = np.column_stack((traj.times, traj.states))
    a = np.abs(table)
    fast = ((a == 0.0) | ((a > 1e-11) & (a < 2.0 ** 51))).all(axis=1)
    assert np.flatnonzero(~fast).tolist() == [1, 701, 1023, 1024, 1025, 1401, 2101]
    percent_rows = np.concatenate([rows for path, rows in calls if path == "%"])
    assert percent_rows.tobytes() == table[~fast].tobytes()
    kernel_rows = np.concatenate([rows for path, rows in calls if path == "kernel"])
    assert kernel_rows.tobytes() == table[fast].tobytes()
    # rows 1023 | 1024, 1025 straddle a block edge: the % runs are cut there
    assert [len(rows) for path, rows in calls if path == "%"] == [1, 1, 1, 2, 1, 1]


# ---------------------------------------------------------------------------
# equilibria


def test_equilibria_output_example1(tmp_path, capsys):
    path = _write_config(tmp_path, _base_config())
    assert main(["equilibria", "--config", path]) == 0
    records = json.loads(capsys.readouterr().out)
    assert [r["kind"] for r in records] == ["E0", "E1", "E2", "E3", "E4"]
    by_kind = {r["kind"]: r for r in records}
    assert by_kind["E4"]["admissible"] is False
    np.testing.assert_allclose(by_kind["E1"]["point"], [6.0, 0.0, 0.0])
    assert all(isinstance(c[0], str) and isinstance(c[1], bool)
               for r in records for c in r["conditions"])


def test_equilibria_output_example3(tmp_path, capsys):
    data = _base_config(params=PRESETS["example3"].params.as_dict(), alpha=0.4)
    path = _write_config(tmp_path, data)
    assert main(["equilibria", "--config", path]) == 0
    records = json.loads(capsys.readouterr().out)
    by_kind = {r["kind"]: r for r in records}
    np.testing.assert_allclose(by_kind["E1"]["point"], [160.0, 0.0, 0.0])


def test_equilibria_degenerate_boundary(tmp_path, capsys):
    params = {"a1": 3.0, "a2": 0.5, "a3": 1.0, "a4": 2.0, "a5": 4.0, "a6": 9.0, "a7": 4.0}
    path = _write_config(tmp_path, _base_config(params=params))
    assert main(["equilibria", "--config", path]) == 0
    records = json.loads(capsys.readouterr().out)
    e3 = {r["kind"]: r for r in records}["E3"]
    assert e3["point"] == [0.0, 3.0, 0.0]  # (a3-1) terms vanish exactly


def test_equilibria_rejects_non_finite_output(tmp_path, capsys):
    # a4 = 1e-320 puts E3 and E4 at infinity; bare Infinity would not be valid JSON
    params = dict(PRESETS["example1"].params.as_dict(), a4=1e-320)
    path = _write_config(tmp_path, _base_config(params=params))
    with np.errstate(all="ignore"):
        assert main(["equilibria", "--config", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    # the error names the first non-finite value: E3 = (inf, -inf, 0) comes before E4
    assert captured.err == "error: [3].point[0] is inf; JSON cannot carry a non-finite number\n"


@pytest.mark.parametrize("command,message", [
    ("equilibria", "error: [3].point[0] is inf; JSON cannot carry a non-finite number\n"),
    ("stability", None),
])
def test_underflowed_e4_denominator_is_one_error_line(tmp_path, capsys, command, message):
    # a7 * a4 = 5e-324 * 1e-320 underflows to 0; E4's y and z are then the IEEE
    # quotients (inf), not a ZeroDivisionError
    params = dict(PRESETS["example1"].params.as_dict(), a4=1e-320, a7=5e-324)
    path = _write_config(tmp_path, _base_config(params=params))
    assert main([command, "--config", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    if message:
        assert captured.err == message


def test_report_error_names_the_equilibrium(tmp_path, capsys):
    # the underflowed a7 * a4 above: E3's Jacobian has no finite cubic
    params = dict(PRESETS["example1"].params.as_dict(), a4=1e-320, a7=5e-324)
    path = _write_config(tmp_path, _base_config(params=params))
    assert main(["stability", "--config", path]) == 1
    assert capsys.readouterr().err == (
        "error: cubic coefficients must be finite, got CubicCoefficients(a=nan, b=nan, c=nan)"
        " (equilibrium E3 at (inf, -inf, 0.0))\n")


def test_overflowing_cubic_is_one_error_line(tmp_path, capsys):
    # E0's characteristic cubic has a ~ -1e200, so a**3 overflows
    params = dict(PRESETS["example1"].params.as_dict(), a2=1e200, a3=1e200, a4=1e300)
    path = _write_config(tmp_path, _base_config(params=params))
    assert main(["stability", "--config", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cubic terms overflow the float range")
    assert captured.err.count("\n") == 1


def test_overflowing_planar_pair_is_one_error_line(tmp_path, capsys):
    # a2 ** 2 in Table 1's E2/E3 eigenvalue pair overflows while E0..E3 have finite spectra
    params = dict(a1=3, a2=1e155, a3=1e-160, a4=3, a5=4, a6=1e200, a7=1e-160)
    path = _write_config(tmp_path, _base_config(params=params, alpha=0.6))
    assert main(["stability", "--config", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: Table 1's planar eigenvalue pair overflows")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ["simulate", "stability"])
@pytest.mark.parametrize("out,message", [
    ("taken", "File exists"),
    ("taken/sub", "Not a directory"),
])
def test_unusable_output_path_is_one_error_line(tmp_path, capsys, command, out, message):
    # --out names an existing file, or a path under one
    (tmp_path / "taken").write_text("not a directory")
    path = _write_config(tmp_path, _base_config())
    assert main([command, "--config", path, "--out", str(tmp_path / out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert message in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("command,name", [("simulate", "trajectory.csv"),
                                          ("stability", "stability_report.json")])
def test_failed_move_leaves_no_temporary_file(tmp_path, capsys, command, name):
    # the output's name is taken by a directory: the temporary file is
    # written, the move onto the name fails, and the temporary file goes
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    path = _write_config(tmp_path, _base_config())
    assert main([command, "--config", path, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert [p.name for p in out.iterdir()] == [name]


def test_failed_write_leaves_no_temporary_file(tmp_path):
    def chunks():
        yield b"t,x,y,z\n"
        raise OSError("no space left")

    target = tmp_path / "trajectory.csv"
    with pytest.raises(OSError, match="no space left"):
        fraclv.cli._write_atomic(str(target), chunks())
    assert list(tmp_path.iterdir()) == []


def test_failed_open_removes_nothing(tmp_path, monkeypatch):
    # a temporary file this call could not open is not this call's to remove
    stale = tmp_path / "manifest.json.tmp"
    stale.write_text("left by another writer")

    def refuse(*args, **kwargs):
        raise PermissionError("refused")

    monkeypatch.setattr(fraclv.cli, "open", refuse, raising=False)
    with pytest.raises(PermissionError):
        fraclv.cli._write_atomic(str(tmp_path / "manifest.json"), [b"{}\n"])
    assert [p.name for p in tmp_path.iterdir()] == [stale.name]
    assert stale.read_text() == "left by another writer"


# ---------------------------------------------------------------------------
# stability


def test_stability_report_example2(tmp_path, capsys):
    data = _base_config(params=PRESETS["example2"].params.as_dict(), alpha=0.6)
    path = _write_config(tmp_path, data)
    assert main(["stability", "--config", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    stable_caputo = [e["kind"] for e in payload["equilibria"]
                     if e["verdicts"]["caputo"]["stable"]]
    assert stable_caputo == ["E4"]
    for entry in payload["equilibria"]:
        assert len(entry["eigenvalues"]) == 3
        assert entry["cubic"]["branch"] in ("one-real-pair", "repeated", "three-real")
        conds = entry["verdicts"]["cf_theorem"]["per_eigenvalue"]
        assert all(c["condition"] in (None, "1", "3", "4") for c in conds)
        assert isinstance(entry["table1_conditions"], list)
        assert set(entry["regions"]) <= {"A", "B", "C", "D"}


def test_stability_at_order_one_reports_not_applicable(tmp_path, capsys):
    path = _write_config(tmp_path, _base_config(alpha=1.0))
    assert main(["stability", "--config", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["cf_applicable"] is False
    for entry in payload["equilibria"]:
        assert entry["verdicts"]["cf_theorem"] == "not applicable"
        assert entry["verdicts"]["cf_disk"] == "not applicable"
        assert entry["regions"] == "not applicable"


def test_stability_writes_report_file(tmp_path, capsys):
    path = _write_config(tmp_path, _base_config())
    out = tmp_path / "out"
    assert main(["stability", "--config", path, "--out", str(out)]) == 0
    stdout_payload = json.loads(capsys.readouterr().out)
    file_payload = json.loads((out / "stability_report.json").read_text(encoding="utf-8"))
    assert file_payload == stdout_payload


def test_stability_rejects_non_finite_spectrum(tmp_path, capsys):
    # a4 = 1e-320 puts E4 at infinity, so its Jacobian and spectrum are NaN
    params = dict(PRESETS["example1"].params.as_dict(), a4=1e-320)
    path = _write_config(tmp_path, _base_config(params=params, alpha=0.6))
    with np.errstate(all="ignore"):
        assert main(["stability", "--config", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err


# ---------------------------------------------------------------------------
# classify


@pytest.mark.parametrize(
    "argv,region",
    [
        (["-1", "5", "0.5"], "A"),
        (["1.333", "0", "0.6"], "C"),
        (["6", "0", "0.6"], "D"),
        # argparse reads -1e-3 as an option unless -- ends the options
        (["--", "1", "-1e-3", "0.5"], "C"),
    ],
)
def test_classify_regions(capsys, argv, region):
    assert main(["classify", *argv]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["region"] == region
    assert set(payload) >= {"caputo_stable", "cf_disk_stable", "cf_theorem_pass"}


def test_classify_evaluates_each_criterion_once(capsys, monkeypatch):
    # the cone and disk verdicts are read off the region: A = both, B = cone, D = disk
    calls = []

    def counted(module, name):
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, **k: calls.append(name) or original(*a, **k))

    counted(fraclv.stability, "check_order")
    for name in ("classify_region", "cf_stable_theorem", "caputo_stable"):
        counted(fraclv.cli, name)
    assert main(["classify", "0.5", "0.8", "0.6"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["region"], payload["caputo_stable"], payload["cf_disk_stable"]) == ("B", True, False)
    assert sorted(calls) == ["cf_stable_theorem", "check_order", "check_order", "classify_region"]


def test_classify_rejects_bad_alpha(capsys):
    assert main(["classify", "1", "1", "1.0"]) == 1
    assert main(["classify", "1", "1", "0"]) == 1


def test_classify_rejects_non_finite_eigenvalue(capsys):
    assert main(["classify", "nan", "0", "0.5"]) == 1
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("real,region", [("1.7e308", "D"), ("-1.7e308", "A")])
def test_classify_huge_eigenvalue(capsys, real, region):
    # |w| and |w - c| overflow the float range: the modulus is inf, outside the disk
    assert main(["classify", "--", real, "1.7e308", "0.5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["region"] == region
    assert payload["cf_disk_stable"] is True
    assert payload["cf_theorem_pass"] is True


# ---------------------------------------------------------------------------
# reproduce-table2 (full assertions live in the acceptance suite)


def test_reproduce_table2_exit_code_and_summary(capsys):
    assert main(["reproduce-table2"]) == 0
    out = capsys.readouterr().out
    assert "stability cells: 30 total, 29 PASS, 1 KNOWN-DISCREPANCY, 0 FAIL" in out
    assert "value cells: 30 total, 30 PASS, 0 FAIL" in out


def test_reproduce_table2_stdout_is_pinned(capsys):
    # every line of the report, not just the summary, must stay byte-identical
    assert main(["reproduce-table2"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digest == "887e4350a7cd0308441d0e941004a31ecd7065895d44fb6a526acaf92e6296fe"


def test_reproduce_table2_fails_on_a_flipped_mark(monkeypatch, capsys):
    # one published mark flipped on a cell outside KNOWN_DISCREPANCIES
    table = copy.deepcopy(fraclv.cli.TABLE2)
    alpha = PRESETS["example1"].alphas[0]
    marks = table["example1"]["E1"]["marks"]
    marks["caputo", alpha] = not marks["caputo", alpha]
    assert ("example1", "E1", "caputo") not in fraclv.cli.KNOWN_DISCREPANCIES
    monkeypatch.setattr(fraclv.cli, "TABLE2", table)
    assert main(["reproduce-table2"]) == 1
    out = capsys.readouterr().out
    assert re.search(r"^example1 E1 caputo: FAIL \(", out, re.M)
    assert out.count(": FAIL (") == 1
    assert "stability cells: 30 total, 28 PASS, 1 KNOWN-DISCREPANCY, 1 FAIL" in out
    assert "value cells: 30 total, 30 PASS, 0 FAIL" in out


def test_reproduce_table2_fails_on_a_moved_point(monkeypatch, capsys):
    table = copy.deepcopy(fraclv.cli.TABLE2)
    row = table["example1"]["E1"]
    row["point"] = (row["point"][0] + 2.0 * fraclv.cli.TABLE_VALUE_TOL, *row["point"][1:])
    monkeypatch.setattr(fraclv.cli, "TABLE2", table)
    assert main(["reproduce-table2"]) == 1
    out = capsys.readouterr().out
    assert re.search(r"^example1 E1 point: FAIL \(max component error 2\.00e-02", out, re.M)
    assert out.count(": FAIL (") == 1
    assert "stability cells: 30 total, 29 PASS, 1 KNOWN-DISCREPANCY, 0 FAIL" in out
    assert "value cells: 30 total, 29 PASS, 1 FAIL" in out


# sha256 of the `equilibria` and `stability` stdout of each preset's config, at
# each published order and at 1.0 (where the CF verdicts are not applicable)
EQUILIBRIA_DIGESTS = {
    "example1": "3d0f1eab22c5ad3be7fe4fabbafb43c7408af261158441e080f00307e786ef7d",
    "example2": "8ac56a2a7533f9e7135ec18d3fb37ed3d0b6180cf605c1abc1ee78d515ae09f8",
    "example3": "3e4b9310959c59fcbdd90d4b7a5c3fb311a884b992993f944b1ab2be4b0ec057",
}
STABILITY_DIGESTS = {
    ("example1", 0.98): "61378728ba1595ae47fe3a13b4aba99101668864d620b4e4820866d6e10d1c96",
    ("example1", 0.66): "fd0f19f79e0f515611bf46268a122d056e92e7851ac41c087c4fdd66852ba9a7",
    ("example1", 1.0): "1535ea03f175b940b9271d1ee999e0165b876834552f3aa0a64849e09cba3616",
    ("example2", 0.6): "07fac6ed50b97411fda0a3e3600a0d9dae6769713207eab7f581f87db00880b5",
    ("example2", 1.0): "8a91e387ec41083f5e9c2a1110dfc9f7712410ad33b8535269ab011b2be92dbc",
    ("example3", 0.4): "1eb95cae0c6feecc53effc8c041db23b74bae300ad5be793b6e5245820cbb0bc",
    ("example3", 1.0): "a527a941be634da99b8515382c57765026dee4c89ea07043edbe2db8fb6e2da2",
}


@pytest.mark.parametrize("name,alpha", list(STABILITY_DIGESTS))
def test_analysis_stdout_is_pinned(tmp_path, capsys, name, alpha):
    # every byte of both reports, verdicts, Table 1 rows and spectrum bits included
    preset = PRESETS[name]
    path = _write_config(tmp_path, _base_config(
        alpha=alpha, params=preset.params.as_dict(), initial=list(preset.initial)))
    digests = []
    for command in ("equilibria", "stability"):
        assert main([command, "--config", path]) == 0
        digests.append(hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest())
    assert digests == [EQUILIBRIA_DIGESTS[name], STABILITY_DIGESTS[name, alpha]]


# ---------------------------------------------------------------------------
# console entry point


def _console(*argv, cwd):
    """``python -m fraclv.cli`` in a fresh interpreter, on the package under test."""
    src = os.path.dirname(os.path.dirname(fraclv.cli.__file__))
    return subprocess.run([sys.executable, "-m", "fraclv.cli", *argv], cwd=cwd,
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)


def test_console_entry_point_exit_codes(tmp_path, capsys):
    done = _console("classify", "1", "1", "0.5", cwd=tmp_path)
    assert main(["classify", "1", "1", "0.5"]) == 0
    assert (done.returncode, done.stdout, done.stderr) == (0, capsys.readouterr().out, "")

    done = _console("simulate", "--config", "missing.json", "--out", "out", cwd=tmp_path)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.startswith("error: missing.json: cannot read config")
    assert done.stderr.count("\n") == 1

    data = scenario_config(SCENARIOS["example1-cf-planar"])
    data["cf_mode"] = "corrected"  # diverges, as in the in-process test above
    path = _write_config(tmp_path, data)
    done = _console("simulate", "--config", path, "--out", "out", cwd=tmp_path)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("warning: ")
    assert json.loads((tmp_path / "out" / "manifest.json").read_text())["diverged"] is True
