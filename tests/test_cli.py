"""CLI contract: config validation, exit codes, file schemas, round trips."""

import hashlib
import json
import math
import re

import numpy as np
import pytest

from fraclv.cli import ConfigError, _trajectory_csv, load_config, main, parse_config
from fraclv.presets import PRESETS, SCENARIOS, scenario_config
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
    path = _write_config(tmp_path, _base_config(normalization=0))
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert path in str(info.value)
    assert "normalization" in str(info.value)


def test_config_error_exits_1(tmp_path, capsys):
    path = _write_config(tmp_path, _base_config(horizon=0.0))
    rc = main(["simulate", "--config", path, "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "horizon" in capsys.readouterr().err


def test_usage_error_exits_1():
    assert main(["simulate"]) == 1  # missing required flags


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


def test_trajectory_csv_matches_row_by_row_formatting():
    # reference: .16e on the numpy scalars of each row, one f-string per row;
    # 2,500 rows span several formatting blocks
    special = np.array([
        [0.5, -0.9, 0.0],
        [-0.0, 5e-324, -2.2250738585072014e-308],
        [1e300, -1.7976931348623157e308, 1.0 / 3.0],
        [2.0 ** -1074 * 3, -123.456, 7e-310],
    ])
    states = np.random.default_rng(3).normal(size=(2500, 3))
    states[::500] = special[0]
    states[1::700] = special[1]
    states[1023:1026] = special[1:]
    traj = Trajectory(0.01 * np.arange(2500), states, "caputo", 0.6)
    lines = ["t,x,y,z"]
    for t, row in zip(traj.times, traj.states):
        lines.append(f"{t:.16e},{row[0]:.16e},{row[1]:.16e},{row[2]:.16e}")
    assert _trajectory_csv(traj) == "\n".join(lines) + "\n"


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
        assert all(c["condition"] in (None, "1", "2", "3", "4") for c in conds)
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


def test_classify_rejects_bad_alpha(capsys):
    assert main(["classify", "1", "1", "1.0"]) == 1
    assert main(["classify", "1", "1", "0"]) == 1


def test_classify_rejects_non_finite_eigenvalue(capsys):
    assert main(["classify", "nan", "0", "0.5"]) == 1
    assert "finite" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# reproduce-table2 (full assertions live in the acceptance suite)


def test_reproduce_table2_exit_code_and_summary(capsys):
    assert main(["reproduce-table2"]) == 0
    out = capsys.readouterr().out
    assert "stability cells: 30 total, 29 PASS, 1 KNOWN-DISCREPANCY, 0 FAIL" in out
    assert "value cells: 30 total, 30 PASS, 0 FAIL" in out
