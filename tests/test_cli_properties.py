"""CLI properties: no input makes ``main`` raise, and every exit keeps its contract.

For any config through ``equilibria``, ``stability`` and ``simulate``, and any
``classify`` triple:

* no exception leaves ``main``, and the exit code is 0 or 1 (``simulate``
  also 2, for a divergent run);
* exit 1 prints exactly one ``error:`` line on stderr and nothing on stdout;
* exit 0 of an analysis command prints strict JSON (no NaN or Infinity).

Values are drawn from 5e-324 to 1.7e308 in magnitude, and one value of a
config may be NaN, +-inf, 0, negative or an integer past the float range.
Orders sit at 0, 1 and their neighbours as well as inside (0, 1).
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from fraclv.cli import main

#: ``simulate`` runs at most this many steps (horizon = step * count), so no
#: run allocates or integrates much; larger step counts have their own tests.
SIMULATE_MAX_STEPS = 1000

MAGNITUDE = st.floats(min_value=5e-324, max_value=1.7e308)
POSITIVE = st.one_of(st.floats(min_value=0.1, max_value=10.0), MAGNITUDE)
SIGNED = st.one_of(POSITIVE, POSITIVE.map(lambda v: -v), st.just(0.0))
#: values the config parser must reject wherever they appear
BAD = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0]),
    st.integers(min_value=2 ** 1024, max_value=10 ** 400),
)
ORDERS = st.one_of(
    st.sampled_from([0.0, 5e-324, 0.4, 0.6, 0.66, 0.98,
                     math.nextafter(1.0, 0.0), 1.0, math.nextafter(1.0, 2.0)]),
    st.floats(min_value=0.0, max_value=1.0),
)
#: (key, index) of each config value that ``BAD`` may replace
SLOTS = [("alpha", None), ("step", None), ("horizon", None),
         *(("params", f"a{i}") for i in range(1, 8)), *(("initial", i) for i in range(3))]


@st.composite
def configs(draw):
    step = draw(POSITIVE)
    data = {
        "operator": draw(st.sampled_from(["caputo", "cf"])),
        "alpha": draw(ORDERS),
        "params": {f"a{i}": draw(POSITIVE) for i in range(1, 8)},
        "initial": [draw(st.one_of(st.floats(min_value=0.0, max_value=10.0), SIGNED))
                    for _ in range(3)],
        "horizon": step * draw(st.integers(min_value=1, max_value=SIMULATE_MAX_STEPS)),
        "step": step,
        "cf_mode": draw(st.sampled_from(["paper", "corrected"])),
    }
    poison = draw(st.one_of(st.none(), st.tuples(st.sampled_from(SLOTS), BAD)))
    if poison:
        (key, index), value = poison
        if index is None:
            data[key] = value
        else:
            data[key][index] = value
    return data


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _reject_constant(token):
    raise AssertionError(f"output is not strict JSON: it holds {token}")


def _check(code, out, err, codes=(0, 1)):
    assert code in codes
    if code == 1:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


def _check_analysis(argv):
    code, out, err = _run(argv)
    _check(code, out, err)
    if code == 0:
        json.loads(out, parse_constant=_reject_constant)
        assert err == ""


def _override(alpha):
    # --alpha=<value>, so that a value like -inf is not read as an option
    return [] if alpha is None else [f"--alpha={alpha!r}"]


@given(data=configs(), alpha=st.one_of(st.none(), ORDERS))
@settings(max_examples=150, deadline=None)
def test_analysis_commands_keep_the_exit_contract(data, alpha):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "config.json")
        path.write_text(json.dumps(data), encoding="utf-8")
        _check_analysis(["equilibria", "--config", str(path)])
        _check_analysis(["stability", "--config", str(path), *_override(alpha)])


@given(data=configs(), alpha=st.one_of(st.none(), ORDERS),
       mode=st.sampled_from([None, "paper", "corrected"]))
@settings(max_examples=40, deadline=None)
def test_simulate_keeps_the_exit_contract(data, alpha, mode):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "config.json")
        path.write_text(json.dumps(data), encoding="utf-8")
        out_dir = Path(tmp, "out")
        argv = ["simulate", "--config", str(path), "--out", str(out_dir), *_override(alpha)]
        code, out, err = _run(argv + ([] if mode is None else ["--mode", mode]))
        _check(code, out, err, codes=(0, 1, 2))
        if code != 1:
            assert out == ""
            manifest = (out_dir / "manifest.json").read_text(encoding="utf-8")
            assert json.loads(manifest, parse_constant=_reject_constant)["diverged"] is (code == 2)


@given(real=st.one_of(SIGNED, BAD), imag=st.one_of(SIGNED, BAD),
       alpha=st.one_of(ORDERS, BAD))
@settings(max_examples=200, deadline=None)
def test_classify_keeps_the_exit_contract(real, imag, alpha):
    # after --, a value like -inf is read as a number, not as an option
    _check_analysis(["classify", "--", repr(real), repr(imag), repr(alpha)])
