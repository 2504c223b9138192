"""The value types and the shared constant rows.

Every public dataclass is a slotted frozen dataclass: no per-instance
``__dict__``, assigning or deleting a field raises ``FrozenInstanceError``,
and ``==`` and ``hash`` are those of its fields.  The constant values (E4's
existence conditions with constant labels, the E2 and E3 condition pairs,
whole Table 1s and three-eigenvalue verdicts) are the values of one table,
``fraclv.model._SHARED``, keyed by themselves or, for the report's values, by
plain tuples from which they are built on a miss only.  A pair or a Table 1
is shared whole, its rows are not entered one by one, and a report's
``regions`` are derived from its verdicts' tags, so they enter no table.  The
table fills as values are first used, and no input grows it past its bound.
A verdict holds no eigenvalue: the spectrum is their one owner, and a report
retains little beyond its equilibria and spectra.
"""

import dataclasses
import gc
import random
import sys
import tracemalloc

import pytest

import fraclv.cli
import fraclv.model
import fraclv.presets
import fraclv.solvers
import fraclv.spectral
import fraclv.stability
from fraclv.model import ModelParams, equilibria, jacobian
from fraclv.presets import PRESETS, SCENARIOS
from fraclv.solvers import SolverConfig, integrate_cf
from fraclv.spectral import CubicCoefficients, characteristic_cubic, cubic_roots
from fraclv.stability import (
    StabilityVerdict,
    caputo_stable,
    cf_disk_verdict,
    cf_stable_theorem,
    equilibrium_report,
)

MODULES = (fraclv.cli, fraclv.model, fraclv.presets, fraclv.solvers, fraclv.spectral,
           fraclv.stability)


def _instances():
    """One instance of every public dataclass, built through the public API."""
    report = equilibrium_report(PRESETS["example2"].params, 0.6)[4]
    spectrum = cubic_roots(CubicCoefficients(1.0, 2.0, 3.0))
    config = fraclv.cli.parse_config({
        "operator": "cf", "alpha": 0.6, "params": PRESETS["example1"].params.as_dict(),
        "initial": [1.0, 1.0, 1.0], "horizon": 0.1, "step": 0.01})
    return [
        report, report.caputo, report.equilibrium, spectrum,
        CubicCoefficients(1.0, 2.0, 3.0), PRESETS["example1"], PRESETS["example1"].params,
        SCENARIOS["example1-cf"], SolverConfig(step=0.01, horizon=0.1), config,
        integrate_cf(lambda t, x: -x, [1.0], 0.6, SolverConfig(step=0.01, horizon=0.1)),
    ]


def test_every_public_dataclass_is_covered():
    public = {getattr(m, n) for m in MODULES for n in m.__all__
              if dataclasses.is_dataclass(getattr(m, n))}
    assert {type(obj) for obj in _instances()} == public


@pytest.mark.parametrize("obj", _instances(), ids=lambda obj: type(obj).__name__)
def test_value_types_are_slotted_and_frozen(obj):
    cls = type(obj)
    params = cls.__dataclass_params__
    assert params.frozen and "__slots__" in cls.__dict__
    assert not hasattr(obj, "__dict__")
    field = dataclasses.fields(obj)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(obj, field, getattr(obj, field))
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(obj, field)
    # a name that is not a field: CPython's frozen-slots __setattr__ calls
    # super() on the class as it was before slots were added, which raises
    # TypeError (3.10 to 3.13); plain frozen dataclasses raised FrozenInstanceError
    with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
        obj.not_a_field = 1
    if cls.__name__ != "Trajectory":  # its fields are arrays, which have no == or hash
        twin = dataclasses.replace(obj)
        assert twin == obj and twin is not obj
        assert hash(twin) == hash(obj)


#: How many values may enter ``model._SHARED``: E4's existence-condition rows
#: with constant labels (3 labels, False and True, 6), the E2/E3 condition
#: pairs (2^2 each, 8), whole Table 1s by (kind, flags)
#: (2^2 + 2^4 + 2^5 + 2^5 + 2^2 = 88) and three-eigenvalue verdicts by
#: (operator, tags) (8 cone, 125 theorem and 8 disk, 141).
SHARED_BOUND = 6 + 8 + 88 + 141

_TAGS = {"cone", "disk", "1", "2", "3", "4", None}
_KINDS = {"E0", "E1", "E2", "E3", "E4"}


def _random_reports(seed):
    """The reports of 1,000 random parameter sets and orders."""
    rng = random.Random(seed)
    return [rep for _ in range(1000) for rep in equilibrium_report(
        ModelParams(*(10.0 ** rng.uniform(-1.0, 1.0) for _ in range(7))), rng.uniform(0.05, 0.95))]


def test_shared_rows_come_from_bounded_tables():
    shared = fraclv.model._SHARED
    for rep in _random_reports(5):
        # a Table 1 is found whole by (kind, flags) and a verdict by
        # (operator, tags); the region classes follow from the cone and disk
        # tags and are not shared
        assert shared[rep.equilibrium.kind, tuple(flag for _, flag in rep.table1)] is rep.table1
        assert rep.regions == tuple(fraclv.stability._REGIONS[pair]
                                    for pair in zip(rep.caputo.tags, rep.cf_disk.tags))
        assert (rep.caputo.tags, rep.cf_disk.tags) not in shared
        assert rep.table1 not in shared and rep.regions not in shared
        for row in rep.table1:
            assert row not in shared
        for verdict in (rep.caputo, rep.cf_theorem, rep.cf_disk):
            assert shared[verdict.operator, verdict.tags] is verdict
            assert verdict not in shared and verdict.tags not in shared
        conditions = rep.equilibrium.conditions
        if rep.equilibrium.kind in ("E2", "E3"):
            assert shared[conditions] is conditions  # the pair, shared whole
        for row in conditions:
            if rep.equilibrium.kind == "E4" and not row[0].startswith("z >= 0: a4"):
                assert shared[row] is row
            else:  # a constant, a row of a shared pair, or E4's z row with its bound
                assert row not in shared
    # other lengths are unbounded in number, so they stay new verdicts
    for spectrum in ([-1.0], [-1.0, 2.0], [-1.0, -2.0, -3.0, 4.0, 0.0]):
        for verdict_of in (caputo_stable, cf_stable_theorem, cf_disk_verdict):
            verdict = verdict_of(spectrum, 0.6)
            assert (verdict.operator, verdict.tags) not in shared and verdict.tags not in shared
    filled = dict(shared)
    assert len(filled) <= SHARED_BOUND
    _random_reports(6)
    assert shared == filled
    for key, value in shared.items():
        if isinstance(value, StabilityVerdict):
            assert key == (value.operator, value.tags)
            assert len(value.tags) == 3 and set(value.tags) <= _TAGS
        elif key[0] in _KINDS:
            assert value == tuple(zip(fraclv.stability._TABLE1_LABELS[key[0]], key[1]))
        else:  # an E2/E3 pair or one of E4's rows: no region key, no bare tag row
            assert key is value
            for row in value if type(value[0]) is tuple else (value,):
                assert len(row) == 2 and type(row[0]) is str and type(row[1]) is bool
                assert row[0] not in _TAGS and not row[0].startswith("z >= 0: a4")


def test_warm_calls_build_no_verdict_and_no_table1(monkeypatch):
    # StabilityVerdict and tuple are wrapped where fraclv.stability looks them up
    built = {"verdicts": 0, "tables": 0}
    labels = {label for rows in fraclv.stability._TABLE1_LABELS.values() for label in rows}

    def verdict(*args):
        built["verdicts"] += 1
        return StabilityVerdict(*args)

    def counted_tuple(*args):
        value = tuple(*args)
        if value and all(type(row) is tuple and row[0] in labels for row in value):
            built["tables"] += 1
        return value

    monkeypatch.setattr(fraclv.stability, "StabilityVerdict", verdict)
    monkeypatch.setattr(fraclv.stability, "tuple", counted_tuple, raising=False)
    shared = {}  # a cold table, so the first calls build what the second find
    monkeypatch.setattr(fraclv.model, "_SHARED", shared)
    monkeypatch.setattr(fraclv.stability, "_SHARED", shared)

    def calls():
        for params in (PRESETS["example1"].params, PRESETS["example2"].params):
            for alpha in (0.6, 1.0):
                equilibrium_report(params, alpha)
        for spectrum in ([-1.0, complex(0.5, 3.0), complex(0.5, -3.0)],
                         cubic_roots(CubicCoefficients(1.0, 2.0, 3.0))):
            for verdict_of in (caputo_stable, cf_stable_theorem, cf_disk_verdict):
                verdict_of(spectrum, 0.6)

    calls()
    assert all(built.values())
    built.update(verdicts=0, tables=0)
    calls()
    assert built == {"verdicts": 0, "tables": 0}


def test_rows_are_shared_across_inputs():
    ex1, ex2 = equilibria(PRESETS["example1"].params), equilibria(PRESETS["example2"].params)
    assert ex1[2].conditions is ex2[2].conditions  # E2's pair, (True, True) for both
    assert ex1[3].conditions is ex2[3].conditions  # E3's pair, (True, True) for both
    assert ex1[4].conditions[0] is ex2[4].conditions[0]  # "x >= 0: a3 >= 1", True for both
    assert ex1[4].conditions[2] is not ex2[4].conditions[2]  # E4's z row carries its bound
    rep1, rep2 = equilibrium_report(PRESETS["example1"].params, 0.6), equilibrium_report(
        PRESETS["example2"].params, 0.5)
    assert rep1[0].table1 is rep2[0].table1  # E0: saddle, a1 = 3 above 1/(1-alpha)


def test_equal_tag_patterns_share_one_row():
    first = cf_stable_theorem([-1.0, complex(5.0, 1.0), 0.5], 0.6)
    second = cf_stable_theorem([-0.5, complex(9.0, -2.0), 0.25], 0.6)
    assert first == StabilityVerdict("cf-theorem", False, ("3", "1", None)) and first is second
    assert caputo_stable([-1.0, -2.0, 3.0], 0.5) is caputo_stable([-5.0, -0.5, 1.0], 0.9)
    assert cf_disk_verdict([-1.0, -2.0, 1.0], 0.6) is cf_disk_verdict([-4.0, 9.0, 1.0], 0.6)
    # equal tags under another operator are another verdict
    assert cf_disk_verdict([-1.0, -2.0, -3.0], 0.6) is not caputo_stable([-1.0, -2.0, -3.0], 0.6)


@pytest.mark.parametrize("spectrum", [
    [-1.0],
    [complex(0.5, 3.0), complex(0.5, -3.0), -2.0],
    [-1.0, 2.0, complex(0.1, 9.0), complex(0.1, -9.0), 0.0],
], ids=lambda spectrum: f"{len(spectrum)}-eigenvalues")
@pytest.mark.parametrize("verdict_of", [caputo_stable, cf_stable_theorem, cf_disk_verdict],
                         ids=lambda fn: fn.__name__)
def test_per_eigenvalue_pairs_eigenvalues_with_tags(spectrum, verdict_of):
    # the stability command's per_eigenvalue list pairs the spectrum with the tags
    verdict = verdict_of(spectrum, 0.6)
    assert len(verdict.tags) == len(spectrum)
    assert verdict.stable == (None not in verdict.tags)
    assert fraclv.cli._verdict_dict(verdict, spectrum)["per_eigenvalue"] == [
        {"eigenvalue": [complex(w).real, complex(w).imag], "condition": tag}
        for w, tag in zip(spectrum, verdict.tags)]
    assert repr(verdict) == (f"StabilityVerdict(operator={verdict.operator!r}, "
                             f"stable={verdict.stable!r}, tags={verdict.tags!r})")
    twin = verdict_of(list(spectrum), 0.6)
    assert twin == verdict and hash(twin) == hash(verdict)
    assert (twin is verdict) == (len(spectrum) == 3)


def test_verdicts_compare_by_operator_stable_and_tags():
    base = StabilityVerdict("caputo", True, ("cone",))
    assert base == StabilityVerdict("caputo", True, ("cone",))
    assert base == caputo_stable([-2.0], 0.5)  # the eigenvalue is not part of the verdict
    assert base != StabilityVerdict("cf-disk", True, ("cone",))
    assert base != StabilityVerdict("caputo", False, (None,))
    assert base != StabilityVerdict("caputo", True, ("cone", "cone"))


#: Retained bytes per equilibrium_report at alpha = 0.66 on jittered presets,
#: measured + 10%.  Measured on CPython 3.11.7: 3,048 B with the cubic terms
#: held by the spectrum and the region classes derived, against 3,288 B with a
#: separate CubicAnalysis per spectrum and a stored ``regions`` per report,
#: 4,248 B with verdicts holding the spectrum's eigenvalues and shared tag
#: rows, 8,064 B with per-verdict (eigenvalue, tag) pairs and 11,139 B with
#: plain frozen dataclasses and rows built per call.
REPORT_BYTES_BOUND = 3_353


def _jittered_params():
    rng = random.Random(1)
    return [ModelParams(*(v * (1.0 + rng.uniform(-0.1, 0.1)) for v in preset.params.as_tuple()))
            for preset in PRESETS.values() for _ in range(100)]


def _retained_per_call(build, params):
    """Bytes that the results of ``build(p)`` retain, per parameter set."""
    for p in params:  # first-use costs, such as new shared values, are not retained per call
        build(p)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        results = [build(p) for p in params]
        gc.collect()
        return (tracemalloc.get_traced_memory()[0] - before) / len(results)
    finally:
        tracemalloc.stop()


def _report(params):
    return equilibrium_report(params, 0.66)


def _equilibria_and_spectra(params):
    eqs = equilibria(params)
    return eqs, [cubic_roots(characteristic_cubic(jacobian(params, eq.point))) for eq in eqs]


def test_retained_bytes_per_report():
    assert _retained_per_call(_report, _jittered_params()) <= REPORT_BYTES_BOUND


def test_a_report_retains_little_beyond_its_equilibria_and_spectra():
    # both sides come from this interpreter, so the bound holds whatever its object sizes
    params = _jittered_params()
    extra = _retained_per_call(_report, params) - _retained_per_call(_equilibria_and_spectra, params)
    assert extra <= 5 * sys.getsizeof(_report(params[0])[0])
