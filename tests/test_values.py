"""The value types and the shared constant rows.

Every public dataclass is a slotted frozen dataclass: no per-instance
``__dict__``, assigning or deleting a field raises ``FrozenInstanceError``,
and ``==`` and ``hash`` are those of its fields.  The constant rows (Table 1 rows
and whole tables, existence conditions with constant labels and the E2 and E3
condition pairs, three-eigenvalue verdict tag rows, ``regions`` tuples) are the
entries of one table, ``fraclv.model._SHARED``, which fills as rows are first
used and which no input grows past its bound.
"""

import dataclasses
import gc
import random
import tracemalloc

import pytest

import fraclv.cli
import fraclv.model
import fraclv.presets
import fraclv.solvers
import fraclv.spectral
import fraclv.stability
from fraclv.model import ModelParams, equilibria
from fraclv.presets import PRESETS, SCENARIOS
from fraclv.solvers import SolverConfig, integrate_cf
from fraclv.spectral import CubicCoefficients, cubic_roots
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
        report, report.caputo, report.equilibrium, report.spectrum.analysis, spectrum,
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


#: How many rows may enter ``model._SHARED``: existence-condition rows (7
#: constant labels, False and True) and the 8 E2/E3 pairs (22 in all), Table 1
#: rows (18 labels, 36 at most, as E2 and E3 share three labels), whole Table 1s
#: (2^2 + 2^4 + 2^5 + 2^5 + 2^2 = 88), three-eigenvalue tag rows (8 cone, 8
#: disk and 125 theorem rows share the all-None row, 139) and ``regions``
#: tuples (4^3 = 64).
SHARED_BOUND = 22 + 36 + 88 + 139 + 64

_TAGS = {"cone", "disk", "1", "2", "3", "4", None}


def _random_reports(seed):
    """The reports of 1,000 random parameter sets and orders."""
    rng = random.Random(seed)
    return [rep for _ in range(1000) for rep in equilibrium_report(
        ModelParams(*(10.0 ** rng.uniform(-1.0, 1.0) for _ in range(7))), rng.uniform(0.05, 0.95))]


def test_shared_rows_come_from_bounded_tables():
    shared = fraclv.model._SHARED
    for rep in _random_reports(5):
        assert shared[rep.regions] is rep.regions
        assert shared[rep.table1] is rep.table1
        for row in rep.table1:
            assert shared[row] is row
        for verdict in (rep.caputo, rep.cf_theorem, rep.cf_disk):
            assert verdict.eigenvalues is rep.spectrum.eigenvalues
            assert shared[verdict.tags] is verdict.tags
        conditions = rep.equilibrium.conditions
        if rep.equilibrium.kind in ("E2", "E3"):
            assert shared[conditions] is conditions
        for row in conditions:
            if row[0] == "always exists" or row[0].startswith("z >= 0: a4"):
                assert row not in shared  # a constant, or E4's z row with its bound
            else:
                assert shared[row] is row
    # other lengths are unbounded in number, so they stay new tuples
    for spectrum in ([-1.0], [-1.0, 2.0], [-1.0, -2.0, -3.0, 4.0, 0.0]):
        for verdict_of in (caputo_stable, cf_stable_theorem, cf_disk_verdict):
            assert verdict_of(spectrum, 0.6).tags not in shared
    filled = dict(shared)
    assert len(filled) <= SHARED_BOUND
    _random_reports(6)
    assert shared == filled
    for row in shared:
        if all(tag in _TAGS for tag in row):
            assert len(row) == 3
        elif isinstance(row[0], str) and isinstance(row[1], bool):
            assert not row[0].startswith("z >= 0: a4")


def test_rows_are_shared_across_inputs():
    ex1, ex2 = equilibria(PRESETS["example1"].params), equilibria(PRESETS["example2"].params)
    assert ex1[2].conditions[0] is ex2[2].conditions[0]  # "a5 >= 1", True for both
    assert ex1[4].conditions[2] is not ex2[4].conditions[2]  # E4's z row carries its bound
    assert ex1[3].conditions is ex2[3].conditions  # E3's pair, (True, True) for both
    rep1, rep2 = equilibrium_report(PRESETS["example1"].params, 0.6), equilibrium_report(
        PRESETS["example2"].params, 0.5)
    assert rep1[0].table1 is rep2[0].table1  # E0: saddle, a1 = 3 above 1/(1-alpha)


def test_equal_tag_patterns_share_one_row():
    first = cf_stable_theorem([-1.0, complex(5.0, 1.0), 0.5], 0.6)
    second = cf_stable_theorem([-0.5, complex(9.0, -2.0), 0.25], 0.6)
    assert first.tags == ("3", "1", None) and first.tags is second.tags
    assert caputo_stable([-1.0, -2.0, 3.0], 0.5).tags is caputo_stable([-5.0, -0.5, 1.0], 0.9).tags
    assert cf_disk_verdict([-1.0, -2.0, 1.0], 0.6).tags is cf_disk_verdict([-4.0, 9.0, 1.0], 0.6).tags


@dataclasses.dataclass(frozen=True)
class _PairedVerdict:
    """The verdict as it was when it stored (eigenvalue, tag) pairs."""

    operator: str
    stable: bool
    per_eigenvalue: tuple


_PairedVerdict.__qualname__ = "StabilityVerdict"


@pytest.mark.parametrize("spectrum", [
    [-1.0],
    [complex(0.5, 3.0), complex(0.5, -3.0), -2.0],
    [-1.0, 2.0, complex(0.1, 9.0), complex(0.1, -9.0), 0.0],
], ids=lambda spectrum: f"{len(spectrum)}-eigenvalues")
@pytest.mark.parametrize("verdict_of", [caputo_stable, cf_stable_theorem, cf_disk_verdict],
                         ids=lambda fn: fn.__name__)
def test_per_eigenvalue_pairs_eigenvalues_with_tags(spectrum, verdict_of):
    verdict = verdict_of(spectrum, 0.6)
    assert verdict.eigenvalues == tuple(map(complex, spectrum))
    assert len(verdict.tags) == len(spectrum)
    assert verdict.per_eigenvalue == tuple(zip(verdict.eigenvalues, verdict.tags))
    assert verdict.stable == (None not in verdict.tags)
    # repr prints the pairs, as the dataclass repr of a per_eigenvalue field did
    assert repr(verdict) == repr(_PairedVerdict(verdict.operator, verdict.stable,
                                                verdict.per_eigenvalue))
    twin = verdict_of(list(spectrum), 0.6)
    assert twin == verdict and twin is not verdict
    assert hash(twin) == hash(verdict)


def test_verdicts_compare_by_operator_eigenvalues_and_tags():
    base = StabilityVerdict("caputo", True, (complex(-1.0),), ("cone",))
    assert base == StabilityVerdict("caputo", True, (complex(-1.0),), ("cone",))
    assert base != StabilityVerdict("caputo", True, (complex(-2.0),), ("cone",))
    assert base != StabilityVerdict("cf-disk", True, (complex(-1.0),), ("cone",))
    assert base != StabilityVerdict("caputo", False, (complex(-1.0),), (None,))


#: Retained bytes per equilibrium_report at alpha = 0.66 on jittered presets,
#: measured + 10%.  Measured on CPython 3.11.7: 4,248 B with verdicts holding
#: the spectrum's eigenvalues and shared tag rows, against 8,064 B with
#: per-verdict (eigenvalue, tag) pairs and 11,139 B with plain frozen
#: dataclasses and rows built per call.
REPORT_BYTES_BOUND = 4_673


def test_retained_bytes_per_report():
    rng = random.Random(1)
    params = [ModelParams(*(v * (1.0 + rng.uniform(-0.1, 0.1)) for v in preset.params.as_tuple()))
              for preset in PRESETS.values() for _ in range(100)]
    equilibrium_report(params[0], 0.66)  # first-call costs are not retained per report
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        reports = [equilibrium_report(p, 0.66) for p in params]
        gc.collect()
        per_report = (tracemalloc.get_traced_memory()[0] - before) / len(reports)
    finally:
        tracemalloc.stop()
    assert per_report <= REPORT_BYTES_BOUND
