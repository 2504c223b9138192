"""Stability criteria: cone, CF theorem, CF disk, regions and reports."""

import cmath
import dataclasses
import math
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import fraclv.stability
from fraclv.model import equilibria, jacobian
from fraclv.presets import PRESETS
from fraclv.spectral import characteristic_cubic, cubic_roots
from fraclv.stability import (
    caputo_stable,
    cf_disk_verdict,
    cf_stable_theorem,
    classify_region,
    equilibrium_report,
    table1_conditions,
)

EX1 = PRESETS["example1"].params
EX2 = PRESETS["example2"].params
EX3 = PRESETS["example3"].params


# ---------------------------------------------------------------------------
# cone criterion


def test_cone_stable_spiral_at_high_order():
    spec = [complex(-0.083, 2.914), complex(-0.083, -2.914), -2.0]
    assert caputo_stable(spec, 0.98).stable


def test_positive_real_eigenvalue_never_cone_stable():
    for alpha in (0.05, 0.3, 0.66, 0.98, 1.0):
        spectrum = [15.0, -1.0, -1.0]
        verdict = caputo_stable(spectrum, alpha)
        assert not verdict.stable
        assert dict(zip(spectrum, verdict.tags))[15.0] is None


def test_cone_interior_example2():
    spec = [complex(0.276, 4.123), complex(0.276, -4.123), -1.053]
    assert caputo_stable(spec, 0.6).stable
    assert abs(cmath.phase(complex(0.276, 4.123))) > 0.3 * math.pi


def test_zero_eigenvalue_unstable():
    assert not caputo_stable([0.0, -1.0, -2.0], 0.5).stable


def test_cone_boundary_counts_unstable():
    # |arg| exactly alpha*pi/2 (open condition)
    assert not caputo_stable([complex(1.0, 1.0), -1.0, -1.0], 0.5).stable


def test_cone_at_order_one_is_classical():
    assert caputo_stable([complex(-0.01, 5.0), complex(-0.01, -5.0), -1.0], 1.0).stable
    assert not caputo_stable([complex(0.0, 5.0), complex(0.0, -5.0), -1.0], 1.0).stable


def test_cone_subnormal_argument_gives_a_verdict():
    # atan2(5e-324, 2) underflows to 0; the cone test must still classify.
    for im in (5e-324, -5e-324):
        assert not caputo_stable([complex(2.0, im)], 0.5).stable
    assert caputo_stable([complex(-2.0, 5e-324)], 0.5).stable
    assert classify_region(complex(2.0, 5e-324), 0.5) == "C"


def test_verdict_structure():
    verdict = caputo_stable([complex(-1, 2), complex(-1, -2), 3.0], 0.5)
    assert verdict.operator == "caputo"
    assert verdict.stable == all(tag is not None for tag in verdict.tags)
    assert len(verdict.tags) == 3


# ---------------------------------------------------------------------------
# CF theorem criterion


def test_cf_theorem_mixed_conditions():
    # {-3, -3, 3} at alpha 0.6: threshold 2.5. Only the modulus condition can
    # admit +3; the negatives satisfy both the modulus and half-plane forms
    # (the conditions overlap), and the verdict records the first match.
    verdict = cf_stable_theorem([-3.0, -3.0, 3.0], 0.6)
    assert verdict.stable
    tags = verdict.tags
    assert tags[2] == "1"
    assert tags[0] in ("1", "3") and tags[1] in ("1", "3")


def test_cf_theorem_left_half_plane():
    for alpha in (0.1, 0.5, 0.9):
        verdict = cf_stable_theorem([-1.0, -1.0, -1.0], alpha)
        assert verdict.stable
        assert all(tag == "3" for tag in verdict.tags)


def test_cf_theorem_example1_low_order():
    # 2.727 > 1/(2*0.34) = 1.470...; 16 >= 1/0.34 = 2.94...
    verdict = cf_stable_theorem(
        [complex(-0.25, 2.727), complex(-0.25, -2.727), 16.0], 0.66
    )
    assert verdict.stable


def test_cf_theorem_rejects_order_one():
    with pytest.raises(ValueError):
        cf_stable_theorem([-1.0, -1.0, -1.0], 1.0)


def test_cf_theorem_excludes_threshold_point():
    alpha = 0.5  # threshold exactly 2
    verdict = cf_stable_theorem([2.0, -1.0, -1.0], alpha)
    assert not verdict.stable


# ---------------------------------------------------------------------------
# CF disk criterion


def test_disk_examples():
    assert cf_disk_verdict([6.0], 0.6).stable  # |6 - 1.25| > 1.25
    assert not cf_disk_verdict([1.25], 0.6).stable  # center
    assert cf_disk_verdict([-1e-12], 0.6).stable  # left half-plane
    assert not cf_disk_verdict([0.0], 0.6).stable  # on the circle
    assert not cf_disk_verdict([2.5], 0.6).stable  # on the circle at 1/(1-alpha)


def test_disk_verdict_wraps_spectrum():
    verdict = cf_disk_verdict([6.0, -1.0, complex(1.0, 3.0)], 0.6)
    assert verdict.operator == "cf-disk"
    assert verdict.stable
    assert all(tag == "disk" for tag in verdict.tags)


def test_disk_rejects_order_one():
    with pytest.raises(ValueError):
        cf_disk_verdict([1.0], 1.0)


# ---------------------------------------------------------------------------
# region classes


def test_region_examples():
    assert classify_region(complex(-1.0, 5.0), 0.5) == "A"
    assert classify_region(1.333, 0.6) == "C"
    assert classify_region(6.0, 0.6) == "D"
    # cone-stable but inside the disk
    assert classify_region(complex(0.5, 0.8), 0.6) == "B"


@pytest.mark.parametrize("lam", [complex(math.nan, 0.0), complex(0.0, math.nan),
                                 complex(math.inf, 1.0), complex(-1.0, -math.inf)])
def test_non_finite_eigenvalue_rejected(lam):
    # a non-finite eigenvalue has no region and no verdict; it must not read as "C"
    with pytest.raises(ValueError):
        classify_region(lam, 0.5)
    with pytest.raises(ValueError):
        caputo_stable([lam], 0.5)
    with pytest.raises(ValueError):
        cf_stable_theorem([-1.0, lam], 0.5)
    with pytest.raises(ValueError):
        cf_disk_verdict([lam], 0.5)


@pytest.mark.parametrize("lam,region", [(complex(1.7e308, 1.7e308), "D"),
                                        (complex(-1.7e308, 1.7e308), "A")])
def test_modulus_past_the_float_range_is_infinite(lam, region):
    # abs(w) and abs(w - c) raise OverflowError here; the modulus is inf,
    # outside the disk and past the theorem's 1/(1-alpha)
    assert classify_region(lam, 0.5) == region
    assert cf_disk_verdict([lam], 0.5).stable
    assert cf_stable_theorem([lam], 0.5).tags == ("1",)


@given(
    re=st.floats(-20.0, 20.0),
    im=st.floats(-20.0, 20.0),
    alpha=st.floats(0.05, 0.95),
)
@settings(max_examples=300)
@example(re=2.0, im=5e-324, alpha=0.5)
@example(re=2.0, im=-5e-324, alpha=0.5)
def test_region_partition_is_total_and_consistent(re, im, alpha):
    lam = complex(re, im)
    region = classify_region(lam, alpha)
    cone = caputo_stable([lam], alpha).stable
    disk = cf_disk_verdict([lam], alpha).stable
    expected = {(True, True): "A", (True, False): "B",
                (False, False): "C", (False, True): "D"}[(cone, disk)]
    assert region == expected


# ---------------------------------------------------------------------------
# closed-form condition table


def _spectrum(params, kind):
    point = {eq.kind: eq.point for eq in equilibria(params)}[kind]
    return cubic_roots(characteristic_cubic(jacobian(params, point)))


def test_table1_origin_row_tracks_order():
    rows_high = dict(table1_conditions(EX1, 0.98, "E0", _spectrum(EX1, "E0")))
    assert rows_high["cf: a1 > 1/(1-alpha)"] is False  # 3 < 50
    rows_low = dict(table1_conditions(EX1, 0.66, "E0", _spectrum(EX1, "E0")))
    assert rows_low["cf: a1 > 1/(1-alpha)"] is True  # 3 > 2.94


def test_table1_e2_chain_example1():
    rows = dict(table1_conditions(EX1, 0.98, "E2", _spectrum(EX1, "E2")))
    assert rows["caputo: (a5-1)/a6 < a1/a2"] is True  # 1/3 < 6
    assert rows["caputo: a1/a2 < (a3-1)/a4"] is False  # 6 > 1
    # raw audit booleans; the operative verdict still comes from the spectrum


def test_table1_e4_rows_exist():
    rows = table1_conditions(EX2, 0.6, "E4", _spectrum(EX2, "E4"))
    names = [name for name, _ in rows]
    assert any("routh-hurwitz" in n for n in names)
    assert any("characteristic roots" in n for n in names)


E4_ROWS = [
    "caputo (routh-hurwitz): a6 > a2*a4*(a3-1)*(w + a2*(a3-1)) / (w*(a2+a4) + a2*a4*(a3-1))",
    "cf: all characteristic roots > 1/(1-alpha)",
]


@pytest.mark.parametrize("name,alpha,expected", [
    ("example1", 0.98, [True, False]),
    ("example1", 0.66, [True, False]),
    ("example2", 0.6, [True, False]),
    ("example3", 0.4, [True, False]),
])
def test_table1_e4_rows_at_published_orders(name, alpha, expected):
    params = PRESETS[name].params
    rows = table1_conditions(params, alpha, "E4", _spectrum(params, "E4"))
    assert rows == list(zip(E4_ROWS, expected))


def test_table1_e4_cf_row_reads_the_given_spectrum():
    # 1/(1-0.5) = 2: every real part above it passes, whatever E4's own roots are
    rows = dict(table1_conditions(EX2, 0.5, "E4", [complex(2.5, 1.0), complex(2.5, -1.0), 3.0]))
    assert rows[E4_ROWS[1]] is True
    assert dict(table1_conditions(EX2, 0.5, "E4", [2.5, 2.0, 3.0]))[E4_ROWS[1]] is False
    with pytest.raises(ValueError, match="finite"):
        table1_conditions(EX2, 0.5, "E4", [2.5, complex(math.nan, 0.0), 3.0])


def test_table1_rejects_unknown_kind():
    with pytest.raises(ValueError):
        table1_conditions(EX1, 0.5, "E9", [])


# ---------------------------------------------------------------------------
# full reports


def _stable_kinds(reports, which):
    out = []
    for rep in reports:
        verdict = getattr(rep, which)
        if verdict is not None and verdict.stable:
            out.append(rep.equilibrium.kind)
    return out


def test_report_example1_high_order():
    reports = equilibrium_report(EX1, 0.98)
    assert _stable_kinds(reports, "caputo") == ["E2"]
    assert _stable_kinds(reports, "cf_theorem") == ["E2"]


def test_report_example2():
    reports = equilibrium_report(EX2, 0.6)
    assert _stable_kinds(reports, "caputo") == ["E4"]
    assert _stable_kinds(reports, "cf_theorem") == ["E0", "E1", "E3", "E4"]


def test_report_example3_repaired():
    reports = equilibrium_report(EX3, 0.4)
    assert _stable_kinds(reports, "caputo") == ["E2"]
    assert _stable_kinds(reports, "cf_theorem") == ["E0", "E1", "E2", "E3", "E4"]


def test_report_structure_and_regions():
    # every preset at its own orders and at 0.5
    for params, alpha in [(p.params, a) for p in PRESETS.values() for a in (*p.alphas, 0.5)]:
        reports = equilibrium_report(params, alpha)
        assert [rep.equilibrium.kind for rep in reports] == ["E0", "E1", "E2", "E3", "E4"]
        for rep in reports:
            # the report runs the criteria itself; it must agree with the public functions
            assert rep.caputo == caputo_stable(rep.spectrum, alpha)
            assert rep.cf_theorem == cf_stable_theorem(rep.spectrum, alpha)
            assert rep.cf_disk == cf_disk_verdict(rep.spectrum, alpha)
            assert rep.regions == tuple(classify_region(w, alpha) for w in rep.spectrum.eigenvalues)
            assert len(rep.spectrum.eigenvalues) == 3
            assert rep.regions is not None and len(rep.regions) == 3
            assert set(rep.regions) <= {"A", "B", "C", "D"}
            assert rep.table1
            # disk stability is implied by any theorem pass, per eigenvalue
            for tag, region in zip(rep.cf_theorem.tags, rep.regions):
                if tag is not None:
                    assert region in ("A", "D")


def test_reports_are_hashable_values():
    for alpha in (0.6, 1.0):
        first, second = equilibrium_report(EX2, alpha), equilibrium_report(EX2, alpha)
        assert first == second
        assert [hash(rep) for rep in first] == [hash(rep) for rep in second]


def test_report_at_order_one_marks_cf_not_applicable():
    reports = equilibrium_report(EX1, 1.0)
    for rep in reports:
        assert rep.cf_theorem is None
        assert rep.cf_disk is None
        assert rep.regions is None
        assert rep.table1 == ()
    assert _stable_kinds(reports, "caputo") == ["E2"]


def test_report_solves_each_spectrum_once(monkeypatch):
    public = ("caputo_stable", "cf_stable_theorem", "cf_disk_verdict", "classify_region")
    calls = dict.fromkeys(("equilibria", "_jacobian_spectrum", "check_order", "_eigs",
                           "table1_conditions", *public), 0)

    def counted(name):
        original = getattr(fraclv.stability, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(fraclv.stability, name, counted(name))
    reports = equilibrium_report(EX2, 0.6)
    # one float-level solve per equilibrium, one order check per report and
    # one finiteness check per spectrum, which E4's CF row reuses; the
    # verdicts and Table 1s come from the private tests and _table1, not from
    # the public functions, and the regions from the verdicts' tags
    assert calls == dict(equilibria=1, _jacobian_spectrum=5, check_order=1, _eigs=5,
                         table1_conditions=0, **dict.fromkeys(public, 0))
    # the E4 audit rows match the table on E4's spectrum, solved apart
    assert list(reports[4].table1) == table1_conditions(EX2, 0.6, "E4", _spectrum(EX2, "E4"))


#: An eigenvalue: any finite complex number, or a point on a boundary of the
#: tests at alpha = 0.5, where 1/(1-alpha) = 2c = 2 (condition 1's excluded
#: point and the circle's right end) and 0 is the circle's left end.
EIGENVALUE = st.complex_numbers(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, 2.0, complex(2.0, 5e-324), complex(2.0, -5e-324), complex(1.7e308, 1.7e308)])


@given(alpha=st.floats(0.0, 1.0, exclude_min=True), eigs=st.tuples(*[EIGENVALUE] * 3))
@settings(max_examples=200)
@example(alpha=0.6, eigs=(1.0 / (1.0 - 0.6), complex(-1.0, 1.0), complex(-1.0, -1.0)))
@example(alpha=0.6, eigs=(0.0, 2.0 * (1.0 / (2.0 * (1.0 - 0.6))), -1.0))
@example(alpha=0.5, eigs=(complex(2.0, 5e-324), complex(2.0, -5e-324), -1.0))
@example(alpha=math.nextafter(1.0, 0.0), eigs=(1.0 / (1.0 - math.nextafter(1.0, 0.0)),
                                                complex(-1.0, 1e16), 4e15))
@example(alpha=1.0, eigs=(0.0, complex(-1.0, 1.0), 2.0))
# the cone's edge at alpha = 0.5, and |Im(w)| at and just past c = 1 (condition 4)
@example(alpha=0.5, eigs=(complex(1.0, 1.0), complex(0.5, -1.0), complex(0.5, math.nextafter(1.0, 2.0))))
def test_report_computes_its_order_constants_as_the_public_functions_do(alpha, eigs):
    # the report computes each order constant once per call and the public
    # functions once per verdict; on the same spectrum the results are equal
    spectrum = dataclasses.replace(_spectrum(EX2, "E4"), eigenvalues=tuple(map(complex, eigs)))
    with mock.patch.object(fraclv.stability, "_jacobian_spectrum", lambda rows: spectrum):
        reports = equilibrium_report(EX2, alpha)
    for rep in reports:
        assert rep.caputo is caputo_stable(spectrum, alpha)
        if alpha == 1.0:
            assert (rep.cf_theorem, rep.cf_disk, rep.table1, rep.regions) == (None, None, (), None)
            continue
        assert rep.cf_theorem is cf_stable_theorem(spectrum, alpha)
        assert rep.cf_disk is cf_disk_verdict(spectrum, alpha)
        assert list(rep.table1) == table1_conditions(EX2, alpha, rep.equilibrium.kind, spectrum)
        assert rep.regions == tuple(classify_region(w, alpha) for w in eigs)
    if alpha < 1.0:  # condition 4 compares |Im(w)| with c, which is (1/(1-alpha))/2 exactly
        assert 1.0 / (2.0 * (1.0 - alpha)) == (1.0 / (1.0 - alpha)) / 2.0


def test_spectrum_like_inputs_accepted():
    spec = cubic_roots(characteristic_cubic(jacobian(EX1, [0.0, 0.0, 0.0])))
    assert caputo_stable(spec, 0.5).stable == caputo_stable(list(spec.eigenvalues), 0.5).stable
