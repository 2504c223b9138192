"""Golden digests of the analysis layers' outputs.

Each digest is the sha256 of ``repr`` of one batch of results: the
``equilibrium_report`` of seeded parameter sets around the three presets
(each coefficient times 1 + u, u uniform in [-0.1, 0.1]) at four orders, and
``classify_region`` on a grid of the plane at four orders.  ``repr`` spells
out every float to the bit and every tag, Table 1 row and region, so a change
that moves any output of the model, spectral or stability layers changes a
digest.

A report is hashed as a plain rendering of its values: the equilibrium, the
spectrum, ``(operator, stable, tags)`` or None for each verdict, the Table 1
rows and the regions.  It reads only names that verdicts have had since they
stored their tags as a row, not the verdict type's own ``repr``, so the
digest was captured on the code before verdicts became shared values and
pins that the change moved no report value.  The spectrum is rendered the
same way, as the text of its ``repr`` from when the cubic terms sat in a
separate ``CubicAnalysis`` value, which every float's repr fills in bit for
bit.  ``REGION_DIGEST`` was captured before the value types became slotted
and the constant rows shared.
"""

import hashlib
import random

from fraclv.model import ModelParams
from fraclv.presets import PRESETS
from fraclv.stability import classify_region, equilibrium_report

REPORT_ORDERS = (0.4, 0.66, 0.98, 1.0)
GRID_ORDERS = (0.3, 0.5, 0.7, 0.9)
SAMPLES_PER_PRESET = 25

REPORT_DIGEST = "87f2135afd526ea4d03a52bddcb6c465f5eef4d4ab7d20adecaa5d5328cee27c"
REGION_DIGEST = "59f1b1d858c20c757e76e18b8fcaa0eb74458d34caf847b27f08bd6888122d4d"


def _param_sets():
    rng = random.Random(2019)
    return [ModelParams(*(v * (1.0 + rng.uniform(-0.1, 0.1)) for v in preset.params.as_tuple()))
            for preset in PRESETS.values() for _ in range(SAMPLES_PER_PRESET)]


def _digest(results) -> str:
    return hashlib.sha256(repr(results).encode()).hexdigest()


class _Text(str):
    """Text whose ``repr`` is itself, so that it hashes as the value it spells."""

    def __repr__(self) -> str:
        return str(self)


def _spectrum_text(spec) -> _Text:
    return _Text(f"Spectrum(eigenvalues={spec.eigenvalues!r}, analysis=CubicAnalysis("
                 f"p={spec.p!r}, q={spec.q!r}, delta={spec.delta!r}, branch={spec.branch!r}))")


def _rendering(rep) -> tuple:
    verdicts = tuple(None if v is None else (v.operator, v.stable, v.tags)
                     for v in (rep.caputo, rep.cf_theorem, rep.cf_disk))
    return (rep.equilibrium, _spectrum_text(rep.spectrum), verdicts, rep.table1, rep.regions)


def report_digest() -> str:
    params = _param_sets()
    return _digest([[[_rendering(rep) for rep in equilibrium_report(p, alpha)] for p in params]
                    for alpha in REPORT_ORDERS])


def region_digest() -> str:
    # Re in [-10, 30] and Im in [-20, 20] in unit steps: the origin, both
    # axes and points on and near the cone edges and disk circles included
    grid = [complex(-10.0 + i, -20.0 + j) for i in range(41) for j in range(41)]
    return _digest([[classify_region(w, alpha) for w in grid] for alpha in GRID_ORDERS])


def test_equilibrium_reports_match_the_golden_digest():
    assert report_digest() == REPORT_DIGEST


def test_region_map_matches_the_golden_digest():
    assert region_digest() == REGION_DIGEST
