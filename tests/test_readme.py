"""The README's library example runs against the package's top-level names,
and its table of CF verdicts is the one the stability layer gives."""

import pathlib
import re

from fraclv.presets import PRESETS, TABLE2
from fraclv.stability import caputo_stable, equilibrium_report

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _section(title: str) -> str:
    text = README.read_text(encoding="utf-8")
    return text.split(f"## {title}\n", 1)[1].split("\n## ", 1)[0]


def _library_example() -> str:
    return re.search(r"```python\n(.*?)```", _section("Library example"), re.DOTALL).group(1)


def test_readme_library_example_runs(capsys):
    code = _library_example()
    assert "from fraclv import" in code
    exec(compile(code, str(README), "exec"), {"__name__": "readme_example"})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6  # the final state, then one line per equilibrium E0..E4
    assert [line.split()[0] for line in lines[1:]] == ["E0", "E1", "E2", "E3", "E4"]


def _cf_verdict_table() -> list[str]:
    """One row per preset, published order and equilibrium.  Paper mode tends
    to x' = alpha g as h -> 0, so it shows the classical (Hurwitz) verdict,
    ``caputo_stable`` at order 1, and so the CF verdict where that equals the
    disk verdict."""
    mark = {True: "stable", False: "unstable"}
    lines = ["| preset | alpha | equilibrium | admissible | published CF mark | CF theorem "
             "| CF disk | Hurwitz | paper mode shows the CF verdict |",
             "|---|---|---|---|---|---|---|---|---|"]
    for name, preset in PRESETS.items():
        for alpha in preset.alphas:
            for report in equilibrium_report(preset.params, alpha):
                kind = report.equilibrium.kind
                hurwitz = caputo_stable(report.spectrum, 1.0).stable
                cells = (name, f"{alpha:g}", kind, "yes" if report.equilibrium.admissible else "no",
                         mark[TABLE2[name][kind]["marks"][("cf", alpha)]],
                         mark[report.cf_theorem.stable], mark[report.cf_disk.stable],
                         mark[hurwitz], "yes" if hurwitz == report.cf_disk.stable else "no")
                lines.append("| " + " | ".join(cells) + " |")
    return lines


def test_readme_cf_verdict_table_is_the_stability_layers():
    table = _cf_verdict_table()
    assert len(table) == 2 + 20
    assert [line.rsplit("|", 2)[1].strip() for line in table[2:]].count("no") == 11
    section = _section("Which CF verdicts paper mode can show")
    assert [line for line in section.splitlines() if line.startswith("|")] == table
