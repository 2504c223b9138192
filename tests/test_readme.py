"""The README's library example runs against the package's top-level names."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _library_example() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_library_example_runs(capsys):
    code = _library_example()
    assert "from fraclv import" in code
    exec(compile(code, str(README), "exec"), {"__name__": "readme_example"})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6  # the final state, then one line per equilibrium E0..E4
    assert [line.split()[0] for line in lines[1:]] == ["E0", "E1", "E2", "E3", "E4"]
