"""README's Library example runs as written, and every function it presents
as exported is."""

import re
from pathlib import Path

import infinisel

README = Path(__file__).resolve().parents[1] / "README.md"


def library_section():
    text = README.read_text(encoding="utf-8")
    return text[text.index("\n## Library\n"):]


def test_library_example_runs(capsys):
    [example] = re.findall(r"^```python\n(.*?)^```$", library_section(),
                           flags=re.MULTILINE | re.DOTALL)
    names = {}
    exec(compile(example, "README.md", "exec"), names)
    report = names["report"]
    assert capsys.readouterr().out.endswith(f"{report.avg} {report.max} {report.chosen_alpha}\n")


def test_presented_exports_are_exported():
    # The example's import line, and the "Lower-level pieces" list, which
    # ends at its sentence's full stop.
    section = library_section()
    [imported] = re.findall(r"^from infinisel import (.*)$", section, flags=re.MULTILINE)
    listed = re.search(r"^Lower-level pieces are exported too: (.*?)\.\s", section,
                       flags=re.MULTILINE | re.DOTALL).group(1)
    names = imported.split(", ") + re.findall(r"`(\w+)`", listed)
    assert len(names) > 15
    for name in names:
        assert name in infinisel.__all__, name
        assert callable(getattr(infinisel, name)), name
