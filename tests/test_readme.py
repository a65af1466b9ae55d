"""README's Library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    [example] = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                           flags=re.MULTILINE | re.DOTALL)
    names = {}
    exec(compile(example, "README.md", "exec"), names)
    report = names["report"]
    assert capsys.readouterr().out.endswith(f"{report.avg} {report.max} {report.chosen_alpha}\n")
