"""The README's library example must run as written, and its CSV headers must be the emitted ones."""

import re
from pathlib import Path

from ctcsim.report import CSV_COLUMNS, TRACE_COLUMNS

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.DOTALL)
    assert blocks, "README has no python example"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out.strip()


def test_readme_csv_headers_match_the_writers():
    lines = README.read_text(encoding="utf-8").splitlines()
    documented = [line for line in lines if line.startswith(("case_id,", "epoch,node_id,"))]
    assert documented == [",".join(CSV_COLUMNS), ",".join(TRACE_COLUMNS)]
