"""The README's library example must run as written, and its CSV headers must be the emitted ones."""

import dataclasses
import re
from pathlib import Path

from ctcsim.experiments import ResultTable
from ctcsim.report import emit_case_v_csv, emit_csv, emit_figure_csv, emit_trace_csv
from ctcsim.sim import RateFunction, RateKind, SimConfig, run

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.DOTALL)
    assert blocks, "README has no python example"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out.strip()


def test_readme_names_only_scripts_that_exist():
    named = set(re.findall(r"python (scripts/\S+?\.py)", README.read_text(encoding="utf-8")))
    assert "scripts/phases.py" in named
    assert [name for name in sorted(named) if not (README.parent / name).is_file()] == []


def _empty_trace():
    rate = RateFunction(RateKind.CONSTANT, 1.0)
    trace = run(SimConfig(epochs=1, self_rate_fn=rate, neighbor_rate_fn=rate))
    columns = [f.name for f in dataclasses.fields(trace) if f.name != "config"]
    return dataclasses.replace(trace, **{name: getattr(trace, name)[:0] for name in columns})


def test_readme_csv_headers_match_the_writers(tmp_path):
    lines = README.read_text(encoding="utf-8").splitlines()
    documented = [line for line in lines if line.startswith(("case_id,", "epoch,node_id,", "algorithm,"))]
    emitted = []
    for writer, empty in [
        (emit_csv, ResultTable(rows=())),
        (emit_trace_csv, _empty_trace()),
        (emit_figure_csv, []),
        (emit_case_v_csv, []),
    ]:
        dest = tmp_path / f"{writer.__name__}.csv"
        writer(empty, dest)
        emitted.append(dest.read_text(encoding="utf-8").removesuffix("\n"))
    assert documented == emitted
