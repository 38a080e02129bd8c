"""Smoke tests of the repository scripts."""

import importlib.util
import json
import re
from pathlib import Path

import pytest

from ctcsim import phases

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_calibrate_prints_every_criterion_at_one_seed(capsys):
    # scripts/calibrate.py reproduces docs/calibration.md; it runs the whole
    # grid and `run` on every ctc grid point.
    assert _load("calibrate").main(["--seeds", "1"]) == 0
    out = capsys.readouterr().out
    assert {f"C{n}" for n in range(4, 8)} <= set(re.findall(r"^C\d", out, flags=re.MULTILINE))
    assert "case IV: 32 rows" in out


def test_calibrate_rejects_fewer_than_one_seed(capsys):
    with pytest.raises(SystemExit) as exit_info:
        _load("calibrate").main(["--seeds", "0"])
    assert exit_info.value.code == 2
    assert "--seeds must be >= 1, got 0" in capsys.readouterr().err


def test_src_lines_total_is_the_sum_of_the_modules(capsys):
    # scripts/src_lines.py prints each src/ctcsim module's lines and lines of
    # code, then their totals.
    assert _load("src_lines").main() == 0
    header, *modules, total = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert header == ["module", "lines", "code"] and total[0] == "total"
    assert {row[0] for row in modules} >= {"sim.py", "experiments.py", "report.py"}
    for column in (1, 2):
        assert int(total[column]) == sum(int(row[column]) for row in modules)
    assert all(int(row[2]) < int(row[1]) for row in modules)


def test_record_engine_pins_prints_the_recorded_digests(capsys):
    # scripts/record_engine_pins.py runs each config of tests/engine_pins.json
    # through `sim run` and prints the file with the digests it got, so on a
    # tree that writes the recorded bytes it prints the file as it is.
    assert _load("record_engine_pins").main([]) == 0
    assert capsys.readouterr().out == (SCRIPTS.parent / "tests" / "engine_pins.json").read_text(encoding="utf-8")


GRID_COUNTS = {"rows": 1280, "realized": 87, "binomial": 870, "ctc_loop_epochs": 357}
FIFTY_EPOCH_COUNTS = {"engine_blocks": 1, "ctc_loop_epochs": 0, "binomial": 1, "trace_blocks": 2, "trace_texts": 2}
SIM_RUN = ["sim", "run", "--config", "config.json", "--out", "trace.csv"]


@pytest.mark.parametrize(
    ("argv", "config", "status", "counts"),
    [
        (["exp", "all", "--seeds", "10", "--out-dir", "out"], None, 0, GRID_COUNTS),
        (SIM_RUN, {"epochs": 50, "neighbor_count": 3}, 0, FIFTY_EPOCH_COUNTS),
        (SIM_RUN, {"epochs": 0}, 0, {}),
        (SIM_RUN, None, 1, {}),
    ],
    ids=["exp_all", "sim_run_50_epochs", "sim_run_0_epochs", "sim_run_missing_config"],
)
def test_phases_prints_every_phase_then_rest_then_every_count(
    argv, config, status, counts, tmp_path, monkeypatch, capsys
):
    # scripts/phases.py runs one ctcsim command and prints each phase the
    # clock timed, in the order it first ran, then `rest`, the command
    # outside every phase, then the clock's counts by their own names; it
    # exits with the command's status. It resets the clock first, so a
    # phase or count an earlier command left on it is not in its own. The
    # grid's counts are those of `exp all` at ten seeds (see
    # tests/test_cli.py). 50 epochs are one engine block, which reuses
    # none; of 4 short lines they make two writer blocks, since blocks end
    # at epoch 10, and each block is one text. No packet arrives, so every
    # queue starts each epoch empty and the `ctc` loop runs no epoch. A run
    # of no epochs makes no block and so times no phase.
    monkeypatch.chdir(tmp_path)
    if config is not None:
        Path("config.json").write_text(json.dumps(config), encoding="utf-8")
    with phases.span("stale"):
        phases.count("stale")
    assert _load("phases").main(argv) == status
    header, *rows, printed = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert header == ["phase", "wall_s", "minflt", "maxrss_MiB"]
    assert [row[0] for row in rows] == [*phases.times, "rest"]
    for _, seconds, faults, peak in rows:
        assert float(seconds) > 0 and int(faults) >= 0 and float(peak) > 0
    # A high-water mark never falls, and `rest` reads it at the end.
    assert float(rows[-1][3]) == max(float(row[3]) for row in rows)
    assert dict(zip(printed[::2], map(int, printed[1::2]))) == phases.counts == counts
