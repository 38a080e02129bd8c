"""Smoke tests of the repository scripts."""

import importlib.util
import re
from pathlib import Path

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


def test_trace_phases_prints_time_and_faults_of_run_and_emit(tmp_path, capsys):
    # scripts/trace_phases.py times the engine's blocks (`sim.run_blocks`)
    # and `emit_trace_csv` for one config file as `sim run` streams them,
    # each summed over the blocks, with the peak resident set after the
    # engine's last block and at the end, then prints the phase clock's
    # counts of the engine's blocks, of those that reused the schedule of
    # the block before, of the writer's blocks and texts, and of the epochs
    # the `ctc` schedule ran through its loop. 50 epochs are one engine
    # block, which reuses none; of 4 short lines they make two writer
    # blocks, since blocks end at epoch 10, and each block is one text. No
    # packet arrives, so every queue starts each epoch empty and the loop
    # runs no epoch. The script resets the clock, so its counts are the
    # same in every run.
    config = tmp_path / "config.json"
    config.write_text('{"epochs": 50, "neighbor_count": 3}', encoding="utf-8")
    for _ in range(2):
        assert _load("trace_phases").main([str(config)]) == 0
        header, *rows, counts = [line.split() for line in capsys.readouterr().out.splitlines()]
        assert header == ["phase", "wall_s", "minflt", "maxrss_MiB"]
        assert [row[0] for row in rows] == ["sim.run_blocks", "emit_trace_csv"]
        for _, seconds, faults, _ in rows:
            assert float(seconds) > 0 and int(faults) >= 0
        # A high-water mark never falls.
        run_peak, emit_peak = (float(row[3]) for row in rows)
        assert emit_peak >= run_peak > 0
        assert counts == ["engine", "1", "reused", "0", "blocks", "2", "texts", "2", "ctc_loop_epochs", "0"]


def test_grid_phases_prints_time_and_faults_of_each_phase_and_the_grid_counts(capsys):
    # scripts/grid_phases.py times the phases of `exp all` at ten seeds. The
    # grid has 1,280 rows; 87 of its 128 point-rows are realized, each seed
    # of each by one `binomial` call, and the `ctc` schedules run 357 of
    # their 6,400 epochs through their loop. The script resets the phase
    # clock, so the counts an earlier command left on it (here, a whole
    # grid's) are not in its own.
    phases.count("rows", 1280)
    phases.count("binomial", 870)
    phases.count("ctc_loop_epochs", 357)
    assert _load("grid_phases").main([]) == 0
    header, *rows, counts = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert header == ["phase", "wall_s", "minflt"]
    assert [row[0] for row in rows] == ["schedule", "realize", "summarize", "emit", "total"]
    for _, seconds, faults in rows:
        assert float(seconds) > 0 and int(faults) >= 0
    assert float(rows[-1][1]) >= sum(float(row[1]) for row in rows[:-1])
    assert counts == ["rows", "1280", "realized", "87", "binomial", "870", "ctc_loop_epochs", "357"]
