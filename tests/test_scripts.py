"""Smoke tests of the repository scripts."""

import json
import re
from pathlib import Path

import pytest
from conftest import load_script

from ctcsim import phases
from ctcsim.experiments import CASE_IDS, case_spec, run_case


def test_calibrate_prints_every_criterion_at_one_seed(capsys):
    # scripts/calibrate.py reproduces docs/calibration.md; it runs the whole
    # grid and `run` on every ctc grid point.
    assert load_script("calibrate").main(["--seeds", "1"]) == 0
    out = capsys.readouterr().out
    assert {f"C{n}" for n in range(4, 8)} <= set(re.findall(r"^C\d", out, flags=re.MULTILINE))
    assert "case IV: 32 rows" in out


def test_calibrate_rejects_fewer_than_one_seed(capsys):
    with pytest.raises(SystemExit) as exit_info:
        load_script("calibrate").main(["--seeds", "0"])
    assert exit_info.value.code == 2
    assert "--seeds must be >= 1, got 0" in capsys.readouterr().err


def test_src_lines_total_is_the_sum_of_the_modules(capsys):
    # scripts/src_lines.py prints each src/ctcsim module's lines and lines of
    # code, then their totals.
    assert load_script("src_lines").main() == 0
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
    assert load_script("record_engine_pins").main([]) == 0
    assert capsys.readouterr().out == Path(__file__).with_name("engine_pins.json").read_text(encoding="utf-8")


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
    assert load_script("phases").main(argv) == status
    header, *rows, printed = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert header == ["phase", "wall_s", "minflt", "maxrss_MiB"]
    assert [row[0] for row in rows] == [*phases.times, "rest"]
    for _, seconds, faults, peak in rows:
        assert float(seconds) > 0 and int(faults) >= 0 and float(peak) > 0
    # A high-water mark never falls, and `rest` reads it at the end.
    assert float(rows[-1][3]) == max(float(row[3]) for row in rows)
    assert dict(zip(printed[::2], map(int, printed[1::2]))) == phases.counts == counts


@pytest.mark.parametrize(("flag", "status", "stream"), [("--help", 0, "out"), ("--bogus", 2, "err")])
def test_phases_passes_argparse_text_and_status_through(flag, status, stream, capsys):
    # argparse exits before the command runs: `--help` prints the usage and
    # help to stdout and exits 0, a bad flag prints the usage and the error
    # to stderr and exits 2. Either way no phase table follows.
    with pytest.raises(SystemExit) as exit_info:
        load_script("phases").main(["sim", "run", flag])
    assert exit_info.value.code == status
    printed = capsys.readouterr()
    assert getattr(printed, stream).startswith("usage: ctcsim sim run [-h] --config CONFIG")
    assert "wall_s" not in printed.out


def test_calibration_doc_measured_outcomes_are_the_criteria_at_ten_seeds():
    # docs/calibration.md "Measured outcomes" is copied by hand from
    # scripts/calibrate.py; each number it prints must be what
    # scripts/criteria.py gives at seeds 0..9, formatted as it prints it.
    criteria = load_script("criteria")
    tables = {case_id: run_case(case_spec(case_id)) for case_id in CASE_IDS}
    means = criteria.seed_means(tables)
    doc = (Path(__file__).resolve().parents[1] / "docs" / "calibration.md").read_text(encoding="utf-8")
    section = doc[doc.index("## Measured outcomes (seeds 0..9)") :]
    text = " ".join(section.split())

    table = re.findall(r"^\| (\d+) \| (\d\.\d{4}) \| (\d\.\d{4}) \|$", section, flags=re.MULTILINE)
    assert [int(v) for v, _, _ in table] == [500, 600, 800, 1000, 1200, 1400, 1600]
    assert [(f"{means['I']['ctc'][int(v)]:.4f}", f"{means['I']['dsr'][int(v)]:.4f}") for v, *_ in table] == [
        (ctc, dsr) for _, ctc, dsr in table
    ]

    mean, band, rho, _, gap = criteria.case_i(means)
    (iv_band, _), (dsr_iv_band, _) = criteria.case_iv(means).values()
    assert f"{iv_band:.4f}" == f"{dsr_iv_band:.4f}"
    (ctc_i, ctc_ii), (dsr_i, dsr_ii) = criteria.case_iii_margins(means).values()
    smoothed, _, _, violations, low_gap = criteria.derived(tables)
    ctc_fit, dsr_fit = ([(b.lower, s) for b, s in smoothed[a]] for a in ("ctc", "dsr"))
    assert all(s == 0 for _, s in ctc_fit)
    dsr_zero = [lower for lower, s in dsr_fit if s == 0]
    assert [lower for lower, _ in dsr_fit[: len(dsr_zero)]] == dsr_zero
    _, (worst, _) = criteria.classifier_margins(tables)
    for claim in (
        f"Case I ctc mean over v = 800..1600: **{mean:.4f}** (target 0.15..0.30); "
        f"band **{band:.4f}** (target ≤ 0.10).",
        f"Case I dsr Spearman over v ≥ 500: **{rho:.4f}** (target ≥ 0.95); gap between "
        f"policies at v = 500: **{gap:.4f}** (target ≤ 0.03).",
        f"Case IV band over the full sweep: **{iv_band:.4f}** both policies.",
        f"ctc **{ctc_i:+.4f} / {ctc_ii:+.4f}**, dsr **{dsr_i:+.4f} / {dsr_ii:+.4f}** (targets > 0).",
        f"cooperative curve identically 0 across buckets {ctc_fit[0][0]:.2f}–{ctc_fit[-1][0]:.2f};",
        f"baseline curve 0 through bucket {dsr_zero[-1]:.2f}, rising to {dsr_fit[-1][1]:.3f} "
        f"at bucket {dsr_fit[-1][0]:.2f};",
        f"Worst cooperative window ratio on the grid: **{worst:.4f}** vs threshold 0.75.",
    ):
        assert claim in text
    # "Shared-bucket dominance holds everywhere; both algorithms populate the
    # 0.10 bucket with identical (zero) means."
    assert "dominance holds everywhere" in text and not violations
    assert "0.10 bucket with identical (zero) means" in text and low_gap == 0
