"""Command-line interface tests, run in-process through main(argv)."""

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import re
import signal
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctcsim import cli, experiments, phases, report, sim, utilization
from ctcsim.cli import main
from ctcsim.experiments import MAX_SEEDS
from ctcsim.model import MAX_K
from ctcsim.report import _TRACE_CHUNK_BYTES, CSV_COLUMNS

RECORDED_SHA256 = Path(__file__).resolve().parents[1] / "perfbench" / "expected_sha256.json"


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


# ---------------------------------------------------------------------------
# model


def test_model_eval_prints_labeled_values(capsys):
    code, out, err = run_cli("model", "eval", "--p", "0.5", "--k", "3", "--data-rate", "1.0", capsys=capsys)
    assert code == 0
    assert err == ""
    lines = dict(line.split(None, 1) for line in out.strip().split("\n"))
    assert lines["p_self"] == "0.125000"
    assert lines["p_neighbor"] == "0.062500"
    assert lines["t_pp"] == "0.875000"
    assert lines["t_np"] == "0.437500"
    assert lines["t_i"] == "1.312500"
    assert lines["throughput"] == "1.000000"


def test_model_eval_rejects_bad_probability(capsys):
    code, out, err = run_cli("model", "eval", "--p", "1.5", "--k", "3", "--data-rate", "1.0", capsys=capsys)
    assert code == 2
    assert err.startswith("error:")


def test_model_util_prints_both_forms(capsys):
    code, out, err = run_cli("model", "util", "--counters", "4,6,12", "--times", "2,3", capsys=capsys)
    assert code == 0
    lines = dict(line.split(None, 1) for line in out.strip().split("\n"))
    assert lines["utilization"] == "1.000000"
    assert lines["utilization_factored"] == "1.000000"


def test_model_util_rejects_malformed_counters(capsys):
    code, _, err = run_cli("model", "util", "--counters", "4,6", "--times", "2,3", capsys=capsys)
    assert code == 2
    assert "--counters" in err


def test_model_util_rejects_output_exceeding_input(capsys):
    code, _, err = run_cli("model", "util", "--counters", "4,13,12", "--times", "2,3", capsys=capsys)
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv, name",
    [
        (("util", "--counters", "1,1,1", "--times", "nan,1"), "--times"),
        (("util", "--counters", "1,1,1", "--times", "inf,1"), "--times"),
        (("util", "--counters", "inf,1,1", "--times", "1,1"), "--counters"),
        (("eval", "--p", "0.1", "--k", "3", "--data-rate", "inf"), "data_rate"),
    ],
)
def test_model_rejects_non_finite_input_by_name(argv, name, capsys):
    code, out, err = run_cli("model", *argv, capsys=capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert name in err


def test_model_eval_runs_at_the_largest_k(capsys):
    code, out, err = run_cli("model", "eval", "--p", "0.5", "--k", str(MAX_K), "--data-rate", "1", capsys=capsys)
    assert code == 0
    assert err == ""
    assert "throughput  1.000000" in out


@pytest.mark.parametrize("k", [MAX_K + 1, 10**12, 0])
def test_model_eval_rejects_k_outside_its_bound_naming_k(k, capsys):
    code, out, err = run_cli("model", "eval", "--p", "0.5", "--k", str(k), "--data-rate", "1", capsys=capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: --k ")


@pytest.mark.parametrize(
    "counters, times, name",
    [
        ("1e101,1,1", "1,1", "--counters k_pout"),
        ("1,1,2e100", "1,1", "--counters k_nin"),
        ("1,1,1", "1e-310,1", "--times t_pp"),
        ("1,1,1", "1,1e101", "--times t_np"),
        ("4,6,12", "0,3", "--times t_pp"),
    ],
)
def test_model_util_rejects_values_out_of_range_by_name(counters, times, name, capsys):
    code, out, err = run_cli("model", "util", "--counters", counters, "--times", times, capsys=capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {name} ")


def test_model_util_accepts_the_range_edges(capsys):
    code, out, err = run_cli("model", "util", "--counters", "1e100,1e100,1e100", "--times", "1e100,1e-100", capsys=capsys)
    assert code == 0
    assert out == "utilization           1.000000\nutilization_factored  1.000000\n"


def test_model_util_forms_disagreeing_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(utilization, "utilization_node_factored", lambda counters, times: 1.5)
    code, out, err = run_cli("model", "util", "--counters", "4,6,12", "--times", "2,3", capsys=capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("error: utilization forms disagree")


# In-range values for each model flag, and odd values for any of them:
# numbers of every size, non-finite values, and text that is not a number.
_ODD_TEXT = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-(10**20), 10**20).map(str),
    st.sampled_from(["0", "5e-324", "1e-310", "1e-200", "1e200", "1e308", "1e400", "-1e400", "-0", "nan", "-inf"]),
    st.sampled_from(["", "x", "0x10", "1_0", " 2", "1,2", "1,2,3,4"]),
)
_MODEL_FLAGS = {
    "eval": {
        "--p": st.floats(0, 1).map(repr),
        "--k": st.one_of(st.integers(1, 100), st.just(MAX_K)).map(str),
        "--data-rate": st.floats(1e-3, 1e6).map(repr),
    },
    "util": {
        "--counters": st.lists(st.integers(0, 10**6), min_size=3, max_size=3).map(lambda c: ",".join(map(str, c))),
        "--times": st.lists(st.floats(1e-100, 1e100), min_size=2, max_size=2).map(lambda t: ",".join(map(repr, t))),
    },
}
_ODD_FLAG_VALUE = {
    "--k": st.one_of(
        st.integers(-(10**13), 10**13).map(str),
        st.sampled_from(["0", "-1", str(MAX_K + 1), str(10**12), str(2**64), "1.5", "1e3", "", "x"]),
    ),
    # Mostly the right count of values, each of them odd or in range.
    "--counters": st.one_of(
        st.lists(st.one_of(_ODD_TEXT, st.integers(0, 9).map(str)), min_size=3, max_size=3).map(",".join),
        st.lists(_ODD_TEXT, min_size=1, max_size=4).map(",".join),
    ),
    "--times": st.one_of(
        st.lists(st.one_of(_ODD_TEXT, st.just("1.0")), min_size=2, max_size=2).map(",".join),
        st.lists(_ODD_TEXT, min_size=1, max_size=3).map(",".join),
    ),
}


@st.composite
def _model_argv(draw):
    """`model eval` or `model util` argv, in range but for at most one flag."""
    command = draw(st.sampled_from(sorted(_MODEL_FLAGS)))
    flags = _MODEL_FLAGS[command]
    values = {flag: draw(strategy) for flag, strategy in flags.items()}
    if draw(st.booleans()):
        flag = draw(st.sampled_from(sorted(flags)))
        values[flag] = draw(_ODD_FLAG_VALUE.get(flag, _ODD_TEXT))
    return ["model", command, *(f"{flag}={value}" for flag, value in values.items())]


class _Expired(Exception):
    """Raised by the timer; `main` does not catch it."""


@contextlib.contextmanager
def _time_limit(seconds):
    def expire(signum, frame):
        raise _Expired(f"no exit within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@settings(max_examples=200, deadline=None)
@given(argv=_model_argv())
def test_every_model_call_exits_0_or_2_without_traceback(argv):
    # Any argv either computes or is rejected as input, promptly; never a
    # hang, a failed identity or an uncaught Python error.
    out, err = io.StringIO(), io.StringIO()
    with _time_limit(2.0), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects malformed argv itself
            code = exc.code
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()
    assert (code == 0) == (err.getvalue() == "")


# ---------------------------------------------------------------------------
# sim run


def _write_config(tmp_path, **overrides):
    raw = {
        "epochs": 3,
        "base_drop_prob": 0.0,
        "neighbor_rate_fn": "linear_decreasing:2000:2000",
    }
    raw.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return path


def test_sim_run_writes_trace_and_summary(tmp_path, capsys):
    config = _write_config(tmp_path)
    out_csv = tmp_path / "trace.csv"
    code, out, err = run_cli("sim", "run", "--config", str(config), "--out", str(out_csv), capsys=capsys)
    assert code == 0
    assert err == ""
    # Burst of 2000 against capacity 1000: 1900 forwarded over three epochs,
    # 100 aged out, so the cumulative neighbor drop ratio ends at 0.05.
    assert "drop_ratio_neighbor   0.050000" in out
    assert out_csv.exists()
    header = out_csv.read_text(encoding="utf-8").split("\n")[0]
    assert header.startswith("epoch,node_id,")


def test_sim_run_is_deterministic(tmp_path, capsys):
    config = _write_config(tmp_path, base_drop_prob=0.3, seed=9)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli("sim", "run", "--config", str(config), "--out", str(a), capsys=capsys)[0] == 0
    assert run_cli("sim", "run", "--config", str(config), "--out", str(b), capsys=capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_sim_run_seed_override_changes_losses(tmp_path, capsys):
    config = _write_config(tmp_path, base_drop_prob=0.3)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli("sim", "run", "--config", str(config), "--out", str(a), "--seed", "1", capsys=capsys)
    run_cli("sim", "run", "--config", str(config), "--out", str(b), "--seed", "2", capsys=capsys)
    assert a.read_bytes() != b.read_bytes()


def test_sim_run_unknown_config_key_exits_2(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"epochs": 3, "epohcs": 4}), encoding="utf-8")
    code, _, err = run_cli("sim", "run", "--config", str(config), "--out", str(tmp_path / "t.csv"), capsys=capsys)
    assert code == 2
    assert "epohcs" in err


def test_sim_run_non_finite_config_exits_2_naming_field(tmp_path, capsys):
    config = tmp_path / "bad.json"
    for text, field_name in [
        ('{"epochs": 3, "data_rate": Infinity}', "data_rate"),
        ('{"epochs": 100, "neighbor_rate_fn": "linear_increasing:0:1e307"}', "neighbor_rate_fn"),
        ('{"epochs": 3, "self_rate_fn": "constant:1e19"}', "self_rate_fn"),
        ('{"epochs": 3, "data_rate": 1e19}', "data_rate"),
        ('{"epochs": 3, "data_rate": 1' + "0" * 400 + "}", "data_rate"),
    ]:
        config.write_text(text, encoding="utf-8")
        code, _, err = run_cli("sim", "run", "--config", str(config), "--out", str(tmp_path / "t.csv"), capsys=capsys)
        assert code == 2, text
        assert field_name in err, text


def test_sim_run_missing_config_exits_1(tmp_path, capsys):
    code, _, err = run_cli(
        "sim", "run", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path / "t.csv"), capsys=capsys
    )
    assert code == 1
    assert err.startswith("error:")


def test_sim_run_unwritable_out_exits_1(tmp_path, capsys):
    config = _write_config(tmp_path)
    code, _, err = run_cli(
        "sim", "run", "--config", str(config), "--out", str(tmp_path / "no_dir" / "t.csv"), capsys=capsys
    )
    assert code == 1
    assert err.startswith("error:")


def test_sim_run_invariant_failure_exits_3(tmp_path, capsys, monkeypatch):
    # A conservation break is a program fault, not bad input: force one by
    # putting a packet too many in the neighbor queue column.
    real_schedule = sim._schedule_sweep

    def broken_schedule(configs, *block):
        plan = real_schedule(configs, *block)
        queued_self, queued_nbr = plan.queued
        return dataclasses.replace(plan, queued=(queued_self, queued_nbr + 1))

    monkeypatch.setattr(sim, "_schedule_sweep", broken_schedule)
    config = _write_config(tmp_path)
    code, _, err = run_cli("sim", "run", "--config", str(config), "--out", str(tmp_path / "t.csv"), capsys=capsys)
    assert code == 3
    assert err.startswith("error: neighbor-class conservation violated at the target, epoch 0")


def test_sim_run_names_the_run_epoch_of_a_break_in_a_later_block(tmp_path, capsys, monkeypatch):
    # `sim run` streams the run in blocks; the second starts at epoch
    # `_BLOCK_EPOCHS` with the queues the first left. A packet too many in
    # its neighbor queue from its fourth epoch on is named by the run's
    # epoch, not the block's.
    real_schedule = sim._schedule_sweep

    def broken_in_a_later_block(configs, *block):
        plan = real_schedule(configs, *block)
        if plan.epoch == 0:
            return plan
        queued_self, queued_nbr = plan.queued
        queued_nbr = queued_nbr.copy()
        queued_nbr[:, 3:] += 1
        return dataclasses.replace(plan, queued=(queued_self, queued_nbr))

    monkeypatch.setattr(sim, "_schedule_sweep", broken_in_a_later_block)
    config = _write_config(tmp_path, epochs=sim._BLOCK_EPOCHS + 10, neighbor_rate_fn="constant:30")
    code, _, err = run_cli("sim", "run", "--config", str(config), "--out", str(tmp_path / "t.csv"), capsys=capsys)
    assert code == 3
    assert err == f"error: neighbor-class conservation violated at the target, epoch {sim._BLOCK_EPOCHS + 3}\n"


# `sim run` writes each block of the run as it is made, so its tracemalloc
# peak does not grow with the run: writing to os.devnull (numpy 2.4.6,
# numpy.random imported before, rates 300 and 200, capacity 420, deadline
# 20), `dsr` peaks at 3.59 MB at 10**5 epochs and 3.58 MB at 10**6, `ctc` at
# 3.49 MB at 2 * 10**4 and 3.51 MB at 10**5: the engine's block, the
# writer's build buffer and one group of target lines. Traced, the `ctc`
# epoch loop is ten times slower (16 s at 10**6 epochs), so its longer run
# is five times the shorter, not ten. When `sim run` held the whole run,
# `dsr` peaked at 11.5 MB at 10**5 epochs and 112 MB at 10**6.
_SIM_RUN_PEAK_GROWTH = 1.1


@pytest.mark.parametrize("policy, epochs, longer", [("dsr", 10**5, 10**6), ("ctc", 2 * 10**4, 10**5)])
def test_sim_run_memory_does_not_grow_with_the_run(policy, epochs, longer, tmp_path, capsys):
    def peak(epochs):
        config = _write_config(
            tmp_path, epochs=epochs, neighbor_count=1, data_rate=420.0, policy=policy, deadline_epochs=20,
            energy_budget=6_000_000, self_rate_fn="constant:300", neighbor_rate_fn="constant:200",
        )
        tracemalloc.start()
        try:
            assert main(["sim", "run", "--config", str(config), "--out", os.devnull]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(10)  # numpy imports numpy.random lazily
    short_peak, long_peak = peak(epochs), peak(longer)
    capsys.readouterr()
    assert long_peak < _SIM_RUN_PEAK_GROWTH * short_peak


# The two `sim run` configs of the benchmark (perfbench/workloads.py) at
# seed 0. Each trace spans several writer chunks.
BENCHMARK_TRACES = {
    "trace_wide": {
        "epochs": 5_000,
        "epoch_length": 1.0,
        "neighbor_count": 50,
        "data_rate": 420.0,
        "policy": "ctc",
        "self_rate_fn": "constant:300",
        "neighbor_rate_fn": "linear_increasing:0:0.08",
        "seed": 0,
    },
    "trace_deep": {
        "epochs": 100_000,
        "epoch_length": 1.0,
        "neighbor_count": 1,
        "data_rate": 420.0,
        "policy": "dsr",
        "deadline_epochs": 20,
        "energy_budget": 6_000_000,
        "self_rate_fn": "constant:300",
        "neighbor_rate_fn": "constant:200",
        "seed": 0,
    },
}


@pytest.mark.parametrize("name", sorted(BENCHMARK_TRACES))
def test_sim_run_benchmark_trace_matches_recorded_sha256(name, tmp_path, capsys):
    # Hold `sim run` to the digests the benchmark records for its default seed.
    raw = BENCHMARK_TRACES[name]
    expected = json.loads(RECORDED_SHA256.read_text(encoding="utf-8"))[name]["trace.csv"]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    out_csv = tmp_path / "trace.csv"
    code, _, _ = run_cli("sim", "run", "--config", str(config), "--out", str(out_csv), capsys=capsys)
    assert code == 0
    data = out_csv.read_bytes()
    # No block is longer than the writer's build budget (these traces have
    # no epoch that alone is longer), so the trace spans more than two blocks.
    assert len(data) > 2 * _TRACE_CHUNK_BYTES
    assert hashlib.sha256(data).hexdigest() == expected


# The engine paths that no benchmark digest covers, each with the blocks it
# makes, those of them that take the schedule of the block before, and its
# rows of losses that numpy's `binomial` draws (`phases.counts`):
# - a `ctc` run of three blocks whose constant load repeats the second
#   block in the third;
# - a deadline longer than a block under each policy, so that a block reads
#   `A(e - D)` from the ring the blocks before filled; packets expire from
#   epoch 11,841 (`ctc`) and 9,642 (`dsr`, whose budget also runs out);
# - an epoch of half a second, which the `ctc` split and the capacity read;
# - `base_drop_prob` 0.7, past 0.5, where numpy draws the complement;
# - a `ctc` ramp past capacity over three blocks at a deadline of 20: from
#   epoch 12,052 to 13,191, in block 2, a queue starts an epoch neither
#   empty nor cut back to its deadline bound;
# - a `ctc` ramp near capacity at a deadline of 100, where that holds from
#   epoch 13,001 to the end, across the edge of blocks 2 and 3;
# - 5,000 neighbors, whose node ids have one to four digits, over 12
#   epochs, past the power of ten at epoch 10;
# - a constant load over blocks of 8,000, 8,000 and 4,000 epochs under each
#   policy, whose shorter last block starts as the second one did.
ENGINE_PINS = Path(__file__).resolve().parent / "engine_pins.json"
ENGINE_PATH_COUNTS = {
    "ctc_blocks_reused": (3, 1, 1),
    "ctc_deadline_past_a_block": (3, 0, 0),
    "dsr_deadline_past_a_block": (3, 0, 0),
    "epoch_length_half": (1, 0, 1),
    "drop_prob_past_half": (1, 0, 1),
    "ctc_ramp_blocks": (3, 0, 3),
    "ctc_near_critical": (3, 0, 3),
    "neighbors_past_a_thousand": (1, 0, 1),
    "ctc_last_block_prefix": (3, 1, 1),
    "dsr_last_block_prefix": (3, 1, 0),
}


@pytest.mark.parametrize("name", sorted(ENGINE_PATH_COUNTS))
def test_sim_run_engine_path_matches_recorded_sha256(name, tmp_path, capsys):
    # Hold `sim run` to the digests recorded in tests/engine_pins.json, which
    # scripts/record_engine_pins.py prints.
    pin = json.loads(ENGINE_PINS.read_text(encoding="utf-8"))[name]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(pin["config"]), encoding="utf-8")
    out_csv = tmp_path / "trace.csv"
    phases.reset()
    code, _, _ = run_cli("sim", "run", "--config", str(config), "--out", str(out_csv), capsys=capsys)
    assert code == 0
    names = ("engine_blocks", "reused_blocks", "binomial")
    assert tuple(phases.counts.get(count, 0) for count in names) == ENGINE_PATH_COUNTS[name]
    assert hashlib.sha256(out_csv.read_bytes()).hexdigest() == pin["trace.csv"]


# ---------------------------------------------------------------------------
# exp case


def test_exp_case_single_algo_single_seed(tmp_path, capsys):
    out_csv = tmp_path / "case1.csv"
    code, out, err = run_cli(
        "exp", "case", "--id", "I", "--algo", "dsr", "--seeds", "1", "--out", str(out_csv), capsys=capsys
    )
    assert code == 0
    lines = out_csv.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + 16  # one row per sweep value
    assert all(line.split(",")[1] == "dsr" for line in lines[1:])
    assert "16 rows" in out


def test_exp_case_seed_range_start(tmp_path, capsys):
    out_csv = tmp_path / "case4.csv"
    code, _, _ = run_cli(
        "exp", "case", "--id", "IV", "--algo", "ctc", "--seeds", "2", "--seed", "5",
        "--out", str(out_csv), capsys=capsys,
    )
    assert code == 0
    seeds = {line.split(",")[3] for line in out_csv.read_text(encoding="utf-8").strip().split("\n")[1:]}
    assert seeds == {"5", "6"}


def test_exp_case_rejects_zero_seeds(tmp_path, capsys):
    code, _, err = run_cli(
        "exp", "case", "--id", "I", "--seeds", "0", "--out", str(tmp_path / "x.csv"), capsys=capsys
    )
    assert code == 2
    assert "--seeds" in err


def test_exp_case_rejects_seeds_past_the_bound_naming_seeds(tmp_path, capsys, monkeypatch):
    # Rejected by name before the seed tuple is built, not as a MemoryError
    # from building it.
    def no_schedule(configs):
        raise AssertionError("scheduled past the seed bound")

    monkeypatch.setattr(experiments, "_schedule_sweep", no_schedule)
    out_csv = tmp_path / "x.csv"
    code, out, err = run_cli(
        "exp", "case", "--id", "I", "--seeds", str(MAX_SEEDS + 1), "--out", str(out_csv), capsys=capsys
    )
    assert code == 2
    assert out == ""
    assert "--seeds" in err
    assert not out_csv.exists()


def test_exp_case_impossible_count_exits_3(tmp_path, capsys, monkeypatch):
    # The counts come from the engine, not the input: a negative forward
    # count is a program fault, even though `PacketCounters` would reject it
    # as a bad parameter.
    real_totals = experiments._sweep_totals

    def broken_totals(plan, generators):
        totals = [column.copy() for column in real_totals(plan, generators)]
        totals[0][0, 0] = -3
        return totals

    monkeypatch.setattr(experiments, "_sweep_totals", broken_totals)
    out_csv = tmp_path / "x.csv"
    code, out, err = run_cli("exp", "case", "--id", "II", "--seeds", "1", "--out", str(out_csv), capsys=capsys)
    assert code == 3
    assert out == ""
    assert err == "error: k_pout must be finite and >= 0, got -3\n"
    assert not out_csv.exists()


@pytest.mark.parametrize("first, count", [(-1, 1), (2**64 - 1, 2), (2**64, 1)])
def test_exp_case_rejects_seeds_outside_uint64_naming_seed(first, count, tmp_path, capsys):
    out_csv = tmp_path / "x.csv"
    code, out, err = run_cli(
        "exp", "case", "--id", "I", "--seed", str(first), "--seeds", str(count), "--out", str(out_csv), capsys=capsys
    )
    assert code == 2
    assert out == ""
    assert re.search(r"--seed\b", err)
    assert not out_csv.exists()


def test_exp_case_accepts_the_largest_seed(tmp_path, capsys):
    out_csv = tmp_path / "x.csv"
    code, _, _ = run_cli(
        "exp", "case", "--id", "IV", "--algo", "ctc", "--seed", str(2**64 - 1), "--seeds", "1",
        "--out", str(out_csv), capsys=capsys,
    )
    assert code == 0
    seeds = {line.split(",")[3] for line in out_csv.read_text(encoding="utf-8").strip().split("\n")[1:]}
    assert seeds == {str(2**64 - 1)}


def test_exp_case_unknown_id_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["exp", "case", "--id", "V", "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# exp all


def test_exp_all_writes_every_artifact(tmp_path, capsys):
    out_dir = tmp_path / "results"
    code, out, err = run_cli("exp", "all", "--out-dir", str(out_dir), "--seeds", "1", capsys=capsys)
    assert code == 0
    assert err == ""
    expected = (
        [f"case_{c}.csv" for c in ("I", "II", "III", "IV")]
        + [f"fig_{i}.csv" for i in range(1, 7)]
        + [f"case_v_{c}.csv" for c in ("I", "II", "III", "IV")]
    )
    for name in expected:
        assert (out_dir / name).exists(), name
    fig1 = (out_dir / "fig_1.csv").read_text(encoding="utf-8").strip().split("\n")
    assert fig1[0] == "algorithm,x,y"
    assert len(fig1) == 1 + 32  # 16 sweep points x 2 algorithms
    case_v = (out_dir / "case_v_I.csv").read_text(encoding="utf-8").strip().split("\n")
    assert case_v[0] == "algorithm,bucket_lower,mean_malicious,rows"


def test_exp_all_derives_the_pooled_curves_once(tmp_path, capsys, monkeypatch):
    # Figures 5 and 6 are two views of one derivation over the pooled rows of
    # all four cases; each case's own curves are derived once more.
    derived = []
    real_derive = cli.derive_case_v

    def counting_derive(tables, *args):
        derived.append(sorted({row.case_id for table in tables for row in table.rows}))
        return real_derive(tables, *args)

    monkeypatch.setattr(cli, "derive_case_v", counting_derive)
    monkeypatch.setattr(report, "derive_case_v", counting_derive)
    code, _, _ = run_cli("exp", "all", "--out-dir", str(tmp_path), "--seeds", "1", capsys=capsys)
    assert code == 0
    assert derived == [["I", "II", "III", "IV"], ["I"], ["II"], ["III"], ["IV"]]


def test_exp_all_default_grid_matches_recorded_sha256(tmp_path, capsys):
    # The figure artifact must not change by a byte: hold the ten-seed grid
    # to the digests the benchmark records for its default seed.
    expected = json.loads(RECORDED_SHA256.read_text(encoding="utf-8"))["grid"]
    code, _, _ = run_cli("exp", "all", "--out-dir", str(tmp_path), "--seeds", "10", "--seed", "0", capsys=capsys)
    assert code == 0
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in tmp_path.iterdir()}
    assert digests == expected


# ---------------------------------------------------------------------------
# phase clock


def test_exp_all_clocks_each_phase_and_the_grid_counts(tmp_path, capsys):
    # `ctcsim.phases` measures each phase from inside the package, and
    # scripts/grid_phases.py reads these names. Each of the 8 sweeps (4
    # cases, 2 algorithms) is scheduled, realized and summarized once. At ten
    # seeds the grid has 1,280 rows; 87 of its 128 point-rows are realized,
    # each seed of each by one numpy `binomial` call. The 4 `ctc` sweeps run
    # 357 of their 6,400 epochs through the loop, where a queue starts an
    # epoch neither empty nor cut back to its deadline bound.
    phases.reset()
    code, _, _ = run_cli("exp", "all", "--out-dir", str(tmp_path), "--seeds", "10", capsys=capsys)
    assert code == 0
    clock = phases.times
    assert sorted(clock) == ["emit", "realize", "schedule", "summarize"]
    assert clock["schedule"].calls == clock["realize"].calls == clock["summarize"].calls == 8
    assert all(phase.wall_ns > 0 and phase.minflt >= 0 and phase.maxrss_kib > 0 for phase in clock.values())
    assert phases.counts == {"rows": 1280, "realized": 87, "binomial": 870, "ctc_loop_epochs": 357}


# The engine's blocks and those of them that reuse the schedule of the
# block before, the trace writer's blocks and texts, and the epochs the
# `ctc` schedule runs through its loop, of each benchmark trace.
TRACE_COUNTS = {"trace_deep": [13, 9, 27, 127, 0], "trace_wide": [1, 0, 18, 130, 86]}


@pytest.mark.parametrize("name", sorted(TRACE_COUNTS))
def test_sim_run_clocks_the_engine_and_counts_its_blocks_and_texts(name, tmp_path, capsys):
    # scripts/trace_phases.py reads the engine's phase, once per block of
    # `sim.run_blocks`, and the counts of the engine's blocks, of those that
    # reuse the schedule of the block before (`trace_deep`'s constant load
    # repeats blocks 2 to 5, before its budget runs out in block 6, and 8
    # to 11; its shorter last block takes the first 4,000 epochs of block
    # 11's), of the blocks and texts the trace
    # writer makes of them, and of the epochs the `ctc` loop runs
    # (`trace_wide`'s 85 epochs that start irregular, 1,508 to 1,592, and
    # the one before them; `trace_deep` is `dsr`, which has no loop).
    config = tmp_path / "config.json"
    config.write_text(json.dumps(BENCHMARK_TRACES[name]), encoding="utf-8")
    phases.reset()
    code, _, _ = run_cli("sim", "run", "--config", str(config), "--out", str(tmp_path / "trace.csv"), capsys=capsys)
    assert code == 0
    counts = TRACE_COUNTS[name]
    assert list(phases.times) == ["engine"] and phases.times["engine"].calls == counts[0]
    names = ("engine_blocks", "reused_blocks", "trace_blocks", "trace_texts", "ctc_loop_epochs")
    assert [phases.counts.get(count, 0) for count in names] == counts
