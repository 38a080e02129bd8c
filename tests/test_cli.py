"""Command-line interface tests, run in-process through main(argv)."""

import dataclasses
import hashlib
import json
import re
from pathlib import Path

import pytest

from ctcsim import sim
from ctcsim.cli import main
from ctcsim.report import _TRACE_CHUNK_ROWS, CSV_COLUMNS

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
    schedule = sim.schedule

    def broken_schedule(config):
        plan = schedule(config)
        return dataclasses.replace(plan, queued_neighbor=plan.queued_neighbor + 1)

    monkeypatch.setattr(sim, "schedule", broken_schedule)
    config = _write_config(tmp_path)
    code, _, err = run_cli("sim", "run", "--config", str(config), "--out", str(tmp_path / "t.csv"), capsys=capsys)
    assert code == 3
    assert err.startswith("error: neighbor-class conservation violated at the target, epoch 0")


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
    assert raw["epochs"] * (raw["neighbor_count"] + 1) > 2 * _TRACE_CHUNK_ROWS
    expected = json.loads(RECORDED_SHA256.read_text(encoding="utf-8"))[name]["trace.csv"]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    out_csv = tmp_path / "trace.csv"
    code, _, _ = run_cli("sim", "run", "--config", str(config), "--out", str(out_csv), capsys=capsys)
    assert code == 0
    assert hashlib.sha256(out_csv.read_bytes()).hexdigest() == expected


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


def test_exp_all_default_grid_matches_recorded_sha256(tmp_path, capsys):
    # The figure artifact must not change by a byte: hold the ten-seed grid
    # to the digests the benchmark records for its default seed.
    expected = json.loads(RECORDED_SHA256.read_text(encoding="utf-8"))["grid"]
    code, _, _ = run_cli("exp", "all", "--out-dir", str(tmp_path), "--seeds", "10", "--seed", "0", capsys=capsys)
    assert code == 0
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in tmp_path.iterdir()}
    assert digests == expected
