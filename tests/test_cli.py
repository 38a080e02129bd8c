"""Command-line interface tests, run in-process through main(argv)."""

import json

import pytest

from ctcsim.cli import main
from ctcsim.report import CSV_COLUMNS


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
    config = tmp_path / "inf.json"
    config.write_text('{"epochs": 3, "data_rate": Infinity}', encoding="utf-8")
    code, _, err = run_cli("sim", "run", "--config", str(config), "--out", str(tmp_path / "t.csv"), capsys=capsys)
    assert code == 2
    assert "data_rate" in err


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
