"""Simulator engine tests.

Fixture values are worked out by hand from the stepping rules (deadline
discard, arrivals, capacity split, ambient loss, counters); the cohort
engine is additionally held to a naive per-packet reference implementation
for exact counter agreement.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctcsim.errors import EmptyTraceError, InvalidConfigError
from ctcsim.report import emit_trace_csv
from ctcsim.sim import (
    Decision,
    NodeState,
    Packet,
    PacketClass,
    Policy,
    RateFunction,
    RateKind,
    SimConfig,
    Trace,
    TraceRecord,
    classify_misbehavior,
    config_from_dict,
    ctc_split,
    dsr_decide,
    load_config,
    run,
    source_split,
)

from reference_engine import run_reference


def constant(value):
    return RateFunction(RateKind.CONSTANT, value)


def trace_rows(trace, tmp_path):
    """Emitted trace CSV rows as lists of cells, header dropped."""
    dest = tmp_path / "trace.csv"
    emit_trace_csv(trace, dest)
    return [line.split(",") for line in dest.read_text(encoding="utf-8").split("\n")[1:-1]]


# ---------------------------------------------------------------------------
# rate functions


def test_rate_constant_ignores_epoch():
    fn = constant(7.5)
    assert fn.rate(0) == 7.5
    assert fn.rate(99) == 7.5


def test_rate_linear_increasing():
    fn = RateFunction(RateKind.LINEAR_INCREASING, 10.0, 2.5)
    assert fn.rate(0) == 10.0
    assert fn.rate(4) == 20.0


def test_rate_linear_decreasing_clamps_at_zero():
    fn = RateFunction(RateKind.LINEAR_DECREASING, 10.0, 3.0)
    assert fn.rate(0) == 10.0
    assert fn.rate(2) == 4.0
    assert fn.rate(5) == 0.0


def test_rate_negative_parameters_rejected():
    with pytest.raises(InvalidConfigError):
        RateFunction(RateKind.CONSTANT, -1.0)
    with pytest.raises(InvalidConfigError):
        RateFunction(RateKind.LINEAR_INCREASING, 1.0, -0.5)


def test_rate_parse_and_encode():
    assert RateFunction.parse("constant:12") == constant(12.0)
    assert RateFunction.parse("linear_increasing:0:3.2") == RateFunction(RateKind.LINEAR_INCREASING, 0.0, 3.2)
    assert RateFunction.parse("LINEAR_DECREASING:300:3") == RateFunction(RateKind.LINEAR_DECREASING, 300.0, 3.0)
    assert RateFunction.parse("constant:12").encode() == "constant:12"


def test_rate_parse_rejects_malformed():
    for text in ["bogus:1", "constant", "constant:1:2", "linear_increasing:1", "constant:abc"]:
        with pytest.raises(InvalidConfigError):
            RateFunction.parse(text)


@given(
    kind=st.sampled_from([RateKind.LINEAR_INCREASING, RateKind.LINEAR_DECREASING]),
    base=st.floats(0, 1e4, allow_nan=False),
    slope=st.floats(0, 1e3, allow_nan=False),
)
def test_rate_encode_parse_round_trip(kind, base, slope):
    fn = RateFunction(kind, base, slope)
    assert RateFunction.parse(fn.encode()) == fn


# ---------------------------------------------------------------------------
# config


def test_config_defaults():
    cfg = SimConfig(epochs=10)
    assert cfg.epoch_length == 1.0
    assert cfg.neighbor_count == 8
    assert cfg.data_rate == 1000.0
    assert cfg.base_drop_prob == 0.05
    assert cfg.energy_budget == 1000
    assert cfg.deadline_epochs == 2
    assert cfg.min_share_fraction == 0.05
    assert cfg.misbehavior_threshold == 0.5
    assert cfg.window_epochs == 10
    assert cfg.policy is Policy.CTC
    assert cfg.seed == 0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"epochs": -1},
        {"epochs": 1, "epoch_length": 0.0},
        {"epochs": 1, "neighbor_count": 0},
        {"epochs": 1, "data_rate": 0.0},
        {"epochs": 1, "base_drop_prob": 1.0},
        {"epochs": 1, "base_drop_prob": -0.1},
        {"epochs": 1, "energy_budget": -5},
        {"epochs": 1, "deadline_epochs": 0},
        {"epochs": 1, "min_share_fraction": 0.0},
        {"epochs": 1, "min_share_fraction": 0.5},
        {"epochs": 1, "misbehavior_threshold": 0.0},
        {"epochs": 1, "misbehavior_threshold": 1.0},
        {"epochs": 1, "window_epochs": 0},
        {"epochs": 1, "seed": -1},
        {"epochs": 1, "seed": 2**64},
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(InvalidConfigError):
        SimConfig(**kwargs)


def test_config_from_dict_minimal():
    cfg = config_from_dict({"epochs": 5})
    assert cfg == SimConfig(epochs=5)


def test_config_from_dict_full():
    cfg = config_from_dict(
        {
            "epochs": 20,
            "epoch_length": 0.5,
            "neighbor_count": 4,
            "data_rate": 250,
            "base_drop_prob": 0.1,
            "energy_budget": 99,
            "deadline_epochs": 3,
            "min_share_fraction": 0.1,
            "misbehavior_threshold": 0.6,
            "window_epochs": 5,
            "policy": "dsr",
            "seed": 7,
            "self_rate_fn": "constant:100",
            "neighbor_rate_fn": "linear_increasing:0:3.2",
        }
    )
    assert cfg.policy is Policy.DSR
    assert cfg.data_rate == 250.0
    assert cfg.self_rate_fn == constant(100.0)
    assert cfg.neighbor_rate_fn == RateFunction(RateKind.LINEAR_INCREASING, 0.0, 3.2)


def test_config_from_dict_unknown_key_is_hard_error():
    with pytest.raises(InvalidConfigError, match="unknown config keys: epohcs"):
        config_from_dict({"epochs": 5, "epohcs": 6})


def test_config_from_dict_missing_epochs():
    with pytest.raises(InvalidConfigError, match="epochs"):
        config_from_dict({"seed": 3})


def test_config_from_dict_rejects_non_integer_and_bool():
    with pytest.raises(InvalidConfigError):
        config_from_dict({"epochs": 2.5})
    with pytest.raises(InvalidConfigError):
        config_from_dict({"epochs": True})
    with pytest.raises(InvalidConfigError):
        config_from_dict({"epochs": 2, "policy": "aodv"})
    with pytest.raises(InvalidConfigError):
        config_from_dict({"epochs": 2, "self_rate_fn": 5})
    with pytest.raises(InvalidConfigError):
        config_from_dict(["epochs", 2])


@pytest.mark.parametrize(
    "raw, field_name",
    [
        ({"self_rate_fn": "constant:inf"}, "self_rate_fn"),
        ({"neighbor_rate_fn": "constant:nan"}, "neighbor_rate_fn"),
        ({"neighbor_rate_fn": "linear_increasing:0:inf"}, "neighbor_rate_fn"),
        ({"data_rate": float("inf")}, "data_rate"),
        ({"epoch_length": float("nan")}, "epoch_length"),
        ({"epoch_length": 1e308}, "epoch_length"),
    ],
)
def test_config_from_dict_rejects_non_finite_naming_the_field(raw, field_name):
    # Each of these used to pass validation and fail mid-run with "cannot
    # convert float infinity to integer", naming no field.
    with pytest.raises(InvalidConfigError, match=field_name):
        config_from_dict({"epochs": 3, **raw})


def test_config_from_dict_accepts_integral_float():
    assert config_from_dict({"epochs": 3.0}).epochs == 3


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "demo.json"
    path.write_text(
        json.dumps({"epochs": 12, "policy": "ctc", "neighbor_rate_fn": "constant:40", "seed": 11}),
        encoding="utf-8",
    )
    cfg = load_config(path)
    assert cfg.epochs == 12
    assert cfg.seed == 11
    assert cfg.neighbor_rate_fn == constant(40.0)


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(InvalidConfigError):
        load_config(path)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_config(tmp_path / "absent.json")


# ---------------------------------------------------------------------------
# policy pieces


def test_ctc_split_starved_self_clamps():
    node = NodeState(energy_remaining=0)
    node.neighbor_queue.append([0, 40])
    budget = ctc_split(node, 1.0, 0.05)
    assert budget.t_np == 0.95
    assert budget.t_pp == pytest.approx(0.05)
    assert budget.t_pp + budget.t_np == 1.0


def test_ctc_split_even_backlogs():
    node = NodeState(energy_remaining=0)
    node.self_queue.append([0, 30])
    node.neighbor_queue.append([0, 30])
    budget = ctc_split(node, 1.0, 0.05)
    assert budget.t_pp == 0.5
    assert budget.t_np == 0.5


def test_ctc_split_proportional_with_scaled_epoch():
    node = NodeState(energy_remaining=0)
    node.self_queue.append([0, 10])
    node.neighbor_queue.append([0, 30])
    budget = ctc_split(node, 2.0, 0.05)
    assert budget.t_np == 1.5
    assert budget.t_pp == 0.5


def test_ctc_split_empty_queues_even_split():
    node = NodeState(energy_remaining=0)
    budget = ctc_split(node, 1.0, 0.05)
    assert budget.t_pp == 0.5
    assert budget.t_np == 0.5


def test_dsr_decide_self_always_forwards():
    node = NodeState(energy_remaining=0)
    packet = Packet(0, PacketClass.SELF, 0, 2)
    assert dsr_decide(node, packet) is Decision.FORWARD
    assert node.energy_remaining == 0


def test_dsr_decide_neighbor_spends_energy_then_drops():
    node = NodeState(energy_remaining=2)
    packet = Packet(0, PacketClass.NEIGHBOR, 0, 2)
    assert dsr_decide(node, packet) is Decision.FORWARD
    assert dsr_decide(node, packet) is Decision.FORWARD
    assert node.energy_remaining == 0
    assert dsr_decide(node, packet) is Decision.DROP
    assert node.energy_remaining == 0


# ---------------------------------------------------------------------------
# full runs, hand-checked


def test_run_zero_epochs_is_empty():
    trace = run(SimConfig(epochs=0))
    assert trace.records == ()


def test_run_zero_rates_all_counters_zero(tmp_path):
    trace = run(SimConfig(epochs=5, base_drop_prob=0.0))
    for record in trace.records:
        assert record.offered_self == record.offered_neighbor == 0
        assert record.forwarded_self == record.forwarded_neighbor == 0
        assert record.dropped_self == record.dropped_neighbor == 0
        assert record.queued_self == record.queued_neighbor == 0
        assert record.drop_ratio_self == 0.0
        assert record.drop_ratio_neighbor == 0.0
    rows = trace_rows(trace, tmp_path)
    assert len(rows) == 5 * 9
    for row in rows:
        assert row[2:10] == ["0"] * 8
        assert row[12:] == ["0.000000", "0.000000"]


def test_run_single_epoch_small_load():
    # 10 self + 10 neighbor arrivals against capacity 1000 and no ambient
    # loss: everything forwarded the same epoch.
    cfg = SimConfig(
        epochs=1,
        base_drop_prob=0.0,
        self_rate_fn=constant(10),
        neighbor_rate_fn=constant(10),
    )
    target = run(cfg).records[0]
    assert target.offered_self == 10
    assert target.offered_neighbor == 10
    assert target.forwarded_self == 10
    assert target.forwarded_neighbor == 10
    assert target.dropped_self == 0
    assert target.dropped_neighbor == 0
    assert target.queued_self == 0
    assert target.queued_neighbor == 0


def test_run_ctc_burst_backlog_and_deadline_drop():
    # A 2000-packet burst in epoch 0 against capacity 1000. The neighbor
    # share clamps at 0.95, so 950 packets move per epoch; the 100 left
    # after epoch 1 age out at the start of epoch 2 (deadline 2 epochs).
    cfg = SimConfig(
        epochs=3,
        base_drop_prob=0.0,
        neighbor_rate_fn=RateFunction(RateKind.LINEAR_DECREASING, 2000.0, 2000.0),
    )
    trace = run(cfg)
    t0, t1, t2 = trace.records

    assert t0.offered_neighbor == 2000
    assert t0.forwarded_neighbor == 950
    assert t0.dropped_neighbor == 0
    assert t0.queued_neighbor == 1050
    assert t0.t_np == 0.95
    assert t0.t_pp == pytest.approx(0.05)

    assert t1.forwarded_neighbor == 950
    assert t1.queued_neighbor == 100

    assert t2.offered_neighbor == 0
    assert t2.forwarded_neighbor == 0
    assert t2.dropped_neighbor == 100
    assert t2.queued_neighbor == 0
    assert t2.drop_ratio_neighbor == pytest.approx(100 / 2000)

    total_fwd = sum(r.forwarded_neighbor for r in trace.records)
    total_drop = sum(r.dropped_neighbor for r in trace.records)
    assert total_fwd == 1900
    assert total_drop == 100


def test_run_dsr_energy_exhaustion_timeline():
    # Energy 1000 with 160 neighbor forwards per epoch: epochs 0-5 forward
    # in full (960 credits), epoch 6 forwards the last 40 and gates 120,
    # every later epoch gates all 160. Self traffic never touches energy.
    cfg = SimConfig(
        epochs=9,
        policy=Policy.DSR,
        base_drop_prob=0.0,
        self_rate_fn=constant(100),
        neighbor_rate_fn=constant(160),
    )
    trace = run(cfg)
    per_epoch = [(r.forwarded_neighbor, r.dropped_neighbor) for r in trace.records]
    assert per_epoch[:6] == [(160, 0)] * 6
    assert per_epoch[6] == (40, 120)
    assert per_epoch[7] == (0, 160)
    assert per_epoch[8] == (0, 160)
    for record in trace.records:
        assert record.forwarded_self == 100
        assert record.dropped_self == 0
        assert record.t_pp == pytest.approx(0.1)
        assert record.t_np == pytest.approx(0.9)


def test_time_split_sums_to_epoch_everywhere(tmp_path):
    cfg = SimConfig(
        epochs=30,
        data_rate=50.0,
        policy=Policy.CTC,
        self_rate_fn=RateFunction(RateKind.LINEAR_INCREASING, 5.0, 1.0),
        neighbor_rate_fn=constant(30),
        seed=3,
    )
    trace = run(cfg)
    for record in trace.records:
        assert abs(record.t_pp + record.t_np - 1.0) <= 1e-12
    source_rows = [row for row in trace_rows(trace, tmp_path) if row[1] != "0"]
    assert len(source_rows) == 30 * 8
    for row in source_rows:
        assert float(row[10]) == 1.0
        assert float(row[11]) == 0.0


def test_sources_report_generated_traffic(tmp_path):
    # 13 neighbor packets over 4 sources in one epoch: round-robin gives
    # 4,3,3,3 and sources forward their own output immediately, relay
    # nothing, hold no queue and spend the whole epoch on their own traffic.
    cfg = SimConfig(
        epochs=1, epoch_length=0.5, neighbor_count=4, base_drop_prob=0.0, neighbor_rate_fn=constant(13)
    )
    trace = run(cfg)
    assert trace.records[0].offered_neighbor == 13
    assert source_split(13, 4) == [4, 3, 3, 3]
    rows = trace_rows(trace, tmp_path)
    assert [row[1] for row in rows] == ["0", "1", "2", "3", "4"]
    source_counts = [(int(row[2]), int(row[4])) for row in rows[1:]]
    assert source_counts == [(4, 4), (3, 3), (3, 3), (3, 3)]
    for row in rows[1:]:
        assert row[3] == row[5] == "0"  # no relay traffic offered or forwarded
        assert row[6] == row[7] == "0"  # no drops
        assert row[8] == row[9] == "0"  # empty queues
        assert float(row[10]) == cfg.epoch_length
        assert float(row[11]) == 0.0


def test_run_is_deterministic_for_equal_configs():
    cfg = SimConfig(
        epochs=25,
        data_rate=40.0,
        base_drop_prob=0.2,
        self_rate_fn=constant(12),
        neighbor_rate_fn=constant(30),
        seed=42,
    )
    assert run(cfg) == run(cfg)


def test_run_seed_changes_ambient_losses():
    cfg = dict(
        epochs=20,
        data_rate=1000.0,
        base_drop_prob=0.3,
        self_rate_fn=constant(50),
        neighbor_rate_fn=constant(50),
    )
    a = run(SimConfig(seed=1, **cfg))
    b = run(SimConfig(seed=2, **cfg))
    fwd = lambda t: sum(r.forwarded_self for r in t.records)
    assert fwd(a) != fwd(b)


@settings(max_examples=40, deadline=None)
@given(
    policy=st.sampled_from([Policy.CTC, Policy.DSR]),
    seed=st.integers(0, 2**32 - 1),
    data_rate=st.floats(1.0, 60.0),
    self_rate=st.integers(0, 40),
    nbr_rate=st.integers(0, 40),
    energy=st.integers(0, 400),
    drop=st.floats(0.0, 0.8),
)
def test_conservation_random_configs(policy, seed, data_rate, self_rate, nbr_rate, energy, drop):
    # step() raises internally on any conservation break; this drives it
    # across a spread of loads and checks the cumulative identity at the end.
    cfg = SimConfig(
        epochs=15,
        data_rate=data_rate,
        base_drop_prob=drop,
        energy_budget=energy,
        policy=policy,
        seed=seed,
        self_rate_fn=constant(self_rate),
        neighbor_rate_fn=constant(nbr_rate),
    )
    trace = run(cfg)
    last = trace.records[-1]
    offered = sum(r.offered_neighbor for r in trace.records)
    forwarded = sum(r.forwarded_neighbor for r in trace.records)
    dropped = sum(r.dropped_neighbor for r in trace.records)
    assert offered == forwarded + dropped + last.queued_neighbor


# ---------------------------------------------------------------------------
# per-packet reference agreement


@pytest.mark.parametrize("policy", [Policy.CTC, Policy.DSR])
@pytest.mark.parametrize("seed", range(5))
def test_engine_matches_packet_level_reference(policy, seed):
    cfg = SimConfig(
        epochs=40,
        data_rate=17.0,
        base_drop_prob=0.3,
        energy_budget=100,
        policy=policy,
        seed=seed,
        self_rate_fn=constant(5),
        neighbor_rate_fn=constant(9),
    )
    trace = run(cfg)
    ref_node, ref_epochs = run_reference(cfg)
    assert len(trace.records) == len(ref_epochs)
    for snap, ref in zip(trace.records, ref_epochs):
        assert snap.offered_self == ref.offered_self
        assert snap.offered_neighbor == ref.offered_neighbor
        assert snap.forwarded_self == ref.forwarded_self
        assert snap.forwarded_neighbor == ref.forwarded_neighbor
        assert snap.dropped_self == ref.dropped_self
        assert snap.dropped_neighbor == ref.dropped_neighbor
        assert snap.queued_self == ref.queued_self
        assert snap.queued_neighbor == ref.queued_neighbor
        assert snap.t_pp == ref.t_pp
        assert snap.t_np == ref.t_np
    last = trace.records[-1]
    assert last.drop_ratio_neighbor == pytest.approx(
        ref_node.dropped_neighbor / ref_node.offered_neighbor
    )


@pytest.mark.parametrize("policy", [Policy.CTC, Policy.DSR])
def test_engine_matches_reference_under_ramps(policy):
    cfg = SimConfig(
        epochs=60,
        data_rate=23.0,
        base_drop_prob=0.15,
        energy_budget=350,
        deadline_epochs=3,
        policy=policy,
        seed=9,
        self_rate_fn=RateFunction(RateKind.LINEAR_INCREASING, 1.0, 0.7),
        neighbor_rate_fn=RateFunction(RateKind.LINEAR_DECREASING, 20.0, 0.5),
    )
    trace = run(cfg)
    ref_node, ref_epochs = run_reference(cfg)
    for snap, ref in zip(trace.records, ref_epochs):
        assert (snap.forwarded_self, snap.forwarded_neighbor) == (ref.forwarded_self, ref.forwarded_neighbor)
        assert (snap.dropped_self, snap.dropped_neighbor) == (ref.dropped_self, ref.dropped_neighbor)
        assert (snap.queued_self, snap.queued_neighbor) == (ref.queued_self, ref.queued_neighbor)


# ---------------------------------------------------------------------------
# misbehavior classification


def _synthetic_trace(offered_dropped, window_epochs=10, threshold=0.5):
    """Trace with one record per (offered, dropped) pair."""
    cfg = SimConfig(
        epochs=len(offered_dropped),
        neighbor_count=1,
        misbehavior_threshold=threshold,
        window_epochs=window_epochs,
    )
    records = []
    cum_offered = 0
    cum_dropped = 0
    for epoch, (offered, dropped) in enumerate(offered_dropped):
        cum_offered += offered
        cum_dropped += dropped
        record = TraceRecord(
            epoch=epoch,
            offered_self=0,
            offered_neighbor=offered,
            forwarded_self=0,
            forwarded_neighbor=offered - dropped,
            dropped_self=0,
            dropped_neighbor=dropped,
            queued_self=0,
            queued_neighbor=0,
            t_pp=0.5,
            t_np=0.5,
            drop_ratio_self=0.0,
            drop_ratio_neighbor=cum_dropped / cum_offered if cum_offered else 0.0,
        )
        records.append(record)
    return Trace(config=cfg, records=tuple(records))


def test_classify_half_of_windows_flagged():
    # Four single-epoch windows with ratios 0.1, 0.4, 0.6, 0.9 at
    # threshold 0.5: two flagged out of four.
    trace = _synthetic_trace([(10, 1), (10, 4), (10, 6), (10, 9)], window_epochs=1)
    stats = classify_misbehavior(trace)
    assert stats.malicious_fraction == 0.5
    assert [w.flagged for w in stats.window_ratios] == [False, False, True, True]
    assert [w.ratio for w in stats.window_ratios] == [0.1, 0.4, 0.6, 0.9]


def test_classify_no_drops_is_zero():
    trace = _synthetic_trace([(10, 0)] * 12, window_epochs=4)
    assert classify_misbehavior(trace).malicious_fraction == 0.0


def test_classify_all_dropped_is_one():
    trace = _synthetic_trace([(5, 5)] * 6, window_epochs=3)
    assert classify_misbehavior(trace).malicious_fraction == 1.0


def test_classify_windows_aggregate_within_window():
    # One window of 4 epochs: 40 offered, 16 dropped, ratio 0.4, below the
    # default threshold even though two single epochs were fully dropped.
    trace = _synthetic_trace([(10, 10), (10, 6), (10, 0), (10, 0)], window_epochs=4)
    stats = classify_misbehavior(trace)
    assert len(stats.window_ratios) == 1
    assert stats.window_ratios[0].ratio == pytest.approx(0.4)
    assert stats.malicious_fraction == 0.0


def test_classify_trailing_partial_window_counts():
    trace = _synthetic_trace([(10, 0)] * 10 + [(10, 10)] * 3, window_epochs=10)
    stats = classify_misbehavior(trace)
    assert len(stats.window_ratios) == 2
    assert stats.window_ratios[1].window_index == 1
    assert stats.window_ratios[1].offered == 30
    assert stats.window_ratios[1].flagged
    assert stats.malicious_fraction == 0.5


def test_classify_windows_without_traffic_do_not_qualify():
    trace = _synthetic_trace([(0, 0)] * 5 + [(10, 10)] * 5, window_epochs=5)
    stats = classify_misbehavior(trace)
    assert len(stats.window_ratios) == 1
    assert stats.malicious_fraction == 1.0


def test_classify_threshold_is_strict_inequality():
    trace = _synthetic_trace([(10, 5)], window_epochs=1)
    assert classify_misbehavior(trace, threshold=0.5).malicious_fraction == 0.0
    assert classify_misbehavior(trace, threshold=0.49).malicious_fraction == 1.0


def test_classify_override_arguments():
    trace = _synthetic_trace([(10, 3), (10, 9)], window_epochs=2)
    # Config window pools both epochs: ratio 0.6, flagged. Per-epoch windows
    # give ratios 0.3 and 0.9, so only one of two flags; a higher threshold
    # clears both.
    assert classify_misbehavior(trace).malicious_fraction == 1.0
    assert classify_misbehavior(trace, window=1).malicious_fraction == 0.5
    assert classify_misbehavior(trace, threshold=0.95, window=1).malicious_fraction == 0.0


def test_classify_empty_trace_raises():
    with pytest.raises(EmptyTraceError):
        classify_misbehavior(run(SimConfig(epochs=0)))


def test_classify_invalid_overrides():
    trace = _synthetic_trace([(10, 1)])
    with pytest.raises(InvalidConfigError):
        classify_misbehavior(trace, threshold=1.5)
    with pytest.raises(InvalidConfigError):
        classify_misbehavior(trace, window=0)
