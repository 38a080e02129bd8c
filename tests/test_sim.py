"""Simulator engine tests.

Fixture values are worked out by hand from the stepping rules (deadline
discard, arrivals, capacity split, ambient loss, counters); the engine
is additionally held to a naive per-packet reference implementation
for exact counter agreement.
"""

import dataclasses
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctcsim import report
from ctcsim.errors import CtcSimError, EmptyTraceError, InvalidConfigError
from ctcsim.report import emit_trace_csv
from ctcsim.sim import (
    MAX_EPOCHS,
    MAX_NEIGHBOR_COUNT,
    Policy,
    RateFunction,
    RateKind,
    Schedule,
    SimConfig,
    Trace,
    _draw_losses,
    _schedule_sweep,
    _seeded,
    classify_misbehavior,
    config_from_dict,
    ctc_split,
    load_config,
    realize,
    run,
    schedule,
    source_split,
)

from reference_engine import Decision, NodeState, Packet, PacketClass, dsr_decide, run_reference, schedule_cohorts
from reference_writer import reference_trace_csv


def constant(value):
    return RateFunction(RateKind.CONSTANT, value)


# Every per-epoch column of a Trace, in field order.
TRACE_FIELDS = tuple(f.name for f in dataclasses.fields(Trace) if f.name != "config")


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
    # ``repr`` of a float parses back to it exactly, and so must a rate's text.
    assert RateFunction.parse(f"{kind.value}:{base!r}:{slope!r}") == RateFunction(kind, base, slope)


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


@pytest.mark.parametrize(
    "cls, kwargs, field_name",
    [
        (SimConfig, {"epochs": 5.5}, "epochs"),
        (SimConfig, {"epochs": True}, "epochs"),
        (SimConfig, {"epochs": 5, "data_rate": "5"}, "data_rate"),
        (SimConfig, {"epochs": 5, "data_rate": 10**400}, "data_rate"),
        (SimConfig, {"epochs": 5, "neighbor_count": 2.5}, "neighbor_count"),
        (SimConfig, {"epochs": 5, "window_epochs": 2.5}, "window_epochs"),
        (SimConfig, {"epochs": 5, "energy_budget": 1.5}, "energy_budget"),
        (SimConfig, {"epochs": 5, "seed": 1.5}, "seed"),
        (SimConfig, {"epochs": 5, "self_rate_fn": "constant:3"}, "self_rate_fn"),
        (RateFunction, {"kind": "linear_increasing", "base": 0.0, "slope": 2.0}, "kind"),
    ],
)
def test_library_config_rejects_wrong_types_naming_the_field(cls, kwargs, field_name):
    # A library call gets the checks a config file gets. Each of these used
    # to fail mid-run with a Python error, or run on a value of the wrong
    # type (a rate whose kind matches no branch has no arrivals).
    with pytest.raises(InvalidConfigError, match=field_name):
        cls(**kwargs)


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


# Both classes at 1.5e13 packets per epoch over 600 epochs: 1.8e16 arrivals,
# so the dsr scan's bound admits deadlines of up to 510 epochs.
_SCAN_BOUND_RATES = {"data_rate": 1.6e13, "self_rate_fn": "constant:1.5e13", "neighbor_rate_fn": "constant:1.5e13"}


@pytest.mark.parametrize(
    "raw, field_name",
    [
        ({"self_rate_fn": "constant:inf"}, "self_rate_fn"),
        ({"neighbor_rate_fn": "constant:nan"}, "neighbor_rate_fn"),
        ({"neighbor_rate_fn": "linear_increasing:0:inf"}, "neighbor_rate_fn"),
        ({"data_rate": float("inf")}, "data_rate"),
        ({"epoch_length": float("nan")}, "epoch_length"),
        ({"epoch_length": 1e308}, "epoch_length"),
        ({"epochs": 100, "neighbor_rate_fn": "linear_increasing:0:1e307"}, "neighbor_rate_fn"),
        ({"self_rate_fn": "constant:1e19"}, "self_rate_fn"),
        ({"data_rate": 1e19}, "data_rate"),
        ({"data_rate": 10**400}, "data_rate"),
        ({"epochs": float("inf")}, "epochs"),
        ({"epochs": 1e300}, "epochs"),
        ({"epochs": 10**12}, "epochs"),
        ({"epochs": MAX_EPOCHS + 1}, "epochs"),
        ({"neighbor_count": MAX_NEIGHBOR_COUNT + 1}, "neighbor_count"),
        ({"neighbor_count": 10**15}, "neighbor_count"),
        # One past each bound within which every count and ratio is exact and
        # the dsr scan fits int64; the configs of
        # test_config_accepts_counts_up_to_their_exact_bounds sit on them.
        ({"data_rate": 2.0**53 + 2}, "data_rate"),
        ({"self_rate_fn": "constant:3002399751580331"}, "self_rate_fn"),
        ({"neighbor_rate_fn": "linear_increasing:0:1501199875790166"}, "neighbor_rate_fn"),
        ({"epochs": 600, "deadline_epochs": 511, **_SCAN_BOUND_RATES}, "deadline_epochs"),
    ],
)
def test_config_from_dict_rejects_non_finite_naming_the_field(raw, field_name):
    # Each of these used to pass validation and fail mid-run (or in the
    # int/float conversion) with a Python conversion error naming no field:
    # non-finite values, counts past int64, JSON integers past a float, and
    # run lengths and source counts past their bounds, whose columns or
    # source rows would not fit in memory.
    with pytest.raises(InvalidConfigError, match=field_name):
        config_from_dict({"epochs": 3, **raw})


def test_config_int64_bound_on_run_arrivals():
    # Peak arrivals times epochs must stay within 2**53, where float64 holds
    # every count exactly: 8 * 2**50 does, 9 * 2**50 and 8 * (2**50 + 1) do
    # not. Increasing ramps peak on the last epoch.
    SimConfig(epochs=8, self_rate_fn=constant(2**50))
    for epochs, rate in ((9, 2**50), (8, 2**50 + 1)):
        with pytest.raises(InvalidConfigError, match="self_rate_fn"):
            SimConfig(epochs=epochs, self_rate_fn=constant(rate))
    SimConfig(epochs=2, neighbor_rate_fn=RateFunction(RateKind.LINEAR_INCREASING, 0.0, 2**52))
    for epochs, slope in ((3, 2**52), (2, 2**52 + 1)):
        with pytest.raises(InvalidConfigError, match="neighbor_rate_fn"):
            SimConfig(epochs=epochs, neighbor_rate_fn=RateFunction(RateKind.LINEAR_INCREASING, 0.0, slope))


def test_config_from_dict_accepts_integral_float():
    assert config_from_dict({"epochs": 3.0}).epochs == 3


def test_config_accepts_epochs_and_neighbor_count_up_to_their_bounds():
    cfg = config_from_dict({"epochs": MAX_EPOCHS, "neighbor_count": MAX_NEIGHBOR_COUNT})
    assert (cfg.epochs, cfg.neighbor_count) == (MAX_EPOCHS, MAX_NEIGHBOR_COUNT)


@pytest.mark.parametrize("policy", ["ctc", "dsr"])
@pytest.mark.parametrize(
    "raw",
    [
        {"data_rate": 2.0**53, "self_rate_fn": "constant:1e15", "neighbor_rate_fn": "constant:2e15"},
        {"self_rate_fn": "constant:3002399751580330"},
        {"neighbor_rate_fn": "linear_increasing:0:1501199875790165", "data_rate": 1e15},
        {"epochs": 600, "deadline_epochs": 510, **_SCAN_BOUND_RATES},
    ],
)
def test_config_accepts_counts_up_to_their_exact_bounds(raw, policy):
    # Each config sits on one bound: a capacity of 2**53, a class's run
    # total of up to 2**53 packets, and the dsr scan's bound
    # (min(deadline_epochs, epochs) + 2) x arrivals <= 2**63 - 1. Its
    # schedule is the cohort oracle's, in Python ints.
    config = config_from_dict({"epochs": 3, "policy": policy, **raw})
    assert_same_schedule(schedule(config), schedule_cohorts(config))


# Config values in range, one strategy per optional key.
_RATE_TEXT = st.one_of(
    st.builds("constant:{}".format, st.floats(0, 2000)),
    st.builds(
        "{}:{}:{}".format,
        st.sampled_from(["linear_increasing", "linear_decreasing"]),
        st.floats(0, 2000),
        st.floats(0, 300),
    ),
)
_IN_RANGE = {
    "neighbor_count": st.integers(1, 6),
    "epoch_length": st.floats(1e-3, 10),
    "data_rate": st.floats(0.1, 5000),
    "base_drop_prob": st.floats(0, 0.99),
    "energy_budget": st.integers(0, 5000),
    "deadline_epochs": st.integers(1, 6),
    "min_share_fraction": st.floats(0.01, 0.49),
    "misbehavior_threshold": st.floats(0.01, 0.99),
    "window_epochs": st.integers(1, 10),
    "policy": st.sampled_from(["ctc", "dsr", " DSR "]),
    "seed": st.integers(0, 2**64 - 1),
    "self_rate_fn": _RATE_TEXT,
    "neighbor_rate_fn": _RATE_TEXT,
}
# Odd values for any key: JSON numbers of every size, non-finite floats,
# booleans, and strings. Trace rows grow as epochs x (neighbor_count + 1),
# so those two keys take odd values from a fixed list, each of them either
# small or past its bound.
_ANY_NUMBER = st.one_of(
    st.integers(-2, 10**20),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([10**400, 2**63, 2**64, True]),
)
_ODD_VALUE = {
    "epochs": st.sampled_from([-1, 2.0, 2.5, float("nan"), 1e300, 10**12, MAX_EPOCHS + 1, True, "3"]),
    "neighbor_count": st.sampled_from([0, 3.0, 2.5, float("inf"), MAX_NEIGHBOR_COUNT + 1, 10**15, False]),
    "policy": st.sampled_from(["aodv", "", 1]),
    "self_rate_fn": st.one_of(
        st.builds("constant:{}".format, _ANY_NUMBER),
        st.builds("linear_increasing:{}:{}".format, _ANY_NUMBER, _ANY_NUMBER),
        st.sampled_from(["constant", "constant:1:2", "linear_increasing:1", "sine:1", "constant:x", 3]),
    ),
}
_ODD_VALUE["neighbor_rate_fn"] = _ODD_VALUE["self_rate_fn"]


@st.composite
def _raw_configs(draw):
    """An in-range config dict, with at most one key set to an odd value."""
    raw = draw(st.fixed_dictionaries({"epochs": st.integers(0, 12)}, optional=_IN_RANGE))
    if draw(st.booleans()):
        key = draw(st.sampled_from(["epochs", *_IN_RANGE]))
        raw[key] = draw(_ODD_VALUE.get(key, _ANY_NUMBER))
    return raw


@settings(max_examples=300, deadline=None)
@given(raw=_raw_configs())
def test_every_accepted_config_runs_or_raises_package_error(raw, tmp_path_factory):
    # Validation is the only gate: whatever config_from_dict accepts must run
    # and emit its trace, or fail with a package error that names the cause,
    # never with a Python conversion error or a broken invariant.
    dest = tmp_path_factory.getbasetemp() / "property_trace.csv"
    try:
        trace = run(config_from_dict(raw))
        written = emit_trace_csv(trace, dest)
    except CtcSimError:
        return
    assert written == dest.stat().st_size
    assert len(dest.read_bytes().splitlines()) == 1 + trace.config.epochs * (trace.config.neighbor_count + 1)


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
    t_pp, t_np, cap_self, cap_nbr = ctc_split(0, 40, 1.0, 0.05, 100)
    assert t_np == 0.95
    assert t_pp == pytest.approx(0.05)
    assert t_pp + t_np == 1.0
    assert (cap_self, cap_nbr) == (5, 95)


def test_ctc_split_even_backlogs():
    assert ctc_split(30, 30, 1.0, 0.05, 100) == (0.5, 0.5, 50, 50)


def test_ctc_split_proportional_with_scaled_epoch():
    # The caps take the share back from the time split and floor each side,
    # so an odd capacity leaves one packet of it unused.
    assert ctc_split(10, 30, 2.0, 0.05, 101) == (0.5, 1.5, 25, 75)


def test_ctc_split_empty_queues_even_split():
    assert ctc_split(0, 0, 1.0, 0.05, 7) == (0.5, 0.5, 3, 3)


def test_ctc_split_share_exactly_at_either_clamp_bound():
    # 1/4 and 3/4 are exact, so the share lands on the bound itself.
    assert ctc_split(3, 1, 1.0, 0.25, 100) == (0.75, 0.25, 75, 25)
    assert ctc_split(1, 3, 1.0, 0.25, 100) == (0.25, 0.75, 25, 75)


@settings(max_examples=300, deadline=None)
@given(
    self_backlog=st.integers(0, 10**6),
    neighbor_backlog=st.integers(0, 10**6),
    epoch_length=st.floats(1e-3, 1e3),
    min_share=st.floats(1e-6, 0.5, exclude_max=True),
    capacity=st.integers(0, 10**9),
)
def test_ctc_split_matches_its_stated_rule(self_backlog, neighbor_backlog, epoch_length, min_share, capacity):
    total = self_backlog + neighbor_backlog
    share = min(max(0.5 if total == 0 else neighbor_backlog / total, min_share), 1.0 - min_share)
    t_np = share * epoch_length
    share = t_np / epoch_length
    expected = (epoch_length - t_np, t_np, math.floor((1.0 - share) * capacity), math.floor(share * capacity))
    assert ctc_split(self_backlog, neighbor_backlog, epoch_length, min_share, capacity) == expected


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
    for name in TRACE_FIELDS:
        assert getattr(trace, name).shape == (0,), name


def test_run_zero_rates_all_counters_zero(tmp_path):
    trace = run(SimConfig(epochs=5, base_drop_prob=0.0))
    for name in TRACE_FIELDS:
        if name not in ("t_pp", "t_np"):
            assert getattr(trace, name).tolist() == [0] * 5, name
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
    trace = run(cfg)
    assert trace.offered_self.tolist() == trace.offered_neighbor.tolist() == [10]
    assert trace.forwarded_self.tolist() == trace.forwarded_neighbor.tolist() == [10]
    assert trace.dropped_self.tolist() == trace.dropped_neighbor.tolist() == [0]
    assert trace.queued_self.tolist() == trace.queued_neighbor.tolist() == [0]


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

    assert trace.offered_neighbor.tolist() == [2000, 0, 0]
    assert trace.forwarded_neighbor.tolist() == [950, 950, 0]
    assert trace.dropped_neighbor.tolist() == [0, 0, 100]
    assert trace.queued_neighbor.tolist() == [1050, 100, 0]
    assert trace.t_np[0] == 0.95
    assert trace.t_pp[0] == pytest.approx(0.05)
    assert trace.drop_ratio_neighbor[2] == pytest.approx(100 / 2000)

    assert trace.forwarded_neighbor.sum() == 1900
    assert trace.dropped_neighbor.sum() == 100


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
    per_epoch = list(zip(trace.forwarded_neighbor.tolist(), trace.dropped_neighbor.tolist()))
    assert per_epoch[:6] == [(160, 0)] * 6
    assert per_epoch[6] == (40, 120)
    assert per_epoch[7] == (0, 160)
    assert per_epoch[8] == (0, 160)
    assert trace.forwarded_self.tolist() == [100] * 9
    assert trace.dropped_self.tolist() == [0] * 9
    assert trace.t_pp.tolist() == pytest.approx([0.1] * 9)
    assert trace.t_np.tolist() == pytest.approx([0.9] * 9)


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
    for t_pp, t_np in zip(trace.t_pp.tolist(), trace.t_np.tolist()):
        assert abs(t_pp + t_np - 1.0) <= 1e-12
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
    assert trace.offered_neighbor.tolist() == [13]
    assert source_split(13, 4).tolist() == [4, 3, 3, 3]
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
    a, b = run(cfg), run(cfg)
    assert a.config == b.config
    for name in TRACE_FIELDS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


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
    assert a.forwarded_self.sum() != b.forwarded_self.sum()


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
    # realize() raises on any conservation break; this drives it
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
    offered = trace.offered_neighbor.sum()
    forwarded = trace.forwarded_neighbor.sum()
    dropped = trace.dropped_neighbor.sum()
    assert offered == forwarded + dropped + trace.queued_neighbor[-1]


# ---------------------------------------------------------------------------
# seed-free schedule, array loss draws


@pytest.mark.parametrize("p", [0.0, 0.05, 0.15, 0.3, 0.5, 0.8])
def test_binomial_array_draw_matches_scalar_draws(p):
    # realize() draws a whole run's losses in one array call where the
    # per-packet reference draws one scalar per class per epoch; the two
    # must consume the stream identically. Zeros, small counts (n*p < 30,
    # inversion) and large ones (n*p >= 30, BTPE) are interleaved so the
    # sampler switches branch and cached state between neighbours.
    counts = np.array([0, 3, 1200, 0, 0, 17, 5000, 1, 250, 0, 80, 99_000, 2, 2, 640, 0] * 8, dtype=np.int64)
    for seed in (0, 1, 2**63 + 5):
        array_draw = np.random.default_rng(seed).binomial(counts, p)
        scalar_rng = np.random.default_rng(seed)
        scalar_draws = [int(scalar_rng.binomial(int(n), p)) for n in counts]
        assert array_draw.tolist() == scalar_draws


def assert_matches_reference(trace, cfg):
    """Every per-epoch column equals the per-packet reference engine's."""
    _, ref_epochs = run_reference(cfg)
    assert trace.config == cfg
    expected = {name: [] for name in TRACE_FIELDS}
    cum = {"offered_self": 0, "dropped_self": 0, "offered_neighbor": 0, "dropped_neighbor": 0}
    for ref in ref_epochs:
        for name in TRACE_FIELDS[:10]:
            expected[name].append(getattr(ref, name))
        for name in cum:
            cum[name] += getattr(ref, name)
        for cls in ("self", "neighbor"):
            offered = cum[f"offered_{cls}"]
            expected[f"drop_ratio_{cls}"].append(cum[f"dropped_{cls}"] / offered if offered else 0.0)
    for name in TRACE_FIELDS:
        assert getattr(trace, name).tolist() == expected[name], name


@pytest.mark.parametrize("policy", [Policy.CTC, Policy.DSR])
@pytest.mark.parametrize("seed", range(5))
def test_engine_matches_packet_level_reference(policy, seed):
    # 14 packets are offered per epoch: a capacity of 17 keeps ctc
    # underloaded, and one of 12 makes its split's caps bind.
    for data_rate in (17.0, 12.0):
        cfg = SimConfig(
            epochs=40,
            data_rate=data_rate,
            base_drop_prob=0.3,
            energy_budget=100,
            policy=policy,
            seed=seed,
            self_rate_fn=constant(5),
            neighbor_rate_fn=constant(9),
        )
        assert_matches_reference(run(cfg), cfg)


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
    assert_matches_reference(run(cfg), cfg)


rate_functions = st.one_of(
    st.builds(constant, st.floats(0.0, 40.0)),
    st.builds(
        RateFunction, st.just(RateKind.LINEAR_INCREASING), st.floats(0.0, 20.0), st.floats(0.0, 2.0)
    ),
    st.builds(
        RateFunction, st.just(RateKind.LINEAR_DECREASING), st.floats(0.0, 60.0), st.floats(0.0, 3.0)
    ),
)


@settings(max_examples=80, deadline=None)
@given(
    policy=st.sampled_from([Policy.CTC, Policy.DSR]),
    self_rate_fn=rate_functions,
    neighbor_rate_fn=rate_functions,
    # Below 0.5 packets per epoch of length 1 the capacity rounds to zero.
    data_rate=st.one_of(st.floats(1.0, 60.0), st.floats(0.01, 0.49)),
    epoch_length=st.one_of(st.just(1.0), st.floats(0.1, 10.0)),
    min_share_fraction=st.floats(1e-6, 0.5, exclude_max=True),
    # Short ones, and up to and past the run length, where nothing expires.
    deadline_epochs=st.one_of(st.integers(1, 6), st.integers(1, 160)),
    energy_budget=st.integers(0, 400),
    base_drop_prob=st.floats(0.0, 0.9),
    seeds=st.lists(st.integers(0, 2**64 - 1), min_size=2, max_size=2),
    epochs=st.integers(0, 150),
)
def test_engine_matches_reference_random_configs(seeds, **config_fields):
    # One schedule realized at two seeds, as run_case does per grid point;
    # each realization must match the reference run at its own seed.
    cfg = SimConfig(**config_fields)
    plan = schedule(cfg)
    for seed in seeds:
        seeded = dataclasses.replace(cfg, seed=seed)
        trace = realize(plan, seed)
        assert_matches_reference(trace, seeded)
        assert_matches_reference(run(seeded), seeded)


SCHEDULE_FIELDS = tuple(f.name for f in dataclasses.fields(Schedule) if f.name != "config")


def assert_same_schedule(plan, expected):
    """Every column of ``plan`` has the dtype and bytes of ``expected``'s (a Schedule or column lists)."""
    for name in SCHEDULE_FIELDS:
        column = getattr(plan, name)
        want = expected[name] if isinstance(expected, dict) else getattr(expected, name)
        want = np.asarray(want, dtype=np.float64 if name.startswith("t_") else np.int64)
        assert column.dtype == want.dtype, name
        assert column.tobytes() == want.tobytes(), name


@st.composite
def _extreme_configs(draw):
    """Accepted configs of either policy near the bounds of validation.

    Rates and capacity share one scale: the per-epoch rate bound, or a power
    of two between 2**40 and it. So queues are partly served, and at the
    top the run totals and capacities reach 2**53. On short runs the rate
    bound is 2**53 / epochs. Long runs, of 512 to 1,000 epochs with a
    deadline near their length, take the bound at which the dsr scan's
    values, up to (min(deadline, epochs) + 2) x both classes' arrivals,
    reach 2**63, where it is the lower one. A few rates are small whole numbers instead.
    """
    # Most draws are short runs: a long one costs the oracle about as much
    # as fifty short ones.
    if draw(st.integers(0, 3)):
        epochs, deadline = draw(st.integers(1, 8)), draw(st.integers(1, 10))
        bound = 2**53 // epochs
    else:
        epochs = draw(st.integers(512, 1000))
        deadline = epochs + draw(st.integers(-12, 2))
        bound = min(2**53, (2**63 - 1) // (min(deadline, epochs) + 2) // 2) // epochs
    scale = draw(st.one_of(st.just(float(bound)), st.floats(40, math.log2(bound)).map(lambda x: 2.0**x)))
    factor = st.one_of(st.floats(0, 1), st.sampled_from([0.0, 1.0]), st.integers(0, 60).map(lambda n: n / scale))

    def rate_fn():
        kind = draw(st.sampled_from(list(RateKind)))
        if kind is RateKind.LINEAR_INCREASING:
            # Peak base + slope * (epochs - 1) stays within the bound.
            return RateFunction(kind, scale * draw(factor) / 2, scale * draw(factor) / 2 / epochs)
        return RateFunction(kind, scale * draw(factor), scale * draw(factor))

    return SimConfig(
        epochs=epochs,
        policy=draw(st.sampled_from(list(Policy))),
        self_rate_fn=rate_fn(),
        neighbor_rate_fn=rate_fn(),
        # At 2**53 the capacity of a long run passes deadline x rate, and the
        # dsr scan's running allowance nears its bound.
        data_rate=draw(st.one_of(st.just(2.0**53), st.floats(0.01, 10).map(lambda f: min(scale * f, 2.0**53)))),
        epoch_length=draw(st.sampled_from([1.0, 0.75])),
        deadline_epochs=deadline,
        energy_budget=draw(st.one_of(st.integers(0, 2**63 - 1), st.integers(0, 10**30), st.integers(0, 50))),
    )


# Twice the examples of one policy: each policy gets about as many as dsr alone did.
@settings(max_examples=600, deadline=None)
@given(config=_extreme_configs())
# On the dsr scan's bound: 502 x 1.8e16 arrivals is near 2**63, and a
# deadline of 511 is rejected. At a capacity of 2**53 each class's running
# allowance, capped at the packets inside the deadline, sums to about 2.6e18.
@example(
    config=SimConfig(
        epochs=600,
        policy=Policy.DSR,
        data_rate=1.6e13,
        deadline_epochs=500,
        self_rate_fn=constant(1.5e13),
        neighbor_rate_fn=constant(1.5e13),
    )
)
@example(
    config=SimConfig(
        epochs=600,
        policy=Policy.DSR,
        data_rate=2.0**53,
        deadline_epochs=510,
        self_rate_fn=constant(1.5e13),
        neighbor_rate_fn=constant(1.5e13),
    )
)
def test_schedule_matches_cohort_oracle_at_int64_extremes(config):
    # Run totals and capacities reach 2**53 here, and the dsr scan's running
    # allowance reaches about 2**61. The oracle's counts are Python ints that
    # never wrap, and its times come from Python's own int / int, or from its
    # own ctc split.
    assert_same_schedule(schedule(config), schedule_cohorts(config))


@st.composite
def _near_exact_bound_configs(draw):
    """Accepted configs whose running counts end between 2**52 and 2**53.

    Each class arrives at a constant rate between 2**52 / epochs and its
    bound 2**53 / epochs. Capacities are a tenth of a rate to four rates, or
    2**53, so queues expire, and losses range from none to most packets.
    """
    epochs = draw(st.integers(1, 12))
    bound = 2**53 // epochs
    rate = st.one_of(st.just(bound), st.integers(-(-(2**52) // epochs), bound)).map(constant)
    return SimConfig(
        epochs=epochs,
        policy=draw(st.sampled_from(list(Policy))),
        self_rate_fn=draw(rate),
        neighbor_rate_fn=draw(rate),
        data_rate=draw(st.one_of(st.just(2.0**53), st.floats(0.1, 4).map(lambda f: min(bound * f, 2.0**53)))),
        deadline_epochs=draw(st.integers(1, 4)),
        energy_budget=draw(st.integers(0, 2 * bound)),
        base_drop_prob=draw(st.floats(0, 0.9)),
        window_epochs=draw(st.integers(1, 5)),
        misbehavior_threshold=draw(st.floats(0.01, 0.99)),
        seed=draw(st.integers(0, 2**64 - 1)),
    )


@settings(max_examples=200, deadline=None)
@given(config=_near_exact_bound_configs())
def test_drop_ratios_are_python_int_division_near_2_53(config):
    # Validation keeps running and window sums within 2**53, where float64
    # holds them exactly, so each ratio is Python's int / int of the trace's
    # int columns. Past 2**53 a ratio could differ from it in the last bit.
    trace = run(config)
    for cls in ("self", "neighbor"):
        offered = dropped = 0
        expected = []
        for o, d in zip(getattr(trace, f"offered_{cls}").tolist(), getattr(trace, f"dropped_{cls}").tolist()):
            offered += o
            dropped += d
            expected.append(dropped / offered if offered else 0.0)
        assert offered >= 2**52
        assert getattr(trace, f"drop_ratio_{cls}").tolist() == expected, cls
    w = config.window_epochs
    offered_n, dropped_n = trace.offered_neighbor.tolist(), trace.dropped_neighbor.tolist()
    expected = []
    for index, start in enumerate(range(0, config.epochs, w)):
        o, d = sum(offered_n[start : start + w]), sum(dropped_n[start : start + w])
        if o:
            expected.append((index, o, d, d / o, d / o > config.misbehavior_threshold))
    ratios = classify_misbehavior(trace).window_ratios
    assert [(r.window_index, r.offered, r.dropped, r.ratio, r.flagged) for r in ratios] == expected


@st.composite
def _sweeps(draw):
    """Configs of one run length and policy, each row with its own loads,
    capacity, deadline and budget, in random order. Returns them with three
    of them: a zero-rate row, a row overloaded in both classes, and a row
    whose energy gate binds under dsr. Sometimes one row sits on the bounds
    of validation: a capacity of 2**53, and each class's run total within
    ``epochs`` packets of 2**53."""
    fixed = dict(epochs=draw(st.integers(2, 70)), policy=draw(st.sampled_from(list(Policy))))
    marked = (
        SimConfig(**fixed),
        SimConfig(**fixed, data_rate=10.0, deadline_epochs=1, self_rate_fn=constant(25), neighbor_rate_fn=constant(9)),
        SimConfig(**fixed, data_rate=30.0, energy_budget=5, self_rate_fn=constant(3), neighbor_rate_fn=constant(12)),
    )
    rows = list(marked)
    for _ in range(draw(st.integers(0, 5))):
        rows.append(
            SimConfig(
                **fixed,
                self_rate_fn=draw(rate_functions),
                neighbor_rate_fn=draw(rate_functions),
                data_rate=draw(st.floats(1.0, 60.0)),
                epoch_length=draw(st.floats(0.1, 10.0)),
                deadline_epochs=draw(st.integers(1, 80)),
                energy_budget=draw(st.integers(0, 400)),
                min_share_fraction=draw(st.floats(1e-6, 0.5, exclude_max=True)),
            )
        )
    if draw(st.booleans()):
        rate = constant(2**53 // fixed["epochs"])
        rows.append(SimConfig(**fixed, data_rate=2.0**53, self_rate_fn=rate, neighbor_rate_fn=rate))
    return draw(st.permutations(rows)), marked


@settings(max_examples=120, deadline=None)
@given(sweep=_sweeps())
def test_batched_sweep_rows_equal_their_own_schedule(sweep):
    # run_case schedules each policy's half of a sweep as one stack; no row
    # may see another's parameters.
    configs, marked = sweep
    plans = _schedule_sweep(configs)
    assert [plan.config for plan in plans] == configs
    for plan, config in zip(plans, configs):
        assert_same_schedule(plan, schedule(config))
        assert_same_schedule(plan, schedule_cohorts(config))
    zero, overloaded, gated = (next(p for p, c in zip(plans, configs) if c is row) for row in marked)
    if configs[0].policy is Policy.DSR:
        assert not any(column.any() for column in (zero.offered_self, zero.offered_neighbor, zero.t_pp))
        assert gated.attempts_neighbor.sum() == 5 < gated.dropped_before_loss_neighbor.sum()
    else:
        # With both queues empty, ctc splits the epoch evenly.
        assert not any(column.any() for column in (zero.offered_self, zero.offered_neighbor))
        assert (zero.t_pp == zero.t_np).all()
    assert overloaded.dropped_before_loss_self.any() and overloaded.dropped_before_loss_neighbor.any()


@settings(max_examples=80, deadline=None)
@given(
    policy=st.sampled_from([Policy.CTC, Policy.DSR]),
    self_rate_fn=rate_functions,
    neighbor_rate_fn=rate_functions,
    data_rate=st.floats(1.0, 60.0),
    deadline_epochs=st.integers(1, 5),
    energy_budget=st.integers(0, 400),
    base_drop_prob=st.floats(0.0, 0.9),
    seed=st.integers(0, 2**64 - 1),
    epochs=st.integers(2, 60),
    neighbor_count=st.integers(1, 60),
    epoch_length=st.floats(1e-3, 1e4),
    chunking=st.data(),
)
def test_emit_trace_csv_matches_per_row_writer_random_configs(chunking, tmp_path_factory, **config_fields):
    # The array-pass writer against one `%` format per row, with the writer's
    # chunk size cut so the trace spans at least two chunks; below one
    # epoch's rows, each chunk is a single epoch. Up to 60 sources, node ids
    # and per-source counts cross a digit boundary inside a chunk.
    trace = run(SimConfig(**config_fields))
    rows = trace.config.epochs * (trace.config.neighbor_count + 1)
    chunk_rows = chunking.draw(st.integers(1, rows // 2), label="chunk_rows")
    dest = tmp_path_factory.getbasetemp() / "writer_trace.csv"
    with mock.patch.object(report, "_TRACE_CHUNK_ROWS", chunk_rows):
        assert sum(1 for _ in report._trace_chunks(trace)) - 1 >= 2
        written = emit_trace_csv(trace, dest)
    data = dest.read_bytes()
    assert written == len(data)
    assert data == reference_trace_csv(trace)


def test_binomial_stream_is_the_recorded_one():
    # Every loss comes from `default_rng(seed).binomial(counts, p)`. Counts
    # below and above n * p = 30 take numpy's inversion and BTPE samplers.
    counts = np.array([0, 1, 2, 7, 29, 30, 31, 100, 299, 300, 1000, 12345, 10**6, 2**40, 5, 400], np.int64)
    recorded = [0, 0, 0, 0, 0, 4, 5, 11, 33, 30, 86, 1186, 99587, 109951450695, 0, 39]  # numpy 2.4.6
    drawn = np.random.default_rng(0).binomial(counts, 0.1).tolist()
    assert drawn == recorded, (
        f"numpy {np.__version__} draws another binomial stream than numpy 2.4.6 did; "
        "the recorded sha256 tests of the grid and of both benchmark traces will fail too"
    )


@pytest.mark.parametrize("p", [0.05, 0.5])
def test_shared_generators_draw_what_fresh_ones_do(p):
    # A sweep restores each seed's state before each grid point's draw; every
    # row must equal a freshly seeded generator's, also once the generator
    # has drawn for another point (different counts, so a different binomial
    # set-up) and for another p.
    seeds = (0, 1, 2**64 - 1)
    generators = _seeded(seeds)
    loads = [(420.0, 300, 200, Policy.CTC), (50.0, 2, 70, Policy.CTC), (300.0, 90, 400, Policy.DSR)]
    plans = [
        schedule(SimConfig(epochs=40, data_rate=rate, base_drop_prob=p, self_rate_fn=constant(s),
                           neighbor_rate_fn=constant(n), policy=policy))
        for rate, s, n, policy in loads
    ]
    other = schedule(SimConfig(epochs=40, base_drop_prob=0.3, self_rate_fn=constant(900)))
    for sweep in (plans, [other], plans[::-1]):
        lost = _draw_losses(sweep, generators)
        assert lost.shape == (len(sweep), len(seeds), 80)
        for point, plan in zip(lost, sweep):
            sent = np.ravel([plan.serviced_self, plan.attempts_neighbor], order="F")
            for row, seed in zip(point, seeds):
                assert row.tolist() == np.random.default_rng(seed).binomial(sent, plan.config.base_drop_prob).tolist()


def test_realize_names_first_epoch_that_breaks_conservation():
    cfg = SimConfig(epochs=6, data_rate=10.0, self_rate_fn=constant(4), neighbor_rate_fn=constant(30))
    plan = schedule(cfg)
    queued = plan.queued_neighbor.copy()
    queued[3:] += 1
    broken = dataclasses.replace(plan, queued_neighbor=queued)
    with pytest.raises(RuntimeError, match="neighbor-class conservation violated at the target, epoch 3"):
        realize(broken, 0)


# ---------------------------------------------------------------------------
# misbehavior classification


def _synthetic_trace(offered_dropped, window_epochs=10, threshold=0.5):
    """Trace with one epoch per (offered, dropped) pair."""
    cfg = SimConfig(
        epochs=len(offered_dropped),
        neighbor_count=1,
        misbehavior_threshold=threshold,
        window_epochs=window_epochs,
    )
    offered, dropped = (np.array(column, dtype=np.int64) for column in zip(*offered_dropped))
    zeros = np.zeros_like(offered)
    halves = np.full(offered.size, 0.5)
    cum_offered = np.cumsum(offered)
    drop_ratio_neighbor = np.divide(np.cumsum(dropped), cum_offered, out=np.zeros(offered.size), where=cum_offered > 0)
    return Trace(
        config=cfg,
        offered_self=zeros,
        offered_neighbor=offered,
        forwarded_self=zeros,
        forwarded_neighbor=offered - dropped,
        dropped_self=zeros,
        dropped_neighbor=dropped,
        queued_self=zeros,
        queued_neighbor=zeros,
        t_pp=halves,
        t_np=halves,
        drop_ratio_self=np.zeros(offered.size),
        drop_ratio_neighbor=drop_ratio_neighbor,
    )


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
