"""Simulator engine tests.

Fixture values are worked out by hand from the stepping rules (deadline
discard, arrivals, capacity split, ambient loss, counters); the engine
is additionally held to a naive per-packet reference implementation
for exact counter agreement.
"""

import dataclasses
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ctcsim import phases, report, sim
from ctcsim.errors import CtcSimError, EmptyTraceError, InvalidConfigError, InvariantError
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
    _ctc_split_array,
    _draw_losses,
    _realize_sweep,
    _schedule_sweep,
    _seeded,
    classify_misbehavior,
    config_from_dict,
    ctc_split,
    load_config,
    run,
    source_split,
)

from reference_engine import Decision, NodeState, Packet, PacketClass, dsr_decide, run_reference, schedule_cohorts
from reference_writer import reference_trace_csv, source_shares


def constant(value):
    return RateFunction(RateKind.CONSTANT, value)


# Every per-epoch column of a Trace, in field order.
TRACE_FIELDS = tuple(f.name for f in dataclasses.fields(Trace) if f.name != "config")
# The (self, neighbor) pairs of `_realize_sweep`, in the order it returns them.
REALIZED_FIELDS = (("forwarded_self", "forwarded_neighbor"), ("dropped_self", "dropped_neighbor"))


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


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(list(RateKind)),
    base=st.one_of(st.floats(0, 2.0**40), st.integers(0, 2**20).map(lambda n: n / 2)),
    slope=st.one_of(st.floats(0, 2.0**30), st.integers(0, 2**10).map(lambda n: n / 4)),
    epochs=st.integers(0, 300),
)
@example(kind=RateKind.CONSTANT, base=2.5, slope=0.0, epochs=0)
@example(kind=RateKind.LINEAR_INCREASING, base=0.5, slope=1.0, epochs=6)
@example(kind=RateKind.LINEAR_DECREASING, base=10.0, slope=3.0, epochs=8)
@example(kind=RateKind.LINEAR_DECREASING, base=7.5, slope=0.5, epochs=40)
@example(kind=RateKind.LINEAR_DECREASING, base=0.0, slope=1.0, epochs=5)
def test_arrivals_are_the_rates_rounded_half_to_even(kind, base, slope, epochs):
    # Cast from `rate`'s floats into the caller's int64 row, the arrivals
    # must be `rate` over the epochs, rounded half to even, ties and ramps
    # that clip at 0 included.
    fn = RateFunction(kind, base, slope)
    expected = np.rint(fn.rate(np.arange(epochs))).astype(np.int64).tolist()
    out = np.full(epochs, -1, np.int64)
    assert fn.arrivals(out) is out and out.tolist() == expected


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
    assert_same_schedule(_schedule_sweep([config]), schedule_cohorts(config))


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


# Backlogs small and large, up to 2**53, so that a pair may sum past it.
_backlogs = st.one_of(
    st.integers(0, 1000), st.integers(0, 2**53), st.sampled_from([0, 1, 2**52, 2**53 - 1, 2**53])
)


@settings(max_examples=300, deadline=None)
@given(
    pairs=st.lists(st.tuples(_backlogs, _backlogs), min_size=1, max_size=12),
    epoch_length=st.one_of(st.just(1.0), st.floats(1e-3, 1e3)),
    min_share=st.one_of(st.floats(1e-6, 0.5, exclude_max=True), st.sampled_from([0.05, 0.25])),
    capacity=st.one_of(st.integers(0, 1000), st.integers(0, 2**53), st.just(2**53)),
)
# 0 / 0, and shares exactly at either clamp bound.
@example(pairs=[(0, 0), (3, 1), (1, 3), (0, 5), (5, 0)], epoch_length=1.0, min_share=0.25, capacity=100)
@example(pairs=[(0, 0), (10, 30)], epoch_length=2.0, min_share=0.05, capacity=101)
# Sums of 2**53 and just past it.
@example(
    pairs=[(2**52, 2**52), (2**53, 1), (2**53 - 1, 2), (1, 2**53)], epoch_length=0.75, min_share=0.05, capacity=2**53
)
def test_array_split_is_ctc_split_where_the_backlogs_sum_within_2_53(pairs, epoch_length, min_share, capacity):
    # The `ctc` schedule serves the epochs that start regular with the
    # array split, and the rest with `ctc_split`. Where a pair sums past
    # 2**53, numpy would round the sum before dividing: the mask leaves
    # that epoch to `ctc_split`.
    self_backlog, neighbor_backlog = (np.array(column, np.int64) for column in zip(*pairs))
    *split, exact = _ctc_split_array(self_backlog, neighbor_backlog, epoch_length, min_share, capacity)
    assert exact.tolist() == [a + b <= 2**53 for a, b in pairs]
    assert [column.dtype for column in split] == [np.float64, np.float64, np.int64, np.int64]
    for i in np.flatnonzero(exact).tolist():
        expected = ctc_split(*pairs[i], epoch_length, min_share, capacity)
        got = tuple(column[i].item() for column in split)
        assert [type(value) for value in got] == [type(value) for value in expected]
        # Bit for bit: float.hex tells 0.0 from -0.0.
        assert [value.hex() if isinstance(value, float) else value for value in got] == [
            value.hex() if isinstance(value, float) else value for value in expected
        ]


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


@pytest.mark.parametrize("neighbor_count", [1, 7, MAX_NEIGHBOR_COUNT])
def test_source_split_matches_python_divmod(neighbor_count):
    # Counts at and around one packet per source, and near 2**53, the
    # largest run total validation lets a class reach.
    arrivals = [0, 1, neighbor_count - 1, neighbor_count, neighbor_count + 1, 2 * neighbor_count - 1]
    arrivals += [2**53 + step for step in range(-neighbor_count - 1, 3, max(1, neighbor_count // 3))]
    arrivals += [2**53 - 1, 2**53, 2**53 + 1]
    split = source_split(np.array(arrivals, np.int64), neighbor_count)
    assert split.dtype == np.int64 and split.shape == (neighbor_count, len(arrivals))
    for column, count in zip(split.T.tolist(), arrivals):
        assert column == source_shares(count, neighbor_count), count
    for count in (0, neighbor_count, 2**53 + 1):
        assert source_split(count, neighbor_count).tolist() == source_shares(count, neighbor_count)


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
    # run() raises on any conservation break; this drives it
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
    # _draw_losses draws a whole run's losses in one array call where the
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
    """Every per-epoch column equals the per-packet reference engine's; returns the reference columns by name."""
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
    return expected


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
# `ctc` at a deadline of 1 past capacity: each queue starts every epoch cut
# back to its deadline bound, so the `ctc` loop runs no epoch.
@example(
    seeds=[0, 1], policy=Policy.CTC, self_rate_fn=constant(9.0),
    neighbor_rate_fn=RateFunction(RateKind.LINEAR_INCREASING, 0.0, 0.3), data_rate=12.0, epoch_length=1.0,
    min_share_fraction=0.05, deadline_epochs=1, energy_budget=0, base_drop_prob=0.1, epochs=60,
)
# A ramp that reaches capacity, at a deadline of 10: from epoch 301 on the
# queues start each epoch neither empty nor cut back, and the loop runs the
# last 100 epochs.
@example(
    seeds=[0, 2**64 - 1], policy=Policy.CTC, self_rate_fn=constant(21.0),
    neighbor_rate_fn=RateFunction(RateKind.LINEAR_INCREASING, 20.0, 0.005), data_rate=42.0, epoch_length=1.0,
    min_share_fraction=0.05, deadline_epochs=10, energy_budget=0, base_drop_prob=0.15, epochs=400,
)
def test_engine_matches_reference_random_configs(seeds, **config_fields):
    # One schedule realized at two seeds, as run_case does per grid point;
    # each seed's row must match the reference run at its own seed, as must
    # the one-run path.
    cfg = SimConfig(**config_fields)
    realized = _realize_sweep(_schedule_sweep([cfg]), _seeded(seeds))
    for row, seed in enumerate(seeds):
        seeded = dataclasses.replace(cfg, seed=seed)
        expected = assert_matches_reference(run(seeded), seeded)
        for names, pair in zip(REALIZED_FIELDS, realized, strict=True):
            for name, column in zip(names, pair, strict=True):
                assert column[0, row].tolist() == expected[name], name


# Each (self, neighbor) pair of a Schedule and the reference engine's names of its two columns.
SCHEDULE_PAIRS = {
    "offered": ("offered_self", "offered_neighbor"),
    "sent": ("serviced_self", "attempts_neighbor"),
    "dropped_before_loss": ("dropped_before_loss_self", "dropped_before_loss_neighbor"),
    "queued": ("queued_self", "queued_neighbor"),
    "times": ("t_pp", "t_np"),
}


def assert_same_schedule(plan, expected, row=0):
    """Row ``row`` of every column of ``plan`` has the dtype and bytes of ``expected``'s.

    ``expected`` is a one-row Schedule or the reference engine's columns by name as lists.
    """
    # Every per-epoch pair is compared; ``epoch`` and ``backlog`` place a block in its run, and
    # ``running`` of a schedule from a fresh target is the running sum of its ``offered``.
    declared = {f.name for f in dataclasses.fields(Schedule)}
    assert set(SCHEDULE_PAIRS) == declared - {"configs", "epoch", "backlog", "running"}
    for column, offered in zip(plan.running, plan.offered, strict=True):
        assert column[row].tobytes() == np.cumsum(offered[row]).tobytes()
    if isinstance(expected, dict):
        assert set(expected) == {name for names in SCHEDULE_PAIRS.values() for name in names}
    for field, names in SCHEDULE_PAIRS.items():
        for member, (name, column) in enumerate(zip(names, getattr(plan, field), strict=True)):
            want = expected[name] if isinstance(expected, dict) else getattr(expected, field)[member][0]
            want = np.asarray(want, dtype=np.float64 if field == "times" else np.int64)
            assert column[row].dtype == want.dtype, name
            assert column[row].tobytes() == want.tobytes(), name


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
    # 2.0**log2(bound) can round past the bound (at epochs 3, 5 and 6), which
    # validation rejects, so the power is capped at it.
    power = st.floats(40, math.log2(bound)).map(lambda x: min(2.0**x, float(bound)))
    scale = draw(st.one_of(st.just(float(bound)), power))
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
# Under `ctc` the backlogs of the one epoch sum past 2**53, where numpy
# would round the sum before the split divides by it: the epoch takes
# `ctc_split`, whose caps differ there from the array split's.
@example(
    config=SimConfig(
        epochs=1,
        data_rate=2.0**53,
        deadline_epochs=1,
        self_rate_fn=constant(2.0**53),
        neighbor_rate_fn=constant(6688457337256887.0),
    )
)
def test_schedule_matches_cohort_oracle_at_int64_extremes(config):
    # Run totals and capacities reach 2**53 here, and the dsr scan's running
    # allowance reaches about 2**61. The oracle's counts are Python ints that
    # never wrap, and its times come from Python's own int / int, or from its
    # own ctc split.
    assert_same_schedule(_schedule_sweep([config]), schedule_cohorts(config))


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
def _running_columns(draw):
    """Equal-length ``offered`` and ``dropped`` count columns, ``offered`` led by zeros.

    Each count is at most ``2**53 // epochs``, so every running sum stays
    within 2**53 and a column of that count ends within ``epochs`` of it.
    """
    epochs = draw(st.integers(0, 40))
    cap = 2**53 // max(epochs, 1)
    counts = st.lists(st.one_of(st.just(cap), st.integers(0, cap)), min_size=epochs, max_size=epochs)
    lead = draw(st.integers(0, epochs))
    offered = [0] * lead + draw(counts)[lead:]
    return np.array(offered, np.int64), np.array(draw(counts), np.int64)


@settings(max_examples=300, deadline=None)
@given(columns=_running_columns())
@example(columns=(np.array([0, 0, 2**53 - 1, 1]), np.array([0, 1, 2**53 - 3, 2])))
@example(columns=(np.array([3, 2**53 - 3]), np.array([1, 2**53 - 2])))
@example(columns=(np.zeros(3, np.int64), np.array([0, 5, 0])))
@example(columns=(np.zeros(0, np.int64), np.zeros(0, np.int64)))
def test_cumulative_ratio_is_python_int_division_of_the_running_sums(columns):
    # Summed in float64 straight into the ratio's column, the running drops
    # are exact within 2**53, as are the running arrivals converted to
    # float64, so each ratio is Python's int / int of them; before the
    # first packet is offered it is 0, whatever was dropped.
    offered, dropped = columns
    running_offered = running_dropped = 0
    expected = []
    for o, d in zip(offered.tolist(), dropped.tolist()):
        running_offered += o
        running_dropped += d
        expected.append(running_dropped / running_offered if running_offered else 0.0)
    ratio = sim._cumulative_ratio(dropped, np.cumsum(offered))
    assert ratio.dtype == np.float64 and ratio.tolist() == expected


# `run`'s tracemalloc peak in bytes per epoch at 10**5 epochs, `trace_deep`'s
# config (`dsr`: rates 300 and 200, capacity 420, deadline 20) and `ctc` at
# the same rates. The returned trace is 96 B/epoch (12 columns of 8 bytes),
# filled block by block, so the rest is one block's work, about 1.8 MB at
# 8,000 epochs a block. Measured (numpy 2.4.6, numpy.random imported
# before): `dsr` 113.7 and `ctc` 113.0. Both read 146.4 when `run` held the
# whole schedule through the ratios and drew from an interleaved copy of
# `sent`, and `dsr` 112.1 and `ctc` 136.0 when `run` held the whole-run
# schedule but not the columns the trace does not keep.
_RUN_PEAK_BYTES_PER_EPOCH = {Policy.DSR: 116, Policy.CTC: 116}


@pytest.mark.parametrize("policy", sorted(_RUN_PEAK_BYTES_PER_EPOCH))
def test_run_memory_per_epoch_is_near_the_trace(policy):
    config = SimConfig(
        epochs=10**5, neighbor_count=1, data_rate=420.0, policy=policy, deadline_epochs=20,
        energy_budget=6_000_000, self_rate_fn=constant(300), neighbor_rate_fn=constant(200),
    )
    run(dataclasses.replace(config, epochs=10))  # numpy imports numpy.random lazily
    tracemalloc.start()
    try:
        run(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < _RUN_PEAK_BYTES_PER_EPOCH[policy] * config.epochs


@st.composite
def _block_runs(draw):
    """A config of either policy and any rate kind, and a block size from 1 to past its run.

    Half are ``_raw_configs`` that validation accepts: runs of 0 to 12
    epochs with deadlines of 1 to 6, often longer than the block. Half are
    ``_extreme_configs``, most of them short and some of 512 to 1,000
    epochs with a deadline near their length, at the bounds of validation;
    a long run takes at most 32 blocks.
    """
    if draw(st.booleans()):
        try:
            config = config_from_dict(draw(_raw_configs()))
        except CtcSimError:
            assume(False)
    else:
        config = draw(_extreme_configs())
    return config, draw(st.integers(max(1, config.epochs // 32), config.epochs + 2))


@settings(max_examples=100, deadline=None)
@given(case=_block_runs())
@example(case=(SimConfig(epochs=0), 1))
@example(case=(SimConfig(epochs=9, policy=Policy.DSR, deadline_epochs=7, self_rate_fn=constant(3)), 2))
def test_blocks_concatenate_to_the_run_bit_for_bit(case):
    # Each block carries the schedule's state, the running sums of the
    # ratios and the seed's generator to the next, so the blocks of any size
    # are the run, float bits included, also where the deadline reaches back
    # over several blocks.
    config, size = case
    with mock.patch.object(sim, "_BLOCK_EPOCHS", size):
        blocks = list(sim.run_blocks(config))
    starts = range(0, config.epochs, size)
    assert [block.offered_self.size for block in blocks] == [min(size, config.epochs - start) for start in starts]
    trace = run(config)
    for name in TRACE_FIELDS:
        whole = getattr(trace, name)
        parts = [getattr(block, name) for block in blocks]
        assert all(part.dtype == whole.dtype for part in parts), name
        assert b"".join(part.tobytes() for part in parts) == whole.tobytes(), name


@st.composite
def _steady_runs(draw):
    """A run of either policy at rates that are constant from some epoch on, and a block size of 1 to 8 epochs.

    Each rate is constant or falls to zero within 8 epochs. Capacity (0
    at times), rates, deadline (often longer than the block) and budget are
    small, so the queues settle within the run, blocks repeat, and the
    ``dsr`` budget runs out anywhere: before the run, inside a block, at a
    block's edge or never. The last block is often shorter.
    """
    kinds = st.sampled_from([RateKind.CONSTANT, RateKind.LINEAR_DECREASING])
    rates = st.builds(lambda kind, base, slope: RateFunction(kind, float(base), float(slope)), kinds,
                      st.integers(0, 8), st.integers(1, 8))
    config = SimConfig(
        epochs=draw(st.integers(1, 40)),
        neighbor_count=1,
        data_rate=float(draw(st.integers(0, 12))) or 0.25,
        policy=draw(st.sampled_from(list(Policy))),
        deadline_epochs=draw(st.integers(1, 10)),
        energy_budget=draw(st.integers(0, 200)),
        self_rate_fn=draw(rates),
        neighbor_rate_fn=draw(rates),
        seed=draw(st.integers(0, 3)),
    )
    return config, draw(st.integers(1, 8))


def _steady(policy, epochs, deadline, budget, size):
    """Capacity 10, 6 self and 5 neighbor packets an epoch: under ``dsr`` 4 neighbor packets are serviced each epoch."""
    return SimConfig(
        epochs=epochs, neighbor_count=1, data_rate=10.0, policy=policy, deadline_epochs=deadline,
        energy_budget=budget, self_rate_fn=constant(6), neighbor_rate_fn=constant(5),
    ), size


@settings(max_examples=100, deadline=None)
@given(case=_steady_runs())
# In blocks of 3 the queues settle by block 2, which block 3 repeats while
# the budget lasts; 12 neighbor packets are serviced a block. The budget
# runs out inside block 3, which takes no schedule; block 5 repeats block 4.
@example(case=_steady(Policy.DSR, 20, 2, 42, 3))
# The budget left at block 3 equals its serviced total: block 3 repeats
# block 2, the budget runs out at its last epoch, and block 5 repeats
# block 4. The last block is 2 epochs.
@example(case=_steady(Policy.DSR, 20, 2, 48, 3))
# One credit more: block 3 repeats block 2, and the budget runs out in the
# first epoch of block 4.
@example(case=_steady(Policy.DSR, 20, 2, 49, 3))
# A deadline of 5 over blocks of 2: blocks 12 to 19 repeat, read from the
# ring of the blocks before; under ``ctc`` blocks 14 to 18, and the last
# block is 1 epoch.
@example(case=_steady(Policy.DSR, 40, 5, 10**6, 2))
@example(case=_steady(Policy.CTC, 39, 5, 10**6, 2))
# 5 neighbor packets at epoch 0, no capacity and a deadline of 10: blocks 2
# to 4 of 2 epochs repeat block 1, the same 5 packets queued. Block 5 has
# their arrivals and queue too, but its deadline bounds expire them.
@example(case=(SimConfig(epochs=14, data_rate=0.25, deadline_epochs=10,
                         neighbor_rate_fn=RateFunction(RateKind.LINEAR_DECREASING, 5.0, 5.0)), 2))
# Under `ctc` at a deadline of 3 the queues start epochs 14 to 24 neither
# empty nor cut back to their deadline bound. In blocks of 8 that stretch
# crosses the edges at 16 and 24: the `ctc` loop runs all of block 3, and
# block 4 starts irregular and turns regular at epoch 25. In blocks of 7,
# block 3 starts the stretch and block 4 starts inside it.
@example(case=(SimConfig(epochs=40, neighbor_count=1, data_rate=10.0, deadline_epochs=3, self_rate_fn=constant(6),
                         neighbor_rate_fn=RateFunction(RateKind.LINEAR_INCREASING, 2.0, 0.2)), 8))
@example(case=(SimConfig(epochs=40, neighbor_count=1, data_rate=10.0, deadline_epochs=3, self_rate_fn=constant(6),
                         neighbor_rate_fn=RateFunction(RateKind.LINEAR_INCREASING, 2.0, 0.2)), 7))
def test_a_repeated_block_takes_the_schedule_of_the_run(case):
    # A block whose arrivals, deadline bounds, queues and budget left repeat
    # the block before's takes its schedule (`sim._Carry`). The run in
    # blocks is the run in one block bit for bit, and the per-packet
    # reference engine's, counter for counter.
    config, size = case
    with mock.patch.object(sim, "_BLOCK_EPOCHS", size):
        trace = run(config)
    with mock.patch.object(sim, "_BLOCK_EPOCHS", config.epochs):
        whole = run(config)
    for name in TRACE_FIELDS:
        assert getattr(trace, name).tobytes() == getattr(whole, name).tobytes(), name
    assert_matches_reference(trace, config)


@st.composite
def _runs_ending_in_a_shorter_block(draw):
    """A ``_steady_runs`` run of one to six blocks of 2 to 8 epochs and a shorter last block, with the block size."""
    config, _ = draw(_steady_runs())
    size = draw(st.integers(2, 8))
    epochs = size * draw(st.integers(1, 6)) + draw(st.integers(1, size - 1))
    return dataclasses.replace(config, epochs=epochs), size


@settings(max_examples=100, deadline=None)
@given(case=_runs_ending_in_a_shorter_block())
# In blocks of 3 the last block, epochs 18 and 19, starts as the blocks
# before did and takes the first two epochs of their schedule.
@example(case=_steady(Policy.DSR, 20, 2, 10**6, 3))
@example(case=_steady(Policy.CTC, 20, 2, 10**6, 3))
# The neighbor load falls from 5 to 4 packets at epoch 19: the last block's
# arrivals differ from the first epochs of the kept block's in its second
# epoch, and it takes nothing.
@example(case=(SimConfig(epochs=20, neighbor_count=1, data_rate=10.0, deadline_epochs=2, self_rate_fn=constant(6),
                         neighbor_rate_fn=RateFunction(RateKind.LINEAR_DECREASING, 5.0, 1 / 37)), 3))
# 72 credits are spent by epoch 18 and the last 6 run out at epoch 19: the
# budget left differs, and the last block takes nothing.
@example(case=_steady(Policy.DSR, 20, 2, 78, 3))
# Deadlines of 5 and 7 over blocks of 3: the last block reads its first two
# deadline bounds from the ring. Under `dsr` at 7 the neighbor queue starts
# blocks 30 and 33 at 30 and 31 packets, so only the last block takes a
# schedule, the first two epochs of block 33's.
@example(case=_steady(Policy.CTC, 38, 5, 10**6, 3))
@example(case=_steady(Policy.DSR, 38, 7, 10**6, 3))
def test_a_shorter_last_block_takes_the_first_epochs_of_the_kept_schedule(case):
    # The queue pass is causal: a last block shorter than the kept one whose
    # reads (arrivals, deadline bounds, queues, budget left) equal the first
    # epochs of the kept reads takes the first epochs of the kept schedule
    # (`sim._Carry`). Each block of the streamed run is that stretch of the
    # run in one block, bit for bit, and of the per-packet reference
    # engine's, counter for counter.
    config, size = case
    with mock.patch.object(sim, "_BLOCK_EPOCHS", size):
        blocks = list(sim.run_blocks(config))
    with mock.patch.object(sim, "_BLOCK_EPOCHS", config.epochs):
        whole = run(config)
    assert [block.offered_self.size for block in blocks] == [size] * (config.epochs // size) + [config.epochs % size]
    for start, block in zip(range(0, config.epochs, size), blocks, strict=True):
        for name in TRACE_FIELDS:
            assert getattr(block, name).tobytes() == getattr(whole, name)[start : start + size].tobytes(), name
    assert_matches_reference(whole, config)


# The columns of a block of `run_blocks` that its schedule holds.
_SCHEDULE_COLUMNS = ("offered_self", "offered_neighbor", "queued_self", "queued_neighbor", "t_pp", "t_np")


@pytest.mark.parametrize("policy", list(Policy))
def test_a_write_into_a_yielded_block_reaches_no_later_block(policy, monkeypatch):
    # A block that repeats the block before takes its schedule's columns
    # (`sim._Carry`). Those of a yielded block are read-only, and the others
    # its consumer's own: each block, written into as soon as it is
    # yielded, was what an untouched run yields. Shared and writable, a
    # write into `queued_neighbor` would break the next block's conservation
    # check, and one into `t_pp` would pass unseen. The `dsr` budget runs
    # out at epoch 500.
    config = SimConfig(
        epochs=1000, neighbor_count=1, data_rate=42.0, policy=policy, deadline_epochs=20, energy_budget=6000,
        self_rate_fn=constant(30), neighbor_rate_fn=constant(20), seed=5,
    )
    monkeypatch.setattr(sim, "_BLOCK_EPOCHS", 64)
    untouched = [{name: getattr(block, name).copy() for name in TRACE_FIELDS} for block in sim.run_blocks(config)]
    phases.reset()
    for block, expected in zip(sim.run_blocks(config), untouched, strict=True):
        for name in TRACE_FIELDS:
            column = getattr(block, name)
            assert column.tobytes() == expected[name].tobytes(), name
            if name in _SCHEDULE_COLUMNS:
                with pytest.raises(ValueError, match="read-only"):
                    column += 1
            else:
                column += 1
    assert phases.counts["reused_blocks"] >= 10


@st.composite
def _sweeps(draw):
    """A sweep: configs of one policy, run length and setting of the node,
    each drawn once, that differ only in their loads, in random order.
    Returns them with three of them by name: ``zero``, a zero-rate row;
    ``gated``, neighbor traffic alone that the node serves as it comes,
    whose energy gate binds under dsr once the run's traffic passes the
    budget; and ``overloaded``, both classes offering more in one epoch than
    the node serves in a deadline. Sometimes the sweep sits on the bounds of
    validation instead, with a capacity of 2**53 and a row whose class run
    totals are each within ``epochs`` packets of 2**53; it has no
    overloaded row, since nothing a run may offer overloads it."""
    epochs = draw(st.integers(2, 70))
    fixed = dict(
        epochs=epochs,
        policy=draw(st.sampled_from(list(Policy))),
        deadline_epochs=draw(st.integers(1, 80)),
        energy_budget=draw(st.integers(0, 400)),
        min_share_fraction=draw(st.floats(1e-6, 0.5, exclude_max=True)),
    )
    top = 2**53 // epochs
    if draw(st.booleans()):
        fixed.update(data_rate=2.0**53)
        capacity, loads = 2**53, {"top": (top, top)}
    else:
        fixed.update(data_rate=draw(st.floats(1.0, 60.0)), epoch_length=draw(st.floats(0.1, 10.0)))
        capacity = round(fixed["data_rate"] * fixed["epoch_length"])
        overload = (min(fixed["deadline_epochs"], epochs) + 1) * (capacity + 1)
        loads = {"overloaded": (overload, overload)}
    loads.update(zero=(0, 0), gated=(0, min(capacity, top)))
    marked = {
        name: SimConfig(**fixed, self_rate_fn=constant(s), neighbor_rate_fn=constant(n))
        for name, (s, n) in loads.items()
    }
    rows = list(marked.values())
    for _ in range(draw(st.integers(0, 5))):
        rows.append(SimConfig(**fixed, self_rate_fn=draw(rate_functions), neighbor_rate_fn=draw(rate_functions)))
    return draw(st.permutations(rows)), marked


@settings(max_examples=120, deadline=None)
@given(sweep=_sweeps())
def test_batched_sweep_rows_equal_their_own_schedule(sweep):
    # run_case schedules each policy's half of a sweep as one stack; no row
    # may see another's loads.
    configs, marked = sweep
    plan = _schedule_sweep(configs)
    assert plan.configs == tuple(configs)
    for row, config in enumerate(configs):
        assert_same_schedule(plan, _schedule_sweep([config]), row)
        assert_same_schedule(plan, schedule_cohorts(config), row)
    at = {name: next(i for i, c in enumerate(configs) if c is config) for name, config in marked.items()}
    setting = configs[0]
    zero = at["zero"]
    if setting.policy is Policy.DSR:
        assert not any(column[zero].any() for column in (*plan.offered, plan.times[0]))
        # Served as it comes, the gated row's neighbor traffic is attempted until the budget runs out.
        serviced = plan.offered[1][at["gated"]].sum()
        attempts = min(serviced, setting.energy_budget)
        assert plan.sent[1][at["gated"]].sum() == attempts
        assert plan.dropped_before_loss[1][at["gated"]].sum() == serviced - attempts
    else:
        # With both queues empty, ctc splits the epoch evenly.
        assert not any(column[zero].any() for column in plan.offered)
        assert (plan.times[0][zero] == plan.times[1][zero]).all()
    if "overloaded" in at:
        # The packets of the first epoch outlast the deadline unless the run ends first.
        overloaded = at["overloaded"]
        if setting.deadline_epochs < setting.epochs:
            assert all(column[overloaded].any() for column in plan.dropped_before_loss)
        else:
            assert all(column[overloaded, -1] > 0 for column in plan.queued)


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
    # build budget cut so the trace spans at least two blocks, of different
    # sizes: every block is built in the one buffer, and no byte a block
    # leaves there may reach another's text. No block is longer than the
    # budget, unless it is one epoch that alone is longer. Each block is
    # compacted in slices of a drawn size, from one byte up to the budget, so
    # slice seams fall inside lines, fields and runs of pad bytes; no text is
    # longer than a slice. Up to 60 sources, node ids and per-source counts
    # cross a digit boundary inside a block.
    trace = run(SimConfig(**config_fields))
    expected = reference_trace_csv(trace)
    budget = chunking.draw(st.integers(1, len(expected) // 2), label="chunk_bytes")
    slice_bytes = chunking.draw(st.integers(1, budget), label="slice_bytes")
    dest = tmp_path_factory.getbasetemp() / "writer_trace.csv"
    with mock.patch.object(report, "_TRACE_CHUNK_BYTES", budget), mock.patch.object(
        report, "_TRACE_SLICE_BYTES", slice_bytes
    ):
        blocks = [(len(block), block.tobytes().count(b"\n")) for block in report._trace_blocks(trace)]
        texts = [len(text) for text in report._trace_chunks(trace)][1:]
        written = emit_trace_csv(trace, dest)
    data = dest.read_bytes()
    assert written == len(data)
    assert data == expected
    assert len(blocks) >= 2
    assert all(size <= budget or lines == trace.config.neighbor_count + 1 for size, lines in blocks)
    assert max(texts) <= slice_bytes
    # A draw whose blocks all have one size is checked above, but hypothesis
    # does not count it towards its examples.
    assume(len({size for size, _ in blocks}) >= 2)


def test_emit_trace_csv_matches_per_row_writer_across_chunk_and_group_seams(tmp_path):
    # 120 sources, so every epoch's node ids cross 9 to 10 and 99 to 100
    # inside its block, and the per-source counts ramp from 0 to 16 across
    # the run: one epoch has counts of 9 and 10. Groups of 64 epochs, whose
    # target fields are each formatted once, end at 64 and 128, and blocks
    # end there and at each power of ten of the epoch: the group from epoch
    # 64 holds epochs of two and three digits. With a budget of about three
    # and a half epochs' bytes, a block holds three epochs, the last before
    # a seam fewer, and every run between seams two blocks or more; with a
    # budget of one byte, every epoch is bigger than the budget and takes a
    # block of its own. Each layout is written in slices of a whole block,
    # and of 7 bytes, less than any line.
    trace = run(
        SimConfig(
            epochs=150,
            neighbor_count=120,
            data_rate=60.0,
            base_drop_prob=0.1,
            seed=11,
            self_rate_fn=constant(20.0),
            neighbor_rate_fn=RateFunction(RateKind.LINEAR_INCREASING, 0.0, 13.0),
        )
    )
    expected = reference_trace_csv(trace)
    assert min(map(len, expected.splitlines())) > 7
    epoch_bytes = len(expected) // trace.config.epochs
    for budget in (7 * epoch_bytes // 2, 1):
        with mock.patch.object(report, "_TRACE_CHUNK_BYTES", budget), mock.patch.object(
            report, "_TRACE_GROUP_EPOCHS", 64
        ):
            with mock.patch.object(report, "_line_fields", wraps=report._line_fields) as line_fields:
                blocks = [block.tobytes().replace(b"\0", b"") for block in report._trace_blocks(trace)]
            group_starts = [int(call.args[0][0][0]) for call in line_fields.call_args_list]
            for slice_bytes in (len(expected), 7):
                dest = tmp_path / f"trace-{budget}-{slice_bytes}.csv"
                with mock.patch.object(report, "_TRACE_SLICE_BYTES", slice_bytes):
                    texts = list(report._trace_chunks(trace))[1:]
                    written = emit_trace_csv(trace, dest)
                data = dest.read_bytes()
                assert written == len(data)
                assert data == expected
                if slice_bytes == 7:
                    assert max(map(len, texts)) <= 7
                else:
                    assert texts == blocks
        block_starts = [int(block.split(b",", 1)[0]) for block in blocks]
        block_epochs = [block.count(b"\n") // 121 for block in blocks]
        assert group_starts == [0, 64, 128]
        seams = [0, 10, 64, 100, 128]
        assert set(seams) <= set(block_starts)
        if budget == 1:
            assert block_epochs == [1] * 150
        else:
            assert block_epochs[:4] == [3, 3, 3, 1]
            blocks_per_run = np.diff(np.searchsorted(block_starts, [*seams, trace.config.epochs]))
            assert (blocks_per_run >= 2).all()
    sent = source_split(trace.offered_neighbor, 120)
    assert ((sent.min(axis=0) == 9) & (sent.max(axis=0) == 10)).any()


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
    loads = [(300, 200, Policy.CTC), (2, 70, Policy.CTC), (90, 400, Policy.DSR)]
    first, second, third = (
        SimConfig(epochs=40, data_rate=420.0, base_drop_prob=p, self_rate_fn=constant(s),
                  neighbor_rate_fn=constant(n), policy=policy)
        for s, n, policy in loads
    )
    other = SimConfig(epochs=40, base_drop_prob=0.3, self_rate_fn=constant(900))
    # The configs of each sweep differ only in their loads; together the
    # sweeps draw the points in the order first, second, third, other,
    # third, second, first.
    for sweep in ([first, second], [third], [other], [third], [second, first]):
        plan = _schedule_sweep(sweep)
        lost = _draw_losses(plan, generators)
        assert lost.shape == (len(sweep), len(seeds), 80)
        for point, config, serviced, attempts in zip(lost, sweep, *plan.sent, strict=True):
            sent = np.ravel([serviced, attempts], order="F")
            for row, seed in zip(point, seeds):
                assert row.tolist() == np.random.default_rng(seed).binomial(sent, config.base_drop_prob).tolist()


def _loss_plan(counts, p):
    """A one-point schedule whose interleaved ``sent`` row is ``counts``, drawn at ``p``.

    The draw reads no other column. The schedule conserves packets: every
    packet offered is sent in its epoch.
    """
    counts = np.asarray(counts, np.int64)
    pair = (counts[None, 0::2], counts[None, 1::2])
    zeros = tuple(np.zeros_like(column) for column in pair)
    config = SimConfig(epochs=counts.size // 2, base_drop_prob=p)
    return Schedule((config,), pair, pair, zeros, zeros, pair)


@st.composite
def long_loss_rows(draw):
    """``p`` in (0, 0.5] and a long row of a few distinct counts, up to and past ``floor(30 / p)``, with zeros."""
    p = draw(st.floats(min_value=0.0, max_value=0.5, exclude_min=True))
    limit = math.floor(min(30 / p, 2.0**40)) + 2
    near_limit = st.integers(max(limit - 4, 1), limit)
    values = draw(st.lists(st.integers(1, limit) | near_limit, min_size=1, max_size=3))
    zero_share = draw(st.sampled_from([0.0, 0.1, 0.3]))
    size = 2 * draw(st.integers(6200, 8000))
    layout = np.random.default_rng(draw(st.integers(0, 2**32)))
    counts = layout.choice(np.array(values, np.int64), size)
    counts[layout.random(size) < zero_share] = 0
    return p, counts


@settings(max_examples=60, deadline=None)
@given(row=long_loss_rows(), seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=2))
@example(row=(0.05, np.tile([300, 120, 300, 0], 3500)), seeds=[0, 2**64 - 1])
@example(row=(0.15, np.tile([200, 0, 201, 37, 1, 0], 2500)), seeds=[2**64 - 1])
@example(row=(0.5, np.tile([60, 59, 0, 61, 1], 3000)), seeds=[0, 1])
def test_draw_losses_is_numpys_binomial_on_long_rows(row, seeds):
    # A long row of few distinct counts, each inverted by numpy (n * p <= 30),
    # is drawn by the table sampler; any other row by numpy's own call. Both
    # must give numpy's stream.
    p, counts = row
    lost = _draw_losses(_loss_plan(counts, p), _seeded(seeds))
    for drawn, seed in zip(lost[0], seeds, strict=True):
        assert drawn.tolist() == np.random.default_rng(seed).binomial(counts, p).tolist()


# Rows the table sampler takes: `trace_deep`'s three counts, counts up to
# 30 / p at p = 0.15, the count 60 = 30 / p at p = 0.5, and `trace_deep`'s
# counts as its budget runs out, a chunk of `sim._CHUNK` counts without a
# zero, drawn in place, before a shorter one with zeros.
_TABLE_ROWS = [
    (0.05, np.tile([300, 120, 300, 0], 3000)),
    (0.15, np.tile([200, 0, 3, 1, 150], 4096)),
    (0.5, np.tile([60, 0], 6000)),
    (0.05, np.concatenate([np.tile([300, 120], 8192), np.tile([300, 0], 4000)])),
]


@pytest.mark.parametrize("p, counts", _TABLE_ROWS)
@pytest.mark.parametrize("guard", [2**60, 2**40], ids=["every_sample", "eighth_bucket"])
def test_table_sampler_redecides_every_sample_inside_a_widened_guard_band(monkeypatch, p, counts, guard):
    # Widened, the band holds samples: at 2**60 every one, at 2**40, an
    # eighth of a bucket, those in single-threshold buckets too. Each sample
    # within `guard` of a threshold must be decided by `_invert`, numpy's
    # loop transcribed, and the row must still be numpy's.
    assert sim._tables(counts, p) is not None
    decided = []
    real_invert = sim._invert

    def counting_invert(n, p, m):
        decided.append((n, m))
        return real_invert(n, p, m)

    monkeypatch.setattr(sim, "_GUARD", guard)
    monkeypatch.setattr(sim, "_invert", counting_invert)
    seeds = (0, 2**64 - 1)
    lost = _draw_losses(_loss_plan(counts, p), _seeded(seeds))
    thresholds = {n: sim._thresholds(n, p) for n in set(counts.tolist())}
    nonzero = counts[counts != 0].tolist()
    near = []
    for seed in seeds:
        uniforms = (np.random.default_rng(seed).bit_generator.random_raw(len(nonzero)) >> np.uint64(11)).tolist()
        near += [(n, m) for n, m in zip(nonzero, uniforms) if np.abs(thresholds[n] - m).min() <= guard]
    assert 0 < len(near) and sorted(decided) == sorted(near)
    for drawn, seed in zip(lost[0], seeds):
        assert drawn.tolist() == np.random.default_rng(seed).binomial(counts, p).tolist()


@pytest.mark.parametrize("p, counts", _TABLE_ROWS)
def test_table_binomial_writes_every_sample_and_a_zero_for_each_zero_count(p, counts):
    # `_draw_losses` hands it a row of `np.empty`, so no position may be left as found.
    generator, _ = _seeded((11,))[0]
    out = np.full(counts.size, -1, np.int64)
    assert sim._table_binomial(counts, p, sim._tables(counts, p), generator, out)
    assert out.tolist() == np.random.default_rng(11).binomial(counts, p).tolist()


@pytest.mark.parametrize("p, counts", _TABLE_ROWS)
@pytest.mark.parametrize("where", ["searchsorted", "invert"])
def test_table_sampler_gives_a_row_with_a_sample_past_bound_to_numpy(monkeypatch, binomial_calls, p, counts, where):
    # numpy draws a fresh uniform for a sample past `bound`, which shifts the
    # rest of the row, so such a row is drawn again by numpy from the seeded
    # state. Past `bound` is reported by thresholds cut short (the samples
    # above the one left take `searchsorted`) or by `_invert` in the band.
    if where == "searchsorted":
        real_thresholds = sim._thresholds
        monkeypatch.setattr(sim, "_thresholds", lambda n, p: real_thresholds(n, p)[:1])
    else:
        real_invert = sim._invert
        calls = []

        def invert_past_bound_once(n, p, m):
            calls.append(m)
            return None if len(calls) == 100 else real_invert(n, p, m)

        monkeypatch.setattr(sim, "_GUARD", 2**60)
        monkeypatch.setattr(sim, "_invert", invert_past_bound_once)
    lost = _draw_losses(_loss_plan(counts, p), sim._seeded((7,)))
    assert binomial_calls == [counts.size]
    assert lost[0, 0].tolist() == np.random.default_rng(7).binomial(counts, p).tolist()


@pytest.mark.parametrize("block", [1, 2])
def test_table_sampler_gives_a_row_of_a_later_block_to_numpy_from_that_blocks_state(monkeypatch, binomial_calls, block):
    # Three blocks of 4,096 epochs of `trace_deep`'s two counts, 300 and
    # 120, 8,192 samples a block, each block drawn by the table sampler. With
    # the band widened, `_invert` decides every sample; it reports a sample
    # past `bound` in block 1 or 2 (counted from 0). numpy then draws that
    # block's row again from the state its draw started from, the one the
    # blocks before it left, not the seeded state. Every block is numpy's
    # stream over the whole run.
    config = SimConfig(
        epochs=3 * 4096, neighbor_count=1, data_rate=420.0, policy=Policy.DSR, deadline_epochs=20,
        energy_budget=10**9, self_rate_fn=constant(300), neighbor_rate_fn=constant(200), seed=7,
    )
    plan = _schedule_sweep([config])
    sent = np.ravel([plan.sent[0][0], plan.sent[1][0]], order="F")
    assert set(sent.tolist()) == {120, 300}
    real_invert = sim._invert
    calls = []

    def invert_past_bound_once(n, p, m):
        calls.append(m)
        return None if len(calls) == block * 8192 + 100 else real_invert(n, p, m)

    monkeypatch.setattr(sim, "_GUARD", 2**60)
    monkeypatch.setattr(sim, "_invert", invert_past_bound_once)
    monkeypatch.setattr(sim, "_BLOCK_EPOCHS", 4096)
    blocks = list(sim.run_blocks(config))
    assert binomial_calls == [8192]
    forwarded = [np.concatenate([getattr(b, f"forwarded_{cls}") for b in blocks]) for cls in ("self", "neighbor")]
    lost = sent - np.ravel(forwarded, order="F")
    assert lost.tolist() == np.random.default_rng(7).binomial(sent, 0.05).tolist()


def test_table_sampler_takes_only_long_rows_that_numpy_inverts():
    deep = np.tile([300, 120], 4096)
    assert sim._tables(deep, 0.05) is not None
    assert sim._tables(deep[:8190], 0.05) is None  # fewer than 4096 samples per count
    assert sim._tables(np.append(deep, 601), 0.05) is None  # 601 * 0.05 > 30: BTPE
    assert sim._tables(deep, 0.55) is None  # numpy inverts 1 - p
    assert sim._tables(deep, 0.0) is None  # numpy draws nothing
    assert sim._tables(np.tile([20, 1], 8192), 0.05) is None  # about half a step of numpy's loop a count
    assert sim._tables(np.tile([60, 20], 8192), 0.05) is not None  # two steps a count
    assert sim._tables(np.zeros(10**4, np.int64), 0.05) is None
    assert sim._tables(np.tile([1, 2, 3, 10**5], 4096), 3e-4) is None  # a count past the row's length
    # A table kept from the row before costs nothing to build, so a block
    # with fewer samples takes the sampler when its counts' tables are kept
    # (the last block of `trace_deep`, after the budget runs out); the kept
    # tables are then this row's.
    tail = np.tile([300, 0], 2048)
    assert sim._tables(tail, 0.05) is None
    kept = {}
    assert sim._tables(deep, 0.05, kept) is not None and sorted(kept) == [(120, 0.05), (300, 0.05)]
    assert sim._tables(tail, 0.05, kept) is not None and list(kept) == [(300, 0.05)]


def test_long_dsr_run_draws_its_losses_without_numpys_binomial(binomial_calls):
    # `trace_deep` scaled down: two distinct counts (300 self, 120 neighbor
    # until the budget runs out at epoch 4,000, then 0), each inverted.
    cfg = SimConfig(
        epochs=8000, neighbor_count=1, data_rate=420.0, policy=Policy.DSR, deadline_epochs=20,
        energy_budget=480_000, self_rate_fn=constant(300), neighbor_rate_fn=constant(200), seed=3,
    )
    trace = run(cfg)
    assert binomial_calls == []
    assert trace.forwarded_neighbor[4000:].sum() == 0 < trace.forwarded_neighbor[:4000].sum()
    plan = _schedule_sweep([cfg])
    sent = np.ravel([plan.sent[0][0], plan.sent[1][0]], order="F")
    assert sorted(set(sent.tolist())) == [0, 120, 300]
    lost = _draw_losses(plan, sim._seeded((3,)))
    assert binomial_calls == []
    assert lost[0, 0].tolist() == np.random.default_rng(3).binomial(sent, 0.05).tolist()


def test_realize_names_first_epoch_that_breaks_conservation(monkeypatch):
    real_schedule = sim._schedule_sweep

    def broken_schedule(configs, *block):
        plan = real_schedule(configs, *block)
        queued_self, queued_nbr = plan.queued
        queued_nbr = queued_nbr.copy()
        queued_nbr[:, 3:] += 1
        return dataclasses.replace(plan, queued=(queued_self, queued_nbr))

    monkeypatch.setattr(sim, "_schedule_sweep", broken_schedule)
    cfg = SimConfig(epochs=6, data_rate=10.0, self_rate_fn=constant(4), neighbor_rate_fn=constant(30))
    with pytest.raises(RuntimeError, match="neighbor-class conservation violated at the target, epoch 3"):
        run(cfg)


def _with_extra_packet(plan, *edits):
    """``plan`` rebuilt with one packet more in each ``(column, class, row, epochs)`` of ``edits``."""
    columns = {name: [column.copy() for column in getattr(plan, name)] for name, *_ in edits}
    for name, pair_index, row, epochs in edits:
        columns[name][pair_index][row, epochs] += 1
    return dataclasses.replace(plan, **{name: tuple(pair) for name, pair in columns.items()})


@pytest.mark.parametrize("policy", list(Policy))
@pytest.mark.parametrize(
    "edits, name, epoch",
    [
        # The second row breaks at an earlier epoch: the first row is named.
        ([("queued", 1, 0, slice(4, None)), ("queued", 1, 1, slice(1, None))], "neighbor", 4),
        # Self before neighbor at the same epoch of the same row.
        ([("queued", 1, 0, slice(4, None)), ("sent", 0, 0, 4)], "self", 4),
        # An earlier epoch of the row wins over the class order.
        ([("sent", 0, 0, 4), ("offered", 1, 0, 2)], "neighbor", 2),
        # A break in a later row alone, and one in each row, each class.
        ([("dropped_before_loss", 1, 1, 3)], "neighbor", 3),
        ([("queued", 1, 0, 5), ("queued", 0, 1, 1)], "neighbor", 5),
    ],
)
def test_schedule_that_breaks_conservation_raises_when_built(policy, edits, name, epoch):
    # Conservation is the schedule's own invariant, checked once per row: a
    # schedule that loses or invents a packet cannot be built, so no seed
    # ever realizes it.
    configs = [
        SimConfig(epochs=6, data_rate=10.0, policy=policy, self_rate_fn=constant(4), neighbor_rate_fn=constant(v))
        for v in (30, 3)
    ]
    plan = _schedule_sweep(configs)
    _with_extra_packet(plan)  # rebuilt unchanged, it conserves
    with pytest.raises(InvariantError, match=f"^{name}-class conservation violated at the target, epoch {epoch}$"):
        _with_extra_packet(plan, *edits)


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
    assert classify_misbehavior(_synthetic_trace([(10, 5)], window_epochs=1, threshold=0.5)).malicious_fraction == 0.0
    assert classify_misbehavior(_synthetic_trace([(10, 5)], window_epochs=1, threshold=0.49)).malicious_fraction == 1.0


def test_classify_override_arguments():
    # A two-epoch window pools both epochs: ratio 0.6, flagged. Per-epoch
    # windows give ratios 0.3 and 0.9, so only one of two flags; a higher
    # threshold clears both.
    offered_dropped = [(10, 3), (10, 9)]
    assert classify_misbehavior(_synthetic_trace(offered_dropped, window_epochs=2)).malicious_fraction == 1.0
    assert classify_misbehavior(_synthetic_trace(offered_dropped, window_epochs=1)).malicious_fraction == 0.5
    assert (
        classify_misbehavior(_synthetic_trace(offered_dropped, window_epochs=1, threshold=0.95)).malicious_fraction
        == 0.0
    )


def test_classify_empty_trace_raises():
    with pytest.raises(EmptyTraceError):
        classify_misbehavior(run(SimConfig(epochs=0)))

