"""Experiment case and derived-curve tests (small grids only; the full
sweeps run in the acceptance suite)."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference_engine import run_reference, schedule_cohorts

from ctcsim import experiments
from ctcsim.errors import (
    EmptyInputError,
    InvalidConfigError,
    InvalidParameterError,
    InvariantError,
    NoInputError,
    UnknownCaseError,
    ZeroTimeError,
)
from ctcsim.experiments import (
    BASE,
    CASE_IDS,
    ResultRow,
    ResultTable,
    case_spec,
    derive_case_v,
    isotonic_nondecreasing,
    run_case,
)
from ctcsim.model import TimeBudget
from ctcsim.sim import Policy, RateFunction, RateKind, SimConfig, classify_misbehavior, run
from ctcsim.utilization import PacketCounters, utilization_node


def test_case_ids_cover_four_cases():
    assert CASE_IDS == ("I", "II", "III", "IV")


def test_case_kinds_match_their_profiles():
    expected = {
        "I": (RateKind.CONSTANT, RateKind.LINEAR_INCREASING),
        "II": (RateKind.LINEAR_INCREASING, RateKind.LINEAR_INCREASING),
        "III": (RateKind.LINEAR_DECREASING, RateKind.LINEAR_INCREASING),
        "IV": (RateKind.LINEAR_INCREASING, RateKind.CONSTANT),
    }
    for case_id, (self_kind, nbr_kind) in expected.items():
        spec = case_spec(case_id)
        assert spec.self_rate_fn(800).kind is self_kind
        assert spec.neighbor_rate_fn(800).kind is nbr_kind


def test_case_grid_defaults():
    spec = case_spec("I")
    assert spec.sweep_axis == tuple(range(100, 1601, 100))
    assert spec.algorithms == (Policy.CTC, Policy.DSR)
    assert spec.seeds == tuple(range(10))
    assert spec.base == BASE


def test_unknown_case_rejected():
    with pytest.raises(UnknownCaseError):
        case_spec("V")
    with pytest.raises(UnknownCaseError):
        case_spec("i")


def test_case_config_carries_each_knob_to_its_sim_config_field():
    # Each `base` field away from `BASE`, one at a time, reaches every point's
    # `SimConfig` in every case, but for the policy and the two rates, which
    # are the point's own: a field dropped or read from `BASE` leaves it at
    # another value.
    changed = {
        "epochs": 37,
        "epoch_length": 0.5,
        "neighbor_count": 3,
        "data_rate": 333.0,
        "base_drop_prob": 0.2,
        "energy_budget": 1234,
        "deadline_epochs": 5,
        "min_share_fraction": 0.1,
        "misbehavior_threshold": 0.6,
        "window_epochs": 7,
        "seed": 9,
        "policy": Policy.DSR,
        "self_rate_fn": RateFunction(RateKind.CONSTANT, 7.0),
        "neighbor_rate_fn": RateFunction(RateKind.CONSTANT, 3.0),
    }
    assert set(changed) == {field.name for field in dataclasses.fields(SimConfig)}
    for field, value in changed.items():
        assert getattr(BASE, field) != value, field
        base = dataclasses.replace(BASE, **{field: value})
        for case_id in CASE_IDS:
            spec = case_spec(case_id, base)
            for algorithm in spec.algorithms:
                for v in spec.sweep_axis:
                    rates = {"self_rate_fn": spec.self_rate_fn(v), "neighbor_rate_fn": spec.neighbor_rate_fn(v)}
                    assert spec.config(algorithm, v) == dataclasses.replace(base, policy=algorithm, **rates), field
    # `epochs` and `window_epochs` shape the rate profiles too.
    for field in ("epochs", "window_epochs"):
        spec = case_spec("II", dataclasses.replace(BASE, **{field: changed[field]}))
        assert spec.self_rate_fn(500) != case_spec("II").self_rate_fn(500), field
        assert spec.neighbor_rate_fn(500) != case_spec("II").neighbor_rate_fn(500), field


def test_each_case_point_is_the_sim_config_written_out():
    # One point per case, its rates worked out by hand from the case levels:
    # v / 10 packets per epoch on average, the ramps over 100 epochs.
    increasing, decreasing, constant = RateKind.LINEAR_INCREASING, RateKind.LINEAR_DECREASING, RateKind.CONSTANT
    points = {
        ("I", Policy.CTC, 800): (RateFunction(constant, 315.0), RateFunction(increasing, 0.0, 1.6)),
        ("II", Policy.DSR, 500): (RateFunction(increasing, 0.0, 3.0), RateFunction(increasing, 0.0, 1.0)),
        ("III", Policy.CTC, 1600): (RateFunction(decreasing, 300.0, 3.0), RateFunction(increasing, 0.0, 3.2)),
        ("IV", Policy.DSR, 100): (RateFunction(increasing, 0.0, 0.2), RateFunction(constant, 50.0)),
    }
    for (case_id, algorithm, v), (self_rate_fn, neighbor_rate_fn) in points.items():
        assert case_spec(case_id).config(algorithm, v) == SimConfig(
            epochs=100,
            data_rate=420.0,
            base_drop_prob=0.15,
            energy_budget=20000,
            misbehavior_threshold=0.75,
            window_epochs=10,
            policy=algorithm,
            self_rate_fn=self_rate_fn,
            neighbor_rate_fn=neighbor_rate_fn,
        ), case_id


def test_case_spec_rejects_epochs_below_one_naming_it():
    # `SimConfig` takes 0 epochs, but the ramps divide by them, which would
    # end in a bare ZeroDivisionError naming no field.
    for case_id in CASE_IDS:
        with pytest.raises(InvalidParameterError, match="^epochs must be >= 1, got 0$"):
            case_spec(case_id, dataclasses.replace(BASE, epochs=0))
    # The window, the other divisor, is `SimConfig`'s to reject.
    with pytest.raises(InvalidConfigError, match="^window_epochs must be >= 1$"):
        dataclasses.replace(BASE, window_epochs=0)
    spec = case_spec("II", dataclasses.replace(BASE, epochs=1, window_epochs=1))
    assert spec.config(Policy.CTC, 1600).epochs == 1


def test_case2_rate_past_2_53_arrivals_names_the_case_and_the_sweep_value():
    # `SimConfig` bounds a run's arrivals of each class by 2**53, naming the
    # rate field; case II's self ramp passes it between v = 10**14 and 10**17.
    spec = dataclasses.replace(case_spec("II"), sweep_axis=(100, 10**17))
    spec.config(Policy.CTC, 10**14)
    message = f"^case II at sweep value v = {10**17}: self_rate_fn: 100 epochs at up to .* packets each pass 2\\*\\*53$"
    with pytest.raises(InvalidParameterError, match=message):
        spec.config(Policy.CTC, 10**17)
    with pytest.raises(InvalidParameterError, match=message):
        run_case(spec)


@pytest.mark.parametrize("case_id", CASE_IDS)
def test_a_sweep_value_past_float_range_names_the_case_and_the_sweep_value(case_id):
    # Each case's rate takes v into a float (case I's `CASE1_SELF_TILT * v`,
    # the ramps' `v / window`), which overflows past float range.
    message = f"^case {case_id} at sweep value v = {10**400}: .*too large"
    with pytest.raises(InvalidParameterError, match=message):
        case_spec(case_id).config(Policy.CTC, 10**400)


# Per case level: its case and the rate field it sets.
_RATE_KNOBS = {
    "case1_self_base": ("I", "CASE1_SELF_BASE", "self_rate_fn"),
    "case2_self_multiplier": ("II", "CASE2_SELF_MULTIPLIER", "self_rate_fn"),
    "case3_self_peak": ("III", "CASE3_SELF_PEAK", "self_rate_fn"),
    "case4_neighbor_rate": ("IV", "CASE4_NEIGHBOR_RATE", "neighbor_rate_fn"),
}


@pytest.mark.parametrize("knob", sorted(_RATE_KNOBS))
def test_a_knob_rate_past_2_53_arrivals_names_the_knob(knob, monkeypatch):
    # Each case level, raised to 1e30, takes its rate past `SimConfig`'s
    # 2**53 arrivals bound at the first sweep value; the error names the
    # case, v and the rate field the level sets.
    case_id, constant, field = _RATE_KNOBS[knob]
    monkeypatch.setattr(experiments, constant, 1e30)
    spec = case_spec(case_id)
    message = f"^case {case_id} at sweep value v = 100: {field}: 100 epochs at up to .* pass 2\\*\\*53$"
    with pytest.raises(InvalidParameterError, match=message):
        spec.config(Policy.CTC, 100)
    with pytest.raises(InvalidParameterError, match=message):
        run_case(spec)


def test_case1_negative_self_rate_names_the_case_and_the_sweep_value():
    # The level 355 - 0.05 * v reaches zero at v = 7,100 and is negative past
    # it, which `RateFunction` rejects naming neither the case nor v.
    assert case_spec("I").config(Policy.CTC, 7100).self_rate_fn.base == 0.0
    spec = dataclasses.replace(case_spec("I"), sweep_axis=(100, 8000))
    message = r"^case I at sweep value v = 8000: rate parameters must be >= 0, got .*base=-45\.0, slope=0\.0\)$"
    with pytest.raises(InvalidParameterError, match=message):
        spec.config(Policy.DSR, 8000)
    with pytest.raises(InvalidParameterError, match=message):
        run_case(spec)


def test_case1_self_level_tilts_down_the_sweep():
    spec = case_spec("I")
    assert spec.self_rate_fn(100).base == pytest.approx(350.0)
    assert spec.self_rate_fn(1600).base == pytest.approx(275.0)


def test_increasing_profile_averages_the_window_rate():
    # v = 1000 packets per 10-epoch window is 100/epoch on average; the ramp
    # runs 0 to 2x mean, so the midpoint epoch sits at the mean.
    fn = case_spec("I").neighbor_rate_fn(1000)
    assert fn.rate(50) == pytest.approx(100.0)
    assert fn.rate(0) == 0.0
    mean = sum(fn.rate(e) for e in range(100)) / 100
    assert mean == pytest.approx(100.0, rel=0.02)


def test_case3_self_profile_reaches_zero():
    fn = case_spec("III").self_rate_fn(800)
    assert fn.rate(0) == pytest.approx(300.0)
    assert fn.rate(100) == 0.0


def _tiny_spec(case_id):
    return dataclasses.replace(case_spec(case_id), sweep_axis=(100, 1600), seeds=(0,))


def test_run_case_row_grid_and_ordering():
    table = run_case(_tiny_spec("I"))
    assert len(table.rows) == 4
    keys = [(r.case_id, r.algorithm, r.sweep_value, r.seed) for r in table.rows]
    assert keys == sorted(keys)
    assert {r.algorithm for r in table.rows} == {"ctc", "dsr"}
    for row in table.rows:
        assert row.epoch_window == "0-99"
        assert row.offered_nbr > 0
        assert 0.0 <= row.drop_ratio <= 1.0
        assert 0.0 <= row.malicious_fraction <= 1.0
        assert row.throughput > 0.0
        assert row.utilization > 0.0
        assert row.offered_nbr == row.forwarded_nbr + row.dropped_nbr or row.drop_ratio < 1.0


def test_run_case_is_deterministic():
    spec = _tiny_spec("II")
    assert run_case(spec) == run_case(spec)


def _oracle_rows(spec):
    """``run_case`` rebuilt one run at a time from ``run``, ``classify_misbehavior`` and ``utilization_node``."""
    rows = []
    for algorithm in spec.algorithms:
        for sweep_value in spec.sweep_axis:
            config = spec.config(algorithm, sweep_value)
            for seed in spec.seeds:
                trace = run(dataclasses.replace(config, seed=seed))
                totals = {
                    name: sum(getattr(trace, name).tolist())
                    for name in ("offered_self", "offered_neighbor", "forwarded_self", "forwarded_neighbor",
                                 "dropped_self", "dropped_neighbor")
                }
                # Time totals in epoch order, one addition at a time.
                t_pp = t_np = 0.0
                for pp, np_ in zip(trace.t_pp.tolist(), trace.t_np.tolist()):
                    t_pp += pp
                    t_np += np_
                offered_nbr = totals["offered_neighbor"]
                try:
                    utilization = utilization_node(
                        PacketCounters(k_pout=totals["forwarded_self"], k_nout=totals["forwarded_neighbor"],
                                       k_nin=offered_nbr),
                        TimeBudget(t_pp=t_pp, t_np=t_np),
                    )
                except (NoInputError, ZeroTimeError):
                    utilization = 0.0
                rows.append(
                    ResultRow(
                        case_id=spec.case_id,
                        algorithm=algorithm.value,
                        sweep_value=sweep_value,
                        seed=seed,
                        epoch_window=f"0-{spec.base.epochs - 1}",
                        offered_self=totals["offered_self"],
                        offered_nbr=offered_nbr,
                        forwarded_self=totals["forwarded_self"],
                        forwarded_nbr=totals["forwarded_neighbor"],
                        dropped_self=totals["dropped_self"],
                        dropped_nbr=totals["dropped_neighbor"],
                        drop_ratio=totals["dropped_neighbor"] / offered_nbr if offered_nbr else 0.0,
                        malicious_fraction=classify_misbehavior(trace).malicious_fraction,
                        throughput=(totals["forwarded_self"] + totals["forwarded_neighbor"])
                        / (trace.config.epochs * trace.config.epoch_length),
                        utilization=utilization,
                    )
                )
    return tuple(sorted(rows, key=lambda r: (r.case_id, r.algorithm, r.sweep_value, r.seed)))


@pytest.mark.parametrize("case_id", CASE_IDS)
def test_run_case_matches_one_seed_at_a_time_oracle(case_id):
    # Every seed of a grid point is realized and summarized in one pass;
    # each row must equal the one-run path exactly, float bits included.
    spec = dataclasses.replace(case_spec(case_id), sweep_axis=(100, 800, 1600), seeds=(0, 1, 2**63 + 5))
    rows = run_case(spec).rows
    assert len(rows) == 2 * 3 * 3
    assert rows == _oracle_rows(spec)


@pytest.mark.parametrize("axis", ["sweep_axis", "seeds"])
def test_run_case_with_an_empty_axis_has_no_rows(axis):
    # A grid with no sweep value or no seed has no point to run, so it has
    # no row; the command line asks for at least one seed.
    assert run_case(dataclasses.replace(case_spec("III"), **{axis: ()})) == ResultTable(rows=())


def _at_level(case_id, level, epochs):
    """The rate profile that a case's level sets, at ``level``: case I's self base, III's self peak, IV's neighbor rate."""
    if case_id == "I":
        return {"self_rate_fn": lambda v: RateFunction(RateKind.CONSTANT, level - experiments.CASE1_SELF_TILT * v)}
    if case_id == "III":
        return {"self_rate_fn": lambda v: RateFunction(RateKind.LINEAR_DECREASING, level, level / epochs)}
    return {"neighbor_rate_fn": lambda v: RateFunction(RateKind.CONSTANT, level)}


def _small_spec(case_id, sweep_axis, seeds, algorithms=(Policy.CTC, Policy.DSR), level=None, **fields):
    """``case_id`` on ``BASE`` with ``fields`` replaced, on the given grid, at ``level`` when one is given."""
    spec = case_spec(case_id, dataclasses.replace(BASE, **fields))
    rates = {} if level is None else _at_level(case_id, level, spec.base.epochs)
    return dataclasses.replace(spec, sweep_axis=sweep_axis, seeds=seeds, algorithms=algorithms, **rates)


# Levels at which a row's utilization is undefined, so it is written as 0.0:
# no neighbor input (NoInputError) in case IV, and a zero time component
# (ZeroTimeError) under `dsr` in cases I and III. Per path: the case, its
# level, and the policy whose rows take that path.
_ZERO_UTILIZATION = {
    "no neighbor input": ("IV", 0, None),
    "t_np = 0": ("I", 500, Policy.DSR),
    "t_pp = 0": ("III", 0, Policy.DSR),
}


@pytest.mark.parametrize("path", sorted(_ZERO_UTILIZATION))
def test_run_case_matches_oracle_where_utilization_is_undefined(path):
    case_id, level, policy = _ZERO_UTILIZATION[path]
    spec = _small_spec(case_id, (100, 800, 1600), (0, 1, 2**63 + 5), level=level)
    rows = run_case(spec).rows
    assert rows == _oracle_rows(spec)
    for algorithm in (policy,) if policy else spec.algorithms:
        for v in spec.sweep_axis:
            trace = run(spec.config(algorithm, v))
            if policy is None:
                assert not trace.offered_neighbor.any()
            else:
                assert not (trace.t_np if case_id == "I" else trace.t_pp).any()
    undefined = [row.utilization for row in rows if policy is None or row.algorithm == policy.value]
    assert undefined == [0.0] * 3 * 3 * (1 if policy else 2)


@st.composite
def _small_specs(draw):
    """Small grids: epochs that windows need not divide, sweep values from 0, seeds up to 2**64 - 1, either order."""
    epochs = draw(st.integers(1, 30))
    fields = {
        "epochs": epochs,
        "window_epochs": draw(st.integers(1, epochs + 3)),
        "data_rate": draw(st.sampled_from([30.0, 420.0])),
        "base_drop_prob": draw(st.sampled_from([0.0, 0.15, 0.6])),
        "energy_budget": draw(st.sampled_from([0, 40, 20000])),
        "misbehavior_threshold": draw(st.sampled_from([0.3, 0.75])),
    }
    # The first level of each case is one at which some rows' utilization is undefined.
    levels = {"I": [500.0, 355.0, 100.0], "II": [None], "III": [0.0, 300.0], "IV": [0.0, 50.0]}
    case_id = draw(st.sampled_from(CASE_IDS))
    level = draw(st.sampled_from(levels[case_id]))
    sweep_axis = draw(st.lists(st.sampled_from([0, 0, 10, 100, 800, 1600]), min_size=1, max_size=3))
    seeds = draw(st.lists(st.sampled_from([0, 1, 2**64 - 1]) | st.integers(0, 2**64 - 1), min_size=1, max_size=3))
    algorithms = draw(st.sampled_from([(Policy.CTC, Policy.DSR), (Policy.DSR, Policy.CTC), (Policy.DSR,)]))
    return _small_spec(case_id, tuple(sweep_axis), tuple(seeds), algorithms, level, **fields)


@example(spec=_small_spec("IV", (0, 100), (2**64 - 1, 3), epochs=7, window_epochs=3, level=0))
@example(spec=_small_spec("I", (0, 800), (0, 2**64 - 1), (Policy.DSR, Policy.CTC), epochs=11, level=500))
@example(spec=_small_spec("III", (1600, 0), (2**64 - 1,), epochs=30, window_epochs=4, level=0))
@settings(max_examples=60, deadline=None)
@given(spec=_small_specs())
def test_run_case_matches_oracle_on_random_small_grids(spec):
    # The examples reach each undefined utilization: no neighbor input, a
    # zero t_np, a zero t_pp.
    rows = run_case(spec).rows
    oracle = _oracle_rows(spec)
    assert rows == oracle
    # Float bits too: == does not tell 0.0 from -0.0.
    assert repr(rows) == repr(oracle)


@pytest.fixture
def no_rows(monkeypatch):
    """``run_case`` with every ``ResultRow`` it builds failing the test."""

    def no_row(*args):
        raise AssertionError("a row was built before the counts were checked")

    monkeypatch.setattr(experiments, "ResultRow", no_row)


def _break_one_count(monkeypatch, field, value):
    """Rebind ``_sweep_totals`` so that ``field`` of the last point's first seed is ``value(plan, point)``."""
    real_totals = experiments._sweep_totals
    fields = ("forwarded_self", "forwarded_nbr")

    def broken_totals(plan, generators):
        totals = [column.copy() for column in real_totals(plan, generators)]
        point = len(plan.configs) - 1
        totals[fields.index(field)][point, 0] = value(plan, point)
        return totals

    monkeypatch.setattr(experiments, "_sweep_totals", broken_totals)


def test_run_case_rejects_more_forwarded_than_offered_neighbor_packets_before_any_row(monkeypatch, no_rows):
    _break_one_count(monkeypatch, "forwarded_nbr", lambda plan, point: plan.offered[1][point].sum() + 1)
    with pytest.raises(InvariantError, match=r"^cannot forward more .* k_nout=\d+ > k_nin=\d+$") as caught:
        run_case(_tiny_spec("I"))
    k_nout, k_nin = map(int, re.search(r"k_nout=(\d+) > k_nin=(\d+)", str(caught.value)).groups())
    assert k_nout == k_nin + 1


@pytest.mark.parametrize("field, name", [("forwarded_self", "k_pout"), ("forwarded_nbr", "k_nout")])
def test_run_case_rejects_a_negative_count_before_any_row(field, name, monkeypatch, no_rows):
    _break_one_count(monkeypatch, field, lambda plan, point: -3)
    with pytest.raises(InvariantError, match=rf"^{name} must be finite and >= 0, got -3$"):
        run_case(_tiny_spec("II"))


def test_run_case_rejects_a_negative_offered_total_before_any_row(monkeypatch, no_rows):
    real_schedule = experiments._schedule_sweep

    def broken_schedule(configs):
        # The packets moved from offered to dropped before the coin still conserve.
        plan = real_schedule(configs)
        (offered_self, offered_nbr), (before_self, before_nbr) = plan.offered, plan.dropped_before_loss
        offered_nbr, before_nbr = offered_nbr.copy(), before_nbr.copy()
        moved = offered_nbr[-1].sum() + 1
        offered_nbr[-1, 0] -= moved
        before_nbr[-1, 0] -= moved
        offered, before = (offered_self, offered_nbr), (before_self, before_nbr)
        return dataclasses.replace(plan, offered=offered, dropped_before_loss=before)

    monkeypatch.setattr(experiments, "_schedule_sweep", broken_schedule)
    with pytest.raises(InvariantError, match=r"^k_nin must be finite and >= 0, got -1$"):
        run_case(_tiny_spec("III"))


@pytest.mark.parametrize("case_id", CASE_IDS)
def test_without_ambient_loss_every_seed_gives_one_row_whose_drops_are_the_schedules(case_id):
    # At base_drop_prob = 0 nothing is drawn, so a point's row is the same at
    # every seed, and its drops are those decided before the coin. This holds
    # on run_case, where it checks that each per-seed column lines up with
    # its seed and point, and on the per-packet reference engine.
    level = {"I": 20.0, "II": None, "III": 20.0, "IV": 5.0}[case_id]
    spec = _small_spec(
        case_id, (0, 50, 300), (0, 5, 2**64 - 1), level=level, epochs=23, data_rate=30.0, base_drop_prob=0.0,
        energy_budget=100,
    )
    seed_rows = {}
    for row in run_case(spec).rows:
        seed_rows.setdefault((row.algorithm, row.sweep_value), []).append(row)
    for algorithm in spec.algorithms:
        plan = experiments._schedule_sweep([spec.config(algorithm, v) for v in spec.sweep_axis])
        for point, sweep_value in enumerate(spec.sweep_axis):
            rows = seed_rows[algorithm.value, sweep_value]
            assert [row.seed for row in rows] == list(spec.seeds)
            assert {dataclasses.replace(row, seed=0) for row in rows} == {dataclasses.replace(rows[0], seed=0)}
            assert [rows[0].dropped_self, rows[0].dropped_nbr] == [c[point].sum() for c in plan.dropped_before_loss]
            assert [rows[0].forwarded_self, rows[0].forwarded_nbr] == [c[point].sum() for c in plan.sent]

            config = spec.config(algorithm, sweep_value)
            cohorts = schedule_cohorts(config)
            runs = [run_reference(dataclasses.replace(config, seed=seed)) for seed in spec.seeds]
            for node, epochs in runs:
                assert epochs == runs[0][1]
                assert node.dropped_self == sum(cohorts["dropped_before_loss_self"])
                assert node.dropped_neighbor == sum(cohorts["dropped_before_loss_neighbor"])
                assert [node.forwarded_self, node.forwarded_neighbor] == [
                    sum(cohorts["serviced_self"]), sum(cohorts["attempts_neighbor"])
                ]


@pytest.fixture
def realized(monkeypatch):
    """The point-rows of each `_realize_sweep` call, spied on where `run_case` looks it up."""
    calls = []
    real_realize = experiments._realize_sweep

    def counting_realize(plan, generators):
        calls.append(len(plan.configs))
        return real_realize(plan, generators)

    monkeypatch.setattr(experiments, "_realize_sweep", counting_realize)
    return calls


# Per base config: how many of the points v = 100, 500 and 1600 the default
# algorithm pair realizes, per case, the first algorithm's three included.
# At the defaults `dsr` schedules as `ctc` does at v <= 400 in case I, v <= 500
# in case II and at every point of cases III and IV; with no energy `dsr`
# gate-drops every neighbor packet, so it shares nothing; at a service rate
# of 2,000 no load passes capacity, so it shares everything.
_SHARING = {
    "defaults": (BASE, {"I": 5, "II": 4, "III": 3, "IV": 3}),
    "no energy": (dataclasses.replace(BASE, energy_budget=0), {"I": 6, "II": 6, "III": 6, "IV": 6}),
    "ample capacity": (dataclasses.replace(BASE, data_rate=2000.0), {"I": 3, "II": 3, "III": 3, "IV": 3}),
}


@pytest.mark.parametrize("sharing", sorted(_SHARING))
@pytest.mark.parametrize("case_id", CASE_IDS)
def test_run_case_rows_equal_each_algorithm_run_alone(case_id, sharing, realized):
    # A one-algorithm spec has no earlier sweep to share with, so its rows are
    # the oracle for the shared points of a two-algorithm spec.
    base, realized_points = _SHARING[sharing]
    spec = dataclasses.replace(case_spec(case_id, base), sweep_axis=(100, 500, 1600), seeds=(0, 9, 2**64 - 1))
    alone = {algorithm: run_case(dataclasses.replace(spec, algorithms=(algorithm,))).rows for algorithm in Policy}
    for algorithms in ((Policy.CTC, Policy.DSR), (Policy.DSR, Policy.CTC)):
        realized.clear()
        assert run_case(dataclasses.replace(spec, algorithms=algorithms)).rows == alone[Policy.CTC] + alone[Policy.DSR]
        assert sum(realized) == realized_points[case_id]


def test_run_case_default_grid_realizes_87_of_128_point_rows(realized):
    # The other 41 are `dsr` points that schedule as `ctc` does, whose
    # per-seed totals are taken from the `ctc` sweep.
    per_case = []
    for case_id in CASE_IDS:
        realized.clear()
        run_case(dataclasses.replace(case_spec(case_id), seeds=(0,)))
        per_case.append(sum(realized))
    assert per_case == [28, 27, 16, 16]


def test_run_case_grid_draws_each_realized_row_by_one_numpy_binomial_call(realized, binomial_calls):
    # A grid row is 200 counts, too short for the table sampler, and case II
    # overloads the node, so its rows hold counts numpy draws by BTPE
    # (n * p > 30). Each realized point-row and seed is one `binomial` call.
    spec = dataclasses.replace(case_spec("II"), seeds=(0, 5))
    plan = experiments._schedule_sweep([spec.config(Policy.CTC, v) for v in spec.sweep_axis])
    assert max(column.max() for column in plan.sent) * spec.base.base_drop_prob > 30
    run_case(spec)
    assert sum(realized) == 27
    assert binomial_calls == [2 * spec.base.epochs] * 27 * len(spec.seeds)


def test_run_case_sweep_mixes_points_with_and_without_qualifying_windows():
    # One sweep is classified in one pass, each point against its own count
    # of qualifying windows: none at a zero neighbor rate, some at a light
    # ramp that starts at zero, all ten when overloaded.
    base = dataclasses.replace(BASE, misbehavior_threshold=0.3)
    spec = dataclasses.replace(case_spec("I", base), sweep_axis=(0, 10, 1600, 0), seeds=(0, 2**64 - 1, 7))
    qualifying = [
        len(classify_misbehavior(run(dataclasses.replace(spec.config(Policy.DSR, v), seed=0))).window_ratios)
        for v in spec.sweep_axis
    ]
    assert qualifying == [0, 8, 10, 0]
    rows = run_case(spec).rows
    assert rows == _oracle_rows(spec)
    fractions = {v: {r.malicious_fraction for r in rows if r.sweep_value == v} for v in spec.sweep_axis}
    assert fractions[0] == {0.0}
    assert all((8 * f).is_integer() for f in fractions[10]) and max(fractions[10]) > 0.0
    assert max(fractions[1600]) > 0.0


def test_run_case_seeds_one_bit_generator_per_seed(monkeypatch):
    built = []

    def counting_pcg64(seed):
        built.append(seed)
        return real_pcg64(seed)

    def no_default_rng(*args, **kwargs):
        raise AssertionError("default_rng called")

    real_pcg64 = np.random.PCG64
    expected = run_case(dataclasses.replace(_tiny_spec("II"), seeds=(0, 5, 2**64 - 1)))
    monkeypatch.setattr(np.random, "PCG64", counting_pcg64)
    monkeypatch.setattr(np.random, "default_rng", no_default_rng)
    assert run_case(dataclasses.replace(_tiny_spec("II"), seeds=(0, 5, 2**64 - 1))) == expected
    assert built == [0, 5, 2**64 - 1]


def test_run_case_names_the_first_broken_point_of_a_sweep(monkeypatch):
    # The second point breaks at an earlier epoch than the first; the first
    # point in sweep order is the one named, as when points ran one by one.
    real_schedule = experiments._schedule_sweep

    def broken_schedule(configs):
        plan = real_schedule(configs)
        queued_self, queued_nbr = plan.queued
        queued_nbr = queued_nbr.copy()
        for row, start in zip(queued_nbr, [6, 2]):
            row[start:] += 1
        return dataclasses.replace(plan, queued=(queued_self, queued_nbr))

    monkeypatch.setattr(experiments, "_schedule_sweep", broken_schedule)
    with pytest.raises(InvariantError, match="neighbor-class conservation violated at the target, epoch 6"):
        run_case(_tiny_spec("I"))


def test_run_case_broken_schedule_raises_invariant_error(monkeypatch):
    real_schedule = experiments._schedule_sweep

    def broken_schedule(configs):
        plan = real_schedule(configs)
        queued_self, queued_nbr = plan.queued
        queued_self = queued_self.copy()
        queued_self[:, 4:] += 1
        return dataclasses.replace(plan, queued=(queued_self, queued_nbr))

    monkeypatch.setattr(experiments, "_schedule_sweep", broken_schedule)
    with pytest.raises(InvariantError, match="self-class conservation violated at the target, epoch 4"):
        run_case(_tiny_spec("III"))


@pytest.mark.parametrize("column", ["offered", "sent", "dropped_before_loss", "queued"])
def test_run_case_checks_a_later_sweep_broken_where_it_would_share(column, monkeypatch):
    # Case III's `dsr` sweep schedules as `ctc` does at every point; broken in
    # one column of one point, that point is no longer shared, and its realize
    # names the break.
    real_schedule = experiments._schedule_sweep

    def broken_dsr_schedule(configs):
        plan = real_schedule(configs)
        if configs[0].policy is Policy.CTC:
            return plan
        self_column, nbr_column = getattr(plan, column)
        nbr_column = nbr_column.copy()
        nbr_column[1, 3] += 1
        return dataclasses.replace(plan, **{column: (self_column, nbr_column)})

    monkeypatch.setattr(experiments, "_schedule_sweep", broken_dsr_schedule)
    with pytest.raises(InvariantError, match="^neighbor-class conservation violated at the target, epoch 3$"):
        run_case(_tiny_spec("III"))


@pytest.mark.parametrize("seeds", [(-1,), (0, 2**64), (2**64 + 7,)])
def test_run_case_rejects_seed_outside_uint64_before_scheduling(seeds, monkeypatch):
    def no_schedule(configs):
        raise AssertionError("scheduled before the seeds were checked")

    monkeypatch.setattr(experiments, "_schedule_sweep", no_schedule)
    with pytest.raises(InvalidParameterError, match="seed"):
        run_case(dataclasses.replace(case_spec("I"), seeds=seeds))


def test_run_case_rejects_more_than_max_seeds_before_seeding(monkeypatch):
    def not_called(*args):
        raise AssertionError("seeded or scheduled past the seed bound")

    monkeypatch.setattr(experiments, "_seeded", not_called)
    monkeypatch.setattr(experiments, "_schedule_sweep", not_called)
    with pytest.raises(InvalidParameterError, match="seeds"):
        run_case(dataclasses.replace(case_spec("I"), seeds=tuple(range(experiments.MAX_SEEDS + 1))))


def test_run_case_accepts_max_seeds():
    seeds = tuple(range(experiments.MAX_SEEDS))
    spec = dataclasses.replace(case_spec("IV"), sweep_axis=(100,), algorithms=(Policy.CTC,), seeds=seeds)
    assert [row.seed for row in run_case(spec).rows] == list(seeds)


def test_dsr_drop_ratio_grows_with_load():
    table = run_case(dataclasses.replace(case_spec("I"), sweep_axis=(100, 1600), seeds=(0,), algorithms=(Policy.DSR,)))
    low, high = table.rows
    assert low.sweep_value == 100
    assert high.sweep_value == 1600
    assert high.drop_ratio > low.drop_ratio + 0.05


def _row(algorithm, drop_ratio, malicious):
    return ResultRow(
        case_id="I",
        algorithm=algorithm,
        sweep_value=100,
        seed=0,
        epoch_window="0-99",
        offered_self=0,
        offered_nbr=10,
        forwarded_self=0,
        forwarded_nbr=10,
        dropped_self=0,
        dropped_nbr=0,
        drop_ratio=drop_ratio,
        malicious_fraction=malicious,
        throughput=1.0,
        utilization=1.0,
    )


def test_derive_case_v_single_bucket_mean():
    table = ResultTable(rows=(_row("ctc", 0.12, 0.2), _row("ctc", 0.13, 0.4)))
    curves = derive_case_v([table])
    assert len(curves) == 1
    (curve,) = curves
    assert curve.algorithm == "ctc"
    assert len(curve.buckets) == 1
    bucket = curve.buckets[0]
    assert bucket.lower == pytest.approx(0.10)
    assert bucket.mean_malicious == pytest.approx(0.3)
    assert bucket.rows == 2


def test_derive_case_v_omits_empty_buckets_and_splits_algorithms():
    table = ResultTable(
        rows=(
            _row("ctc", 0.02, 0.0),
            _row("ctc", 0.33, 0.6),
            _row("dsr", 0.33, 0.8),
        )
    )
    curves = derive_case_v([table])
    assert [c.algorithm for c in curves] == ["ctc", "dsr"]
    ctc, dsr = curves
    assert [b.lower for b in ctc.buckets] == [pytest.approx(0.0), pytest.approx(0.30)]
    assert [b.lower for b in dsr.buckets] == [pytest.approx(0.30)]
    assert dsr.buckets[0].mean_malicious == pytest.approx(0.8)


def test_derive_case_v_pools_multiple_tables():
    a = ResultTable(rows=(_row("ctc", 0.11, 0.0),))
    b = ResultTable(rows=(_row("ctc", 0.14, 1.0),))
    curves = derive_case_v([a, b])
    assert curves[0].buckets[0].mean_malicious == pytest.approx(0.5)
    assert curves[0].buckets[0].rows == 2


def test_derive_case_v_empty_input_raises():
    with pytest.raises(EmptyInputError):
        derive_case_v([ResultTable(rows=())])
    with pytest.raises(EmptyInputError):
        derive_case_v([])


def test_derive_case_v_bad_width_raises():
    with pytest.raises(InvalidParameterError):
        derive_case_v([ResultTable(rows=(_row("ctc", 0.1, 0.0),))], bucket_width=0.0)
    # A NaN width used to fail converting the bucket index, an infinite one
    # to give buckets at NaN, and 1e-320 to overflow the index to infinity.
    tables = [ResultTable(rows=(_row("ctc", 0.0, 0.0), _row("ctc", 0.1, 0.0)))]
    for width in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidParameterError, match=f"^bucket_width must be a finite number > 0, got {width}$"):
            derive_case_v(tables, bucket_width=width)
    with pytest.raises(InvalidParameterError, match=r"^bucket_width 1e-320: drop ratio 0\.1 has no bucket$"):
        derive_case_v(tables, bucket_width=1e-320)


def test_pava_identity_when_already_monotone():
    assert isotonic_nondecreasing([1.0, 2.0, 3.0]) == [1.0, 2.0, 3.0]
    assert isotonic_nondecreasing([]) == []


def test_pava_merges_violating_prefix():
    assert isotonic_nondecreasing([3.0, 1.0, 2.0]) == [2.0, 2.0, 2.0]


def test_pava_partial_merge():
    assert isotonic_nondecreasing([1.0, 3.0, 2.0, 4.0]) == [1.0, 2.5, 2.5, 4.0]


def test_pava_respects_weights():
    assert isotonic_nondecreasing([1.0, 0.0], weights=[3.0, 1.0]) == [0.75, 0.75]
    assert isotonic_nondecreasing([0.0, 1.0], weights=[1.0, 3.0]) == [0.0, 1.0]


def test_pava_validates_arguments():
    with pytest.raises(InvalidParameterError):
        isotonic_nondecreasing([1.0, 2.0], weights=[1.0])
    with pytest.raises(InvalidParameterError):
        isotonic_nondecreasing([1.0], weights=[0.0])
