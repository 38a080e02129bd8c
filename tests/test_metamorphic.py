"""Metamorphic relations of the engine.

Each relation follows from the policy definitions alone, so it checks both
the simulator and the per-packet reference engine without a third
implementation. The simulator runs in blocks shorter than the run
(``sim.run_blocks``), so each relation also holds across the state that one
block hands the next.
"""

import dataclasses
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ctcsim import report, sim
from ctcsim.sim import Policy, RateFunction, RateKind, SimConfig

from reference_engine import run_reference, schedule_cohorts

# The per-epoch columns of a Trace, in field order.
TRACE_FIELDS = tuple(f.name for f in dataclasses.fields(sim.Trace) if f.name != "config")
# The reference engine's per-epoch fields, the Trace's but the drop ratios.
REFERENCE_FIELDS = TRACE_FIELDS[:10]

_rates = st.one_of(
    st.builds(RateFunction, st.just(RateKind.CONSTANT), st.floats(0.0, 30.0)),
    st.builds(RateFunction, st.just(RateKind.LINEAR_INCREASING), st.floats(0.0, 15.0), st.floats(0.0, 1.0)),
    st.builds(RateFunction, st.just(RateKind.LINEAR_DECREASING), st.floats(0.0, 40.0), st.floats(0.0, 2.0)),
)


@st.composite
def _runs(draw):
    """A small config of either policy, often overloaded, and a block size shorter than its run."""
    config = SimConfig(
        epochs=draw(st.integers(2, 40)),
        policy=draw(st.sampled_from(list(Policy))),
        self_rate_fn=draw(_rates),
        neighbor_rate_fn=draw(_rates),
        data_rate=draw(st.floats(1.0, 50.0)),
        epoch_length=draw(st.sampled_from([1.0, 0.5])),
        deadline_epochs=draw(st.integers(1, 6)),
        energy_budget=draw(st.integers(0, 400)),
        base_drop_prob=draw(st.floats(0.0, 0.6)),
        min_share_fraction=draw(st.floats(0.01, 0.49)),
        neighbor_count=draw(st.integers(1, 12)),
        seed=draw(st.integers(0, 2**64 - 1)),
    )
    return config, draw(st.integers(1, config.epochs - 1))


def _columns(config, size):
    """The run of ``config`` in blocks of ``size`` epochs, each column concatenated, by name."""
    with mock.patch.object(sim, "_BLOCK_EPOCHS", size):
        blocks = list(sim.run_blocks(config))
    assert len(blocks) > 1
    return {name: np.concatenate([getattr(block, name) for block in blocks]) for name in TRACE_FIELDS}


def _reference_columns(config):
    """The reference engine's per-epoch columns of ``config``, by name."""
    _, epochs = run_reference(config)
    return {name: [getattr(epoch, name) for epoch in epochs] for name in REFERENCE_FIELDS}


@settings(max_examples=60, deadline=None)
@given(case=_runs(), past=st.sampled_from([0, 1, 7, 10**6]))
def test_a_deadline_of_at_least_the_run_expires_nothing(case, past):
    # A packet expires only once it is `deadline_epochs` old, which no packet
    # of the run reaches. So every such deadline gives the same run, here
    # longer than the blocks, and without ambient loss or an energy gate
    # nothing is dropped.
    config, size = case
    never = dataclasses.replace(config, deadline_epochs=config.epochs + past)
    other = dataclasses.replace(config, deadline_epochs=config.epochs)
    columns = _columns(never, size)
    assert all(columns[name].tobytes() == value.tobytes() for name, value in _columns(other, size).items())
    assert _reference_columns(never) == _reference_columns(other)
    assert [columns[name].tolist() for name in REFERENCE_FIELDS] == list(_reference_columns(never).values())
    lossless = dataclasses.replace(never, base_drop_prob=0.0, energy_budget=10**9)
    reference = _reference_columns(lossless)
    for name in ("dropped_self", "dropped_neighbor"):
        assert not _columns(lossless, size)[name].any(), name
        assert not any(reference[name]), name


@settings(max_examples=40, deadline=None)
@given(case=_runs(), neighbor_count=st.integers(1, 12))
def test_neighbor_count_changes_only_the_source_lines(case, neighbor_count):
    # The sources only split the target's neighbor arrivals among them: the
    # target's columns, and its lines of the trace, do not depend on how many
    # there are.
    config, size = case
    other = dataclasses.replace(config, neighbor_count=neighbor_count)
    columns = _columns(config, size)
    assert all(columns[name].tobytes() == value.tobytes() for name, value in _columns(other, size).items())
    assert _reference_columns(config) == _reference_columns(other)
    target_lines = []
    for run in (config, other):
        # The bytes `emit_trace_csv` writes, as `sim run` streams them.
        with mock.patch.object(sim, "_BLOCK_EPOCHS", size):
            lines = b"".join(report._trace_chunks(sim.run_blocks(run))).decode("ascii").splitlines()
        assert len(lines) == 1 + run.epochs * (run.neighbor_count + 1)
        target_lines.append([line for line in lines[1:] if line.split(",")[1] == "0"])
    assert target_lines[0] == target_lines[1]


def _lossless(case):
    """``case``'s config without ambient loss, and its block size."""
    config, size = case
    return dataclasses.replace(config, base_drop_prob=0.0), size


def _dropped_or_queued(columns):
    """The packets dropped over a run, of both classes, plus those queued at its end."""
    dropped = sum(columns["dropped_self"]) + sum(columns["dropped_neighbor"])
    return dropped + columns["queued_self"][-1] + columns["queued_neighbor"][-1]


@settings(max_examples=60, deadline=None)
@given(case=_runs())
def test_more_capacity_never_raises_the_drops_plus_the_final_queue(case):
    # One more packet of capacity an epoch serves at least as many packets
    # by every epoch, so fewer or as many of them expire or wait at the end.
    # Without ambient loss, the packets dropped plus those still queued at
    # the end of the run never rise, under either policy. Under `dsr` the
    # drops alone may: a packet served rather than left queued can be
    # gate-dropped.
    config, size = _lossless(case)
    faster = dataclasses.replace(config, data_rate=config.data_rate + 1 / config.epoch_length)
    for columns in (lambda run: _columns(run, size), _reference_columns):
        assert _dropped_or_queued(columns(faster)) <= _dropped_or_queued(columns(config))


@settings(max_examples=60, deadline=None)
@given(case=_runs(), more=st.integers(1, 400))
def test_a_larger_energy_budget_never_raises_dsr_neighbor_drops(case, more):
    # The `dsr` gate only turns a served neighbor packet into a drop once
    # the budget is spent: the same packets are served either way, self
    # traffic first. So without ambient loss a larger budget never raises
    # the neighbor drops, and moves packets only from the neighbor drops to
    # the neighbor forwards: every self column, both queues (and so the
    # expiries) and the time split stay as they were.
    config, size = _lossless(case)
    config = dataclasses.replace(config, policy=Policy.DSR)
    larger = dataclasses.replace(config, energy_budget=config.energy_budget + more)
    moved = {"forwarded_neighbor", "dropped_neighbor", "drop_ratio_neighbor"}
    for columns in (lambda run: _columns(run, size), _reference_columns):
        before, after = columns(config), columns(larger)
        assert sum(after["dropped_neighbor"]) <= sum(before["dropped_neighbor"])
        for name in before.keys() - moved:
            assert np.array_equal(before[name], after[name]), name


@settings(max_examples=60, deadline=None)
@given(case=_runs(), other_seed=st.integers(0, 2**64 - 1))
def test_without_ambient_loss_every_packet_sent_is_forwarded_at_every_seed(case, other_seed):
    # At base_drop_prob = 0 no coin turns a transmitted packet into a drop:
    # each epoch forwards what its schedule sends, the serviced self packets
    # and the neighbor attempts, and drops only what expired or, under
    # `dsr`, met a spent budget. So the seed reaches nothing, and any two
    # seeds give the same run, block for block.
    config, size = _lossless(case)
    columns = _columns(config, size)
    other = _columns(dataclasses.replace(config, seed=other_seed), size)
    assert all(columns[name].tobytes() == value.tobytes() for name, value in other.items())
    plan = sim._schedule_sweep([config])
    cohorts = schedule_cohorts(config)
    reference = _reference_columns(config)
    assert reference == _reference_columns(dataclasses.replace(config, seed=other_seed))
    pairs = (
        ("forwarded", plan.sent, ("serviced_self", "attempts_neighbor")),
        ("dropped", plan.dropped_before_loss, ("dropped_before_loss_self", "dropped_before_loss_neighbor")),
    )
    for realized, scheduled, names in pairs:
        for member, cls in enumerate(("self", "neighbor")):
            name = f"{realized}_{cls}"
            assert columns[name].tobytes() == scheduled[member][0].tobytes(), name
            assert reference[name] == cohorts[names[member]], name
