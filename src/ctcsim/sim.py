"""Epoch-driven packet-forwarding simulator.

One target node sits at the center of a star of traffic sources. Each epoch
the target discards packets past their deadline, takes in new arrivals (own
traffic into its self queue, source traffic into its neighbor queue), serves
both queues under the active policy, and flips one ambient-loss coin per
transmitted packet. Only the target is simulated: a source never queues,
drops, relays or draws a random number, so its per-epoch row is a function
of the target's neighbor arrivals (see ``source_split``).

The two policies:

- ``ctc`` splits service capacity between the two queues in proportion to
  their backlogs, clamped so neither class can be starved below a minimum
  share.
- ``dsr`` serves its own queue first and forwards neighbor packets with the
  leftover capacity only while it has energy credits; once the budget is
  spent, every serviced neighbor packet is dropped.

A run has two stages. ``schedule`` steps the target through every epoch
without a random number: deadline discard, arrivals, the ``ctc`` split,
``dsr`` energy use and gate drops. ``realize`` then draws the ambient losses
of a whole run in one ``binomial`` call and derives the forwarded, dropped
and cumulative-ratio columns with array operations. The split is exact
because a lost packet has already left its queue: loss moves a transmitted
packet from "forwarded" to "dropped" and feeds back into nothing the next
epoch reads (queues, backlogs, energy). So one schedule serves every seed of
a grid point. The draw array interleaves ``[serviced_self[e],
attempts_neighbor[e]]`` per epoch, the order in which one scalar draw per
class per epoch would consume the generator's stream, also when a count is
zero, so the stream position never depends on load or policy.

Determinism contract: a run is a pure function of its config, including the
seed. The engine queues cohorts ``[created_epoch, count]`` instead of packet
objects so epochs cost O(1); the per-packet semantics live in ``Packet``,
``ctc_split`` and ``dsr_decide``, and the test suite holds a packet-level
reference engine to the same counters.
"""

from __future__ import annotations

import enum
import json
import math
from collections import deque
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Deque

import numpy as np

from .errors import EmptyTraceError, InvalidConfigError
from .model import TimeBudget

__all__ = [
    "Policy",
    "PacketClass",
    "Decision",
    "RateKind",
    "RateFunction",
    "SimConfig",
    "config_from_dict",
    "load_config",
    "Packet",
    "NodeState",
    "ctc_split",
    "dsr_decide",
    "source_split",
    "step",
    "Schedule",
    "schedule",
    "realize",
    "run",
    "Trace",
    "MisbehaviorStats",
    "WindowRatio",
    "classify_misbehavior",
]


class Policy(str, enum.Enum):
    CTC = "ctc"
    DSR = "dsr"


class PacketClass(str, enum.Enum):
    SELF = "self"
    NEIGHBOR = "neighbor"


class Decision(str, enum.Enum):
    FORWARD = "forward"
    DROP = "drop"


class RateKind(str, enum.Enum):
    CONSTANT = "constant"
    LINEAR_INCREASING = "linear_increasing"
    LINEAR_DECREASING = "linear_decreasing"


def _fmt_number(value: float) -> str:
    """Shortest representation that parses back to the same float."""
    compact = f"{value:g}"
    return compact if float(compact) == value else repr(value)


@dataclass(frozen=True)
class RateFunction:
    """Packets-per-epoch arrival rate as a function of the epoch index.

    Constant ignores the slope; the linear kinds move by ``slope`` per epoch
    from ``base``, and evaluation never goes below zero.
    """

    kind: RateKind
    base: float
    slope: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.base) and math.isfinite(self.slope)):
            raise InvalidConfigError(f"rate parameters must be finite, got {self}")
        if self.base < 0 or self.slope < 0:
            raise InvalidConfigError(f"rate parameters must be >= 0, got {self}")

    def rate(self, epoch: int) -> float:
        if self.kind is RateKind.CONSTANT:
            return self.base
        if self.kind is RateKind.LINEAR_INCREASING:
            return self.base + self.slope * epoch
        return max(0.0, self.base - self.slope * epoch)

    def encode(self) -> str:
        """Compact config-file form, e.g. ``linear_increasing:0:3.2``.

        Lossless: ``parse(encode())`` reproduces the exact values.
        """
        if self.kind is RateKind.CONSTANT:
            return f"constant:{_fmt_number(self.base)}"
        return f"{self.kind.value}:{_fmt_number(self.base)}:{_fmt_number(self.slope)}"

    @classmethod
    def parse(cls, text: str) -> "RateFunction":
        parts = text.strip().lower().split(":")
        try:
            kind = RateKind(parts[0])
        except ValueError:
            raise InvalidConfigError(f"unknown rate function kind {parts[0]!r}") from None
        try:
            if kind is RateKind.CONSTANT:
                if len(parts) != 2:
                    raise InvalidConfigError(f"constant rate takes one value, got {text!r}")
                return cls(kind, float(parts[1]))
            if len(parts) != 3:
                raise InvalidConfigError(f"{kind.value} rate takes base and slope, got {text!r}")
            return cls(kind, float(parts[1]), float(parts[2]))
        except ValueError:
            raise InvalidConfigError(f"bad numeric value in rate function {text!r}") from None


_ZERO_RATE = RateFunction(RateKind.CONSTANT, 0.0)
_INT64_MAX = 2**63 - 1


@dataclass(frozen=True)
class SimConfig:
    """One simulation run, fully specified.

    ``epochs`` is the only required field; the defaults are the library-level
    baseline (experiment sweeps override several of them, see
    :mod:`ctcsim.experiments`).
    """

    epochs: int
    epoch_length: float = 1.0
    neighbor_count: int = 8
    data_rate: float = 1000.0
    base_drop_prob: float = 0.05
    energy_budget: int = 1000
    deadline_epochs: int = 2
    min_share_fraction: float = 0.05
    misbehavior_threshold: float = 0.5
    window_epochs: int = 10
    policy: Policy = Policy.CTC
    seed: int = 0
    self_rate_fn: RateFunction = _ZERO_RATE
    neighbor_rate_fn: RateFunction = _ZERO_RATE

    def __post_init__(self) -> None:
        checks = [
            (self.epochs >= 0, "epochs must be >= 0"),
            (math.isfinite(self.epoch_length), "epoch_length must be finite"),
            (self.epoch_length > 0, "epoch_length must be > 0"),
            (self.neighbor_count >= 1, "neighbor_count must be >= 1"),
            (math.isfinite(self.data_rate), "data_rate must be finite"),
            (self.data_rate > 0, "data_rate must be > 0"),
            (
                math.isfinite(self.data_rate * self.epoch_length),
                "per-epoch capacity data_rate * epoch_length must be finite",
            ),
            (0.0 <= self.base_drop_prob < 1.0, "base_drop_prob must be in [0, 1)"),
            (self.energy_budget >= 0, "energy_budget must be >= 0"),
            (self.deadline_epochs >= 1, "deadline_epochs must be >= 1"),
            (0.0 < self.min_share_fraction < 0.5, "min_share_fraction must be in (0, 0.5)"),
            (0.0 < self.misbehavior_threshold < 1.0, "misbehavior_threshold must be in (0, 1)"),
            (self.window_epochs >= 1, "window_epochs must be >= 1"),
            (0 <= self.seed < 2**64, "seed must fit in an unsigned 64-bit integer"),
        ]
        for ok, message in checks:
            if not ok:
                raise InvalidConfigError(message)
        if not isinstance(self.policy, Policy):
            raise InvalidConfigError(f"policy must be a Policy, got {self.policy!r}")
        # The trace keeps per-epoch counts and their running sums in int64,
        # and numpy's binomial takes int64 counts: bound both here rather
        # than let them wrap or fail mid-run.
        if round(self.data_rate * self.epoch_length) > _INT64_MAX:
            raise InvalidConfigError("per-epoch capacity data_rate * epoch_length must fit in a signed 64-bit integer")
        for name in ("self_rate_fn", "neighbor_rate_fn"):
            fn = getattr(self, name)
            peak = fn.rate(max(self.epochs - 1, 0) if fn.kind is RateKind.LINEAR_INCREASING else 0)
            if not math.isfinite(peak) or round(peak) * self.epochs > _INT64_MAX:
                raise InvalidConfigError(
                    f"{name}: {self.epochs} epochs at up to {peak:g} packets each overflow a signed 64-bit count"
                )


_CONFIG_FIELDS = {
    "epochs",
    "epoch_length",
    "neighbor_count",
    "data_rate",
    "base_drop_prob",
    "energy_budget",
    "deadline_epochs",
    "min_share_fraction",
    "misbehavior_threshold",
    "window_epochs",
    "policy",
    "seed",
    "self_rate_fn",
    "neighbor_rate_fn",
}

_INT_FIELDS = {"epochs", "neighbor_count", "energy_budget", "deadline_epochs", "window_epochs", "seed"}
_FLOAT_FIELDS = {"epoch_length", "data_rate", "base_drop_prob", "min_share_fraction", "misbehavior_threshold"}


def config_from_dict(raw: dict) -> SimConfig:
    """Build a SimConfig from a flat mapping, rejecting unknown keys.

    Keys mirror the SimConfig field names exactly; a typo is a hard error
    rather than a silently ignored setting.
    """
    if not isinstance(raw, dict):
        raise InvalidConfigError(f"config must be a JSON object, got {type(raw).__name__}")
    unknown = sorted(set(raw) - _CONFIG_FIELDS)
    if unknown:
        raise InvalidConfigError(f"unknown config keys: {', '.join(unknown)}")
    if "epochs" not in raw:
        raise InvalidConfigError("config is missing required key 'epochs'")

    kwargs: dict = {}
    for key, value in raw.items():
        if key in _INT_FIELDS:
            if (
                isinstance(value, bool)
                or not isinstance(value, (int, float))
                or (isinstance(value, float) and not value.is_integer())
            ):
                raise InvalidConfigError(f"{key} must be an integer, got {value!r}")
            kwargs[key] = int(value)
        elif key in _FLOAT_FIELDS:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise InvalidConfigError(f"{key} must be a number, got {value!r}")
            try:
                kwargs[key] = float(value)
            except OverflowError:
                raise InvalidConfigError(f"{key} is too large for a float") from None
        elif key == "policy":
            if not isinstance(value, str):
                raise InvalidConfigError(f"policy must be a string, got {value!r}")
            try:
                kwargs[key] = Policy(value.strip().lower())
            except ValueError:
                raise InvalidConfigError(f"policy must be 'ctc' or 'dsr', got {value!r}") from None
        else:  # rate functions
            if not isinstance(value, str):
                raise InvalidConfigError(f"{key} must be a rate-function string, got {value!r}")
            try:
                kwargs[key] = RateFunction.parse(value)
            except InvalidConfigError as exc:
                raise InvalidConfigError(f"{key}: {exc}") from None
    return SimConfig(**kwargs)


def load_config(path: str | Path) -> SimConfig:
    """Read a flat JSON config file."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidConfigError(f"config file is not valid JSON: {exc}") from None
    return config_from_dict(raw)


@dataclass(frozen=True)
class Packet:
    """A single packet; the deadline epoch is fixed at creation."""

    id: int
    cls: PacketClass
    created_epoch: int
    deadline_epoch: int


@dataclass
class NodeState:
    """Queues and energy of the target node.

    Queue entries in the engine are cohorts ``[created_epoch, count]`` in FIFO
    order; ``self_backlog``/``neighbor_backlog`` report the packet totals, so
    policy code does not care about the representation.
    """

    energy_remaining: int
    self_queue: Deque[list] = field(default_factory=deque)
    neighbor_queue: Deque[list] = field(default_factory=deque)

    @property
    def self_backlog(self) -> int:
        return sum(c[1] for c in self.self_queue)

    @property
    def neighbor_backlog(self) -> int:
        return sum(c[1] for c in self.neighbor_queue)


def ctc_split(node: NodeState, epoch_length: float, min_share_fraction: float) -> TimeBudget:
    """Backlog-proportional time split with a minimum share per class.

    The neighbor share is B_nbr / (B_self + B_nbr), 0.5 when both queues are
    empty, clamped to [min_share_fraction, 1 - min_share_fraction]. The self
    component is the exact complement so the budget always sums to the epoch.
    """
    b_self = node.self_backlog
    b_nbr = node.neighbor_backlog
    total = b_self + b_nbr
    share_np = 0.5 if total == 0 else b_nbr / total
    share_np = min(max(share_np, min_share_fraction), 1.0 - min_share_fraction)
    t_np = share_np * epoch_length
    return TimeBudget(t_pp=epoch_length - t_np, t_np=t_np)


def dsr_decide(node: NodeState, packet: Packet) -> Decision:
    """Per-packet forwarding decision of the self-first baseline.

    Own packets are always forwarded. A neighbor packet is forwarded only
    while energy credits remain, spending one credit; afterwards it is
    dropped. Mutates ``node.energy_remaining``.
    """
    if packet.cls is PacketClass.SELF:
        return Decision.FORWARD
    if node.energy_remaining > 0:
        node.energy_remaining -= 1
        return Decision.FORWARD
    return Decision.DROP


def _pop_fifo(queue: Deque[list], count: int) -> int:
    """Remove up to ``count`` packets from the cohort queue, oldest first."""
    taken = 0
    while count > 0 and queue:
        head = queue[0]
        grab = min(head[1], count)
        head[1] -= grab
        taken += grab
        count -= grab
        if head[1] == 0:
            queue.popleft()
    return taken


def _discard_expired(queue: Deque[list], cutoff: int) -> int:
    """Drop whole cohorts created at or before the cutoff epoch."""
    dropped = 0
    while queue and queue[0][0] <= cutoff:
        dropped += queue.popleft()[1]
    return dropped


def source_split(arrivals: int, neighbor_count: int) -> list[int]:
    """Per-source share of one epoch's neighbor arrivals, sources 1..n in order.

    Round-robin: every source sends ``arrivals // neighbor_count`` packets and
    the first ``arrivals % neighbor_count`` sources send one more.
    """
    base, extra = divmod(arrivals, neighbor_count)
    return [base + 1] * extra + [base] * (neighbor_count - extra)


@dataclass(frozen=True, eq=False)
class Schedule:
    """The seed-free part of a run: one entry per epoch at the target.

    ``serviced_self`` and ``attempts_neighbor`` are the packets transmitted,
    each facing one ambient-loss coin. ``dropped_before_loss_*`` are the
    drops decided before the coin: deadline expiry, plus ``dsr`` gate drops
    on the neighbor side. Counts are int64, times float64.
    """

    config: SimConfig
    offered_self: np.ndarray
    offered_neighbor: np.ndarray
    serviced_self: np.ndarray
    attempts_neighbor: np.ndarray
    dropped_before_loss_self: np.ndarray
    dropped_before_loss_neighbor: np.ndarray
    queued_self: np.ndarray
    queued_neighbor: np.ndarray
    t_pp: np.ndarray
    t_np: np.ndarray

    def __post_init__(self) -> None:
        # One schedule serves every seed of a grid point, and its traces
        # share its arrays: freeze them.
        for f in fields(self)[1:]:
            getattr(self, f.name).flags.writeable = False


@dataclass(frozen=True, eq=False)
class Trace:
    """One run at the target as per-epoch columns, indexed by epoch.

    Counts are this-epoch deltas (queues: end-of-epoch depth) in int64;
    ``t_pp``/``t_np`` and the cumulative drop ratios are float64.
    """

    config: SimConfig
    offered_self: np.ndarray
    offered_neighbor: np.ndarray
    forwarded_self: np.ndarray
    forwarded_neighbor: np.ndarray
    dropped_self: np.ndarray
    dropped_neighbor: np.ndarray
    queued_self: np.ndarray
    queued_neighbor: np.ndarray
    t_pp: np.ndarray
    t_np: np.ndarray
    drop_ratio_self: np.ndarray
    drop_ratio_neighbor: np.ndarray


def step(target: NodeState, config: SimConfig, epoch_index: int) -> tuple:
    """Advance the target one epoch, up to the ambient-loss coin.

    Fixed phase order: (a) deadline discard, (b) arrivals, (c) service split
    per policy. Returns the epoch's ``Schedule`` fields in field order:
    offered per class, ``serviced_self``, ``attempts_neighbor``, drops before
    loss per class, end-of-epoch queue depth per class, ``t_pp``, ``t_np``.
    """
    epoch_t = config.epoch_length

    # (a) deadline discard: a cohort created at c is gone once
    # c + deadline_epochs <= now.
    cutoff = epoch_index - config.deadline_epochs
    expired_self = _discard_expired(target.self_queue, cutoff)
    expired_nbr = _discard_expired(target.neighbor_queue, cutoff)

    # (b) arrivals. Self traffic goes straight into the self queue; source
    # traffic lands in the neighbor queue.
    arrivals_self = int(round(config.self_rate_fn.rate(epoch_index)))
    arrivals_nbr = int(round(config.neighbor_rate_fn.rate(epoch_index)))
    if arrivals_self > 0:
        target.self_queue.append([epoch_index, arrivals_self])
    if arrivals_nbr > 0:
        target.neighbor_queue.append([epoch_index, arrivals_nbr])

    # (c) service. Capacity is data_rate packets/second over the epoch.
    capacity = int(round(config.data_rate * epoch_t))
    gate_dropped = 0
    if config.policy is Policy.CTC:
        budget = ctc_split(target, epoch_t, config.min_share_fraction)
        share_np = budget.t_np / epoch_t
        cap_self = math.floor((1.0 - share_np) * capacity)
        cap_nbr = math.floor(share_np * capacity)
        serviced_self = _pop_fifo(target.self_queue, cap_self)
        attempts_nbr = _pop_fifo(target.neighbor_queue, cap_nbr)
        t_pp, t_np = budget.t_pp, budget.t_np
    else:
        serviced_self = _pop_fifo(target.self_queue, capacity)
        serviced_nbr = _pop_fifo(target.neighbor_queue, capacity - serviced_self)
        # Bulk form of dsr_decide over the serviced neighbor packets: forward
        # while credits last, drop the rest.
        attempts_nbr = min(serviced_nbr, target.energy_remaining)
        target.energy_remaining -= attempts_nbr
        gate_dropped = serviced_nbr - attempts_nbr
        # Realized time: the self-service fraction of the epoch, the rest
        # (neighbor service plus idle) on the neighbor side.
        t_pp = epoch_t * (serviced_self / capacity) if capacity > 0 else 0.0
        t_np = epoch_t - t_pp

    return (
        arrivals_self,
        arrivals_nbr,
        serviced_self,
        attempts_nbr,
        expired_self,
        expired_nbr + gate_dropped,
        target.self_backlog,
        target.neighbor_backlog,
        t_pp,
        t_np,
    )


def schedule(config: SimConfig) -> Schedule:
    """Step a fresh target through every epoch; no random number is drawn."""
    target = NodeState(energy_remaining=config.energy_budget)
    rows = [step(target, config, e) for e in range(config.epochs)]
    *counts, t_pp, t_np = zip(*rows) if rows else [()] * 10
    return Schedule(
        config,
        *(np.array(c, dtype=np.int64) for c in counts),
        np.array(t_pp, dtype=np.float64),
        np.array(t_np, dtype=np.float64),
    )


def _realize_class(offered, sent, dropped_before_loss, queued, lost):
    """Forwarded, dropped and cumulative drop-ratio columns of one class.

    Also returns the epochs at which cumulative conservation (offered =
    forwarded + dropped + queued) fails, as a boolean mask.
    """
    forwarded = sent - lost
    dropped = dropped_before_loss + lost
    cum_offered = np.cumsum(offered)
    cum_dropped = np.cumsum(dropped)
    broken = cum_offered != np.cumsum(forwarded) + cum_dropped + queued
    # int64 sums below 2**53 convert to float64 exactly, so this matches
    # Python's int / int there.
    ratio = np.divide(cum_dropped, cum_offered, out=np.zeros(cum_offered.size), where=cum_offered > 0)
    return forwarded, dropped, ratio, broken


def realize(plan: Schedule, seed: int) -> Trace:
    """Draw the ambient losses of one run over a schedule and build its trace."""
    config = replace(plan.config, seed=seed)
    # One coin per transmitted packet, drawn as one binomial per class per
    # epoch, self first; the array draw consumes the stream in that order.
    sent = np.empty(2 * config.epochs, dtype=np.int64)
    sent[0::2] = plan.serviced_self
    sent[1::2] = plan.attempts_neighbor
    lost = np.random.default_rng(seed).binomial(sent, config.base_drop_prob)
    fwd_s, drop_s, ratio_s, broken_s = _realize_class(
        plan.offered_self, plan.serviced_self, plan.dropped_before_loss_self, plan.queued_self, lost[0::2]
    )
    fwd_n, drop_n, ratio_n, broken_n = _realize_class(
        plan.offered_neighbor, plan.attempts_neighbor, plan.dropped_before_loss_neighbor, plan.queued_neighbor, lost[1::2]
    )
    broken = np.flatnonzero(broken_s | broken_n)
    if broken.size:
        epoch = int(broken[0])
        name = "self" if broken_s[epoch] else "neighbor"
        raise RuntimeError(f"{name}-class conservation violated at the target, epoch {epoch}")
    return Trace(
        config=config,
        offered_self=plan.offered_self,
        offered_neighbor=plan.offered_neighbor,
        forwarded_self=fwd_s,
        forwarded_neighbor=fwd_n,
        dropped_self=drop_s,
        dropped_neighbor=drop_n,
        queued_self=plan.queued_self,
        queued_neighbor=plan.queued_neighbor,
        t_pp=plan.t_pp,
        t_np=plan.t_np,
        drop_ratio_self=ratio_s,
        drop_ratio_neighbor=ratio_n,
    )


def run(config: SimConfig) -> Trace:
    """Run the configured number of epochs from a fresh target."""
    return realize(schedule(config), config.seed)


@dataclass(frozen=True)
class WindowRatio:
    """Neighbor-class drop ratio of the target over one classification window."""

    window_index: int
    offered: int
    dropped: int
    ratio: float
    flagged: bool


@dataclass(frozen=True)
class MisbehaviorStats:
    """Share of qualifying windows whose drop ratio exceeded the threshold."""

    malicious_fraction: float
    window_ratios: tuple[WindowRatio, ...]


def classify_misbehavior(trace: Trace, threshold: float | None = None, window: int | None = None) -> MisbehaviorStats:
    """Windowed misbehavior classification of the target over a trace.

    Epochs are split into consecutive windows of ``window`` epochs (trailing
    partial window included). Every window in which the target was offered
    neighbor packets qualifies; it is flagged when its neighbor drop ratio
    exceeds ``threshold``. Sources are never offered relay traffic, so they
    never qualify. Defaults come from the trace's config.
    """
    epochs = trace.offered_neighbor.size
    if epochs == 0:
        raise EmptyTraceError("cannot classify an empty trace")
    theta = trace.config.misbehavior_threshold if threshold is None else threshold
    w = trace.config.window_epochs if window is None else window
    if not 0.0 < theta < 1.0:
        raise InvalidConfigError(f"threshold must be in (0, 1), got {theta}")
    if w < 1:
        raise InvalidConfigError(f"window must be >= 1, got {w}")

    starts = np.arange(0, epochs, w)
    offered_sums = np.add.reduceat(trace.offered_neighbor, starts).tolist()
    dropped_sums = np.add.reduceat(trace.dropped_neighbor, starts).tolist()
    ratios: list[WindowRatio] = []
    flagged = 0
    for w_index, (offered, dropped) in enumerate(zip(offered_sums, dropped_sums)):
        if offered == 0:
            continue
        ratio = dropped / offered
        is_flagged = ratio > theta
        flagged += is_flagged
        ratios.append(
            WindowRatio(window_index=w_index, offered=offered, dropped=dropped, ratio=ratio, flagged=is_flagged)
        )
    fraction = flagged / len(ratios) if ratios else 0.0
    return MisbehaviorStats(malicious_fraction=fraction, window_ratios=tuple(ratios))
