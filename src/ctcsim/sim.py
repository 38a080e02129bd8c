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
from dataclasses import dataclass, field
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
    "run",
    "Trace",
    "TraceRecord",
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
            if isinstance(value, bool) or not isinstance(value, (int, float)) or value != int(value):
                raise InvalidConfigError(f"{key} must be an integer, got {value!r}")
            kwargs[key] = int(value)
        elif key in _FLOAT_FIELDS:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise InvalidConfigError(f"{key} must be a number, got {value!r}")
            kwargs[key] = float(value)
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
class ClassCounters:
    """Cumulative per-class accounting for one node."""

    offered: int = 0
    forwarded: int = 0
    dropped: int = 0


@dataclass
class NodeState:
    """Queues, energy and counters of the target node.

    Queue entries in the engine are cohorts ``[created_epoch, count]`` in FIFO
    order; ``self_backlog``/``neighbor_backlog`` report the packet totals, so
    policy code does not care about the representation.
    """

    energy_remaining: int
    self_queue: Deque[list] = field(default_factory=deque)
    neighbor_queue: Deque[list] = field(default_factory=deque)
    self_stats: ClassCounters = field(default_factory=ClassCounters)
    neighbor_stats: ClassCounters = field(default_factory=ClassCounters)

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


@dataclass(frozen=True)
class TraceRecord:
    """One epoch at the target: this-epoch deltas plus cumulative ratios."""

    epoch: int
    offered_self: int
    offered_neighbor: int
    forwarded_self: int
    forwarded_neighbor: int
    dropped_self: int
    dropped_neighbor: int
    queued_self: int
    queued_neighbor: int
    t_pp: float
    t_np: float
    drop_ratio_self: float
    drop_ratio_neighbor: float


@dataclass(frozen=True)
class Trace:
    config: SimConfig
    records: tuple[TraceRecord, ...]


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


def _ratio(dropped: int, offered: int) -> float:
    return dropped / offered if offered > 0 else 0.0


def source_split(arrivals: int, neighbor_count: int) -> list[int]:
    """Per-source share of one epoch's neighbor arrivals, sources 1..n in order.

    Round-robin: every source sends ``arrivals // neighbor_count`` packets and
    the first ``arrivals % neighbor_count`` sources send one more.
    """
    base, extra = divmod(arrivals, neighbor_count)
    return [base + 1] * extra + [base] * (neighbor_count - extra)


def step(target: NodeState, config: SimConfig, epoch_index: int, rng: np.random.Generator) -> TraceRecord:
    """Advance the target one epoch and record it.

    Fixed phase order: (a) deadline discard, (b) arrivals, (c) service split
    per policy, (d) ambient loss on every transmitted packet, (e) counter
    update and conservation check. Two binomial draws per epoch, always in
    the same order and also when the attempt count is zero, so the stream
    position never depends on load or policy.
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
    target.self_stats.offered += arrivals_self
    if arrivals_nbr > 0:
        target.neighbor_queue.append([epoch_index, arrivals_nbr])
    target.neighbor_stats.offered += arrivals_nbr

    # (c) service. Capacity is data_rate packets/second over the epoch.
    capacity = int(round(config.data_rate * epoch_t))
    gate_dropped = 0
    if config.policy is Policy.CTC:
        budget = ctc_split(target, epoch_t, config.min_share_fraction)
        share_np = budget.t_np / epoch_t
        cap_self = math.floor((1.0 - share_np) * capacity)
        cap_nbr = math.floor(share_np * capacity)
        serviced_self = _pop_fifo(target.self_queue, min(cap_self, target.self_backlog))
        serviced_nbr = _pop_fifo(target.neighbor_queue, min(cap_nbr, target.neighbor_backlog))
        attempts_nbr = serviced_nbr
        t_pp, t_np = budget.t_pp, budget.t_np
    else:
        serviced_self = _pop_fifo(target.self_queue, min(capacity, target.self_backlog))
        remaining = capacity - serviced_self
        serviced_nbr = _pop_fifo(target.neighbor_queue, min(remaining, target.neighbor_backlog))
        # Bulk form of dsr_decide over the serviced neighbor packets: forward
        # while credits last, drop the rest.
        attempts_nbr = min(serviced_nbr, target.energy_remaining)
        target.energy_remaining -= attempts_nbr
        gate_dropped = serviced_nbr - attempts_nbr
        # Realized time: the self-service fraction of the epoch, the rest
        # (neighbor service plus idle) on the neighbor side.
        t_pp = epoch_t * (serviced_self / capacity) if capacity > 0 else 0.0
        t_np = epoch_t - t_pp

    # (d) ambient loss: one coin per transmitted packet, drawn as a binomial
    # per class. Both draws always happen to keep the stream aligned.
    lost_self = int(rng.binomial(serviced_self, config.base_drop_prob))
    lost_nbr = int(rng.binomial(attempts_nbr, config.base_drop_prob))

    # (e) counters.
    stats_s, stats_n = target.self_stats, target.neighbor_stats
    stats_s.forwarded += serviced_self - lost_self
    stats_s.dropped += expired_self + lost_self
    stats_n.forwarded += attempts_nbr - lost_nbr
    stats_n.dropped += expired_nbr + gate_dropped + lost_nbr
    queued_self = target.self_backlog
    queued_nbr = target.neighbor_backlog
    if stats_s.offered != stats_s.forwarded + stats_s.dropped + queued_self:
        raise RuntimeError(f"self-class conservation violated at the target, epoch {epoch_index}")
    if stats_n.offered != stats_n.forwarded + stats_n.dropped + queued_nbr:
        raise RuntimeError(f"neighbor-class conservation violated at the target, epoch {epoch_index}")
    return TraceRecord(
        epoch=epoch_index,
        offered_self=arrivals_self,
        offered_neighbor=arrivals_nbr,
        forwarded_self=serviced_self - lost_self,
        forwarded_neighbor=attempts_nbr - lost_nbr,
        dropped_self=expired_self + lost_self,
        dropped_neighbor=expired_nbr + gate_dropped + lost_nbr,
        queued_self=queued_self,
        queued_neighbor=queued_nbr,
        t_pp=t_pp,
        t_np=t_np,
        drop_ratio_self=_ratio(stats_s.dropped, stats_s.offered),
        drop_ratio_neighbor=_ratio(stats_n.dropped, stats_n.offered),
    )


def run(config: SimConfig) -> Trace:
    """Run the configured number of epochs from a fresh target."""
    target = NodeState(energy_remaining=config.energy_budget)
    rng = np.random.default_rng(config.seed)
    records = tuple(step(target, config, e, rng) for e in range(config.epochs))
    return Trace(config=config, records=records)


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
    if not trace.records:
        raise EmptyTraceError("cannot classify an empty trace")
    theta = trace.config.misbehavior_threshold if threshold is None else threshold
    w = trace.config.window_epochs if window is None else window
    if not 0.0 < theta < 1.0:
        raise InvalidConfigError(f"threshold must be in (0, 1), got {theta}")
    if w < 1:
        raise InvalidConfigError(f"window must be >= 1, got {w}")

    ratios: list[WindowRatio] = []
    flagged = 0
    for w_index, start in enumerate(range(0, len(trace.records), w)):
        chunk = trace.records[start : start + w]
        offered = sum(r.offered_neighbor for r in chunk)
        if offered == 0:
            continue
        dropped = sum(r.dropped_neighbor for r in chunk)
        ratio = dropped / offered
        is_flagged = ratio > theta
        flagged += is_flagged
        ratios.append(
            WindowRatio(window_index=w_index, offered=offered, dropped=dropped, ratio=ratio, flagged=is_flagged)
        )
    fraction = flagged / len(ratios) if ratios else 0.0
    return MisbehaviorStats(malicious_fraction=fraction, window_ratios=tuple(ratios))
