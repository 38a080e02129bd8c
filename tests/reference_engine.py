"""Per-packet reference implementation of the simulator semantics.

The production engine tracks only how many packets each queue has consumed,
and schedules ``dsr`` as a prefix scan. This one materializes a Packet object
for every arrival, walks queues packet by packet, and routes every serviced
packet through the per-packet policy decision (``dsr_decide`` for the
baseline, ``split_time`` for ``ctc``). It consumes the random stream in the
same fixed order (two binomial draws per epoch at the target), so on any
config the two engines must agree counter for counter, epoch for epoch.

Kept deliberately naive: no consumed counts, no scans, and a ``ctc`` split
of its own, so it stays an independent check rather than a restatement of
the production code. The per-packet engine cannot hold counts near the
bounds of validation, 2**53 packets per class and run, so
``schedule_cohorts`` keeps the schedule of either policy as one pass over
queues of arrival cohorts in Python ints, where no count wraps, as the
oracle at those counts.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ctcsim.sim import Policy, SimConfig


class PacketClass(str, enum.Enum):
    SELF = "self"
    NEIGHBOR = "neighbor"


class Decision(str, enum.Enum):
    FORWARD = "forward"
    DROP = "drop"


@dataclass(frozen=True)
class Packet:
    """A single packet; the deadline epoch is fixed at creation."""

    id: int
    cls: PacketClass
    created_epoch: int
    deadline_epoch: int


@dataclass
class NodeState:
    """Energy credits of a node, as the per-packet ``dsr_decide`` sees them."""

    energy_remaining: int


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


def split_time(
    self_backlog: int, neighbor_backlog: int, epoch_length: float, min_share_fraction: float, capacity: int
) -> tuple[float, float, int, int]:
    """The ``ctc`` split of one epoch, as its rule is stated: ``(t_pp, t_np, cap_self, cap_nbr)``.

    The neighbor share is the neighbor backlog over both (one half when both
    queues are empty), clamped to ``[min_share_fraction, 1 -
    min_share_fraction]``. The neighbor time is share times the epoch, the
    self time the rest of it. The share is then read back as ``t_np /
    epoch_length``, and each class may serve the floor of its share of
    ``capacity`` packets.
    """
    total = self_backlog + neighbor_backlog
    share = min(max(0.5 if total == 0 else neighbor_backlog / total, min_share_fraction), 1.0 - min_share_fraction)
    t_np = share * epoch_length
    share = t_np / epoch_length
    return epoch_length - t_np, t_np, math.floor((1.0 - share) * capacity), math.floor(share * capacity)


@dataclass
class RefNode:
    node_id: int
    energy_remaining: int
    self_queue: deque = field(default_factory=deque)
    neighbor_queue: deque = field(default_factory=deque)
    offered_self: int = 0
    offered_neighbor: int = 0
    forwarded_self: int = 0
    forwarded_neighbor: int = 0
    dropped_self: int = 0
    dropped_neighbor: int = 0

    @property
    def self_backlog(self) -> int:
        return len(self.self_queue)

    @property
    def neighbor_backlog(self) -> int:
        return len(self.neighbor_queue)


@dataclass
class RefEpoch:
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


def run_reference(config: SimConfig) -> tuple[RefNode, list[RefEpoch]]:
    """Run the per-packet engine; returns the target node and per-epoch rows."""
    rng = np.random.default_rng(config.seed)
    target = RefNode(node_id=0, energy_remaining=config.energy_budget)
    next_id = 0
    epochs: list[RefEpoch] = []
    epoch_t = config.epoch_length
    capacity = int(round(config.data_rate * epoch_t))

    for e in range(config.epochs):
        # (a) deadline discard, one packet at a time.
        expired_self = 0
        while target.self_queue and target.self_queue[0].created_epoch <= e - config.deadline_epochs:
            target.self_queue.popleft()
            expired_self += 1
        expired_nbr = 0
        while target.neighbor_queue and target.neighbor_queue[0].created_epoch <= e - config.deadline_epochs:
            target.neighbor_queue.popleft()
            expired_nbr += 1

        # (b) arrivals, materialized as packets.
        n_self = int(round(config.self_rate_fn.rate(e)))
        n_nbr = int(round(config.neighbor_rate_fn.rate(e)))
        for _ in range(n_self):
            target.self_queue.append(Packet(next_id, PacketClass.SELF, e, e + config.deadline_epochs))
            next_id += 1
        for _ in range(n_nbr):
            target.neighbor_queue.append(Packet(next_id, PacketClass.NEIGHBOR, e, e + config.deadline_epochs))
            next_id += 1
        target.offered_self += n_self
        target.offered_neighbor += n_nbr

        # (c) service.
        gate_dropped = 0
        if config.policy is Policy.CTC:
            t_pp, t_np, cap_self, cap_nbr = split_time(
                target.self_backlog, target.neighbor_backlog, epoch_t, config.min_share_fraction, capacity
            )
            serviced_self = 0
            while serviced_self < cap_self and target.self_queue:
                target.self_queue.popleft()
                serviced_self += 1
            attempts_nbr = 0
            while attempts_nbr < cap_nbr and target.neighbor_queue:
                target.neighbor_queue.popleft()
                attempts_nbr += 1
        else:
            serviced_self = 0
            while serviced_self < capacity and target.self_queue:
                packet = target.self_queue.popleft()
                assert dsr_decide(target, packet) is Decision.FORWARD
                serviced_self += 1
            attempts_nbr = 0
            budget_left = capacity - serviced_self
            serviced_nbr = 0
            while serviced_nbr < budget_left and target.neighbor_queue:
                packet = target.neighbor_queue.popleft()
                serviced_nbr += 1
                if dsr_decide(target, packet) is Decision.FORWARD:
                    attempts_nbr += 1
                else:
                    gate_dropped += 1
            t_pp = epoch_t * (serviced_self / capacity) if capacity > 0 else 0.0
            t_np = epoch_t - t_pp

        # (d) ambient loss, same two draws in the same order.
        lost_self = int(rng.binomial(serviced_self, config.base_drop_prob))
        lost_nbr = int(rng.binomial(attempts_nbr, config.base_drop_prob))

        # (e) counters.
        target.forwarded_self += serviced_self - lost_self
        target.dropped_self += expired_self + lost_self
        target.forwarded_neighbor += attempts_nbr - lost_nbr
        target.dropped_neighbor += expired_nbr + gate_dropped + lost_nbr

        epochs.append(
            RefEpoch(
                epoch=e,
                offered_self=n_self,
                offered_neighbor=n_nbr,
                forwarded_self=serviced_self - lost_self,
                forwarded_neighbor=attempts_nbr - lost_nbr,
                dropped_self=expired_self + lost_self,
                dropped_neighbor=expired_nbr + gate_dropped + lost_nbr,
                queued_self=len(target.self_queue),
                queued_neighbor=len(target.neighbor_queue),
                t_pp=t_pp,
                t_np=t_np,
            )
        )
    return target, epochs


def _expire_cohorts(arrived: list[int], head: int, cutoff: int) -> tuple[int, int]:
    """Discard every cohort created at or before ``cutoff``; returns the new head and the count expired."""
    expired = 0
    while head <= cutoff:
        expired += arrived[head]
        arrived[head] = 0
        head += 1
    return head, expired


def _serve_cohorts(arrived: list[int], head: int, take: int) -> int:
    """Serve ``take`` packets from the oldest cohorts; returns the new head."""
    while take:
        count = arrived[head]
        if count > take:
            arrived[head] = count - take
            return head
        take -= count
        head += 1
    return head


def schedule_cohorts(config: SimConfig) -> dict[str, list]:
    """The schedule of a config as one pass over the epochs, in Python ints.

    Returns every per-epoch ``Schedule`` column by field name. Each class's
    queue is its list of arrival cohorts from ``head`` on. Per epoch: the
    cohorts past the deadline expire, and the arrivals join. Under ``ctc``
    each queue is then served up to its ``split_time`` capacity. Under
    ``dsr`` the self queue is served with up to the whole capacity, the
    neighbor queue with what is left, and the serviced neighbor packets are
    forwarded while energy credits last, the rest dropped at the gate.
    """
    epochs = config.epochs
    epoch_t = config.epoch_length
    energy = config.energy_budget
    capacity = int(round(config.data_rate * epoch_t))
    offered_self = [int(round(config.self_rate_fn.rate(e))) for e in range(epochs)]
    offered_nbr = [int(round(config.neighbor_rate_fn.rate(e))) for e in range(epochs)]
    arrived_self, arrived_nbr = list(offered_self), list(offered_nbr)
    head_self = head_nbr = backlog_self = backlog_nbr = 0
    columns: dict[str, list] = {
        "offered_self": offered_self,
        "offered_neighbor": offered_nbr,
        "serviced_self": [],
        "attempts_neighbor": [],
        "dropped_before_loss_self": [],
        "dropped_before_loss_neighbor": [],
        "queued_self": [],
        "queued_neighbor": [],
        "t_pp": [],
        "t_np": [],
    }
    for e in range(epochs):
        head_self, expired_self = _expire_cohorts(arrived_self, head_self, e - config.deadline_epochs)
        head_nbr, expired_nbr = _expire_cohorts(arrived_nbr, head_nbr, e - config.deadline_epochs)
        backlog_self += arrived_self[e] - expired_self
        backlog_nbr += arrived_nbr[e] - expired_nbr
        if config.policy is Policy.CTC:
            t_pp, t_np, cap_self, cap_nbr = split_time(
                backlog_self, backlog_nbr, epoch_t, config.min_share_fraction, capacity
            )
            take_self = min(cap_self, backlog_self)
            take_nbr = attempts = min(cap_nbr, backlog_nbr)
        else:
            take_self = min(capacity, backlog_self)
            take_nbr = min(capacity - take_self, backlog_nbr)
            attempts = min(take_nbr, energy)
            energy -= attempts
            t_pp = epoch_t * (take_self / capacity) if capacity > 0 else 0.0
            t_np = epoch_t - t_pp
        head_self = _serve_cohorts(arrived_self, head_self, take_self)
        head_nbr = _serve_cohorts(arrived_nbr, head_nbr, take_nbr)
        backlog_self -= take_self
        backlog_nbr -= take_nbr
        for name, value in (
            ("serviced_self", take_self),
            ("attempts_neighbor", attempts),
            ("dropped_before_loss_self", expired_self),
            ("dropped_before_loss_neighbor", expired_nbr + take_nbr - attempts),
            ("queued_self", backlog_self),
            ("queued_neighbor", backlog_nbr),
            ("t_pp", t_pp),
            ("t_np", t_np),
        ):
            columns[name].append(value)
    return columns
