"""Closed-form forwarding model.

A node splits each unit of time between sending its own traffic and forwarding
for neighbors. With forward probability ``p``, batch size ``k`` and service
rate ``data_rate``, the quantities below describe the per-batch transmission
probabilities, the asymmetric time split, the resulting throughput, and the
rate of packets at risk of being dropped.

All functions here are pure; validation happens when a ``ForwardingParams``
is constructed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegenerateDenominatorError, InvalidParameterError, NonPositiveTimeError

__all__ = [
    "MAX_K",
    "ForwardingParams",
    "ProbPair",
    "TimeBudget",
    "prob_batch",
    "time_components",
    "throughput",
    "packet_drop_rate",
]


# Upper bound on ``ForwardingParams.k``. The sums below take k terms one at a
# time, so `model eval` at the bound runs in a few hundredths of a second.
MAX_K = 10**5


@dataclass(frozen=True)
class ForwardingParams:
    """Free variables of the model.

    Parameters
    ----------
    p : float
        Probability that a transmission slot goes to neighbor traffic,
        in [0, 1].
    k : int
        Packet batch size, in [1, MAX_K].
    data_rate : float
        Service rate in packets per second, finite and strictly positive.
    """

    p: float
    k: int
    data_rate: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise InvalidParameterError(f"p must be in [0, 1], got {self.p}")
        if not isinstance(self.k, int) or not 1 <= self.k <= MAX_K:
            raise InvalidParameterError(f"k must be an integer in [1, {MAX_K}], got {self.k!r}")
        if not 0.0 < self.data_rate < math.inf:
            raise InvalidParameterError(f"data_rate must be finite and > 0, got {self.data_rate}")


@dataclass(frozen=True)
class ProbPair:
    """Batch transmission probabilities for the two traffic classes."""

    p_self: float
    p_neighbor: float


@dataclass(frozen=True)
class TimeBudget:
    """Asymmetric time split of one service interval.

    ``t_i`` is always the exact sum of the two components; it is a property
    rather than a stored field so the identity cannot drift.
    """

    t_pp: float
    t_np: float

    @property
    def t_i(self) -> float:
        return self.t_pp + self.t_np


def prob_batch(params: ForwardingParams) -> ProbPair:
    """Probability of transmitting a k-packet batch of own vs neighbor traffic.

    p_self = (1-p)^k and p_neighbor = p * (1-p)^k, so the neighbor value is
    always the self value scaled by p.
    """
    base = (1.0 - params.p) ** params.k
    return ProbPair(p_self=base, p_neighbor=params.p * base)


def time_components(params: ForwardingParams) -> TimeBudget:
    """Expected time spent on own and neighbor batches per service interval.

    Each class sums its per-packet probability terms over j = 1..k and divides
    by the service rate:

        t_pp = sum_j (1-p)^j / data_rate
        t_np = sum_j p * (1-p)^j / data_rate

    The sums are evaluated term by term on purpose; the geometric closed form
    is reserved for cross-checking in the test suite.
    """
    q = 1.0 - params.p
    self_sum = 0.0
    neighbor_sum = 0.0
    term = 1.0
    for _ in range(params.k):
        term *= q
        self_sum += term
        neighbor_sum += params.p * term
    return TimeBudget(t_pp=self_sum / params.data_rate, t_np=neighbor_sum / params.data_rate)


def throughput(params: ForwardingParams) -> float:
    """Node throughput in packets per second.

    Computed as the explicit ratio

        sum_j ((1-p)^j + p*(1-p)^j)  /  (t_pp + t_np)

    with the times from :func:`time_components`. Numerator and denominator
    contain the same probability mass scaled by 1/data_rate, so the result
    equals data_rate for every p < 1; keeping both sides explicit makes that
    identity a meaningful regression check rather than a tautology.
    """
    if params.p == 1.0:
        raise DegenerateDenominatorError("throughput undefined at p = 1: no time is ever allocated")
    q = 1.0 - params.p
    numerator = 0.0
    term = 1.0
    for _ in range(params.k):
        term *= q
        numerator += term + params.p * term
    times = time_components(params)
    denominator = times.t_pp + times.t_np
    if denominator == 0.0:
        raise DegenerateDenominatorError("throughput undefined: time denominator is zero")
    return numerator / denominator


def packet_drop_rate(self_packets: int, neighbor_packets: int, total_time: float) -> float:
    """Rate of packets at risk of drop, in packets per second.

    Both class counts divided by the observation time. The simulator turns
    this at-risk rate into realized drops via deadlines and capacity; here it
    is plain arithmetic.
    """
    if self_packets < 0 or neighbor_packets < 0:
        raise InvalidParameterError("packet counts must be >= 0")
    if not total_time > 0.0:
        raise NonPositiveTimeError(f"total_time must be > 0, got {total_time}")
    return (self_packets + neighbor_packets) / total_time
