"""Node-power and utilization calculus.

"Power" here is a work rate in packets per second, not wattage: how fast a
node pushes out its own packets (over t_pp) and forwards neighbor packets
(over t_np), relative to how fast neighbor packets arrive. Utilization is the
ratio of outgoing to incoming work rate,

    U = (k_pout/t_pp + k_nout/t_np) / (k_nin/t_np)
      = k_nout/k_nin + (k_pout/k_nin) * (t_np/t_pp),

the share of received neighbor packets forwarded, at most 1, plus the own
packets sent per neighbor packet received, weighted by the ratio of relay
time to own time, which has no upper bound. It is 1.0 for a node that
forwards all it receives and sends nothing of its own, but it does not rank
cooperation: own traffic lifts it above 1 even while relay traffic is
dropped. Over the default experiment grid it reads 0.936 to 3.065 under
``ctc`` and 0.625 to 34.552 under ``dsr``.

The total over routes is computed two independent ways, as a ratio of rates
and in a factored form, and the two must agree; this redundancy is part of
the contract, not an optimization. The experiment grid evaluates the same
ratio form (``_ratio_form``) on the arrays of a whole sweep, one value per
point and seed, and writes 0.0 where utilization is undefined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import InvalidParameterError, InvariantError, NoInputError, ZeroTimeError
from .model import TimeBudget

__all__ = [
    "MAX_COUNT",
    "TIME_RANGE",
    "PacketCounters",
    "PowerRates",
    "RouteUtilization",
    "per_route_utilization",
    "power_out",
    "utilization_forms",
    "utilization_node",
    "utilization_node_factored",
    "utilization_total",
]

# Relative disagreement beyond this between the ratio form and the factored
# form means a real bug, not float noise.
_AGREEMENT_RTOL = 1e-9

# Inside these ranges every intermediate of both utilization forms is a
# normal float, so the two forms can differ only by rounding.
MAX_COUNT = 1e100
TIME_RANGE = (1e-100, 1e100)


@dataclass(frozen=True)
class PacketCounters:
    """Per-node packet counts over one observation window.

    k_pout: own packets sent out; k_nout: neighbor packets forwarded out;
    k_nin: neighbor packets received. Every packet received is neighbor
    traffic, so ``k_pin`` is an alias of ``k_nin``.
    """

    k_pout: float
    k_nout: float
    k_nin: float

    def __post_init__(self) -> None:
        for name, count in (("k_pout", self.k_pout), ("k_nout", self.k_nout), ("k_nin", self.k_nin)):
            # A comparison, not ``math.isfinite``: an int count may be too large for a float.
            if not 0 <= count < math.inf:
                raise InvalidParameterError(f"{name} must be finite and >= 0, got {count}")
        if self.k_nout > self.k_nin:
            raise InvalidParameterError(
                "cannot forward more neighbor packets than received: "
                f"k_nout={self.k_nout} > k_nin={self.k_nin}"
            )

    @property
    def k_pin(self) -> float:
        return self.k_nin


@dataclass(frozen=True)
class PowerRates:
    """Work rates in packets per second; ``n_pout`` is the exact sum of parts."""

    n_ppout: float
    n_pnout: float
    n_pin: float

    @property
    def n_pout(self) -> float:
        return self.n_ppout + self.n_pnout


@dataclass(frozen=True)
class RouteUtilization:
    """Utilization of one route, 1-indexed."""

    route_index: int
    value: float


def _rate(count: float, time: float, what: str) -> float:
    # A zero count costs no work regardless of the time window; only a
    # nonzero count over a zero time is meaningless.
    if count == 0:
        return 0.0
    if not time > 0:  # NaN fails it too
        raise ZeroTimeError(f"{what}: nonzero count {count} over non-positive time {time}")
    return count / time


def power_out(counters: PacketCounters, times: TimeBudget) -> PowerRates:
    """Outgoing and incoming work rates for one node."""
    return PowerRates(
        n_ppout=_rate(counters.k_pout, times.t_pp, "own-packet rate"),
        n_pnout=_rate(counters.k_nout, times.t_np, "forwarded-packet rate"),
        n_pin=_rate(counters.k_nin, times.t_np, "incoming rate"),
    )


def _check_defined(counters: PacketCounters, times: TimeBudget) -> None:
    """The guard both utilization forms share: neighbor input, and both times > 0 (NaN is not)."""
    if counters.k_nin == 0:
        raise NoInputError("utilization undefined: node received no neighbor packets")
    for name, time in (("t_np", times.t_np), ("t_pp", times.t_pp)):
        if not time > 0:
            raise ZeroTimeError(f"{name} must be > 0, got {time}")


def _ratio_form(k_pout, k_nout, k_nin, t_pp, t_np):
    """The ratio form, unguarded, on floats or on numpy arrays that broadcast."""
    n_out = k_pout / t_pp + k_nout / t_np
    n_in = k_nin / t_np
    return n_out / n_in


def utilization_node(counters: PacketCounters, times: TimeBudget) -> float:
    """Utilization of one node: outgoing work rate over incoming work rate.

        U = (k_pout/t_pp + k_nout/t_np) / (k_nin/t_np)

    Raises NoInputError for an isolated node (k_nin = 0) and ZeroTimeError if
    a needed time component is not positive.
    """
    _check_defined(counters, times)
    return _ratio_form(counters.k_pout, counters.k_nout, counters.k_nin, times.t_pp, times.t_np)


def utilization_node_factored(counters: PacketCounters, times: TimeBudget) -> float:
    """The same utilization with t_np distributed through the ratio:

        U = (k_pout * t_np / t_pp + k_nout) / k_nin

    Algebraically identical to :func:`utilization_node`; computed separately
    so the two routes stay independent checks on each other.
    """
    _check_defined(counters, times)
    return (counters.k_pout * times.t_np / times.t_pp + counters.k_nout) / counters.k_nin


def per_route_utilization(
    per_route: Sequence[tuple[PacketCounters, TimeBudget]],
) -> list[RouteUtilization]:
    """Factored-form utilization of each route, 1-indexed."""
    return [
        RouteUtilization(route_index=i, value=utilization_node_factored(c, t))
        for i, (c, t) in enumerate(per_route, start=1)
    ]


def utilization_forms(counters: PacketCounters, times: TimeBudget) -> tuple[float, float]:
    """One node's utilization in the ratio form and in the factored form.

    The two are the same quantity computed two ways, so a relative
    disagreement beyond 1e-9 is a failed identity and raises InvariantError.
    Counts must be integers in ``[0, MAX_COUNT]`` and times in ``TIME_RANGE``,
    where that cannot happen by overflow or underflow; InvalidParameterError
    names the first value outside.
    """
    for name in ("k_pout", "k_nout", "k_nin"):
        value = getattr(counters, name)
        if not (0 <= value <= MAX_COUNT and float(value).is_integer()):
            raise InvalidParameterError(f"{name} must be an integer in [0, {MAX_COUNT:g}], got {value}")
    low, high = TIME_RANGE
    for name in ("t_pp", "t_np"):
        value = getattr(times, name)
        if not low <= value <= high:
            raise InvalidParameterError(f"{name} must be in [{low:g}, {high:g}], got {value}")
    u_ratio = utilization_node(counters, times)
    u_factored = utilization_node_factored(counters, times)
    scale = max(abs(u_ratio), abs(u_factored), 1.0)
    if not abs(u_ratio - u_factored) <= _AGREEMENT_RTOL * scale:  # NaN disagrees too
        raise InvariantError(f"utilization forms disagree: ratio={u_ratio!r} factored={u_factored!r}")
    return u_ratio, u_factored


def utilization_total(per_route: Sequence[tuple[PacketCounters, TimeBudget]]) -> float:
    """System utilization: sum of per-route utilization.

    Every route is checked through :func:`utilization_forms`; the
    factored-form sum is returned. An empty route list is a vacuous sum, 0.0.
    """
    total = 0.0
    for counters, times in per_route:
        total += utilization_forms(counters, times)[1]
    return total
