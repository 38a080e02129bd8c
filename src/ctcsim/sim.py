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

A run has two stages. ``schedule`` takes the target through every epoch
without a random number: deadline discard, arrivals, the ``ctc`` split,
``dsr`` energy use and gate drops. ``realize`` then draws the ambient
losses of a whole run in one ``binomial`` call and derives the forwarded,
dropped and cumulative-ratio columns with array operations. The split is
exact because a lost packet has already left its queue: loss moves a
transmitted packet from "forwarded" to "dropped" and feeds back into nothing
the next epoch reads (queues, backlogs, energy). So one schedule serves every
seed of a grid point, and one realization pass serves a whole sweep: the
losses of every grid point and seed fill one ``(points, seeds, 2 * epochs)``
array, and the forwarded and dropped columns, the conservation check and
the classifier's window sums work along its last axis
(``ctcsim.experiments.run_case`` realizes each sweep of a case that way).
Each seed has one generator, seeded once; its seeded state is restored
before each grid point's draw, which starts the stream of
``np.random.default_rng(seed)`` without seeding anew. ``realize`` and
``classify_misbehavior`` are the one-run case of that pass. Each row
interleaves ``[serviced_self[e], attempts_neighbor[e]]`` per epoch, the
order in which one scalar draw per class per epoch would consume the seed's
stream, also when a count is zero, so the stream position never depends on
load or policy.

The engine never materializes a packet. Both policies keep each FIFO queue
as one count: with ``A(e)`` a class's cumulative arrivals, ``D`` the
deadline and ``s_e`` its service allowance, the packets consumed (expired or
served) by the end of epoch ``e``, counted in arrival order, are ``P(e) =
min(max(P(e-1), A(e-D)) + s_e, A(e))``, and each epoch's expired, served and
queued counts follow from ``P`` alone. ``ctc`` couples its queues through
the split, which reads the backlogs ``A(e) - max(P(e-1), A(e-D))``, so it is
one pass over the epochs. Under ``dsr`` the queues decouple: the self queue
gets the whole capacity ``c`` and the neighbor queue ``c -
serviced_self[e]``, both known before the queue is served. Each epoch is a
clamp, clamps compose into a clamp, and a prefix scan over the clamps gives
``P`` in O(log epochs) numpy passes, for a whole sweep of configs at once
(one row each). The gate forwards while credits last, so the cumulative
attempts are ``min(cumsum(serviced_neighbor), energy_budget)``. Validation
bounds every count so that the scan runs in int64 and every division is
exact (see ``SimConfig``).

Determinism contract: a run is a pure function of its config, including the
seed. The per-packet semantics live in the test suite, which holds both
kernels to a packet-level reference engine, counter for counter.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, fields, replace
from functools import cache
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .errors import EmptyTraceError, InvalidConfigError, InvariantError

__all__ = [
    "Policy",
    "RateKind",
    "RateFunction",
    "MAX_EPOCHS",
    "MAX_NEIGHBOR_COUNT",
    "SimConfig",
    "config_from_dict",
    "load_config",
    "ctc_split",
    "source_split",
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


class RateKind(str, enum.Enum):
    CONSTANT = "constant"
    LINEAR_INCREASING = "linear_increasing"
    LINEAR_DECREASING = "linear_decreasing"


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
        _check_types(self)
        if not (math.isfinite(self.base) and math.isfinite(self.slope)):
            raise InvalidConfigError(f"rate parameters must be finite, got {self}")
        if self.base < 0 or self.slope < 0:
            raise InvalidConfigError(f"rate parameters must be >= 0, got {self}")

    def rate(self, epoch):
        """Rate at ``epoch``; elementwise when ``epoch`` is an integer array."""
        if self.kind is RateKind.CONSTANT:
            # Adding 0.0 * epoch gives the result the shape of ``epoch``.
            return self.base + 0.0 * epoch
        if self.kind is RateKind.LINEAR_INCREASING:
            return self.base + self.slope * epoch
        return np.maximum(0.0, self.base - self.slope * epoch)

    def arrivals(self, epochs: int) -> np.ndarray:
        """Whole packets arriving at epochs ``0 .. epochs-1``: ``rate`` rounded half to even, as int64."""
        return np.rint(self.rate(np.arange(epochs))).astype(np.int64)

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


# What each declared field type takes. Under ``from __future__ import
# annotations`` a dataclass field's ``type`` is its annotation as written. A
# float field takes an int too, and no field takes a bool. An int field takes
# only Python ints: validation multiplies them, where a numpy int would wrap.
_FIELD_TYPES = {"int": int, "float": (int, float), "Policy": Policy, "RateKind": RateKind, "RateFunction": RateFunction}


def _as_float(name: str, value: int | float) -> float:
    try:
        return float(value)
    except OverflowError:
        raise InvalidConfigError(f"{name} is too large for a float") from None


@cache
def _declared_types(cls) -> tuple[tuple[str, str, type | tuple[type, ...]], ...]:
    """Each field of a dataclass: its name, its declared type, and the types it takes.

    Cached per class, since a grid checks a ``SimConfig`` and two
    ``RateFunction`` per point.
    """
    return tuple((f.name, f.type, _FIELD_TYPES[f.type]) for f in fields(cls))


def _check_types(instance) -> None:
    """Reject a dataclass field whose value is not of its declared type, naming the field."""
    for name, declared, accepted in _declared_types(type(instance)):
        value = getattr(instance, name)
        if isinstance(value, bool) or not isinstance(value, accepted):
            raise InvalidConfigError(f"{name} must be {declared}, got {value!r}")
        if declared == "float" and isinstance(value, int):
            _as_float(name, value)


_ZERO_RATE = RateFunction(RateKind.CONSTANT, 0.0)
_INT64_MAX = 2**63 - 1
# float64 holds every integer up to 2**53 exactly, so counts and sums within
# it divide as Python's ``int / int`` does.
_EXACT_MAX = 2**53

# Upper bound on ``SimConfig.epochs``. A run holds its per-epoch columns in
# memory, about 150 bytes per epoch at the peak (in ``realize``; ``schedule``
# peaks at 136 for ``ctc`` and 112 for ``dsr``; tracemalloc at 10**6 epochs,
# ``data_rate`` 420, ``deadline_epochs`` 20), so 10**7 epochs need near
# 1.4 GiB. A larger value is rejected by name at validation instead of
# failing in an allocation.
MAX_EPOCHS = 10**7
# Upper bound on ``SimConfig.neighbor_count``. The trace writer holds one
# epoch's source rows in memory, a few hundred bytes per source: about
# 36 MiB at the bound.
MAX_NEIGHBOR_COUNT = 10**5


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
        _check_types(self)
        checks = [
            (self.epochs >= 0, "epochs must be >= 0"),
            (self.epochs <= MAX_EPOCHS, f"epochs must be <= {MAX_EPOCHS}"),
            (math.isfinite(self.epoch_length), "epoch_length must be finite"),
            (self.epoch_length > 0, "epoch_length must be > 0"),
            (self.neighbor_count >= 1, "neighbor_count must be >= 1"),
            (self.neighbor_count <= MAX_NEIGHBOR_COUNT, f"neighbor_count must be <= {MAX_NEIGHBOR_COUNT}"),
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
        # The capacity and each class's run total stay within 2**53, so every
        # count, running sum and division of a run is exact in int64 and
        # float64. The ``dsr`` scan's values stay within ``min(deadline,
        # epochs) + 1`` times the run's arrivals of 0, so ``+ 2`` times them
        # must fit int64. Bounded here, nothing wraps or rounds mid-run.
        if round(self.data_rate * self.epoch_length) > _EXACT_MAX:
            raise InvalidConfigError("per-epoch capacity data_rate * epoch_length must be <= 2**53")
        arrivals = 0
        for name in ("self_rate_fn", "neighbor_rate_fn"):
            fn = getattr(self, name)
            peak = fn.rate(max(self.epochs - 1, 0) if fn.kind is RateKind.LINEAR_INCREASING else 0)
            if not math.isfinite(peak) or round(peak) * self.epochs > _EXACT_MAX:
                raise InvalidConfigError(f"{name}: {self.epochs} epochs at up to {peak:g} packets each pass 2**53")
            arrivals += round(peak) * self.epochs
        if (min(self.deadline_epochs, self.epochs) + 2) * arrivals > _INT64_MAX:
            raise InvalidConfigError(
                f"deadline_epochs: (min(deadline_epochs, epochs) + 2) times up to {arrivals} arrivals"
                " overflow a signed 64-bit count"
            )


def _json_int(key: str, value):
    """JSON has one number type: an integral float is an int."""
    return int(value) if isinstance(value, float) and value.is_integer() else value


def _json_float(key: str, value):
    return _as_float(key, value) if type(value) is int else value


def _json_policy(key: str, value):
    if not isinstance(value, str):
        return value
    try:
        return Policy(value.strip().lower())
    except ValueError:
        raise InvalidConfigError(f"policy must be 'ctc' or 'dsr', got {value!r}") from None


def _json_rate_fn(key: str, value):
    if not isinstance(value, str):
        return value
    try:
        return RateFunction.parse(value)
    except InvalidConfigError as exc:
        raise InvalidConfigError(f"{key}: {exc}") from None


# How a JSON value becomes each declared ``SimConfig`` field type. A value of
# another type passes through for ``SimConfig`` to reject by name.
_FROM_JSON = {"int": _json_int, "float": _json_float, "Policy": _json_policy, "RateFunction": _json_rate_fn}
_CONFIG_TYPES = {f.name: f.type for f in fields(SimConfig)}


def config_from_dict(raw: dict) -> SimConfig:
    """Build a SimConfig from a flat mapping, rejecting unknown keys.

    Keys mirror the SimConfig field names exactly; a typo is a hard error
    rather than a silently ignored setting.
    """
    if not isinstance(raw, dict):
        raise InvalidConfigError(f"config must be a JSON object, got {type(raw).__name__}")
    unknown = sorted(set(raw) - set(_CONFIG_TYPES))
    if unknown:
        raise InvalidConfigError(f"unknown config keys: {', '.join(unknown)}")
    if "epochs" not in raw:
        raise InvalidConfigError("config is missing required key 'epochs'")
    return SimConfig(**{key: _FROM_JSON[_CONFIG_TYPES[key]](key, value) for key, value in raw.items()})


def load_config(path: str | Path) -> SimConfig:
    """Read a flat JSON config file."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidConfigError(f"config file is not valid JSON: {exc}") from None
    return config_from_dict(raw)


def ctc_split(
    self_backlog: int, neighbor_backlog: int, epoch_length: float, min_share_fraction: float, capacity: int
) -> tuple[float, float, int, int]:
    """Backlog-proportional time split with a minimum share per class.

    The neighbor share is B_nbr / (B_self + B_nbr), 0.5 when both queues are
    empty, clamped to [min_share_fraction, 1 - min_share_fraction]. Returns
    ``(t_pp, t_np, cap_self, cap_nbr)``: the self time is the exact
    complement so the two always sum to the epoch, and each class may serve
    up to the floor of its share of ``capacity`` packets, the share read
    back from the time split.
    """
    total = self_backlog + neighbor_backlog
    share_np = 0.5 if total == 0 else neighbor_backlog / total
    # Conditionals, not ``min(max(...))``: this runs once per ``ctc`` epoch.
    if share_np < min_share_fraction:
        share_np = min_share_fraction
    elif share_np > 1.0 - min_share_fraction:
        share_np = 1.0 - min_share_fraction
    t_np = share_np * epoch_length
    share_np = t_np / epoch_length
    return epoch_length - t_np, t_np, math.floor((1.0 - share_np) * capacity), math.floor(share_np * capacity)


def source_split(arrivals: int | np.ndarray, neighbor_count: int) -> np.ndarray:
    """Per-source shares of neighbor arrivals: one int64 row per source, 1..n.

    ``arrivals`` is one epoch's count or an array of counts; row ``j`` has
    the shape of ``arrivals``. Round-robin: every source sends
    ``arrivals // neighbor_count`` packets and the first
    ``arrivals % neighbor_count`` sources send one more.
    """
    base, extra = np.divmod(np.asarray(arrivals, np.int64), neighbor_count)
    rank = np.arange(neighbor_count).reshape(-1, *[1] * base.ndim)
    return base + (rank < extra)


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


def schedule(config: SimConfig) -> Schedule:
    """Take a fresh target through every epoch; no random number is drawn.

    The one-row case of ``_schedule_sweep``. Fixed phase order per epoch:
    (a) deadline discard, (b) arrivals, (c) service split per policy. Under
    either policy each class's queue is ``P``, the packets it has consumed
    (expired or served) so far, from which the expired, served and queued
    counts follow (see the module docstring).
    """
    return _schedule_sweep([config])[0]


def _compose_clamps(first_hi, first_lo, hi, lo) -> None:
    """Overwrite the clamps ``(hi, lo)`` with ``(first_hi, first_lo)`` followed by them.

    A clamp maps ``x`` to ``max(lo, min(hi, x))``; ``(hi1, lo1)`` then
    ``(hi2, lo2)`` is the clamp ``(min(hi1, hi2), max(lo2, min(hi2, lo1)))``.
    """
    np.maximum(lo, np.minimum(hi, first_lo), out=lo)
    np.minimum(hi, first_hi, out=hi)


def _scan_clamps(hi: np.ndarray, lo: np.ndarray) -> None:
    """Replace each clamp along the last axis by the composition of it and every clamp before it.

    Pairwise: each odd position takes in its even neighbour, the odd
    positions are scanned the same way, and each even position then takes in
    the scanned odd position before it. About two compositions per element
    and 2 log2(n) numpy passes, on views, in place.
    """
    n = hi.shape[-1]
    if n < 2:
        return
    _compose_clamps(hi[..., 0 : n - 1 : 2], lo[..., 0 : n - 1 : 2], hi[..., 1::2], lo[..., 1::2])
    _scan_clamps(hi[..., 1::2], lo[..., 1::2])
    _compose_clamps(hi[..., 1 : n - 1 : 2], lo[..., 1 : n - 1 : 2], hi[..., 2::2], lo[..., 2::2])


def _serve_fifo(arrived: np.ndarray, deadlines: list[int], *, consumed=None, allowance=None):
    """Expired, served and queued counts per epoch of one packet class, along the last axis.

    ``arrived`` is ``(rows, epochs)``, with one deadline per row in
    ``deadlines``, none above ``epochs``. ``P(e)``, the packets consumed by
    the end of epoch ``e`` (see the module docstring), is ``consumed`` when
    given; otherwise it is solved for a known service ``allowance``. The
    head expiry raises ``P(e-1)`` to ``A(e-D)``, service takes it on to
    ``P(e)``, and what is left of ``A(e)`` is queued.

    The solve: capping ``s_e`` at ``A(e) - A(e-D)``, the packets inside the
    deadline, changes no ``P``. Then in ``Q = P - S``, ``S`` the running sum
    of the capped ``s``, epoch ``e`` is the clamp ``Q -> max(lo_e, min(hi_e,
    Q))`` with ``lo_e = A(e-D) - S(e-1) <= hi_e = A(e) - S(e)``, and every
    value lies in ``[-S(end), A(end)]``.
    """
    upper = np.cumsum(arrived, axis=-1)
    lower = np.zeros_like(upper)
    for row_lower, row_upper, row_deadline in zip(lower, upper, deadlines):
        row_lower[row_deadline:] = row_upper[: upper.shape[-1] - row_deadline]
    if consumed is None:
        # Each temporary is dropped once used, which keeps the peak near 112
        # bytes per epoch (see MAX_EPOCHS).
        capped = np.minimum(allowance, upper - lower)
        total = np.cumsum(capped, axis=-1)
        lo = lower - total
        lo += capped
        del capped
        hi = upper - total
        _scan_clamps(hi, lo)
        # Apply each prefix to Q(-1) = 0.
        consumed = np.maximum(lo, np.minimum(hi, 0), out=lo)
        del hi
        consumed += total
        del total
    before = np.concatenate([np.zeros_like(consumed[:, :1]), consumed[:, :-1]], axis=-1)
    after_expiry = np.maximum(before, lower)
    return after_expiry - before, consumed - after_expiry, upper - consumed


def _consume_ctc(config: SimConfig, capacity: int, deadline: int, arrived_self, arrived_nbr, consumed, times) -> None:
    """The ``ctc`` consumed counts ``P`` of both classes and the time split, epoch by epoch.

    Writes ``P_self`` and ``P_nbr`` into the two rows of ``consumed``,
    ``t_pp`` and ``t_np`` into those of ``times``. Per epoch each ``P`` is
    raised to ``A(e-D)``, the split reads the backlogs ``A(e) - P``, and each
    class's take is added, capped at ``A(e)``. The split couples the
    classes, so this is one pass in Python ints; minimums are spelled as
    conditionals, since a builtin ``min`` call costs as much as the rest of
    the epoch.
    """
    epoch_t = config.epoch_length
    min_share = config.min_share_fraction
    upper_self = np.cumsum(arrived_self).tolist()
    upper_nbr = np.cumsum(arrived_nbr).tolist()
    # A(e-D) is the same list, D epochs late.
    bounds = zip(upper_self, chain(repeat(0, deadline), upper_self), upper_nbr, chain(repeat(0, deadline), upper_nbr))
    consumed_self, consumed_nbr, t_pp, t_np = (row.data for row in (*consumed, *times))
    p_self = p_nbr = 0
    for e, (a_self, past_self, a_nbr, past_nbr) in enumerate(bounds):
        if p_self < past_self:
            p_self = past_self
        if p_nbr < past_nbr:
            p_nbr = past_nbr
        t_pp[e], t_np[e], take_self, take_nbr = ctc_split(a_self - p_self, a_nbr - p_nbr, epoch_t, min_share, capacity)
        p_self += take_self
        if p_self > a_self:
            p_self = a_self
        p_nbr += take_nbr
        if p_nbr > a_nbr:
            p_nbr = a_nbr
        consumed_self[e] = p_self
        consumed_nbr[e] = p_nbr


def _schedule_sweep(configs: list[SimConfig]) -> list[Schedule]:
    """Schedules of configs of one policy and equal ``epochs``, one row of a ``(rows, epochs)`` stack each.

    ``ctc`` takes each row through its epochs (``_consume_ctc``); ``ctc``
    drops no neighbor packet before the coin but by expiry, and attempts all
    it serves. Under ``dsr`` the self queue's allowance is the capacity, the
    neighbor queue's what self service leaves; the gate caps the cumulative
    attempts at the budget, and the rest of the serviced neighbor packets
    are gate drops. The ``dsr`` self time is ``epoch_length * (serviced_self
    / capacity)`` (0 at zero capacity), the rest of the epoch the neighbor
    side's. Validation keeps the scan within int64 and the division's
    operands within 2**53 (see ``SimConfig``), so the split is Python's
    ``int / int``.
    """
    if not configs:
        return []
    epochs = configs[0].epochs
    offered_self = np.stack([c.self_rate_fn.arrivals(epochs) for c in configs])
    offered_nbr = np.stack([c.neighbor_rate_fn.arrivals(epochs) for c in configs])
    # Capacity is data_rate packets/second over the epoch.
    capacities = [int(round(c.data_rate * c.epoch_length)) for c in configs]
    deadlines = [min(c.deadline_epochs, epochs) for c in configs]
    if configs[0].policy is Policy.CTC:
        consumed = np.zeros((2, len(configs), epochs), dtype=np.int64)
        t_pp, t_np = times = np.zeros((2, len(configs), epochs))
        for row, config in enumerate(configs):
            rows = (offered_self[row], offered_nbr[row], consumed[:, row], times[:, row])
            _consume_ctc(config, capacities[row], deadlines[row], *rows)
        expired_self, serviced_self, queued_self = _serve_fifo(offered_self, deadlines, consumed=consumed[0])
        dropped_nbr, attempts, queued_nbr = _serve_fifo(offered_nbr, deadlines, consumed=consumed[1])
    else:
        nbr_totals = offered_nbr.sum(axis=-1).tolist()
        capacity = np.array(capacities, np.int64)[:, None]
        expired_self, serviced_self, queued_self = _serve_fifo(offered_self, deadlines, allowance=capacity)
        expired_nbr, serviced_nbr, queued_nbr = _serve_fifo(offered_nbr, deadlines, allowance=capacity - serviced_self)
        # A budget past the run's neighbor arrivals never binds; capped, it fits int64.
        budget = np.array([min(c.energy_budget, total) for c, total in zip(configs, nbr_totals)], np.int64)[:, None]
        attempts = np.diff(np.minimum(np.cumsum(serviced_nbr, axis=-1), budget), axis=-1, prepend=0)
        dropped_nbr = expired_nbr + serviced_nbr - attempts
        # A zero capacity serves nothing, and 0 / 1 gives its self time of 0.
        epoch_t = np.array([c.epoch_length for c in configs])[:, None]
        t_pp = epoch_t * (serviced_self / np.maximum(capacity, 1))
        t_np = epoch_t - t_pp
    counts = (serviced_self, attempts, expired_self, dropped_nbr, queued_self, queued_nbr)
    return [
        Schedule(config, offered_self[row], offered_nbr[row], *(count[row] for count in counts), t_pp[row], t_np[row])
        for row, config in enumerate(configs)
    ]


def _seeded(seeds) -> list[tuple[np.random.Generator, dict]]:
    """One generator per seed, each with its seeded ``bit_generator.state``.

    ``np.random.default_rng(seed)`` is ``Generator(PCG64(seed))``, so restoring
    the seeded state, ``has_uint32`` and ``uinteger`` included, starts the
    same stream as seeding anew, at a sixth of the cost. The generator's
    binomial set-up cache depends only on ``(n, p)``, so what a generator drew
    before a restore cannot reach the draws after it.
    """
    generators = [np.random.Generator(np.random.PCG64(seed)) for seed in seeds]
    return [(generator, generator.bit_generator.state) for generator in generators]


def _stack(plans: list[Schedule], name: str) -> np.ndarray:
    """One schedule column of each plan as the rows of a ``(points, epochs)`` array; a view for one plan."""
    if len(plans) == 1:
        return getattr(plans[0], name)[None]
    return np.stack([getattr(plan, name) for plan in plans])


def _draw_losses(plans: list[Schedule], generators) -> np.ndarray:
    """Ambient losses of each seed over each schedule, ``(points, seeds, 2 * epochs)``.

    Row ``[k, i]`` is ``np.random.default_rng(seeds[i]).binomial`` over
    ``[serviced_self[0], attempts_neighbor[0], serviced_self[1], ...]`` of
    ``plans[k]``, drawn after restoring the seeded state of ``generators[i]``
    (see ``_seeded``): one coin per transmitted packet, drawn as one binomial
    per class per epoch, self first, the order in which one scalar draw per
    class per epoch would consume each seed's stream.
    """
    sent = np.empty((len(plans), 2 * plans[0].config.epochs), dtype=np.int64)
    sent[:, 0::2] = _stack(plans, "serviced_self")
    sent[:, 1::2] = _stack(plans, "attempts_neighbor")
    lost = np.empty((len(plans), len(generators), sent.shape[-1]), dtype=np.int64)
    for point, counts, plan in zip(lost, sent, plans):
        p = plan.config.base_drop_prob
        for row, (generator, seeded) in zip(point, generators):
            generator.bit_generator.state = seeded
            row[:] = generator.binomial(counts, p)
    return lost


def _realize_class(plans: list[Schedule], cls: str, sent: str, lost: np.ndarray):
    """Forwarded and dropped columns of one class, shaped like ``lost``, ``(points, seeds, epochs)``.

    ``lost`` is the class's view of the drawn losses; the dropped column
    overwrites it and is returned in its place. Also returns where cumulative
    conservation (offered = forwarded + dropped + queued) fails, as a boolean
    mask shaped like ``lost``.
    """
    forwarded = _stack(plans, sent)[:, None] - lost
    dropped = np.add(lost, _stack(plans, f"dropped_before_loss_{cls}")[:, None], out=lost)
    # Reusing ``lost`` and summing in place keeps the temporaries to one:
    # a sweep's arrays are the peak of a grid run.
    accounted = forwarded + dropped
    np.cumsum(accounted, axis=-1, out=accounted)
    accounted += _stack(plans, f"queued_{cls}")[:, None]
    broken = np.cumsum(_stack(plans, f"offered_{cls}"), axis=-1)[:, None] != accounted
    return forwarded, dropped, broken


def _realize_sweep(plans: list[Schedule], generators) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Forwarded and dropped columns of both classes, ``(points, seeds, epochs)`` each.

    ``plans`` share ``epochs``; ``generators`` come from ``_seeded``. Returns
    ``(forwarded_self, dropped_self, forwarded_neighbor, dropped_neighbor)``.
    Raises ``InvariantError`` naming the class and epoch of the first
    conservation failure, first plan first, then first seed.
    """
    lost = _draw_losses(plans, generators)
    fwd_s, drop_s, broken_s = _realize_class(plans, "self", "serviced_self", lost[..., 0::2])
    fwd_n, drop_n, broken_n = _realize_class(plans, "neighbor", "attempts_neighbor", lost[..., 1::2])
    broken = np.argwhere(broken_s | broken_n)
    if broken.size:
        point, row, epoch = broken[0].tolist()
        name = "self" if broken_s[point, row, epoch] else "neighbor"
        raise InvariantError(f"{name}-class conservation violated at the target, epoch {epoch}")
    return fwd_s, drop_s, fwd_n, drop_n


def _cumulative_ratio(dropped: np.ndarray, offered: np.ndarray) -> np.ndarray:
    """Running drop ratio, 0 until the first packet is offered."""
    cum_offered = np.cumsum(offered)
    # Validation keeps the running sums within 2**53 (see ``SimConfig``),
    # where they convert to float64 exactly: this is Python's int / int.
    return np.divide(np.cumsum(dropped), cum_offered, out=np.zeros(cum_offered.size), where=cum_offered > 0)


def realize(plan: Schedule, seed: int) -> Trace:
    """Draw the ambient losses of one run over a schedule and build its trace."""
    config = replace(plan.config, seed=seed)
    fwd_s, drop_s, fwd_n, drop_n = (column[0, 0] for column in _realize_sweep([plan], _seeded((seed,))))
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
        drop_ratio_self=_cumulative_ratio(drop_s, plan.offered_self),
        drop_ratio_neighbor=_cumulative_ratio(drop_n, plan.offered_neighbor),
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


def _classify_windows(offered_neighbor: np.ndarray, dropped_neighbor: np.ndarray, threshold: float, window: int):
    """The rule of ``classify_misbehavior`` over a sweep, along the last axis.

    ``offered_neighbor`` holds one run's column per point, ``(points,
    epochs)``; ``dropped_neighbor`` one row per point and seed, ``(points,
    seeds, epochs)``. Returns the qualifying mask and the offered window sums,
    ``(points, windows)``; the dropped window sums, the ratios and the flags,
    ``(points, seeds, windows)``; and the flagged share of each point's
    qualifying windows (0 when none qualify), ``(points, seeds)``.
    """
    epochs = offered_neighbor.shape[-1]
    if epochs == 0:
        raise EmptyTraceError("cannot classify an empty trace")
    if not 0.0 < threshold < 1.0:
        raise InvalidConfigError(f"threshold must be in (0, 1), got {threshold}")
    if window < 1:
        raise InvalidConfigError(f"window must be >= 1, got {window}")
    starts = np.arange(0, epochs, window)
    offered = np.add.reduceat(offered_neighbor, starts, axis=-1)
    dropped = np.add.reduceat(dropped_neighbor, starts, axis=-1)
    qualifying = offered > 0
    # Validation keeps the window sums within 2**53 (see ``SimConfig``),
    # where they convert to float64 exactly: the ratio is Python's int / int.
    ratio = np.divide(dropped, offered[:, None], out=np.zeros(dropped.shape), where=qualifying[:, None])
    flagged = ratio > threshold
    count = qualifying.sum(axis=-1)[:, None]
    fraction = np.divide(flagged.sum(axis=-1), count, out=np.zeros(flagged.shape[:-1]), where=count > 0)
    return qualifying, offered, dropped, ratio, flagged, fraction


def classify_misbehavior(trace: Trace, threshold: float | None = None, window: int | None = None) -> MisbehaviorStats:
    """Windowed misbehavior classification of the target over a trace.

    Epochs are split into consecutive windows of ``window`` epochs (trailing
    partial window included). Every window in which the target was offered
    neighbor packets qualifies; it is flagged when its neighbor drop ratio
    exceeds ``threshold``. Sources are never offered relay traffic, so they
    never qualify. Defaults come from the trace's config.
    """
    theta = trace.config.misbehavior_threshold if threshold is None else threshold
    w = trace.config.window_epochs if window is None else window
    (qualifying,), (offered,), *per_seed = _classify_windows(
        trace.offered_neighbor[None], trace.dropped_neighbor[None, None], theta, w
    )
    dropped, ratio, flagged, fraction = (value[0, 0] for value in per_seed)
    index = np.flatnonzero(qualifying)
    columns = (index, offered[index], dropped[index], ratio[index], flagged[index])
    ratios = tuple(
        WindowRatio(window_index=i, offered=o, dropped=d, ratio=r, flagged=f)
        for i, o, d, r, f in zip(*(column.tolist() for column in columns))
    )
    return MisbehaviorStats(malicious_fraction=float(fraction), window_ratios=ratios)
