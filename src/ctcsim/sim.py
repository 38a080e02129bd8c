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

The engine runs a sweep in two stages. A sweep is one setting of the node
(policy, capacity, deadline, epoch, budget, loss probability, classifier)
under several loads, one row per load: its configs differ only in their two
rate functions. ``_schedule_sweep`` takes the target through every epoch
without a random number: deadline discard, arrivals, the ``ctc`` split,
``dsr`` energy use and gate drops. ``_realize_sweep`` then draws the ambient
losses and derives the forwarded and dropped columns with array operations.
Both stages carry each per-class quantity as one ``(self, neighbor)`` pair
of columns, in the order of ``Trace``'s fields (see ``Schedule``). Splitting
the stages is exact because a lost packet has already left its queue: loss
moves a transmitted packet from "forwarded" to "dropped" and feeds back into
nothing the next epoch reads (queues, backlogs, energy). So packet
conservation is checked once per schedule row, when the ``Schedule`` is
built, and holds at every seed. One schedule serves every seed of a grid
point, and one realization pass serves a whole sweep: the losses of every
grid point and seed fill one ``(points, seeds, 2 * epochs)`` array, and the
forwarded and dropped columns and the classifier's window sums work along
its last axis. ``ctcsim.experiments.run_case`` realizes the first sweep of a
case that way, and of each later sweep only the points whose schedule
differs from the first sweep's in what the pass reads; the others would
realize to the same totals at every seed. ``run`` and
``classify_misbehavior`` are the one-row case of that pass.

A run goes through the same two stages in blocks of ``_BLOCK_EPOCHS``
epochs (``run_blocks``); a grid sweep is one block from a fresh target.
Each block's schedule starts from the state the block before left
(``_Carry``): each class's consumed count and queue, the running arrivals of
the last ``min(deadline, epochs)`` epochs, which give ``A(e-D)``, and
``dsr``'s running attempts. Its losses continue the seed's one stream, and
its drop ratios the running sum of each class's drops, over the running
arrivals ``A(e)`` its schedule holds. So the blocks concatenate to the
whole run bit for bit, and ``ctcsim sim run`` writes each block as it is
made: it holds the imports, one block's work and 16 bytes per epoch of
``min(deadline, epochs)``, however long the run. ``run`` fills its
whole-run columns block by block.

A block's queue pass reads its arrivals, ``A(e-D)`` over its first ``D``
epochs, its starting queues and, under ``dsr``, the budget left, and it
reads ``A`` only relative to ``A`` before the block. It computes in exact
integers, so equal reads give equal schedule columns. A block that another
follows is kept in ``_Carry`` with its reads, and a next block of the same
length whose reads are equal takes its columns instead of the ``ctc`` loop
or the ``dsr`` scans, its running arrivals shifted instead of summed, and
no second conservation check. The pass is causal, so a shorter last block
whose reads equal the first epochs of the kept ones takes the first epochs
of its columns. Under a constant load that is every block once the queues
settle, but the one in which the budget runs out and the one after it. Its
losses are drawn as any block's.

Each row of losses equals ``np.random.default_rng(seed).binomial`` over the
row's counts: the pair ``sent``, the serviced self packets and the neighbor
attempts, interleaved as ``[sent[0][e], sent[1][e]]`` per epoch, the order
in which one scalar draw per class per epoch would consume the seed's
stream, also when a count is zero, so the stream position never depends on
load or policy. Each seed has one generator, seeded once; its seeded state
is restored before each grid point's draw, which starts that stream without
seeding anew. numpy draws a count with ``n * p <= 30`` by a loop of about
``n * p`` steps a sample. A long row of such counts, few of them distinct,
is drawn from numpy's own uniforms through a guide table per count instead,
exact by construction (``_table_binomial``); every other row by
``binomial`` itself.

The engine never materializes a packet. Both policies keep each FIFO queue
as one count: with ``A(e)`` a class's cumulative arrivals, ``D`` the
deadline and ``s_e`` its service allowance, the packets consumed (expired or
served) by the end of epoch ``e``, counted in arrival order, are ``P(e) =
min(max(P(e-1), A(e-D)) + s_e, A(e))``, and each epoch's expired, served and
queued counts follow from ``P`` alone. ``ctc`` couples its queues through
the split, which reads the backlogs ``A(e) - max(P(e-1), A(e-D))``, so it is
one pass over the epochs. But where each queue starts an epoch empty or cut
back to its deadline bound, ``max(P(e-1), A(e-D))`` is ``A(e-1)`` or
``A(e-D)``, a function of the arrivals alone: such an epoch is served with
array operations, from each of the four starts at once, and only the epochs
between, where a queue regenerates neither way, go through the pass in
Python ints (``_consume_ctc``). Under ``dsr`` the queues decouple: the self
queue gets the whole capacity ``c`` and the neighbor queue ``c -
serviced_self[e]``, both known before the queue is served. Each epoch is a
clamp, clamps compose into a clamp, and a prefix scan over the clamps gives
``P`` in O(log epochs) numpy passes, for every row of a sweep at once. The
gate forwards while credits last, so the cumulative attempts are
``min(cumsum(serviced_neighbor), energy_budget)``. Validation bounds every
count so that the scan runs in int64 and every division is exact (see
``SimConfig``).

Determinism contract: a run is a pure function of its config, including the
seed. The per-packet semantics live in the test suite, which holds both
kernels to a packet-level reference engine, counter for counter.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field, fields
from functools import cache
from pathlib import Path
from typing import Iterator

import numpy as np

from . import phases
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
    "run",
    "run_blocks",
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

    def arrivals(self, out: np.ndarray, start: int = 0) -> np.ndarray:
        """Write the whole packets arriving from epoch ``start`` on into the int64 row ``out`` and return it.

        Each is ``rate`` rounded half to even.
        """
        np.copyto(out, np.rint(self.rate(np.arange(start, start + out.size))), casting="unsafe")
        return out

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

# Upper bound on ``SimConfig.epochs``. ``ctcsim sim run`` streams a run in
# blocks (``run_blocks``), so it holds the imports, one block's work and 16
# bytes per epoch of ``min(deadline, epochs)`` (8 per class), however long
# the run: tracemalloc reads about 3.6 MB, the engine's block and the trace
# writer's buffers, at 10**5 and at 10**6 epochs (``data_rate`` 420,
# ``deadline_epochs`` 20, rates 300 and 200). ``run`` returns whole-run
# columns, 96 bytes per epoch, plus one block's work: near 1 GB at 10**7
# epochs. A larger value is rejected by name at validation instead of
# failing in an allocation.
MAX_EPOCHS = 10**7
# Upper bound on ``SimConfig.neighbor_count``. The trace writer holds one
# epoch's source rows in memory, about a hundred bytes per source: at the
# bound its RSS grows by 8 to 10 MiB, the more the more digits each source's
# count has (peak RSS of a fresh process, before and after the write of a
# 3-epoch trace, per-source counts of 0 and 10**7).
MAX_NEIGHBOR_COUNT = 10**5


def _peak_rate(fn: RateFunction, epochs: int) -> float:
    """The highest rate ``fn`` reaches over ``epochs`` epochs: at the last epoch if increasing, else at the first."""
    return fn.rate(max(epochs - 1, 0) if fn.kind is RateKind.LINEAR_INCREASING else 0)


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
        for name, fn in (("self_rate_fn", self.self_rate_fn), ("neighbor_rate_fn", self.neighbor_rate_fn)):
            peak = _peak_rate(fn, self.epochs)
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
    arrivals = np.asarray(arrivals, np.int64)
    # numpy vectorizes an integer `//` by a scalar but not `np.divmod`: per
    # 8,000 int64 counts this split takes 14 us and `np.divmod` 33 us.
    base = arrivals // neighbor_count
    extra = arrivals - base * neighbor_count
    rank = np.arange(neighbor_count).reshape(-1, *[1] * base.ndim)
    return base + (rank < extra)


@dataclass(frozen=True, eq=False)
class Schedule:
    """The seed-free part of a sweep at the target, each per-class quantity a ``(self, neighbor)`` pair.

    Each member of a pair is a ``(points, epochs)`` column, row ``k`` for
    the loads of ``configs[k]``, over the run's epochs from ``epoch`` on. The
    configs differ only in ``self_rate_fn`` and ``neighbor_rate_fn``: every
    other setting of the sweep is ``configs[0]``'s. The columns cover the
    whole run, or one block of it (see ``_Carry``). ``sent`` is the serviced
    self packets and the neighbor attempts, the packets transmitted, each
    facing one ambient-loss coin. ``dropped_before_loss`` is the drops
    decided before the coin: deadline expiry, plus ``dsr`` gate drops on the
    neighbor side. ``queued`` is the end-of-epoch queue depth and ``times``
    is ``(t_pp, t_np)``. Counts are int64, times float64. ``backlog`` holds
    each class's queue at the start, ``(2, points)``; None at a fresh
    target. ``running`` holds each class's running arrivals ``A(e)``, the
    packets offered from the run's first epoch to the end of each epoch, as
    ``_schedule_sweep`` gives them; None where they are not given.

    Every schedule conserves packets: per class and row, the packets offered
    by the end of each epoch are those sent or dropped before the coin by
    then plus those queued, ``backlog + cumsum(offered) == cumsum(sent +
    dropped_before_loss) + queued``. A lost packet only moves from forwarded
    to dropped, so the realized columns conserve at every seed. A schedule
    that breaks this raises ``InvariantError`` when it is built, naming the
    class and the run's epoch of the first failure: first row first, self
    before neighbor at the same epoch.
    """

    configs: tuple[SimConfig, ...]
    offered: tuple[np.ndarray, np.ndarray]
    sent: tuple[np.ndarray, np.ndarray]
    dropped_before_loss: tuple[np.ndarray, np.ndarray]
    queued: tuple[np.ndarray, np.ndarray]
    times: tuple[np.ndarray, np.ndarray]
    epoch: int = 0
    backlog: np.ndarray | None = None
    running: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self) -> None:
        backlog = np.zeros((2, len(self.configs)), np.int64) if self.backlog is None else self.backlog
        classes = zip(self.offered, self.sent, self.dropped_before_loss, self.queued, backlog)
        # The first failure in row, then epoch, then class order.
        first, k = min((_first_unconserved(*columns), k) for k, columns in enumerate(classes))
        if first < self.offered[0].size:
            epoch = self.epoch + first % self.offered[0].shape[-1]
            raise InvariantError(f"{('self', 'neighbor')[k]}-class conservation violated at the target, epoch {epoch}")


def _taken(plan: Schedule, start: int, epochs: int, running: tuple[np.ndarray, np.ndarray]) -> Schedule:
    """The first ``epochs`` epochs of ``plan`` as the schedule of the block from ``start`` on, with its running arrivals.

    A block takes a plan only where its offered packets and starting queues
    are the plan's (see ``_Carry``), and a prefix of a schedule that
    conserves packets conserves them, so the columns are not checked again:
    the schedule is built without ``__init__``.
    """
    taken = object.__new__(Schedule)
    names = ("offered", "sent", "dropped_before_loss", "queued", "times")
    prefixes = {name: tuple(column[:, :epochs] for column in getattr(plan, name)) for name in names}
    vars(taken).update(vars(plan), **prefixes, epoch=start, running=running)
    return taken


def _first_unconserved(offered, sent, dropped_before_loss, queued, backlog) -> int:
    """The flat index of one class's first conservation failure, first row first; the column's size if none.

    In place, the check holds one int64 and one bool column beside the schedule.
    """
    unaccounted = offered - sent
    unaccounted -= dropped_before_loss
    np.cumsum(unaccounted, axis=-1, out=unaccounted)
    unaccounted += backlog[:, None]
    broken = unaccounted != queued
    return int(broken.argmax()) if broken.any() else broken.size


@dataclass(eq=False)
class _Carry:
    """What the schedule of one block of a sweep hands the next, per class and row.

    ``epoch`` is the next block's first epoch. ``consumed`` and ``queued``,
    ``(2, rows)``, are each class's ``P`` and queue at the end of the epoch
    before it; ``attempts``, ``(rows, 1)``, is ``dsr``'s running neighbor
    attempts. ``arrived``, ``(2, rows, D)``, holds a ring per class and
    row: the running arrivals ``A`` of the last ``D = min(deadline,
    epochs)`` epochs, ``A(e)`` at ``e % D``, 8 bytes per epoch of ``D``. A
    fresh target has all of them 0, ``A(e)`` included for ``e < 0``.

    ``last`` is the block's ``Schedule`` when another block follows it, with
    what its queue pass read, relative to the block's start (``_LastBlock``).
    The pass reads ``A`` only relative to ``A(start - 1)`` and computes in
    exact integers, so a next block whose reads are equal, of the same
    length, has the same schedule columns: it takes the kept ones and skips
    the pass. The pass is causal, so a shorter block that ends the run and
    whose reads equal the first epochs of the kept reads takes the first
    epochs of the kept columns. A constant load repeats its block once its
    queues settle. A taken block skips the conservation check too, since
    its offered packets, starting queues and schedule columns are the
    checked plan's, and its running arrivals are the kept ones shifted by
    the difference of the two ``A(start - 1)``.
    """

    epoch: int
    consumed: np.ndarray
    queued: np.ndarray
    attempts: np.ndarray
    arrived: np.ndarray
    last: "_LastBlock | None" = None

    @classmethod
    def fresh(cls, configs: list[SimConfig]) -> "_Carry":
        rows, depth = len(configs), min(configs[0].deadline_epochs, configs[0].epochs)
        return cls(0, *(np.zeros(shape, np.int64) for shape in ((2, rows), (2, rows), (rows, 1), (2, rows, depth))))


@dataclass(frozen=True, eq=False)
class _LastBlock:
    """A block's schedule and what its queue pass read, relative to the block's start ``s``.

    ``reads`` is the block's arrivals ``offered``, ``A(e-D)`` over its first
    ``min(D, epochs)`` epochs less ``A(s-1)``, and its starting queues, each
    ``(2, rows, n)`` with the epochs along its last axis (``n = 1`` for the
    queues). ``upper`` is the block's running arrivals ``A(e)``, ``(2,
    rows, epochs)``, and ``arrived`` its ``A(s-1)``, ``(2, rows)``.
    Under ``dsr``, ``serviced`` is each row's serviced neighbor packets over
    the block, ``(rows, 1)``, and ``left`` the budget left at its start,
    clamped at ``serviced``: the attempts ``diff(min(cumsum(serviced) + a,
    B))`` depend on the attempts ``a`` before the block only through
    ``min(B - a, sum(serviced))``, and so do those of its first epochs,
    whose running serviced count is at most the sum. Both are None under
    ``ctc``. ``tables`` is the ``_tables`` decision of each row of the
    plan's losses, once they are drawn, for a block that takes the whole
    plan (see ``_draw_losses``); a shorter block decides its own.
    """

    plan: Schedule
    reads: tuple[np.ndarray, np.ndarray, np.ndarray]
    upper: np.ndarray
    arrived: np.ndarray
    serviced: np.ndarray | None
    left: np.ndarray | None
    tables: list = field(default_factory=list)


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


def _ring_parts(epoch: int, epochs: int, depth: int) -> list[tuple[slice, slice]]:
    """Where ``epochs`` epochs from ``epoch`` on sit in a ring of ``depth`` entries, epoch ``e`` at ``e % depth``.

    Two pairs of a slice of the ring and the slice of the epochs it holds:
    ``epochs <= depth`` wrap past the ring's end at most once, and the
    second pair is empty where they do not.
    """
    first = epoch % max(depth, 1)
    split = min(epochs, depth - first)
    return [(slice(first, first + split), slice(0, split)), (slice(0, epochs - split), slice(split, epochs))]


def _ring_read(arrived: np.ndarray, depth: int, start: int, epochs: int) -> np.ndarray:
    """``A(e - D)`` over the first ``min(D, epochs)`` epochs of a block from ``start`` on, ``(2, rows, D)`` at most.

    ``arrived`` is ``_Carry.arrived``: a ring of ``D = depth`` entries,
    ``A(e)`` at ``e % D`` for the ``D`` epochs before the block. The later
    epochs of the block read its own running arrivals, ``D`` epochs back.
    The ring is read, and written by ``_ring_write``, by at most two slices,
    at the positions the block reads or writes, so a long deadline costs a
    block no more.
    """
    head = np.empty((*arrived.shape[:-1], min(depth, epochs)), np.int64)
    for ring, part in _ring_parts(start, head.shape[-1], depth):
        head[..., part] = arrived[..., ring]
    return head


def _ring_write(arrived: np.ndarray, depth: int, start: int, upper: np.ndarray) -> None:
    """Move the ring ``arrived`` (see ``_ring_read``) on past a block from ``start`` on whose running arrivals are ``upper``."""
    epochs = upper.shape[-1]
    tail = upper[..., epochs - min(depth, epochs) :]
    for ring, part in _ring_parts(start + epochs - tail.shape[-1], tail.shape[-1], depth):
        arrived[..., ring] = tail[..., part]


def _serve_fifo(upper: np.ndarray, lower: np.ndarray, before: np.ndarray, *, consumed=None, allowance=None):
    """Expired, served and queued counts per epoch of one packet class, along the last axis.

    ``upper`` and ``lower`` are ``(rows, epochs)``, the running arrivals
    ``A(e)`` and ``A(e-D)`` over a block of epochs; ``before`` holds each
    row's ``P`` at the end of the epoch before the block. ``P(e)``, the
    packets consumed by the end of epoch ``e`` (see the module docstring),
    is ``consumed`` when given; otherwise it is solved for a known service
    ``allowance``. The head expiry raises ``P(e-1)`` to ``A(e-D)``, service
    takes it on to ``P(e)``, and what is left of ``A(e)`` is queued.

    The solve: capping ``s_e`` at ``A(e) - A(e-D)``, the packets inside the
    deadline, changes no ``P``. Then in ``Q = P - S``, ``S`` the running sum
    over the block of the capped ``s``, epoch ``e`` is the clamp ``Q ->
    max(lo_e, min(hi_e, Q))`` with ``lo_e = A(e-D) - S(e-1) <= hi_e = A(e) -
    S(e)``, applied from ``Q = P`` before the block, and every value lies in
    ``[-S(end), A(end)]``.
    """
    if consumed is None:
        # Each temporary is dropped once used (see MAX_EPOCHS).
        capped = np.minimum(allowance, upper - lower)
        total = np.cumsum(capped, axis=-1)
        lo = lower - total
        lo += capped
        del capped
        hi = upper - total
        _scan_clamps(hi, lo)
        consumed = np.maximum(lo, np.minimum(hi, before[:, None]), out=lo)
        del hi
        consumed += total
        del total
    previous = np.concatenate([before[:, None], consumed[:, :-1]], axis=-1)
    after_expiry = np.maximum(previous, lower)
    return after_expiry - previous, consumed - after_expiry, upper - consumed


# The start of one class's queue at an epoch where the arrivals alone give
# it: cut back to its deadline bound, ``P(e-1) <= A(e-D)``, or else empty,
# with all it had consumed by the end of the epoch before, ``P(e-1) ==
# A(e-1)``. Either way ``max(P(e-1), A(e-D))`` is ``A(e-D)`` or ``A(e-1)``.
# An epoch's start is ``2 * cut_self + cut_neighbor``, 0 to 3, when both
# classes are regular, and ``_IRREGULAR`` otherwise.
_IRREGULAR = 4
# Epochs of Python int lists that the ``ctc`` loop converts at a time: 64
# at first, since most irregular stretches are short, then twice as many
# each time up to 1,024, so that a stretch of any length holds no more.
_LOOP_EPOCHS = (64, 1024)


def _ctc_split_array(self_backlog, neighbor_backlog, epoch_length: float, min_share_fraction: float, capacity: int):
    """``ctc_split`` of each pair of int64 backlogs, in its own float64 operations, and where it is exact.

    Returns ``t_pp``, ``t_np``, the two caps as int64 and a mask. Python
    divides two ints correctly rounded, and float64 holds every int up to
    2**53, so where the backlogs sum to at most 2**53, numpy's division of
    the converted ints is Python's, and the element is ``ctc_split``'s to
    the bit. Past it, the sum rounds before the division, and the mask is
    False.
    """
    total = self_backlog + neighbor_backlog
    share = np.divide(neighbor_backlog, total, out=np.full(total.shape, 0.5), where=total != 0)
    # min_share_fraction < 0.5, so clipping is ctc_split's two conditionals.
    np.clip(share, min_share_fraction, 1.0 - min_share_fraction, out=share)
    t_np = share * epoch_length
    np.divide(t_np, epoch_length, out=share)
    cap_nbr = np.floor(share * capacity).astype(np.int64)
    cap_self = np.floor(np.subtract(1.0, share, out=share) * capacity).astype(np.int64)
    return epoch_length - t_np, t_np, cap_self, cap_nbr, total <= _EXACT_MAX


def _ctc_loop(split: tuple, upper, lower, e: int, p_self: int, p_nbr: int, consumed, times) -> tuple[int, int]:
    """The ``ctc`` pass of one row from epoch ``e``, ``P(e-1)`` given, until both classes start an epoch regular.

    ``upper``, ``lower``, ``consumed`` and ``times`` are the row's ``(2,
    epochs)`` views (see ``_consume_ctc``), and ``split`` is ``ctc_split``'s
    last three arguments. Returns the first epoch after ``e`` at whose start
    both classes are regular, with that start, or the row's end with
    ``_IRREGULAR``. Per epoch each ``P`` is raised to ``A(e-D)``, the split
    reads the backlogs ``A(e) - P``, and each class's take is added, capped
    at ``A(e)``. It runs in Python ints over lists; minimums are spelled as
    conditionals, since a builtin ``min`` call costs as much as the rest of
    the epoch.
    """
    epochs, (size, most) = upper.shape[-1], _LOOP_EPOCHS
    consumed_self, consumed_nbr, t_pp, t_np = (row.data for row in (*consumed, *times))
    while e < epochs:
        stop, size = min(e + size, epochs), min(2 * size, most)
        # Each epoch's bounds, and the next epoch's A(e-D), for the check at its end.
        bounds = (*upper[:, e:stop].tolist(), *lower[:, e:stop].tolist(), *lower[:, e + 1 : stop + 1].tolist())
        # The row's last epoch has no next bound: the 0 that pads it can only
        # end the walk where the row ends anyway.
        for following in bounds[4:]:
            following.append(0)
        for e, (a_self, a_nbr, past_self, past_nbr, next_self, next_nbr) in enumerate(zip(*bounds), start=e):
            if p_self < past_self:
                p_self = past_self
            if p_nbr < past_nbr:
                p_nbr = past_nbr
            t_pp[e], t_np[e], take_self, take_nbr = ctc_split(a_self - p_self, a_nbr - p_nbr, *split)
            p_self += take_self
            if p_self > a_self:
                p_self = a_self
            p_nbr += take_nbr
            if p_nbr > a_nbr:
                p_nbr = a_nbr
            consumed_self[e] = p_self
            consumed_nbr[e] = p_nbr
            if (p_self <= next_self or p_self == a_self) and (p_nbr <= next_nbr or p_nbr == a_nbr):
                return e + 1, 2 * (p_self <= next_self) + (p_nbr <= next_nbr)
        e = stop
    return epochs, _IRREGULAR


def _consume_ctc(config: SimConfig, capacity: int, upper, lower, offered, before, consumed, times) -> None:
    """The ``ctc`` consumed counts ``P`` of both classes and the time split over a block of a sweep.

    ``upper``, ``lower`` and ``offered`` hold the running arrivals ``A(e)``
    and ``A(e-D)`` and the arrivals of the self and the neighbor class,
    ``(2, rows, epochs)``, and ``before`` their ``P`` at the end of the
    epoch before the block, ``(2, rows)``. Writes ``P_self`` and ``P_nbr``
    into ``consumed``, ``t_pp`` and ``t_np`` into ``times``, in the shape of
    ``upper``.

    The split couples the classes, so ``P`` is one pass over the epochs,
    but most epochs start where the arrivals alone put them, with each
    class's queue empty or cut back to its deadline bound (see
    ``_IRREGULAR``).
    From each of the four regular starts, every epoch of the block is served
    at once with array operations, ``_ctc_split_array`` in place of
    ``ctc_split``, and gives the start of the epoch after, or irregular. A
    walk over each row then follows the starts from the block's first, one
    run of equal starts at a time, and hands each irregular stretch to the
    loop (``_ctc_loop``) until both classes are regular again. An epoch
    whose backlogs sum past 2**53 is irregular too. Last, the chosen starts
    are served once more and written where the loop did not run. The loop's
    epochs are counted as ``ctc_loop_epochs``.
    """
    split = (config.epoch_length, config.min_share_fraction, capacity)
    rows, epochs = upper.shape[1:]
    if not epochs:
        return

    def serve(cuts):
        """Each class's ``P`` and the times of every epoch, from ``A(e-D)`` where its cut holds, else ``A(e-1)``."""
        starts = [a - o for a, o in zip(upper, offered)]
        for p, past, cut in zip(starts, lower, cuts):
            np.copyto(p, past, where=cut)
        t_pp, t_np, *takes, exact = _ctc_split_array(*(a - p for a, p in zip(upper, starts)), *split)
        for p, take, a in zip(starts, takes, upper):
            p += take
            np.minimum(p, a, out=p)
        return starts, (t_pp, t_np), exact

    runs = {}

    def ends(start: int) -> tuple[np.ndarray, np.ndarray]:
        """Where every epoch served from ``start`` leads, flat, and the flat epochs at which a run of ``start`` ends.

        A row's last epoch leads to its own start, unless irregular.
        """
        if start not in runs:
            # divmod gives the start's (cut_self, cut_nbr).
            done, _, exact = serve(divmod(start, 2))
            cut = [p[..., :-1] <= past[..., 1:] for p, past in zip(done, lower)]
            following = np.empty((rows, epochs), np.int8)
            np.add(2 * cut[0], cut[1], out=following[..., :-1], casting="unsafe")
            following[..., -1] = start
            stuck = ~exact
            for c, p, a in zip(cut, done, upper):
                stuck[..., :-1] |= ~c & (p[..., :-1] != a[..., :-1])
            following[stuck] = _IRREGULAR
            following = following.ravel()
            runs[start] = following, np.flatnonzero(following != start)
        return runs[start]

    # The first epoch's start, from P and A at the end of the epoch before the block.
    arrived = upper[..., 0] - offered[..., 0]
    cut = before <= lower[..., 0]
    firsts = np.where((cut | (before == arrived)).all(axis=0), 2 * cut[0] + cut[1], _IRREGULAR)
    # Each row's runs of one start and the loop's stretches, in order.
    starts, lengths, looped = [], [], 0
    for row, start in enumerate(firsts.tolist()):
        base, e, p = row * epochs, 0, before[:, row].tolist()
        while e < epochs:
            if start == _IRREGULAR:
                stop, after = _ctc_loop(split, upper[:, row], lower[:, row], e, *p, consumed[:, row], times[:, row])
                looped += stop - e
            else:
                following, run_ends = ends(start)
                # The run ends at the first epoch that leads elsewhere, or at the row's last.
                i = int(run_ends.searchsorted(base + e))
                stop = min(int(run_ends[i]) - base if i < run_ends.size else epochs, epochs - 1) + 1
                after = int(following[base + stop - 1])
                if after == _IRREGULAR:
                    # The loop runs that epoch, from this start.
                    stop -= 1
                    bounds = (upper[:, row, stop] - offered[:, row, stop], lower[:, row, stop])
                    p = [int(bounds[k][c]) for c, k in enumerate(divmod(start, 2))]
            starts.append(start)
            lengths.append(stop - e)
            e, start = stop, after
    phases.count("ctc_loop_epochs", looped)
    chosen = np.repeat(np.array(starts, np.int8), lengths).reshape(rows, epochs)
    done, spans, _ = serve((chosen & 2 != 0, chosen & 1 != 0))
    regular = chosen != _IRREGULAR
    for out, columns in ((consumed, done), (times, spans)):
        for column, value in zip(out, columns):
            np.copyto(column, value, where=regular)


def _schedule_sweep(configs: list[SimConfig], carry: _Carry | None = None, stop: int | None = None) -> Schedule:
    """The schedule of a sweep, one row per config; no random number is drawn.

    The configs differ only in their two rate functions, and every other
    setting is read once, from ``configs[0]`` (see ``Schedule``). It covers
    the epochs from ``carry.epoch`` to ``stop``, and moves ``carry`` on to
    ``stop``: of a block that ends the run, only its ``epoch``, since no
    block reads the rest. By default it is the whole run from a fresh target
    (``_Carry.fresh``). ``ctc`` serves every row of the block at once
    (``_consume_ctc``); ``ctc`` drops no neighbor packet before the coin but
    by expiry, and attempts all it serves. Under ``dsr`` the self queue's
    allowance is the capacity, the neighbor queue's what self service
    leaves; the gate caps the cumulative attempts at the budget, and the
    rest of the serviced neighbor packets are gate drops. The ``dsr`` self
    time is ``epoch_length * (serviced_self / capacity)`` (0 at zero
    capacity), the rest of the epoch the neighbor side's. Validation keeps
    the scan within int64 and the division's operands within 2**53 (see
    ``SimConfig``), so the split is Python's ``int / int``.

    A block that another follows is kept in ``carry``; a block whose reads
    equal the last block's, or a shorter last block whose reads equal their
    first epochs, takes its columns instead of the ``ctc`` pass or the
    ``dsr`` scans, and its running arrivals instead of a cumulative sum (see
    ``_Carry``). A sweep of one block neither reads nor keeps one.
    """
    config = configs[0]
    carry = _Carry.fresh(configs) if carry is None else carry
    start, stop = carry.epoch, config.epochs if stop is None else stop
    epochs = stop - start
    offered = np.empty((2, len(configs), epochs), np.int64)
    for row, c in enumerate(configs):
        c.self_rate_fn.arrivals(offered[0, row], start)
        c.neighbor_rate_fn.arrivals(offered[1, row], start)
    arrived = carry.consumed + carry.queued
    depth = min(config.deadline_epochs, config.epochs)
    head = _ring_read(carry.arrived, depth, start, epochs)
    before = carry.consumed
    # Capacity is data_rate packets/second over the epoch.
    capacity = int(round(config.data_rate * config.epoch_length))
    dsr = config.policy is Policy.DSR
    # A budget past 2**53, more than a run's neighbor arrivals, never binds; capped, it fits int64.
    budget = min(config.energy_budget, _EXACT_MAX)
    last, carry.last = carry.last, None
    follows = stop < config.epochs
    if last is not None or follows:
        reads = (offered, head - arrived[..., None], carry.queued[..., None])
    # The kept plan, or its first epochs for a shorter block that ends the run.
    reused = (
        last is not None
        and (epochs == last.upper.shape[-1] or epochs < last.upper.shape[-1] and not follows)
        and all(np.array_equal(past[..., :epochs], read) for past, read in zip(last.reads, reads))
        and (not dsr or np.array_equal(np.minimum(budget - carry.attempts, last.serviced), last.left))
    )
    # Unless reused, the last block's columns go before this block's are made.
    last = last if reused else None
    if reused:
        phases.count("reused_blocks")
        upper = last.upper[..., :epochs] + (arrived - last.arrived)[..., None]
        plan, serviced = _taken(last.plan, start, epochs, tuple(upper)), last.serviced
    else:
        upper = np.cumsum(offered, axis=-1)
        upper += arrived[..., None]
        lower = np.concatenate([head, upper[..., : epochs - head.shape[-1]]], axis=-1)
        if not dsr:
            consumed = np.empty_like(upper)
            times = np.empty(upper.shape)
            _consume_ctc(config, capacity, upper, lower, offered, before, consumed, times)
            served = (_serve_fifo(*bounds, consumed=p) for *bounds, p in zip(upper, lower, before, consumed))
            dropped, sent, queued = zip(*served)
            serviced = None
        else:
            expired_self, serviced_self, queued_self = _serve_fifo(upper[0], lower[0], before[0], allowance=capacity)
            expired_nbr, serviced_nbr, queued_nbr = _serve_fifo(
                upper[1], lower[1], before[1], allowance=capacity - serviced_self
            )
            serviced = serviced_nbr.sum(axis=-1, keepdims=True)
            running = np.minimum(np.cumsum(serviced_nbr, axis=-1) + carry.attempts, budget)
            attempts = np.diff(running, axis=-1, prepend=carry.attempts)
            sent, queued = (serviced_self, attempts), (queued_self, queued_nbr)
            dropped = expired_self, expired_nbr + serviced_nbr - attempts
            # A zero capacity serves nothing, and 0 / 1 gives its self time of 0.
            t_pp = config.epoch_length * (serviced_self / max(capacity, 1))
            times = t_pp, config.epoch_length - t_pp
        plan = Schedule(
            tuple(configs), tuple(offered), sent, dropped, queued, tuple(times), start, carry.queued, tuple(upper)
        )
    carry.epoch = stop
    # A block that ends the run hands nothing on.
    if follows:
        left = np.minimum(budget - carry.attempts, serviced) if dsr else None
        carry.last = last or _LastBlock(plan, reads, upper, arrived, serviced, left)
        _ring_write(carry.arrived, depth, start, upper)
        carry.queued = np.array([column[:, -1] for column in plan.queued])
        carry.consumed = upper[..., -1] - carry.queued
        if dsr:
            carry.attempts = carry.attempts + left
    return plan


def _seeded(seeds) -> list[tuple[np.random.Generator, dict]]:
    """One generator per seed, each with its seeded ``bit_generator.state``.

    ``np.random.default_rng(seed)`` is ``Generator(PCG64(seed))``, so restoring
    the seeded state, ``has_uint32`` and ``uinteger`` included, starts the
    same stream as seeding anew, at a sixth of the cost. The generator's
    binomial set-up cache depends only on ``(n, p)``, and the table sampler
    reads only the raw stream, so what a generator drew before a restore
    cannot reach the draws after it.
    """
    generators = [np.random.Generator(np.random.PCG64(seed)) for seed in seeds]
    return [(generator, generator.bit_generator.state) for generator in generators]


# numpy's ``Generator.binomial`` draws a count ``n`` with ``0 < p <= 0.5``
# and ``n * p <= 30`` by inversion (``random_binomial_inversion`` in numpy's
# ``distributions.c``): one uniform ``U = (random_raw() >> 11) * 2**-53``,
# then ``X = 0, px = q**n`` and, while ``U > px``, ``X += 1``, a fresh ``U``
# once ``X`` passes ``bound``, else ``U -= px`` and ``px = (n - X + 1) * p *
# px / (X * q)``. Its loop costs about ``n * p`` steps a sample.
# ``_table_binomial`` draws a long row of such counts from the same uniforms
# with a guide table per distinct count (Chen & Asau's discrete inversion):
# ``X`` is the number of the loop's cumulative thresholds below ``U``.
#
# Bucket bits of the guide table: 2**10 buckets of the 53-bit uniform per
# distinct count, 16 KiB. At ``trace_deep``'s ``p = 0.05`` only the first and
# the last bucket hold two thresholds or more, so about 2 samples in 1,024
# take ``searchsorted``. Tables included, that row took 3.21 ms (median of
# 25), and 3.24, 3.33 and 3.83 ms with 2**8, 2**12 and 2**14 buckets.
_TABLE_BITS = 10
# Half-width, in units of 2**-53, of the band around each threshold inside
# which ``_invert`` re-decides a sample. A step of the loop's ``U -= px``
# rounds by at most half a unit and one of the table's running sum by at
# most one, so outside ``1.5 * bound + 2`` units of every threshold (130 at
# the largest ``bound``, 85, as ``n * p <= 30``) the two decide alike. 2**12
# is 30 times that and still sends only about one sample in 10**10 to
# ``_invert``.
_GUARD = 2**12
# Samples per chunk. 2**14 keeps a chunk's temporaries near 1 MiB, in cache;
# 2**15 and 2**16 drew ``trace_deep``'s row 9% and 30% slower.
_CHUNK = 2**14
# What a row needs to take the table sampler: ``_ROW_GATE`` nonzero counts
# per table it must build, and numpy's loop ``_MIN_STEPS`` steps per count on
# average (``n * p`` summed over the row, zeros included). numpy takes 16 ns
# a sample at ``n * p = 0.05``, 40 at 1, 145 at 15 and 260 at 30, about 8 ns
# a step; the table sampler 15 to 22 ns at any ``n * p``, plus 50 to 100 us
# per table and 3 ns a count to find the distinct ones. At 2 steps and 4096
# samples a table saves about 95 us against its 55 us.
_ROW_GATE = 4096
_MIN_STEPS = 2
# The ``X`` of a bucket that ``_table_binomial`` leaves to ``searchsorted``.
_WIDE = 2**40


def _inversion(n: int, p: float) -> tuple[float, float, int]:
    """``q``, ``q**n`` and ``bound`` of numpy's inversion sampler at ``(n, p)``, each as its C code computes it.

    ``math.exp`` and ``math.log`` are the C library's, as numpy's are.
    """
    q = 1.0 - p
    mean = n * p
    return q, math.exp(n * math.log(q)), int(min(n, mean + 10.0 * math.sqrt(mean * q + 1)))


def _invert(n: int, p: float, m: int) -> int | None:
    """numpy's inversion loop from the uniform ``m * 2**-53``; None where numpy would draw another uniform."""
    q, px, bound = _inversion(n, p)
    x, u = 0, m * 2**-53
    while u > px:
        x += 1
        if x > bound:
            return None
        u -= px
        px = ((n - x + 1) * p * px) / (x * q)
    return x


def _thresholds(n: int, p: float) -> np.ndarray:
    """``floor(2**53 * (px_0 + ... + px_k))`` for ``k = 0 .. bound``, the loop's ``px`` in its own float order.

    A uniform ``m * 2**-53`` more than ``_GUARD`` units from every threshold
    draws the number of thresholds below ``m``; past the last one numpy
    draws another uniform.
    """
    q, px, bound = _inversion(n, p)
    total, thresholds = 0.0, []
    for x in range(1, bound + 2):
        total += px
        thresholds.append(math.floor(total * 2**53))
        px = ((n - x + 1) * p * px) / (x * q)
    return np.array(thresholds, np.int64)


def _guide(thresholds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each bucket's lowest ``X`` and the threshold it may step over, less ``_GUARD``.

    Bucket ``b`` holds the ``m`` with ``m >> (53 - _TABLE_BITS) == b``.
    Widened by ``_GUARD`` on each side, it holds no threshold (2**62 stands
    in for one), one (the sample steps over it when ``m`` is above it and is
    re-decided within ``_GUARD`` of it), or it holds more or reaches the
    last threshold: then its ``X`` is ``_WIDE``.
    """
    width = 1 << (53 - _TABLE_BITS)
    starts = np.arange(1 << _TABLE_BITS, dtype=np.int64) * width
    below = np.searchsorted(thresholds, starts - _GUARD)
    through = np.searchsorted(thresholds, starts + (width - 1 + _GUARD), side="right")
    inside = through - below
    low = np.where(inside == 1, thresholds[np.minimum(below, thresholds.size - 1)] - _GUARD, 2**62)
    return np.where((inside > 1) | (through == thresholds.size), _WIDE, below), low


def _table(n: int, p: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The thresholds of count ``n`` at ``p``, padded by -2**62 and 2**62, and its guide table (see ``_guide``)."""
    thresholds = _thresholds(n, p)
    return np.concatenate([[-(2**62)], thresholds, [2**62]]), *_guide(thresholds)


def _tables(counts: np.ndarray, p: float, kept: dict | None = None):
    """What ``_table_binomial`` draws ``counts`` at ``p`` with, or None where the row keeps numpy's call.

    A row qualifies when numpy inverts every count (``0 < p <= 0.5``, ``n *
    p <= 30``), its loop takes ``_MIN_STEPS`` steps a count on average and
    the row holds ``_ROW_GATE`` nonzero counts per table it must build;
    ``bincount`` finds the distinct counts when the largest count is below
    the row's length. ``kept`` maps ``(n, p)`` to the ``_table`` of the row
    before, which costs nothing to build again, and is replaced by this
    row's: the blocks of a run build each table once, not once a block.
    Returns the table offset of each count, every table's ``X`` and lowered
    threshold (see ``_guide``), and each distinct count with its thresholds
    padded by -2**62 and 2**62.
    """
    if not (0.0 < p <= 0.5 and counts.size >= _ROW_GATE):
        return None
    top = int(counts.max())
    if top * p > 30.0 or top >= counts.size or int(counts.sum()) * p < _MIN_STEPS * counts.size:
        return None
    present = np.bincount(counts)
    distinct = (np.flatnonzero(present[1:]) + 1).tolist()
    kept = {} if kept is None else kept
    built = sum((n, p) not in kept for n in distinct)
    if not distinct or counts.size - present[0] < _ROW_GATE * built:
        return None
    offsets = np.zeros(top + 1, np.int64)
    offsets[distinct] = np.arange(len(distinct)) << _TABLE_BITS
    tables = {(n, p): kept.get((n, p)) or _table(n, p) for n in distinct}
    kept.clear()
    kept.update(tables)
    padded = [(n, thresholds) for n, (thresholds, _, _) in zip(distinct, tables.values())]
    base, low = (np.concatenate(parts) for parts in zip(*(table[1:] for table in tables.values())))
    return offsets, base, low, padded


def _table_binomial(counts: np.ndarray, p: float, tables, generator: np.random.Generator, out: np.ndarray) -> bool:
    """Write numpy's ``generator.binomial(counts, p)`` into ``out``; False where numpy would draw another uniform.

    One uniform per nonzero count, in order, from ``random_raw``, the stream
    numpy's ``next_double`` reads. Each sample's bucket gives its ``X``,
    stepped over the bucket's one threshold. A sample in a ``_WIDE`` bucket
    or within ``_GUARD`` of a threshold is decided at the end by
    ``searchsorted`` and, near a threshold, by ``_invert``. ``out`` may be
    ``counts`` itself: a chunk's counts are read before its samples are
    written. False leaves ``out`` and the generator's state undefined.
    """
    offsets, base, low, padded = tables
    odd = []
    for start in range(0, counts.size, _CHUNK):
        chunk = counts[start : start + _CHUNK]
        samples = out[start : start + _CHUNK]
        # A chunk that holds a zero count is drawn over its nonzero counts, and one that holds none in place.
        nonzero = np.flatnonzero(chunk != 0) if np.count_nonzero(chunk) < chunk.size else None
        n = chunk if nonzero is None else chunk.take(nonzero)
        m = (generator.bit_generator.random_raw(n.size) >> np.uint64(11)).view(np.int64)
        index = offsets.take(n)
        index += m >> (53 - _TABLE_BITS)
        over = m - low.take(index)
        x = base.take(index)
        x += over > _GUARD
        redo = np.flatnonzero((over.view(np.uint64) <= 2 * _GUARD) | (x >= _WIDE))
        if nonzero is None:
            samples[:] = x
            positions = redo
        else:
            samples.fill(0)
            samples[nonzero] = x
            positions = nonzero[redo]
        odd.append((start + positions, index[redo] >> _TABLE_BITS, m[redo]))
    positions, groups, uniforms = (np.concatenate(parts) for parts in zip(*odd))
    for group in set(groups.tolist()):
        n, thresholds = padded[group]
        bound = thresholds.size - 3
        mine = groups == group
        m = uniforms[mine]
        # ``thresholds[x]`` is the last threshold below ``m``, ``thresholds[x + 1]`` the first one above.
        x = np.searchsorted(thresholds, m) - 1
        near = (m - thresholds[x] <= _GUARD) | (thresholds[x + 1] - m <= _GUARD)
        for i in np.flatnonzero(near).tolist():
            decided = _invert(n, p, int(m[i]))
            x[i] = bound + 1 if decided is None else decided
        if (x > bound).any():
            return False
        out[positions[mine]] = x
    return True


def _draw_losses(plan: Schedule, generators, kept: dict | None = None, decided: list | None = None) -> np.ndarray:
    """Ambient losses of each seed over each row of a schedule, ``(points, seeds, 2 * epochs)``.

    Row ``[k, i]`` equals ``np.random.default_rng(seeds[i]).binomial`` over
    ``sent`` interleaved, ``[sent[0][k, 0], sent[1][k, 0], sent[0][k, 1],
    ...]``, at the sweep's ``base_drop_prob``, drawn after restoring the seeded
    state of ``generators[i]`` (see ``_seeded``): one coin per transmitted
    packet, drawn as one binomial per class per epoch, self first, the order
    in which one scalar draw per class per epoch would consume each seed's
    stream. A row that ``_tables`` admits is drawn by ``_table_binomial``
    from numpy's own uniforms; the others, and a row in which numpy would
    draw a sample again, by ``generator.binomial`` itself. ``kept`` is the
    tables of the row drawn before (see ``_tables``). ``decided`` holds the
    ``_tables`` decision of the schedule's first rows, as far as they are
    known, and is extended by the others: a block that takes the schedule
    of the block before has the same ``sent`` rows, and so their decisions.

    Each row holds its interleaved ``sent`` until it is drawn over, so the
    draw needs no copy of ``sent`` beside the schedule and the losses.
    """
    points, epochs = plan.sent[0].shape
    lost = np.empty((points, len(generators), 2 * epochs), dtype=np.int64)
    lost[..., 0::2], lost[..., 1::2] = (column[:, None] for column in plan.sent)
    p = plan.configs[0].base_drop_prob
    decided = [] if decided is None else decided
    for k, (point, *sent) in enumerate(zip(lost, *plan.sent)):
        if k == len(decided):
            decided.append(_tables(point[0], p, kept))
        tables = decided[k]
        if tables is None:
            phases.count("binomial", len(generators))
        for row, (generator, seeded) in zip(point, generators):
            generator.bit_generator.state = seeded
            if tables is None:
                row[:] = generator.binomial(row, p)
            elif not _table_binomial(row, p, tables, generator, row):
                phases.count("binomial")
                generator.bit_generator.state = seeded
                row[0::2], row[1::2] = sent
                row[:] = generator.binomial(row, p)
    return lost


def _realize_sweep(
    plan: Schedule, generators, kept: dict | None = None, decided: list | None = None
) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """The ``(self, neighbor)`` pairs of forwarded and dropped columns, ``(points, seeds, epochs)`` each.

    ``generators`` come from ``_seeded``, and ``kept`` and ``decided`` go to
    ``_draw_losses``. A class's forwarded column is its
    ``sent`` less its losses, its dropped column its losses plus its
    ``dropped_before_loss``, written over its view of the losses. The
    schedule conserves packets (see ``Schedule``), so these do too.
    """
    lost = _draw_losses(plan, generators, kept, decided)
    classes = zip(plan.sent, plan.dropped_before_loss, (lost[..., 0::2], lost[..., 1::2]))
    # Forwarded first: the dropped column then overwrites the losses it reads.
    realized = [(sent[:, None] - drawn, np.add(drawn, before[:, None], out=drawn)) for sent, before, drawn in classes]
    return tuple(zip(*realized))


def _cumulative_ratio(dropped: np.ndarray, arrived: np.ndarray, before: int = 0) -> np.ndarray:
    """Running drop ratio, 0 until the first packet is offered.

    ``arrived`` holds the packets offered from the run's first epoch to the
    end of each epoch of the column, int64, and ``before`` the packets
    dropped in the epochs before the column, a Python int.
    """
    # Validation keeps the running sums within 2**53 (see ``SimConfig``), so
    # the dropped ones sum exactly in float64, in the ratio's own column, and
    # the offered ones convert exactly: this is Python's int / int. The sum
    # runs in place; a cumsum that casts would first copy its whole input.
    ratio = dropped.astype(float)
    ratio[:1] += before
    np.cumsum(ratio, out=ratio)
    # Counts are >= 0, so the epochs before the first packet is offered are a prefix.
    start = int(np.searchsorted(arrived, 0, side="right"))
    ratio[:start] = 0.0
    np.divide(ratio[start:], arrived[start:], out=ratio[start:])
    return ratio


# Epochs per block of ``run_blocks``: a multiple of the trace writer's
# 8,000-epoch group (``report._TRACE_GROUP_EPOCHS``). A block's work grows
# with its epochs and its count of numpy calls does not. Measured on
# ``trace_deep`` (``perfbench/run.py --seconds 5``, median of 4, 2-core Xeon;
# ``wall_norm_s`` and ``peak_rss_mb``) and, in a fresh process, the peak
# resident set of ``scripts/trace_phases.py``:
#   block       wall_norm_s   peak_rss_mb   VmHWM
#   8,000       0.0543 s      40.6 MiB      40.0 MiB
#   16,000      0.0566 s      42.5 MiB      42.1 MiB
#   24,000      0.0536 s      43.8 MiB      43.9 MiB
#   32,000      0.0532 s      45.5 MiB      45.5 MiB
#   whole run   0.0491 s      48.5 MiB      47.9 MiB
# (the whole run is ``sim run`` before blocks). The time barely moves with
# the block, so the smallest one is taken. At 8,000 epochs a block's row of
# losses holds 16,000 counts, so a row of two distinct counts, as
# ``trace_deep``'s, still passes ``_ROW_GATE`` and takes the table sampler.
_BLOCK_EPOCHS = 8_000
# The per-epoch columns of a ``Trace``, in field order, and those of them that are float64.
_TRACE_COLUMNS = tuple(f.name for f in fields(Trace) if f.name != "config")
_REAL_COLUMNS = ("t_pp", "t_np", "drop_ratio_self", "drop_ratio_neighbor")


def run_blocks(config: SimConfig) -> Iterator[Trace]:
    """Run the configured number of epochs from a fresh target, in blocks of ``_BLOCK_EPOCHS`` epochs.

    Each block, the last one maybe shorter, is a ``Trace`` of its own
    epochs, a one-row sweep realized at the config's seed; their columns
    concatenate to ``run``'s, bit for bit. From one block to the next it
    keeps the schedule's ``_Carry``, the dropped packets of each class so
    far, the tables of the last loss draw (see ``_tables``)
    and the seed's one generator, never restored to an earlier state: each
    block's draw starts from the state the block before left, and a row
    that numpy must draw again restores that state, not the seeded one.

    A block whose schedule reads what the block before's read, relative to
    its start, takes that schedule (see ``_Carry``): exact, since the pass
    is a function of those reads in exact integers. Since a later block
    may take them, a block's schedule columns, ``offered``, ``queued``,
    ``t_pp`` and ``t_np``, are read-only views; its other columns are the
    consumer's own.
    """
    generator, _ = _seeded((config.seed,))[0]
    carry, kept, totals = _Carry.fresh([config]), {}, [0, 0]
    while carry.epoch < config.epochs:
        generators = [(generator, generator.bit_generator.state)]
        yield _run_block(config, carry, min(carry.epoch + _BLOCK_EPOCHS, config.epochs), generators, kept, totals)


def _run_block(config: SimConfig, carry: _Carry, stop: int, generators, kept: dict, totals: list[int]) -> Trace:
    """The block of ``run_blocks`` that ends at ``stop``.

    ``totals`` holds each class's dropped packets before the block, and is
    moved on past it. The drop ratios divide by the schedule's running
    arrivals, which from a fresh target are the offered packets summed from
    the run's first epoch. The block's temporaries go when it
    returns, so the generator holds none of them while the consumer reads
    the block. ``carry.last``, when another block follows, holds this
    block's plan or the one it took, and so keeps its loss draw's
    ``_tables`` decision for a later block that takes the plan.
    """
    phases.count("engine_blocks")
    with phases.span("engine"):
        plan = _schedule_sweep([config], carry, stop)
        decided = None if carry.last is None else carry.last.tables
        realized = _realize_sweep(plan, generators, kept, decided)
        forwarded, dropped = ([column[0, 0] for column in pair] for pair in realized)
        pairs = plan.offered, plan.queued, plan.times, plan.running
        offered, queued, times, running = ([column[0] for column in pair] for pair in pairs)
        # A later block may take these schedule columns (see ``_Carry``).
        for column in (*offered, *queued, *times):
            column.flags.writeable = False
        ratios = list(map(_cumulative_ratio, dropped, running, totals))
        totals[:] = (packets + int(column.sum()) for packets, column in zip(totals, dropped))
        return Trace(config, *offered, *forwarded, *dropped, *queued, *times, *ratios)


def run(config: SimConfig) -> Trace:
    """Run the configured number of epochs from a fresh target: each block of ``run_blocks``, copied into its place."""
    columns = [np.empty(config.epochs, np.float64 if name in _REAL_COLUMNS else np.int64) for name in _TRACE_COLUMNS]
    start = 0
    for block in run_blocks(config):
        stop = start + block.offered_self.size
        for column, name in zip(columns, _TRACE_COLUMNS):
            column[start:stop] = getattr(block, name)
        start = stop
        # Dropped before the next block is made, so that memory holds one.
        del block
    return Trace(config, *columns)


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


def classify_misbehavior(trace: Trace) -> MisbehaviorStats:
    """Windowed misbehavior classification of the target over a trace.

    Epochs are split into consecutive windows of the config's ``window_epochs``
    epochs (trailing partial window included). Every window in which the
    target was offered neighbor packets qualifies; it is flagged when its
    neighbor drop ratio exceeds the config's ``misbehavior_threshold``.
    Sources are never offered relay traffic, so they never qualify.
    """
    threshold, window = trace.config.misbehavior_threshold, trace.config.window_epochs
    (qualifying,), (offered,), *per_seed = _classify_windows(
        trace.offered_neighbor[None], trace.dropped_neighbor[None, None], threshold, window
    )
    dropped, ratio, flagged, fraction = (value[0, 0] for value in per_seed)
    index = np.flatnonzero(qualifying)
    columns = (index, offered[index], dropped[index], ratio[index], flagged[index])
    ratios = tuple(
        WindowRatio(window_index=i, offered=o, dropped=d, ratio=r, flagged=f)
        for i, o, d, r, f in zip(*(column.tolist() for column in columns))
    )
    return MisbehaviorStats(malicious_fraction=float(fraction), window_ratios=ratios)
