"""Experiment case definitions, sweep execution, and derived curves.

Four traffic cases stress the two forwarding policies across a load sweep.
The sweep value v is the nominal number of neighbor packets offered per
measurement window (window = 10 epochs), so the per-epoch mean rate is
v / 10. Ramped profiles span the whole run: an increasing profile starts at
zero and ends at twice its mean, a decreasing profile starts at its peak and
reaches zero on the last epoch.

- Case I: steady self traffic against a growing neighbor ramp. The self
  level tilts down slightly along the sweep axis so that the contention
  onset moves with v instead of hitting a fixed capacity wall.
- Case II: both classes ramp up, self three times as fast, so the node is
  pushed deep into overload in the second half of the run.
- Case III: self traffic decays while neighbor traffic grows; the two
  profiles stay inside service capacity, so only ambient loss remains.
- Case IV: light constant neighbor traffic under a growing self ramp, also
  within capacity throughout.

A fifth, derived view buckets every (case, run) observation by its realized
drop ratio and averages the misbehavior-classifier output per bucket, per
algorithm.

The numeric defaults below were fixed by running the simulator over the grid
and checking the resulting curves against the acceptance targets (see
docs/calibration.md); they are plain data, so alternative settings can be
passed through ExperimentParams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from operator import attrgetter
from typing import Callable, Sequence

import numpy as np

from . import phases
from .errors import EmptyInputError, InvalidConfigError, InvalidParameterError, UnknownCaseError
from .sim import Policy, RateFunction, RateKind, Schedule, SimConfig
from .sim import _classify_windows, _peak_rate, _realize_sweep, _schedule_sweep, _seeded
from .utilization import PacketCounters, _ratio_form

__all__ = [
    "ExperimentParams",
    "DEFAULTS",
    "CaseSpec",
    "CASE_IDS",
    "MAX_SEEDS",
    "case_spec",
    "ResultRow",
    "ResultTable",
    "run_case",
    "CaseVBucket",
    "CaseVCurve",
    "derive_case_v",
    "isotonic_nondecreasing",
]

CASE_IDS = ("I", "II", "III", "IV")
# Upper bound on the seeds of one case. A case holds the losses, forwarded
# and dropped columns and result rows of every point and seed: ``exp all`` at
# the default grid peaks at 37, 46, 82 and 136 MiB of RSS at 10, 100, 400
# and 1,000 seeds, about 0.10 MiB per seed, so 10**4 seeds need near 1 GiB,
# a little less than ``MAX_EPOCHS`` epochs need. A larger count is rejected
# by name before any seed is built.
MAX_SEEDS = 10**4


@dataclass(frozen=True)
class ExperimentParams:
    """Shared knobs for the experiment sweeps.

    ``case_spec`` divides by ``epochs`` and ``window``, ``CaseSpec.config``
    hands the next four to ``SimConfig`` under other names, and each case
    builds its rates from the rest, so all eleven are checked here, each by
    its own name; a real knob given as an int must fit a float. Case I's self
    level ``case1_self_base - case1_self_tilt * v`` is checked again where it
    is built, since it goes below zero only at some sweep values, and each
    rate a knob sets is checked against ``SimConfig``'s 2**53 bound on a
    run's arrivals where it is built, since most depend on the sweep value.
    """

    epochs: int = 100
    window: int = 10
    service_rate: float = 420.0
    ambient_drop: float = 0.15
    energy_budget: int = 20000
    misbehavior_threshold: float = 0.75
    case1_self_base: float = 355.0
    case1_self_tilt: float = 0.05
    case2_self_multiplier: float = 3.0
    case3_self_peak: float = 300.0
    case4_neighbor_rate: float = 50.0

    def __post_init__(self) -> None:
        # Each knob: the types it takes, what it must be, and the bounds
        # its ``SimConfig`` field has at the default epoch length of 1.
        for name, types, rule, holds in (
            ("epochs", int, "an int >= 1", lambda v: v >= 1),
            ("window", int, "an int >= 1", lambda v: v >= 1),
            ("service_rate", (int, float), "a number in (0, 2**53]", lambda v: 0 < v <= 2**53),
            ("ambient_drop", (int, float), "a number in [0, 1)", lambda v: 0 <= v < 1),
            ("energy_budget", int, "an int >= 0", lambda v: v >= 0),
            ("misbehavior_threshold", (int, float), "a number in (0, 1)", lambda v: 0 < v < 1),
            ("case1_self_base", (int, float), "a finite number >= 0", lambda v: 0 <= v < math.inf),
            ("case1_self_tilt", (int, float), "a finite number", lambda v: -math.inf < v < math.inf),
            ("case2_self_multiplier", (int, float), "a finite number >= 0", lambda v: 0 <= v < math.inf),
            ("case3_self_peak", (int, float), "a finite number >= 0", lambda v: 0 <= v < math.inf),
            ("case4_neighbor_rate", (int, float), "a finite number >= 0", lambda v: 0 <= v < math.inf),
        ):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, types) or not holds(value):
                raise InvalidParameterError(f"{name} must be {rule}, got {value!r}")
            # A real knob given as an int past float range passes its rule
            # and overflows where a case builds its rates from it.
            if types is not int and isinstance(value, int):
                try:
                    float(value)
                except OverflowError:
                    raise InvalidParameterError(f"{name} is too large for a float") from None


DEFAULTS = ExperimentParams()


@dataclass(frozen=True)
class CaseSpec:
    """One experiment case: rate profiles per sweep value plus the grid."""

    case_id: str
    params: ExperimentParams
    self_rate_fn: Callable[[int], RateFunction]
    neighbor_rate_fn: Callable[[int], RateFunction]
    sweep_axis: tuple[int, ...] = tuple(range(100, 1601, 100))
    algorithms: tuple[Policy, ...] = (Policy.CTC, Policy.DSR)
    seeds: tuple[int, ...] = tuple(range(10))

    def config(self, algorithm: Policy, sweep_value: int) -> SimConfig:
        """The run of ``algorithm`` at ``sweep_value``, at ``SimConfig``'s default seed."""
        params = self.params
        return SimConfig(
            epochs=params.epochs,
            data_rate=params.service_rate,
            base_drop_prob=params.ambient_drop,
            energy_budget=params.energy_budget,
            misbehavior_threshold=params.misbehavior_threshold,
            window_epochs=params.window,
            policy=algorithm,
            self_rate_fn=self.self_rate_fn(sweep_value),
            neighbor_rate_fn=self.neighbor_rate_fn(sweep_value),
        )


def _increasing(mean: float, epochs: int) -> RateFunction:
    """Zero to 2*mean across the run, averaging ``mean`` per epoch."""
    return RateFunction(RateKind.LINEAR_INCREASING, 0.0, 2.0 * mean / epochs)


def _decreasing(peak: float, epochs: int) -> RateFunction:
    """``peak`` down to zero across the run."""
    return RateFunction(RateKind.LINEAR_DECREASING, peak, peak / epochs)


_CASE1_SELF = "case I self rate case1_self_base - case1_self_tilt * v"


def _case1_self(params: ExperimentParams, sweep_value: int) -> RateFunction:
    """Case I's self level, which tilts down the sweep axis and so can go below zero."""
    level = params.case1_self_base - params.case1_self_tilt * sweep_value
    if not level >= 0:
        base, tilt = params.case1_self_base, params.case1_self_tilt
        raise InvalidParameterError(
            f"{_CASE1_SELF} must be >= 0; "
            f"at sweep value v = {sweep_value} it is {base!r} - {tilt!r} * {sweep_value} = {level!r}"
        )
    return RateFunction(RateKind.CONSTANT, level)


def _knob_rate(knobs: str, epochs: int, rate_fn: Callable[[int], RateFunction]) -> Callable[[int], RateFunction]:
    """``rate_fn``, rejecting an invalid rate by ``knobs``, the knobs that set it, and the sweep value.

    A finite knob can overflow to infinity in the rate, which
    ``RateFunction`` rejects naming no knob. ``SimConfig`` bounds each
    class's rounded peak rate times ``epochs`` by 2**53 and would name its
    own rate field instead.
    """

    def rate(sweep_value: int) -> RateFunction:
        try:
            fn = rate_fn(sweep_value)
            peak = _peak_rate(fn, epochs)
            if not (math.isfinite(peak) and round(peak) * epochs <= 2**53):
                raise InvalidConfigError(f"{epochs} epochs at up to {peak:g} packets each pass 2**53")
        except InvalidConfigError as exc:
            raise InvalidParameterError(f"{knobs}: {exc} at sweep value v = {sweep_value}") from None
        return fn

    return rate


def case_spec(case_id: str, params: ExperimentParams = DEFAULTS) -> CaseSpec:
    """Build the spec for one of the four traffic cases."""
    epochs = params.epochs
    window = params.window
    if case_id == "I":
        return CaseSpec(
            case_id,
            params,
            self_rate_fn=_knob_rate(_CASE1_SELF, epochs, lambda v: _case1_self(params, v)),
            neighbor_rate_fn=lambda v: _increasing(v / window, epochs),
        )
    if case_id == "II":
        multiplier = params.case2_self_multiplier
        self_rate = _knob_rate("case2_self_multiplier", epochs, lambda v: _increasing(multiplier * v / window, epochs))
        return CaseSpec(
            case_id,
            params,
            self_rate_fn=self_rate,
            neighbor_rate_fn=lambda v: _increasing(v / window, epochs),
        )
    if case_id == "III":
        return CaseSpec(
            case_id,
            params,
            self_rate_fn=_knob_rate("case3_self_peak", epochs, lambda v: _decreasing(params.case3_self_peak, epochs)),
            neighbor_rate_fn=lambda v: _increasing(v / window, epochs),
        )
    if case_id == "IV":
        constant = RateFunction(RateKind.CONSTANT, params.case4_neighbor_rate)
        return CaseSpec(
            case_id,
            params,
            self_rate_fn=lambda v: _increasing(v / window, epochs),
            neighbor_rate_fn=_knob_rate("case4_neighbor_rate", epochs, lambda v: constant),
        )
    raise UnknownCaseError(f"unknown case id {case_id!r}; expected one of {', '.join(CASE_IDS)}")


@dataclass(frozen=True)
class ResultRow:
    """Aggregated outcome of one simulation run at the target node."""

    case_id: str
    algorithm: str
    sweep_value: int
    seed: int
    epoch_window: str
    offered_self: int
    offered_nbr: int
    forwarded_self: int
    forwarded_nbr: int
    dropped_self: int
    dropped_nbr: int
    drop_ratio: float
    malicious_fraction: float
    throughput: float
    utilization: float


@dataclass(frozen=True)
class ResultTable:
    rows: tuple[ResultRow, ...]


def _running_totals(column: np.ndarray) -> np.ndarray:
    """Each row's sum in epoch order; utilization bytes depend on float summation order."""
    return np.cumsum(column, axis=-1)[:, -1]


# The config fields that ``_realize_sweep`` and ``_classify_windows`` read.
_REALIZE_READS = attrgetter("base_drop_prob", "misbehavior_threshold", "window_epochs", "epochs")


def _sweep_totals(plan: Schedule, generators) -> list[np.ndarray]:
    """Forwarded and dropped self/neighbor totals and malicious fraction of each point and seed, ``(points, seeds)``."""
    config = plan.configs[0]
    phases.count("realized", len(plan.configs))
    forwarded, dropped = _realize_sweep(plan, generators)
    *_, malicious = _classify_windows(plan.offered[1], dropped[1], config.misbehavior_threshold, config.window_epochs)
    return [column.sum(axis=-1) for column in (*forwarded, *dropped)] + [malicious]


def _realized_as(first: Schedule, plan: Schedule) -> np.ndarray:
    """Per point, whether ``plan`` gives the realize and the classifier all that ``first`` gives them."""
    same = np.array([_REALIZE_READS(a) == _REALIZE_READS(b) for a, b in zip(first.configs, plan.configs)])
    # A plan has one ``epochs``: when they differ, nothing matches and the columns do not line up.
    if same.any():
        # The draw reads ``sent``, the dropped columns ``dropped_before_loss``, the classifier ``offered[1]``.
        for a, b in zip(*((*s.sent, *s.dropped_before_loss, s.offered[1]) for s in (first, plan))):
            same &= (a == b).all(axis=-1)
    return same


def _reused_totals(first: Schedule, known: list[np.ndarray], plan: Schedule, generators) -> list[np.ndarray]:
    """``_sweep_totals`` of ``plan``, taken from ``known``, those of ``first``, wherever a point realizes alike."""
    rest = np.flatnonzero(~_realized_as(first, plan))
    totals = [column.copy() for column in known]
    if rest.size:
        pairs = plan.offered, plan.sent, plan.dropped_before_loss, plan.queued, plan.times
        subset = Schedule(tuple(plan.configs[k] for k in rest.tolist()), *(tuple(c[rest] for c in p) for p in pairs))
        for column, realized in zip(totals, _sweep_totals(subset, generators)):
            column[rest] = realized
    return totals


def _summarize_sweep(
    case_id: str, algorithm: Policy, sweep_axis, plan: Schedule, seeds, totals: list[np.ndarray]
) -> list[ResultRow]:
    """One row per (sweep value, seed), from the sweep's schedule and its ``_sweep_totals``.

    Every column is computed over the whole sweep, ``(points, seeds)``, with
    the float operations of one run's summary, so each row holds the bits it
    would hold alone. A point's utilization is undefined, and written as 0.0,
    when it has no neighbor input or a time total is not > 0.
    """
    config = plan.configs[0]
    # Seed-free: arrivals and the time split come from the schedule.
    offered_self, offered_nbr = (column.sum(axis=-1) for column in plan.offered)
    # The per-point columns, against the seeds.
    offered = offered_nbr[:, None]
    t_pp, t_np = (_running_totals(column)[:, None] for column in plan.times)
    forwarded_self, forwarded_nbr, dropped_self, dropped_nbr, malicious = totals
    # A negative offered total breaks one of these too.
    broken = (forwarded_self < 0) | (forwarded_nbr < 0) | (forwarded_nbr > offered)
    if broken.any():
        point, seed = np.argwhere(broken)[0]
        # The first broken run's counters raise, naming the count.
        k_pout, k_nout = int(forwarded_self[point, seed]), int(forwarded_nbr[point, seed])
        PacketCounters(k_pout=k_pout, k_nout=k_nout, k_nin=int(offered_nbr[point]))
    drop_ratio = np.divide(dropped_nbr, offered, out=np.zeros(dropped_nbr.shape), where=offered > 0)
    throughput = (forwarded_self + forwarded_nbr) / (config.epochs * config.epoch_length)
    defined = (offered > 0) & (t_pp > 0) & (t_np > 0)
    # An undefined point divides by 1s, and its utilization is then written as 0.0.
    k_nin, t_pp, t_np = (np.where(defined, column, 1) for column in (offered, t_pp, t_np))
    utilization = np.where(defined, _ratio_form(forwarded_self, forwarded_nbr, k_nin, t_pp, t_np), 0.0)

    case, name, window = repeat(case_id), repeat(algorithm.value), repeat(f"0-{config.epochs - 1}")
    per_seed = forwarded_self, forwarded_nbr, dropped_self, dropped_nbr, drop_ratio, malicious, throughput, utilization
    per_point = zip(sweep_axis, offered_self.tolist(), offered_nbr.tolist())
    rows = []
    # Python values are made one point at a time, so only one point's are held at once.
    for point, (sweep_value, offered_s, offered_n) in enumerate(per_point):
        columns = [column[point].tolist() for column in per_seed]
        head = repeat(sweep_value), seeds, window, repeat(offered_s), repeat(offered_n)
        rows.extend(map(ResultRow, case, name, *head, *columns))
    return rows


def run_case(spec: CaseSpec) -> ResultTable:
    """Run the full (algorithm x sweep x seed) grid for one case.

    The queue pass does not depend on the seed, so each algorithm's sweep is
    scheduled once, one row per grid point. The first sweep is realized and
    classified in one pass over every point and seed. Where a later sweep's
    schedule gives that pass the same inputs as the first sweep's, the pass
    would give the same per-seed totals, so they are reused, and only the
    other points are realized. Each row keeps its own algorithm and time
    split, and so its own utilization.
    """
    if len(spec.seeds) > MAX_SEEDS:
        raise InvalidParameterError(f"seeds must number at most {MAX_SEEDS}, got {len(spec.seeds)}")
    for seed in spec.seeds:
        if not 0 <= seed < 2**64:
            raise InvalidParameterError(f"seed must fit in an unsigned 64-bit integer, got {seed}")
    if not spec.sweep_axis:
        return ResultTable(rows=())
    generators = _seeded(spec.seeds)
    rows = []
    first = None
    for algorithm in spec.algorithms:
        with phases.span("schedule"):
            plan = _schedule_sweep([spec.config(algorithm, sweep_value) for sweep_value in spec.sweep_axis])
        with phases.span("realize"):
            if first is None:
                first, known = plan, _sweep_totals(plan, generators)
            totals = known if plan is first else _reused_totals(first, known, plan, generators)
        with phases.span("summarize"):
            rows.extend(_summarize_sweep(spec.case_id, algorithm, spec.sweep_axis, plan, spec.seeds, totals))
    phases.count("rows", len(rows))
    rows.sort(key=attrgetter("case_id", "algorithm", "sweep_value", "seed"))
    return ResultTable(rows=tuple(rows))


@dataclass(frozen=True)
class CaseVBucket:
    """One drop-ratio bin: its lower edge, mean classifier output, row count."""

    lower: float
    mean_malicious: float
    rows: int


@dataclass(frozen=True)
class CaseVCurve:
    algorithm: str
    buckets: tuple[CaseVBucket, ...]


def derive_case_v(tables: Sequence[ResultTable], bucket_width: float = 0.05) -> list[CaseVCurve]:
    """Bucket pooled rows by realized drop ratio, averaging misbehavior.

    Rows from all given tables are pooled per algorithm; each row lands in
    the bin ``int(drop_ratio // bucket_width)``. Bins with no rows are
    omitted. Returns one curve per algorithm present, sorted by name.
    """
    if not 0 < bucket_width < math.inf:
        raise InvalidParameterError(f"bucket_width must be a finite number > 0, got {bucket_width}")
    pooled: dict[str, dict[int, list[float]]] = {}
    for table in tables:
        for row in table.rows:
            index = row.drop_ratio // bucket_width
            if not math.isfinite(index):
                raise InvalidParameterError(f"bucket_width {bucket_width}: drop ratio {row.drop_ratio} has no bucket")
            pooled.setdefault(row.algorithm, {}).setdefault(int(index), []).append(row.malicious_fraction)
    if not pooled:
        raise EmptyInputError("no result rows to derive from")
    curves = []
    for algorithm in sorted(pooled):
        buckets = tuple(
            CaseVBucket(lower=index * bucket_width, mean_malicious=math.fsum(values) / len(values), rows=len(values))
            for index, values in sorted(pooled[algorithm].items())
        )
        curves.append(CaseVCurve(algorithm=algorithm, buckets=buckets))
    return curves


def isotonic_nondecreasing(values: Sequence[float], weights: Sequence[float] | None = None) -> list[float]:
    """Weighted least-squares fit constrained to be nondecreasing.

    Pool-adjacent-violators: scan left to right, merging any block whose
    mean falls below its predecessor's into a weighted average, then expand
    the block means back out to one value per input.
    """
    if weights is None:
        weights = [1.0] * len(values)
    if len(weights) != len(values):
        raise InvalidParameterError("values and weights must have equal length")
    if any(w <= 0 for w in weights):
        raise InvalidParameterError("weights must be > 0")

    blocks: list[list[float]] = []  # [weight, mean, count]
    for value, weight in zip(values, weights):
        blocks.append([float(weight), float(value), 1])
        while len(blocks) > 1 and blocks[-2][1] > blocks[-1][1]:
            w2, m2, c2 = blocks.pop()
            w1, m1, c1 = blocks.pop()
            total = w1 + w2
            blocks.append([total, (w1 * m1 + w2 * m2) / total, c1 + c2])
    fitted: list[float] = []
    for _, mean, count in blocks:
        fitted.extend([mean] * count)
    return fitted
