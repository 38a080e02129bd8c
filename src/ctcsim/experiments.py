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

The numbers below were fixed by running the simulator over the grid and
checking the resulting curves against the acceptance targets (see
docs/calibration.md). ``BASE`` holds the run settings shared by every case,
as one ``SimConfig``; ``case_spec`` takes another base config, and the
five case levels are module constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import repeat
from operator import attrgetter
from typing import Callable, Sequence

import numpy as np

from . import phases
from .errors import EmptyInputError, InvalidConfigError, InvalidParameterError, InvariantError, UnknownCaseError
from .sim import Policy, RateFunction, RateKind, Schedule, SimConfig
from .sim import _classify_windows, _realize_sweep, _schedule_sweep, _seeded
from .utilization import PacketCounters, _ratio_form

__all__ = [
    "BASE",
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

# The run settings every case shares; each run sets its own policy and rates.
BASE = SimConfig(
    epochs=100, data_rate=420.0, base_drop_prob=0.15, energy_budget=20000, misbehavior_threshold=0.75, window_epochs=10
)
# The case levels: case I's self level 355 - 0.05 * v, case II's self ramp
# at three times the neighbor's, case III's self ramp down from 300, and
# case IV's constant neighbor rate.
CASE1_SELF_BASE = 355.0
CASE1_SELF_TILT = 0.05
CASE2_SELF_MULTIPLIER = 3.0
CASE3_SELF_PEAK = 300.0
CASE4_NEIGHBOR_RATE = 50.0


@dataclass(frozen=True)
class CaseSpec:
    """One experiment case: the settings ``base`` its runs share, rate profiles per sweep value, and the grid."""

    case_id: str
    base: SimConfig
    self_rate_fn: Callable[[int], RateFunction]
    neighbor_rate_fn: Callable[[int], RateFunction]
    sweep_axis: tuple[int, ...] = tuple(range(100, 1601, 100))
    algorithms: tuple[Policy, ...] = (Policy.CTC, Policy.DSR)
    seeds: tuple[int, ...] = tuple(range(10))

    def config(self, algorithm: Policy, sweep_value: int) -> SimConfig:
        """``base`` run by ``algorithm`` at the case's rates for ``sweep_value``.

        A rate that ``RateFunction`` or ``SimConfig`` rejects, such as case
        I's self level below zero past v = 7,100, or a sweep value past float
        range, which a case's rate cannot be computed at, is reported with
        the case and the sweep value.
        """
        try:
            self_rate, neighbor_rate = self.self_rate_fn(sweep_value), self.neighbor_rate_fn(sweep_value)
            return replace(self.base, policy=algorithm, self_rate_fn=self_rate, neighbor_rate_fn=neighbor_rate)
        except (InvalidConfigError, OverflowError) as exc:
            raise InvalidParameterError(f"case {self.case_id} at sweep value v = {sweep_value}: {exc}") from None


def _increasing(mean: float, epochs: int) -> RateFunction:
    """Zero to 2*mean across the run, averaging ``mean`` per epoch."""
    return RateFunction(RateKind.LINEAR_INCREASING, 0.0, 2.0 * mean / epochs)


def _decreasing(peak: float, epochs: int) -> RateFunction:
    """``peak`` down to zero across the run."""
    return RateFunction(RateKind.LINEAR_DECREASING, peak, peak / epochs)


def case_spec(case_id: str, base: SimConfig = BASE) -> CaseSpec:
    """Build the spec for one of the four traffic cases, its runs set as ``base`` but for policy and rates."""
    if case_id not in CASE_IDS:
        raise UnknownCaseError(f"unknown case id {case_id!r}; expected one of {', '.join(CASE_IDS)}")
    epochs, window = base.epochs, base.window_epochs
    # The ramps divide by it.
    if epochs < 1:
        raise InvalidParameterError(f"epochs must be >= 1, got {epochs}")

    def ramp(v: int) -> RateFunction:
        return _increasing(v / window, epochs)

    constant = RateFunction(RateKind.CONSTANT, CASE4_NEIGHBOR_RATE)
    self_rate_fn, neighbor_rate_fn = {
        "I": (lambda v: RateFunction(RateKind.CONSTANT, CASE1_SELF_BASE - CASE1_SELF_TILT * v), ramp),
        "II": (lambda v: _increasing(CASE2_SELF_MULTIPLIER * v / window, epochs), ramp),
        "III": (lambda v: _decreasing(CASE3_SELF_PEAK, epochs), ramp),
        "IV": (ramp, lambda v: constant),
    }[case_id]
    return CaseSpec(case_id, base, self_rate_fn, neighbor_rate_fn)


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


def _sweep_totals(plan: Schedule, generators) -> list[np.ndarray]:
    """Forwarded and dropped self/neighbor totals and malicious fraction of each point and seed, ``(points, seeds)``."""
    config = plan.configs[0]
    phases.count("realized", len(plan.configs))
    forwarded, dropped = _realize_sweep(plan, generators)
    *_, malicious = _classify_windows(plan.offered[1], dropped[1], config.misbehavior_threshold, config.window_epochs)
    return [column.sum(axis=-1) for column in (*forwarded, *dropped)] + [malicious]


def _realized_as(first: Schedule, plan: Schedule) -> np.ndarray:
    """Per point, whether ``plan`` gives the realize and the classifier all that ``first`` gives them.

    Both sweeps of a case run ``CaseSpec.base`` at the same loads, and the
    pass reads no policy, so only their columns can differ: the draw reads
    ``sent``, the dropped columns ``dropped_before_loss``, the classifier
    ``offered[1]``.
    """
    columns = ((*s.sent, *s.dropped_before_loss, s.offered[1]) for s in (first, plan))
    return np.logical_and.reduce([(a == b).all(axis=-1) for a, b in zip(*columns)])


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
        try:
            PacketCounters(k_pout=k_pout, k_nout=k_nout, k_nin=int(offered_nbr[point]))
        except InvalidParameterError as exc:
            # The counts come from the engine, so an impossible one is its fault.
            raise InvariantError(str(exc)) from None
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
    if not spec.sweep_axis or not spec.seeds:
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
