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

from dataclasses import dataclass
from statistics import fmean
from typing import Callable, Sequence

from .errors import EmptyInputError, InvalidParameterError, NoInputError, UnknownCaseError, ZeroTimeError
from .model import TimeBudget
from .sim import Policy, RateFunction, RateKind, SimConfig, classify_misbehavior, run
from .utilization import PacketCounters, utilization_node

__all__ = [
    "ExperimentParams",
    "DEFAULTS",
    "CaseSpec",
    "CASE_IDS",
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


@dataclass(frozen=True)
class ExperimentParams:
    """Shared knobs for the experiment sweeps."""

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


def _increasing(mean: float, epochs: int) -> RateFunction:
    """Zero to 2*mean across the run, averaging ``mean`` per epoch."""
    return RateFunction(RateKind.LINEAR_INCREASING, 0.0, 2.0 * mean / epochs)


def _decreasing(peak: float, epochs: int) -> RateFunction:
    """``peak`` down to zero across the run."""
    return RateFunction(RateKind.LINEAR_DECREASING, peak, peak / epochs)


def case_spec(case_id: str, params: ExperimentParams = DEFAULTS) -> CaseSpec:
    """Build the spec for one of the four traffic cases."""
    epochs = params.epochs
    window = params.window
    if case_id == "I":
        return CaseSpec(
            case_id,
            params,
            self_rate_fn=lambda v: RateFunction(
                RateKind.CONSTANT, params.case1_self_base - params.case1_self_tilt * v
            ),
            neighbor_rate_fn=lambda v: _increasing(v / window, epochs),
        )
    if case_id == "II":
        return CaseSpec(
            case_id,
            params,
            self_rate_fn=lambda v: _increasing(params.case2_self_multiplier * v / window, epochs),
            neighbor_rate_fn=lambda v: _increasing(v / window, epochs),
        )
    if case_id == "III":
        return CaseSpec(
            case_id,
            params,
            self_rate_fn=lambda v: _decreasing(params.case3_self_peak, epochs),
            neighbor_rate_fn=lambda v: _increasing(v / window, epochs),
        )
    if case_id == "IV":
        return CaseSpec(
            case_id,
            params,
            self_rate_fn=lambda v: _increasing(v / window, epochs),
            neighbor_rate_fn=lambda v: RateFunction(RateKind.CONSTANT, params.case4_neighbor_rate),
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


def _summarize(case_id: str, algorithm: Policy, sweep_value: int, config: SimConfig) -> ResultRow:
    trace = run(config)
    offered_self = offered_nbr = 0
    forwarded_self = forwarded_nbr = 0
    dropped_self = dropped_nbr = 0
    t_pp_total = t_np_total = 0.0
    for record in trace.records:
        offered_self += record.offered_self
        offered_nbr += record.offered_neighbor
        forwarded_self += record.forwarded_self
        forwarded_nbr += record.forwarded_neighbor
        dropped_self += record.dropped_self
        dropped_nbr += record.dropped_neighbor
        t_pp_total += record.t_pp
        t_np_total += record.t_np

    drop_ratio = dropped_nbr / offered_nbr if offered_nbr > 0 else 0.0
    malicious = classify_misbehavior(trace).malicious_fraction
    throughput = (forwarded_self + forwarded_nbr) / (config.epochs * config.epoch_length)
    try:
        utilization = utilization_node(
            PacketCounters(k_pout=forwarded_self, k_nout=forwarded_nbr, k_nin=offered_nbr),
            TimeBudget(t_pp=t_pp_total, t_np=t_np_total),
        )
    except (NoInputError, ZeroTimeError):
        utilization = 0.0

    return ResultRow(
        case_id=case_id,
        algorithm=algorithm.value,
        sweep_value=sweep_value,
        seed=config.seed,
        epoch_window=f"0-{config.epochs - 1}",
        offered_self=offered_self,
        offered_nbr=offered_nbr,
        forwarded_self=forwarded_self,
        forwarded_nbr=forwarded_nbr,
        dropped_self=dropped_self,
        dropped_nbr=dropped_nbr,
        drop_ratio=drop_ratio,
        malicious_fraction=malicious,
        throughput=throughput,
        utilization=utilization,
    )


def run_case(spec: CaseSpec) -> ResultTable:
    """Run the full (algorithm x sweep x seed) grid for one case."""
    params = spec.params
    rows = []
    for algorithm in spec.algorithms:
        for sweep_value in spec.sweep_axis:
            for seed in spec.seeds:
                config = SimConfig(
                    epochs=params.epochs,
                    data_rate=params.service_rate,
                    base_drop_prob=params.ambient_drop,
                    energy_budget=params.energy_budget,
                    misbehavior_threshold=params.misbehavior_threshold,
                    window_epochs=params.window,
                    policy=algorithm,
                    seed=seed,
                    self_rate_fn=spec.self_rate_fn(sweep_value),
                    neighbor_rate_fn=spec.neighbor_rate_fn(sweep_value),
                )
                rows.append(_summarize(spec.case_id, algorithm, sweep_value, config))
    rows.sort(key=lambda r: (r.case_id, r.algorithm, r.sweep_value, r.seed))
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
    if bucket_width <= 0:
        raise InvalidParameterError(f"bucket_width must be > 0, got {bucket_width}")
    pooled: dict[str, dict[int, list[float]]] = {}
    for table in tables:
        for row in table.rows:
            index = int(row.drop_ratio // bucket_width)
            pooled.setdefault(row.algorithm, {}).setdefault(index, []).append(row.malicious_fraction)
    if not pooled:
        raise EmptyInputError("no result rows to derive from")
    curves = []
    for algorithm in sorted(pooled):
        buckets = tuple(
            CaseVBucket(lower=index * bucket_width, mean_malicious=fmean(values), rows=len(values))
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
