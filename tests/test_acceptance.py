"""Acceptance suite: nine end-to-end checks with stated tolerances.

Each criterion prints one PASS/FAIL line (run with ``pytest -v -s`` to see
them as they execute, or ``python tests/test_acceptance.py``). The sweep
criteria share one module-scoped run of the full four-case grid; all runs
are seeded, so every number here is deterministic.
"""

import random
import time
from statistics import fmean

import pytest
from scipy.stats import spearmanr

from ctcsim.experiments import CASE_IDS, case_spec, derive_case_v, isotonic_nondecreasing, run_case
from ctcsim.model import ForwardingParams, TimeBudget, throughput, time_components
from ctcsim.report import emit_csv, emit_trace_csv
from ctcsim.sim import Policy, RateFunction, RateKind, SimConfig, run
from ctcsim.utilization import PacketCounters, utilization_node, utilization_node_factored

import dataclasses


def check(number, label, ok):
    line = f"{'PASS' if ok else 'FAIL'} criterion {number}: {label}"
    print(line)
    assert ok, line


def constant(value):
    return RateFunction(RateKind.CONSTANT, value)


@pytest.fixture(scope="module")
def tables():
    return {case_id: run_case(case_spec(case_id)) for case_id in CASE_IDS}


def trace_csv_rows(path):
    """Rows of an emitted trace CSV as lists of cells, header dropped."""
    return [line.split(",") for line in path.read_text(encoding="utf-8").split("\n")[1:-1]]


def seed_means(table, algorithm):
    grouped = {}
    for row in table.rows:
        if row.algorithm == algorithm:
            grouped.setdefault(row.sweep_value, []).append(row.drop_ratio)
    return {v: fmean(vals) for v, vals in grouped.items()}


def test_criterion_1_throughput_equals_service_rate():
    # The closed-form throughput must reproduce the service rate for any
    # non-degenerate parameter point: the success-mass numerator and the
    # time denominator share every factor except the rate itself.
    start = time.perf_counter()
    rng = random.Random(20260825)
    worst = 0.0
    for _ in range(1000):
        params = ForwardingParams(
            p=rng.uniform(0.0, 0.99),
            k=rng.randint(1, 60),
            data_rate=rng.uniform(1e-3, 1e6),
        )
        worst = max(worst, abs(throughput(params) - params.data_rate) / params.data_rate)
    elapsed = time.perf_counter() - start
    check(1, f"throughput identity over 1000 random points, worst rel err {worst:.2e}", worst <= 1e-12)
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s (budget 1s)"


def test_criterion_2_utilization_forms_agree():
    start = time.perf_counter()
    worked = PacketCounters(k_pout=4, k_nout=6, k_nin=12)
    times = TimeBudget(t_pp=2.0, t_np=3.0)
    exact = utilization_node(worked, times) == 1.0 and utilization_node_factored(worked, times) == 1.0

    rng = random.Random(74)
    worst = 0.0
    for _ in range(1000):
        k_nin = rng.randint(1, 10_000)
        counters = PacketCounters(
            k_pout=rng.randint(0, 10_000),
            k_nout=rng.randint(0, k_nin),
            k_nin=k_nin,
        )
        budget = TimeBudget(t_pp=rng.uniform(1e-3, 1e2), t_np=rng.uniform(1e-3, 1e2))
        a = utilization_node(counters, budget)
        b = utilization_node_factored(counters, budget)
        worst = max(worst, abs(a - b) / max(abs(a), abs(b), 1.0))
    elapsed = time.perf_counter() - start
    check(
        2,
        f"direct and factored utilization agree, worked point exact, worst rel diff {worst:.2e}",
        exact and worst <= 1e-9,
    )
    assert elapsed < 1.0, f"criterion 2 took {elapsed:.2f}s (budget 1s)"


def test_criterion_3_time_split_is_exact(tmp_path):
    start = time.perf_counter()
    rng = random.Random(8283)
    model_exact = True
    for _ in range(1000):
        times = time_components(
            ForwardingParams(p=rng.uniform(0.0, 1.0), k=rng.randint(1, 50), data_rate=rng.uniform(0.1, 1e4))
        )
        model_exact = model_exact and times.t_i == times.t_pp + times.t_np

    config = SimConfig(
        epochs=10_000,
        data_rate=50.0,
        base_drop_prob=0.1,
        self_rate_fn=constant(20),
        neighbor_rate_fn=constant(40),
        seed=1,
    )
    trace = run(config)
    worst = 0.0
    for record in trace.records:
        worst = max(worst, abs(record.t_pp + record.t_np - config.epoch_length))
    # Source rows are derived at emission; read them back from the trace CSV.
    dest = tmp_path / "trace.csv"
    emit_trace_csv(trace, dest)
    for row in trace_csv_rows(dest):
        if row[1] != "0":
            worst = max(worst, abs(float(row[10]) + float(row[11]) - config.epoch_length))
    elapsed = time.perf_counter() - start
    check(
        3,
        f"time components sum exactly (model bit-exact; sim worst epoch error {worst:.1e} over 10000 epochs)",
        model_exact and worst <= 1e-12,
    )
    assert elapsed < 5.0, f"criterion 3 took {elapsed:.2f}s (budget 5s)"


def test_criterion_4_case1_landmarks(tables):
    start = time.perf_counter()
    ctc = seed_means(tables["I"], "ctc")
    dsr = seed_means(tables["I"], "dsr")

    high = [ctc[v] for v in range(800, 1601, 100)]
    mean_high = fmean(high)
    band = max(high) - min(high)

    xs = sorted(v for v in dsr if v >= 500)
    rho = spearmanr(xs, [dsr[v] for v in xs]).statistic
    gap = abs(ctc[500] - dsr[500])

    elapsed = time.perf_counter() - start
    check(
        4,
        f"case I: ctc mean {mean_high:.4f} in [0.15,0.30], band {band:.4f} <= 0.10, "
        f"dsr spearman {rho:.4f} >= 0.95, gap@500 {gap:.4f} <= 0.03",
        0.15 <= mean_high <= 0.30 and band <= 0.10 and rho >= 0.95 and gap <= 0.03,
    )
    assert elapsed < 60.0, f"criterion 4 took {elapsed:.2f}s (budget 60s)"


def test_criterion_5_case4_stays_flat(tables):
    start = time.perf_counter()
    ctc = seed_means(tables["IV"], "ctc")
    band = max(ctc.values()) - min(ctc.values())
    elapsed = time.perf_counter() - start
    check(5, f"case IV: ctc band {band:.4f} <= 0.10 across the full sweep", band <= 0.10)
    assert elapsed < 60.0, f"criterion 5 took {elapsed:.2f}s (budget 60s)"


def test_criterion_6_case3_strictly_below_overloaded_cases(tables):
    start = time.perf_counter()
    ok = True
    margins = []
    for algorithm in ("ctc", "dsr"):
        m1 = seed_means(tables["I"], algorithm)
        m2 = seed_means(tables["II"], algorithm)
        m3 = seed_means(tables["III"], algorithm)
        for v in range(800, 1601, 100):
            ok = ok and m3[v] < m1[v] and m3[v] < m2[v]
            margins.append(min(m1[v] - m3[v], m2[v] - m3[v]))
    elapsed = time.perf_counter() - start
    check(
        6,
        f"case III below cases I and II for both algorithms at every v >= 800 (min margin {min(margins):+.4f})",
        ok,
    )
    assert elapsed < 60.0, f"criterion 6 took {elapsed:.2f}s (budget 60s)"


def test_criterion_7_derived_curves_separate_policies(tables):
    start = time.perf_counter()
    curves = {curve.algorithm: curve for curve in derive_case_v(list(tables.values()))}

    smoothed = {}
    monotone = True
    for algorithm, curve in curves.items():
        fit = isotonic_nondecreasing(
            [b.mean_malicious for b in curve.buckets], [b.rows for b in curve.buckets]
        )
        monotone = monotone and all(fit[i] <= fit[i + 1] + 1e-12 for i in range(len(fit) - 1))
        smoothed[algorithm] = {bucket.lower: value for bucket, value in zip(curve.buckets, fit)}

    shared = sorted(set(smoothed["ctc"]) & set(smoothed["dsr"]))
    dominance = all(
        smoothed["ctc"][lower] <= smoothed["dsr"][lower] + 1e-12 for lower in shared if lower >= 0.15 - 1e-9
    )
    tenth = [lower for lower in shared if abs(lower - 0.10) < 1e-9]
    low_agree = bool(tenth) and abs(smoothed["ctc"][tenth[0]] - smoothed["dsr"][tenth[0]]) <= 0.05

    elapsed = time.perf_counter() - start
    check(
        7,
        f"derived curves: monotone after smoothing, ctc <= dsr on {len(shared)} shared buckets >= 0.15, "
        f"10% bucket present with agreement",
        monotone and dominance and low_agree,
    )
    assert elapsed < 120.0, f"criterion 7 took {elapsed:.2f}s (budget 120s)"


def test_criterion_8_determinism_and_conservation(tmp_path):
    # Identical config and seed must give byte-identical CSV artifacts, and
    # the per-class packet accounting must balance at every epoch.
    spec = dataclasses.replace(case_spec("I"), sweep_axis=(1000,), seeds=(4,))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(run_case(spec), a)
    emit_csv(run_case(spec), b)
    tables_identical = a.read_bytes() == b.read_bytes()

    config = SimConfig(
        epochs=300,
        data_rate=80.0,
        base_drop_prob=0.2,
        energy_budget=5_000,
        policy=Policy.DSR,
        self_rate_fn=constant(50),
        neighbor_rate_fn=constant(60),
        seed=11,
    )
    ta, tb = tmp_path / "ta.csv", tmp_path / "tb.csv"
    emit_trace_csv(run(config), ta)
    emit_trace_csv(run(config), tb)
    traces_identical = ta.read_bytes() == tb.read_bytes()

    # Accounting of every node, target and derived sources, from the trace CSV.
    rows = trace_csv_rows(ta)
    node_count = config.neighbor_count + 1
    balanced = len(rows) == config.epochs * node_count
    cum = [[0, 0, 0, 0, 0, 0] for _ in range(node_count)]  # offered/fwd/dropped per class
    for row in rows:
        off_s, off_n, fwd_s, fwd_n, drop_s, drop_n, queued_s, queued_n = map(int, row[2:10])
        c = cum[int(row[1])]
        c[0] += off_s
        c[1] += fwd_s
        c[2] += drop_s
        c[3] += off_n
        c[4] += fwd_n
        c[5] += drop_n
        balanced = balanced and c[0] == c[1] + c[2] + queued_s
        balanced = balanced and c[3] == c[4] + c[5] + queued_n
    check(
        8,
        "identical config and seed give byte-identical CSVs; packet accounting balances every epoch",
        tables_identical and traces_identical and balanced,
    )


def test_criterion_9_loss_floor_realized():
    start = time.perf_counter()
    # Closed form of the neighbor time component against the term-by-term sum.
    worst_rel = 0.0
    for p in (1e-6, 0.01, 0.3, 0.7, 0.999):
        for k in (1, 5, 40):
            params = ForwardingParams(p=p, k=k, data_rate=3.0)
            q = 1.0 - p
            closed = q * (1.0 - q**k) / params.data_rate
            summed = time_components(params).t_np
            worst_rel = max(worst_rel, abs(summed - closed) / closed)
    closed_ok = worst_rel <= 1e-9

    # An in-capacity run loses packets only to the ambient coin, so the
    # realized loss fraction must sit within binomial noise of the floor.
    config = SimConfig(
        epochs=200,
        self_rate_fn=constant(200),
        neighbor_rate_fn=constant(400),
        seed=0,
    )
    dropped = offered = 0
    for record in run(config).records:
        dropped += record.dropped_self + record.dropped_neighbor
        offered += record.offered_self + record.offered_neighbor
    realized = dropped / offered
    tolerance = 3.0 * (config.base_drop_prob * (1.0 - config.base_drop_prob) / offered) ** 0.5
    floor_ok = abs(realized - config.base_drop_prob) <= tolerance

    elapsed = time.perf_counter() - start
    check(
        9,
        f"closed-form neighbor time (worst rel err {worst_rel:.1e}) and realized loss floor "
        f"{realized:.5f} within {tolerance:.5f} of {config.base_drop_prob}",
        closed_ok and floor_ok,
    )
    assert elapsed < 30.0, f"criterion 9 took {elapsed:.2f}s (budget 30s)"


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
