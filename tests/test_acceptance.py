"""Acceptance suite: nine end-to-end checks with stated tolerances.

Each criterion prints one PASS/FAIL line (run with ``pytest -v -s`` to see
them as they execute, or ``python tests/test_acceptance.py``). The sweep
criteria share one module-scoped run of the full four-case grid and take
their statistics from ``scripts/criteria.py``; all runs are seeded, so every
number here is deterministic.
"""

import dataclasses
import random
import time

import pytest
from conftest import load_script

from ctcsim.experiments import CASE_IDS, case_spec, run_case
from ctcsim.model import ForwardingParams, TimeBudget, throughput, time_components
from ctcsim.report import emit_csv, emit_trace_csv
from ctcsim.sim import Policy, RateFunction, RateKind, SimConfig, run
from ctcsim.utilization import PacketCounters, utilization_node, utilization_node_factored

criteria = load_script("criteria")


def criterion(number, budget=None):
    """Start criterion ``number``'s clock and return its ``check(label, ok)``.

    ``check`` prints the criterion's PASS/FAIL line and asserts ``ok``, then,
    given a ``budget``, asserts that the criterion took less than that many
    seconds up to the check.
    """
    start = time.perf_counter()

    def check(label, ok):
        elapsed = time.perf_counter() - start
        line = f"{'PASS' if ok else 'FAIL'} criterion {number}: {label}"
        print(line)
        assert ok, line
        if budget is not None:
            assert elapsed < budget, f"criterion {number} took {elapsed:.2f}s (budget {budget:g}s)"

    return check


def constant(value):
    return RateFunction(RateKind.CONSTANT, value)


@pytest.fixture(scope="module")
def tables():
    return {case_id: run_case(case_spec(case_id)) for case_id in CASE_IDS}


def trace_csv_rows(path):
    """Rows of an emitted trace CSV as lists of cells, header dropped."""
    return [line.split(",") for line in path.read_text(encoding="utf-8").split("\n")[1:-1]]


def test_criterion_1_throughput_equals_service_rate():
    # The closed-form throughput must reproduce the service rate for any
    # non-degenerate parameter point: the success-mass numerator and the
    # time denominator share every factor except the rate itself.
    check = criterion(1, 1.0)
    rng = random.Random(20260825)
    worst = 0.0
    for _ in range(1000):
        params = ForwardingParams(
            p=rng.uniform(0.0, 0.99),
            k=rng.randint(1, 60),
            data_rate=rng.uniform(1e-3, 1e6),
        )
        worst = max(worst, abs(throughput(params) - params.data_rate) / params.data_rate)
    check(f"throughput identity over 1000 random points, worst rel err {worst:.2e}", worst <= 1e-12)


def test_criterion_2_utilization_forms_agree():
    check = criterion(2, 1.0)
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
    check(
        f"direct and factored utilization agree, worked point exact, worst rel diff {worst:.2e}",
        exact and worst <= 1e-9,
    )


def test_criterion_3_time_split_is_exact(tmp_path):
    check = criterion(3, 5.0)
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
    for t_pp, t_np in zip(trace.t_pp.tolist(), trace.t_np.tolist()):
        worst = max(worst, abs(t_pp + t_np - config.epoch_length))
    # Source rows are derived at emission; read them back from the trace CSV.
    dest = tmp_path / "trace.csv"
    emit_trace_csv(trace, dest)
    for row in trace_csv_rows(dest):
        if row[1] != "0":
            worst = max(worst, abs(float(row[10]) + float(row[11]) - config.epoch_length))
    check(
        f"time components sum exactly (model bit-exact; sim worst epoch error {worst:.1e} over 10000 epochs)",
        model_exact and worst <= 1e-12,
    )


def test_criterion_4_case1_landmarks(tables):
    check = criterion(4, 60.0)
    mean_high, band, rho, _, gap = criteria.case_i(criteria.seed_means(tables))
    check(
        f"case I: ctc mean {mean_high:.4f} in [0.15,0.30], band {band:.4f} <= 0.10, "
        f"dsr spearman {rho:.4f} >= 0.95, gap@500 {gap:.4f} <= 0.03",
        0.15 <= mean_high <= 0.30 and band <= 0.10 and rho >= 0.95 and gap <= 0.03,
    )


def test_criterion_5_case4_stays_flat(tables):
    check = criterion(5, 60.0)
    band, _ = criteria.case_iv(criteria.seed_means(tables))["ctc"]
    check(f"case IV: ctc band {band:.4f} <= 0.10 across the full sweep", band <= 0.10)


def test_criterion_6_case3_strictly_below_overloaded_cases(tables):
    check = criterion(6, 60.0)
    # A margin is a difference of finite means, so it is > 0 exactly where case III is below.
    margin = min(min(pair) for pair in criteria.case_iii_margins(criteria.seed_means(tables)).values())
    check(
        f"case III below cases I and II for both algorithms at every v >= 800 (min margin {margin:+.4f})",
        margin > 0,
    )


def test_criterion_7_derived_curves_separate_policies(tables):
    check = criterion(7, 120.0)
    _, shared, monotone, violations, low_gap = criteria.derived(tables)
    check(
        f"derived curves: monotone after smoothing, ctc <= dsr on {len(shared)} shared buckets >= 0.15, "
        f"10% bucket present with agreement",
        monotone and not violations and low_gap is not None and low_gap <= 0.05,
    )


def test_criterion_8_determinism_and_conservation(tmp_path):
    # Identical config and seed must give byte-identical CSV artifacts, and
    # the per-class packet accounting must balance at every epoch.
    check = criterion(8)
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
        "identical config and seed give byte-identical CSVs; packet accounting balances every epoch",
        tables_identical and traces_identical and balanced,
    )


def test_criterion_9_loss_floor_realized():
    check = criterion(9, 30.0)
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
    trace = run(config)
    dropped = int(trace.dropped_self.sum() + trace.dropped_neighbor.sum())
    offered = int(trace.offered_self.sum() + trace.offered_neighbor.sum())
    realized = dropped / offered
    tolerance = 3.0 * (config.base_drop_prob * (1.0 - config.base_drop_prob) / offered) ** 0.5
    floor_ok = abs(realized - config.base_drop_prob) <= tolerance

    check(
        f"closed-form neighbor time (worst rel err {worst_rel:.1e}) and realized loss floor "
        f"{realized:.5f} within {tolerance:.5f} of {config.base_drop_prob}",
        closed_ok and floor_ok,
    )


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
