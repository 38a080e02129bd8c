"""Utilization calculus: worked values, the two-form identity, scaling laws."""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ctcsim import utilization
from ctcsim.errors import InvalidParameterError, InvariantError, NoInputError, ZeroTimeError
from ctcsim.model import TimeBudget
from ctcsim.utilization import (
    PacketCounters,
    per_route_utilization,
    power_out,
    utilization_forms,
    utilization_node,
    utilization_node_factored,
    utilization_total,
)


def test_counters_alias_and_invariants():
    c = PacketCounters(k_pout=4, k_nout=6, k_nin=12)
    assert c.k_pin == c.k_nin == 12
    with pytest.raises(ValueError):
        PacketCounters(k_pout=0, k_nout=5, k_nin=3)  # forwarded more than received
    with pytest.raises(ValueError):
        PacketCounters(k_pout=-1, k_nout=0, k_nin=0)


def test_counters_reject_a_non_finite_count_naming_it():
    for counts, name in [((math.nan, 1, 1), "k_pout"), ((1, math.nan, 1), "k_nout"), ((1, 1, math.inf), "k_nin"),
                         ((-math.inf, 0, 0), "k_pout")]:
        with pytest.raises(InvalidParameterError, match=f"^{name} must be finite and >= 0"):
            PacketCounters(*counts)
    # An int count is finite however large, also past the float range.
    assert PacketCounters(10**400, 0, 0).k_pout == 10**400


# --- power_out ------------------------------------------------------------

def test_power_out_worked():
    rates = power_out(PacketCounters(4, 6, 12), TimeBudget(t_pp=2.0, t_np=3.0))
    assert rates.n_ppout == pytest.approx(2.0)
    assert rates.n_pnout == pytest.approx(2.0)
    assert rates.n_pout == pytest.approx(4.0)
    assert rates.n_pin == pytest.approx(4.0)


def test_power_out_all_zero_counts():
    rates = power_out(PacketCounters(0, 0, 0), TimeBudget(1.0, 1.0))
    assert (rates.n_ppout, rates.n_pnout, rates.n_pout, rates.n_pin) == (0.0, 0.0, 0.0, 0.0)


def test_power_out_zero_self():
    rates = power_out(PacketCounters(0, 3, 3), TimeBudget(t_pp=1.0, t_np=1.5))
    assert rates.n_ppout == 0.0
    assert rates.n_pnout == pytest.approx(2.0)
    assert rates.n_pout == pytest.approx(2.0)
    assert rates.n_pin == pytest.approx(2.0)


def test_power_out_zero_count_tolerates_zero_time():
    rates = power_out(PacketCounters(0, 2, 2), TimeBudget(t_pp=0.0, t_np=1.0))
    assert rates.n_ppout == 0.0


def test_power_out_nonzero_count_zero_time_raises():
    with pytest.raises(ZeroTimeError):
        power_out(PacketCounters(4, 0, 0), TimeBudget(t_pp=0.0, t_np=1.0))
    with pytest.raises(ZeroTimeError):
        power_out(PacketCounters(0, 2, 2), TimeBudget(t_pp=1.0, t_np=0.0))


def test_power_out_additive_in_counters():
    t = TimeBudget(t_pp=0.75, t_np=2.5)
    a = PacketCounters(3, 5, 9)
    b = PacketCounters(4, 1, 7)
    merged = PacketCounters(7, 6, 16)
    assert power_out(merged, t).n_pout == pytest.approx(
        power_out(a, t).n_pout + power_out(b, t).n_pout
    )


# --- utilization_node -----------------------------------------------------

def test_utilization_worked_unity():
    c, t = PacketCounters(4, 6, 12), TimeBudget(2.0, 3.0)
    assert utilization_node(c, t) == pytest.approx(1.0)
    # cross-check through the factored form: (1/12)(4 * 3/2 + 6) = 1
    assert utilization_node_factored(c, t) == pytest.approx(1.0)


def test_utilization_no_self_traffic():
    # t_np cancels: 6/12
    assert utilization_node(PacketCounters(0, 6, 12), TimeBudget(1.0, 3.0)) == pytest.approx(0.5)


def test_utilization_pure_faithful_relay():
    for k in (1, 17, 400):
        u = utilization_node(PacketCounters(0, k, k), TimeBudget(0.3, 2.2))
        assert u == pytest.approx(1.0)


def test_utilization_isolated_node_raises():
    with pytest.raises(NoInputError):
        utilization_node(PacketCounters(5, 0, 0), TimeBudget(1.0, 1.0))
    with pytest.raises(NoInputError):
        utilization_node_factored(PacketCounters(5, 0, 0), TimeBudget(1.0, 1.0))


def test_nan_time_raises_zero_time_error():
    # A NaN time fails every `> 0` guard instead of passing a `<= 0` one.
    counters = PacketCounters(1, 1, 1)
    for times in (TimeBudget(math.nan, 1.0), TimeBudget(1.0, math.nan)):
        for form in (utilization_node, utilization_node_factored):
            with pytest.raises(ZeroTimeError):
                form(counters, times)
    with pytest.raises(ZeroTimeError):
        power_out(PacketCounters(1, 0, 0), TimeBudget(math.nan, 1.0))
    with pytest.raises(ZeroTimeError):
        power_out(PacketCounters(0, 1, 1), TimeBudget(1.0, math.nan))


def test_utilization_zero_time_raises():
    with pytest.raises(ZeroTimeError):
        utilization_node(PacketCounters(1, 1, 2), TimeBudget(0.0, 1.0))
    with pytest.raises(ZeroTimeError):
        utilization_node(PacketCounters(1, 1, 2), TimeBudget(1.0, 0.0))


def test_forms_agree_randomized():
    # 1000 randomized valid inputs; the two forms must agree to 1e-9 relative.
    rng = random.Random(20260825)
    for _ in range(1000):
        k_nin = rng.randint(1, 10_000)
        c = PacketCounters(rng.randint(1, 10_000), rng.randint(1, k_nin), k_nin)
        t = TimeBudget(rng.uniform(1e-3, 1e2), rng.uniform(1e-3, 1e2))
        a, b = utilization_node(c, t), utilization_node_factored(c, t)
        assert a == pytest.approx(b, rel=1e-9)


@given(
    st.integers(min_value=0, max_value=1000),
    st.integers(min_value=0, max_value=1000),
    st.integers(min_value=1, max_value=1000),
    st.integers(min_value=1, max_value=50),
)
def test_utilization_invariant_under_count_scaling(k_pout, extra_in, k_nout_seed, c):
    k_nin = k_nout_seed + extra_in
    k_nout = k_nout_seed
    t = TimeBudget(0.4, 1.7)
    base = utilization_node(PacketCounters(k_pout, k_nout, k_nin), t)
    scaled = utilization_node(PacketCounters(c * k_pout, c * k_nout, c * k_nin), t)
    assert scaled == pytest.approx(base, rel=1e-12)


# --- utilization_total ----------------------------------------------------

def test_total_two_identical_routes():
    route = (PacketCounters(4, 6, 12), TimeBudget(2.0, 3.0))
    assert utilization_total([route, route]) == pytest.approx(2.0)


def test_total_empty_is_zero():
    assert utilization_total([]) == 0.0


def test_total_mixed_routes():
    half = (PacketCounters(0, 6, 12), TimeBudget(1.0, 3.0))
    unity = (PacketCounters(0, 9, 9), TimeBudget(1.0, 1.0))
    assert utilization_total([half, unity]) == pytest.approx(1.5)


def test_total_singleton_matches_node():
    route = (PacketCounters(3, 4, 9), TimeBudget(0.8, 1.1))
    assert utilization_total([route]) == pytest.approx(utilization_node(*route))


def test_total_propagates_no_input():
    bad = (PacketCounters(1, 0, 0), TimeBudget(1.0, 1.0))
    with pytest.raises(NoInputError):
        utilization_total([(PacketCounters(0, 1, 1), TimeBudget(1.0, 1.0)), bad])


def test_counters_reject_with_package_error():
    with pytest.raises(InvalidParameterError, match="k_nout=5 > k_nin=3"):
        PacketCounters(k_pout=0, k_nout=5, k_nin=3)
    with pytest.raises(InvalidParameterError, match=">= 0"):
        PacketCounters(k_pout=-1, k_nout=0, k_nin=0)


def test_forms_return_both_values():
    assert utilization_forms(PacketCounters(4, 6, 12), TimeBudget(2.0, 3.0)) == (1.0, 1.0)


@pytest.mark.parametrize("factored", [1.001, math.nan])
def test_forms_disagreement_is_invariant_error(factored, monkeypatch):
    # A failed paper identity is a program fault, not bad input.
    monkeypatch.setattr(utilization, "utilization_node_factored", lambda counters, times: factored)
    route = (PacketCounters(4, 6, 12), TimeBudget(2.0, 3.0))
    with pytest.raises(InvariantError, match="utilization forms disagree"):
        utilization_forms(*route)
    with pytest.raises(InvariantError, match="utilization forms disagree"):
        utilization_total([route])


@pytest.mark.parametrize(
    "counters, times, named",
    [
        # Past float range the ratio form is NaN where the factored form is 1.0:
        # bad input, not a failed identity.
        ((1, 1, 1), (1.0, 1e-310), "t_np must be in .*, got 1e-310"),
        ((1, 1, 1), (1e101, 1.0), "t_pp must be in .*, got 1e\\+101"),
        ((0.5, 0, 1), (1.0, 1.0), "k_pout must be an integer in .*, got 0.5"),
        ((0, 1, 2e100), (1.0, 1.0), "k_nin must be an integer in .*, got 2e\\+100"),
    ],
)
def test_forms_reject_values_out_of_range_by_name(counters, times, named):
    route = (PacketCounters(*counters), TimeBudget(*times))
    with pytest.raises(InvalidParameterError, match=named):
        utilization_forms(*route)
    with pytest.raises(InvalidParameterError, match=named):
        utilization_total([route])


def test_per_route_indexing():
    routes = [
        (PacketCounters(0, 6, 12), TimeBudget(1.0, 3.0)),
        (PacketCounters(0, 9, 9), TimeBudget(1.0, 1.0)),
    ]
    out = per_route_utilization(routes)
    assert [r.route_index for r in out] == [1, 2]
    assert out[0].value == pytest.approx(0.5)
    assert out[1].value == pytest.approx(1.0)
