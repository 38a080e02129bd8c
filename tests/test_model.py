"""Closed-form model: frozen worked values plus algebraic properties.

Expected values were computed independently first (repeated multiplication
for the powers, term-by-term sums for the time components) and then frozen
here; the implementation has to meet them, not the other way round.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctcsim.errors import DegenerateDenominatorError, InvalidParameterError, NonPositiveTimeError
from ctcsim.model import MAX_K, ForwardingParams, packet_drop_rate, prob_batch, throughput, time_components

valid_params = st.builds(
    ForwardingParams,
    p=st.floats(min_value=0.0, max_value=0.99),
    k=st.integers(min_value=1, max_value=50),
    data_rate=st.floats(min_value=1.0, max_value=1e4),
)


# --- parameter validation -------------------------------------------------

def test_params_reject_bad_probability():
    with pytest.raises(InvalidParameterError):
        ForwardingParams(p=-0.1, k=1, data_rate=1.0)
    with pytest.raises(InvalidParameterError):
        ForwardingParams(p=1.5, k=1, data_rate=1.0)


def test_params_reject_bad_batch_size():
    with pytest.raises(InvalidParameterError):
        ForwardingParams(p=0.5, k=0, data_rate=1.0)


@pytest.mark.parametrize("k", [MAX_K + 1, 10**12])
def test_params_reject_batch_size_past_bound(k):
    with pytest.raises(InvalidParameterError, match=r"\bk must be"):
        ForwardingParams(p=0.5, k=k, data_rate=1.0)


def test_params_accept_batch_size_at_bound():
    params = ForwardingParams(p=0.0, k=MAX_K, data_rate=2.0)
    # At p = 0 every term is 1: the sums count the k terms exactly.
    assert time_components(params).t_pp == MAX_K / 2.0
    assert throughput(params) == 2.0


def test_params_reject_bad_rate():
    for data_rate in (0.0, float("inf"), float("nan")):
        with pytest.raises(InvalidParameterError, match="data_rate"):
            ForwardingParams(p=0.5, k=1, data_rate=data_rate)


# --- prob_batch -----------------------------------------------------------

def test_prob_batch_p_zero_all_self():
    pair = prob_batch(ForwardingParams(p=0.0, k=3, data_rate=1.0))
    assert pair.p_self == 1.0
    assert pair.p_neighbor == 0.0


def test_prob_batch_p_one_vanishes():
    pair = prob_batch(ForwardingParams(p=1.0, k=1, data_rate=1.0))
    assert pair.p_self == 0.0
    assert pair.p_neighbor == 0.0


def test_prob_batch_worked_half():
    # (1-0.5)^2 = 0.25 by repeated multiplication; neighbor is p times that.
    pair = prob_batch(ForwardingParams(p=0.5, k=2, data_rate=1.0))
    assert pair.p_self == pytest.approx(0.25)
    assert pair.p_neighbor == pytest.approx(0.125)


@given(valid_params)
def test_prob_batch_ordering(params):
    pair = prob_batch(params)
    assert 0.0 <= pair.p_neighbor <= pair.p_self <= 1.0


@given(st.floats(min_value=0.0, max_value=1.0), st.integers(min_value=1, max_value=49))
def test_prob_batch_nonincreasing_in_k(p, k):
    small = prob_batch(ForwardingParams(p=p, k=k, data_rate=1.0))
    large = prob_batch(ForwardingParams(p=p, k=k + 1, data_rate=1.0))
    assert large.p_self <= small.p_self


@given(st.integers(min_value=1, max_value=50))
def test_prob_batch_nonincreasing_in_p(k):
    values = [prob_batch(ForwardingParams(p=p / 20, k=k, data_rate=1.0)).p_self for p in range(21)]
    assert all(a >= b for a, b in zip(values, values[1:]))


# --- time_components ------------------------------------------------------

def test_time_components_worked_three_terms():
    # 0.5 + 0.25 + 0.125 = 0.875 for the self side; half that for neighbors.
    tb = time_components(ForwardingParams(p=0.5, k=3, data_rate=1.0))
    assert tb.t_pp == pytest.approx(0.875)
    assert tb.t_np == pytest.approx(0.4375)
    assert tb.t_i == pytest.approx(1.3125)


def test_time_components_p_zero():
    tb = time_components(ForwardingParams(p=0.0, k=2, data_rate=4.0))
    assert tb.t_pp == pytest.approx(0.5)
    assert tb.t_np == 0.0
    assert tb.t_i == pytest.approx(0.5)


def test_time_components_single_term():
    tb = time_components(ForwardingParams(p=0.5, k=1, data_rate=100.0))
    assert tb.t_pp == pytest.approx(0.005)
    assert tb.t_np == pytest.approx(0.0025)
    assert tb.t_i == pytest.approx(0.0075)


@given(valid_params)
def test_time_total_is_exact_sum(params):
    tb = time_components(params)
    assert tb.t_i == tb.t_pp + tb.t_np  # bit-exact, t_i is the sum by construction


@given(
    st.floats(min_value=0.01, max_value=0.99),
    st.integers(min_value=1, max_value=50),
    st.floats(min_value=1.0, max_value=1e4),
)
def test_neighbor_self_time_ratio_is_p(p, k, data_rate):
    tb = time_components(ForwardingParams(p=p, k=k, data_rate=data_rate))
    assert tb.t_np / tb.t_pp == pytest.approx(p, rel=1e-12)


@given(st.floats(min_value=1e-6, max_value=0.999999), st.integers(min_value=1, max_value=60))
def test_summed_series_matches_geometric_closed_form(p, k):
    # Closed form (1-p)(1-(1-p)^k)/p against the brute-force sum the
    # implementation uses.
    tb = time_components(ForwardingParams(p=p, k=k, data_rate=1.0))
    q = 1.0 - p
    closed = q * (1.0 - q**k) / p
    assert tb.t_pp == pytest.approx(closed, rel=1e-9)


# --- throughput -----------------------------------------------------------

def test_throughput_equals_rate_k1():
    assert throughput(ForwardingParams(p=0.3, k=1, data_rate=250.0)) == pytest.approx(250.0)
    assert throughput(ForwardingParams(p=0.7, k=1, data_rate=64.0)) == pytest.approx(64.0)


def test_throughput_worked_three_terms():
    # numerator 1.3125 over denominator 1.3125 at data_rate 1.
    assert throughput(ForwardingParams(p=0.5, k=3, data_rate=1.0)) == pytest.approx(1.0)


def test_throughput_undefined_at_p_one():
    with pytest.raises(DegenerateDenominatorError):
        throughput(ForwardingParams(p=1.0, k=3, data_rate=10.0))


@settings(max_examples=300)
@given(valid_params)
def test_throughput_identity(params):
    assert throughput(params) == pytest.approx(params.data_rate, rel=1e-12)


# --- packet_drop_rate -----------------------------------------------------

def test_drop_rate_worked():
    assert packet_drop_rate(10, 20, 5.0) == pytest.approx(6.0)
    assert packet_drop_rate(7, 0, 7.0) == pytest.approx(1.0)


def test_drop_rate_no_packets():
    assert packet_drop_rate(0, 0, 1.0) == 0.0


def test_drop_rate_rejects_bad_time():
    with pytest.raises(NonPositiveTimeError):
        packet_drop_rate(1, 1, 0.0)
    with pytest.raises(NonPositiveTimeError):
        packet_drop_rate(1, 1, -2.0)


def test_drop_rate_rejects_negative_counts():
    with pytest.raises(InvalidParameterError):
        packet_drop_rate(-1, 0, 1.0)
