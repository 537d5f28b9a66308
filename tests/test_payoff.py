import math
import warnings

import numpy as np
import pytest

from bachelier_lab import (
    DiscountSign,
    MoneynessState,
    ValidationError,
    call_payoff,
    discounted_value,
    moneyness,
    put_payoff,
)

# Frozen from 30-digit evaluation of 5*e^{-0.05} and 5*e^{+0.05}.
DISCOUNTED_MINUS = 4.75614712250357
DISCOUNTED_PLUS = 5.2563554818801202


def test_call_payoff_examples():
    assert call_payoff(105.0, 100.0) == 5.0
    assert call_payoff(100.0, 100.0) == 0.0
    assert call_payoff(95.0, 100.0) == 0.0


def test_put_payoff_examples():
    assert put_payoff(95.0, 100.0) == 5.0
    assert put_payoff(100.0, 100.0) == 0.0
    assert put_payoff(105.0, 100.0) == 0.0


def test_payoffs_reject_non_positive_strike():
    with pytest.raises(ValidationError, match="strike"):
        call_payoff(1.0, 0.0)
    with pytest.raises(ValidationError, match="strike"):
        put_payoff(1.0, -2.0)


def test_call_put_complementarity_exact_on_sweep():
    strike = 100.0
    xs = np.linspace(50.0, 150.0, 1001)  # includes the strike itself
    assert np.array_equal(call_payoff(xs, strike) - put_payoff(xs, strike), xs - strike)


def test_exactly_one_side_nonzero_off_the_money():
    strike = 100.0
    xs = np.linspace(50.0, 150.0, 1001)
    calls = call_payoff(xs, strike)
    puts = put_payoff(xs, strike)
    off = xs != strike
    assert np.all((calls[off] > 0) ^ (puts[off] > 0))
    at = xs == strike
    assert at.any()
    assert np.all(calls[at] == 0.0) and np.all(puts[at] == 0.0)


def test_discounted_value_examples():
    assert discounted_value(5.0, 0.05, 1.0) == pytest.approx(DISCOUNTED_MINUS, abs=1e-12)
    assert discounted_value(5.0, 0.05, 1.0, DiscountSign.PLUS) == pytest.approx(
        DISCOUNTED_PLUS, abs=1e-12
    )
    assert discounted_value(5.0, 0.37, 0.0) == 5.0
    assert discounted_value(5.0, 0.37, 0.0, DiscountSign.PLUS) == 5.0


def test_discounted_value_rejects_negative_time():
    with pytest.raises(ValidationError, match="t"):
        discounted_value(1.0, 0.05, -1.0)


def test_discounted_value_rejects_an_overflowing_weight():
    with pytest.raises(ValidationError, match="time weight"):
        discounted_value(1.0, 1e300, 1.0, DiscountSign.PLUS)
    assert discounted_value(1.0, 1e300, 1.0) == 0.0  # underflow to 0 is finite


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_price_or_value_is_refused_by_name(bad):
    for payoff in (call_payoff, put_payoff):
        with pytest.raises(ValidationError, match="x must be finite"):
            payoff(bad, 1.0)
        with pytest.raises(ValidationError, match="x must be finite, got .* at index 1"):
            payoff(np.array([1.0, bad]), 1.0)
    with pytest.raises(ValidationError, match="value must be finite"):
        discounted_value(bad, 0.05, 1.0)


def test_results_past_the_float_range_are_refused_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="put payoff strike - x must be finite"):
            put_payoff(np.array([0.0, -1.7e308]), 1.7e308)
        # x - strike overflows to -inf only where the call is worth 0.
        assert call_payoff(np.array([-1.7e308]), 1.7e308).tolist() == [0.0]
        with pytest.raises(ValidationError, match="discounted value must be finite"):
            discounted_value(np.array([1.0, 1e308]), -1.0, 1.0)
        # r*t is already -inf, and math.exp(inf) returns inf without raising.
        with pytest.raises(ValidationError, match="time weight"):
            discounted_value(1.0, -1e200, 1e154)


def test_discount_conventions_are_multiplicative_inverses():
    rng = np.random.default_rng(8)
    for r, t in zip(rng.uniform(-1, 1, 1000), rng.uniform(0, 10, 1000)):
        v = 3.7
        back = discounted_value(discounted_value(v, r, t, DiscountSign.PLUS), r, t)
        assert abs(back - v) <= 1e-15 * abs(v)
        assert discounted_value(1.0, r, t, DiscountSign.PLUS) * discounted_value(
            1.0, r, t, DiscountSign.MINUS
        ) == pytest.approx(1.0, rel=1e-15)


def test_moneyness_examples():
    assert moneyness(101.0, 100.0, 1e-9) is MoneynessState.DEEP_IN_THE_MONEY
    assert moneyness(100.0, 100.0, 1e-9) is MoneynessState.AT_THE_MONEY
    assert moneyness(99.0, 100.0, 1e-9) is MoneynessState.DEEP_OUT_OF_THE_MONEY


def test_moneyness_letters():
    assert moneyness(101.0, 100.0, 1e-9).letter == "a"
    assert moneyness(100.0, 100.0, 1e-9).letter == "b"
    assert moneyness(99.0, 100.0, 1e-9).letter == "c"


def test_moneyness_is_monotone_with_tolerance_band():
    strike, tol = 100.0, 0.5
    xs = np.linspace(strike - 2.0, strike + 2.0, 801)
    states = [moneyness(float(x), strike, tol) for x in xs]
    # c below, b inside the band (inclusive), a above; no overlaps.
    for x, state in zip(xs, states):
        if x > strike + tol:
            assert state is MoneynessState.DEEP_IN_THE_MONEY
        elif x < strike - tol:
            assert state is MoneynessState.DEEP_OUT_OF_THE_MONEY
        else:
            assert state is MoneynessState.AT_THE_MONEY
    order = [MoneynessState.DEEP_OUT_OF_THE_MONEY, MoneynessState.AT_THE_MONEY,
             MoneynessState.DEEP_IN_THE_MONEY]
    assert sorted(set(states), key=order.index) == order
    assert moneyness(strike + tol, strike, tol) is MoneynessState.AT_THE_MONEY
    assert moneyness(strike - tol, strike, tol) is MoneynessState.AT_THE_MONEY


def test_moneyness_rejects_bad_tolerance():
    with pytest.raises(ValidationError, match="tol"):
        moneyness(100.0, 100.0, 0.0)
