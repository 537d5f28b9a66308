"""American call/put payoffs, moneyness states, and discounting conventions."""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .errors import ValidationError, check


class DiscountSign(str, Enum):
    """Sign of the rate in the exponential weight e^{sign * r * t}.

    MINUS is standard present-value discounting; PLUS applies the growth
    factor instead. Both are exposed so every downstream result can record
    which convention produced it.
    """

    PLUS = "plus"
    MINUS = "minus"

    @property
    def factor(self) -> float:
        return 1.0 if self is DiscountSign.PLUS else -1.0


class MoneynessState(str, Enum):
    DEEP_IN_THE_MONEY = "deep_in_the_money"
    AT_THE_MONEY = "at_the_money"
    DEEP_OUT_OF_THE_MONEY = "deep_out_of_the_money"

    @property
    def letter(self) -> str:
        """Conventional three-state label: a above, b at, c below the strike."""
        return {
            MoneynessState.DEEP_IN_THE_MONEY: "a",
            MoneynessState.AT_THE_MONEY: "b",
            MoneynessState.DEEP_OUT_OF_THE_MONEY: "c",
        }[self]


def call_payoff(x, strike: float):
    """Exercise value max(x - strike, 0) of a call; an inf or NaN price ``x`` is refused by name."""
    strike = check("strike", strike, "positive")
    with np.errstate(over="ignore"):  # x - strike overflows only where the value is 0
        return np.maximum(check("x", x) - strike, 0.0)


def put_payoff(x, strike: float):
    """Exercise value max(strike - x, 0) of a put.

    An inf or NaN price ``x``, or a value past the float range, is refused by name.
    """
    strike = check("strike", strike, "positive")
    with np.errstate(over="ignore"):
        return check("put payoff strike - x", np.maximum(strike - check("x", x), 0.0))


def moneyness(x: float, strike: float, tol: float) -> MoneynessState:
    """Classify a price as above, at, or below the strike within ``tol``."""
    check("x", x)
    check("strike", strike, "positive")
    check("tol", tol, "positive")
    if x > strike + tol:
        return MoneynessState.DEEP_IN_THE_MONEY
    if x < strike - tol:
        return MoneynessState.DEEP_OUT_OF_THE_MONEY
    return MoneynessState.AT_THE_MONEY


def discounted_value(value, r: float, t: float, sign: DiscountSign = DiscountSign.MINUS):
    """Apply the exponential weight e^{sign * r * t} to ``value``.

    An inf or NaN ``value``, or a weight or weighted value past the float
    range, is refused by name.
    """
    check("r", r)
    check("t", t, "nonnegative")
    with np.errstate(over="ignore"):
        return check("discounted value", check("value", value) * _time_weight(sign.factor, r, t))


def _time_weight(factor: float, r: float, t: float) -> float:
    """e^{factor*r*t}; a weight beyond the float range is rejected by name."""
    try:
        # math.exp(inf) is inf, not an OverflowError: any exponent past 710 overflows alike.
        return math.exp(min(factor * r * t, 710.0))
    except OverflowError:
        raise ValidationError(f"time weight e^(sign*r*t) overflows at r={r!r}, t={t!r}") from None
