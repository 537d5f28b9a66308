"""Quantized rate ladder from the at-the-money boundary condition.

Requiring the oscillatory hedged-form solution A*sin(sqrt(r/D)*x) to vanish
at the strike K pins the wavenumber to integer multiples of pi/K, exactly as
a standing wave confined to [0, K]. Only a discrete ladder of rates survives:

    r_n = (sigma^2 / (2*K^2)) * n^2 * pi^2,   n = 1, 2, ...

This module builds that ladder, inverts it, normalizes the mode amplitude so
the squared profile integrates to one over [0, K], and tabulates the
time-weighted payoff surface.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ValidationError, check
from .ode import _wavenumber
from .payoff import DiscountSign


def quantized_rate(n: int, sigma: float, strike: float) -> float:
    """Rate of mode ``n``: (sigma^2/(2*K^2)) * n^2 * pi^2.

    n = 0 is computable but degenerate (zero rate, identically zero payoff)
    and triggers a warning; negative n is rejected since it only flips the
    sign of the mode amplitude.
    """
    check("sigma", sigma, "positive")
    check("strike", strike, "positive")
    if check("n", n, "integer", 0) == 0:
        warnings.warn("mode n=0 is degenerate: rate 0 and identically zero payoff")
        return 0.0
    # 2*strike^2 is 0 or inf for a strike outside about [1e-162, 1e154].
    denominator = check("2*strike^2", 2.0 * strike * strike, "positive")
    return check("r_n", (sigma * sigma / denominator) * n * n * math.pi * math.pi)


@dataclass(frozen=True)
class ModeSpec:
    """Quantized mode n on the strike interval [0, K]."""

    n: int
    sigma: float
    strike: float

    def __post_init__(self):
        check("n", self.n, "integer", 1)
        check("sigma", self.sigma, "positive")
        check("strike", self.strike, "positive")

    @property
    def rate(self) -> float:
        return quantized_rate(self.n, self.sigma, self.strike)

    @property
    def wavenumber(self) -> float:
        return self.n * math.pi / self.strike


@dataclass(frozen=True)
class RateSpectrum:
    """Modes n = 1..n_max for fixed volatility and strike."""

    modes: tuple[ModeSpec, ...]

    @classmethod
    def build(cls, sigma: float, strike: float, n_max: int) -> "RateSpectrum":
        n_max = check("n_max", n_max, "count", 1)
        modes = tuple(ModeSpec(n=n, sigma=sigma, strike=strike) for n in range(1, n_max + 1))
        return cls(modes=modes)

    def __iter__(self):
        return iter(self.modes)


def mode_index(r: float, sigma: float, strike: float, rel_tol: float) -> tuple[int, bool]:
    """Nearest mode index for a rate, and whether the rate sits on the ladder.

    Inverts the ladder via n = sqrt(2*r*K^2/sigma^2)/pi, rounds to the
    nearest integer (at least 1), and accepts iff the rounded mode's rate is
    within ``rel_tol`` relative error of ``r``.
    """
    check("r", r, "positive")
    check("sigma", sigma, "positive")
    check("strike", strike, "positive")
    check("rel_tol", rel_tol, "positive")
    sigma_sq = check("sigma^2", sigma * sigma, "positive")
    n_exact = check("mode index sqrt(2*r*K^2/sigma^2)/pi",
                    math.sqrt(2.0 * r * strike * strike / sigma_sq) / math.pi)
    n_star = max(1, round(n_exact))
    admissible = abs(quantized_rate(n_star, sigma, strike) - r) <= rel_tol * r
    return n_star, admissible


def boundary_residual(n: int, sigma: float, strike: float) -> float:
    """|sin(sqrt(r_n/D)*K)|: the computable witness that mode n vanishes at K."""
    check("n", n, "integer", 1)
    return abs(math.sin(_wavenumber(quantized_rate(n, sigma, strike), sigma) * strike))


class IntegralMethod(str, Enum):
    CLOSED_FORM = "closed_form"
    QUADRATURE = "quadrature"


_MAX_PANELS = 100_000  # quadrature panels of 20 nodes: 16 MB per array of nodes


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """The 20-point Gauss-Legendre nodes and weights on [-1, 1], at first use only."""
    return np.polynomial.legendre.leggauss(20)


@dataclass(frozen=True)
class NormalizationResult:
    """Amplitude making the squared profile integrate to one over [0, K]."""

    amplitude: float
    integral: float
    estimated_error: float


def normalization_constant(
    r: float,
    sigma: float,
    strike: float,
    method: IntegralMethod = IntegralMethod.CLOSED_FORM,
) -> NormalizationResult:
    """Normalization amplitude A = (integral_0^K sin^2(a*x) dx)^(-1/2), a = sqrt(r/D).

    The integral is computed in closed form: the antiderivative
    K/2 - sin(2*a*K)/(4*a), which cancels as u = 2*a*K goes to 0; below u = 1
    it is summed instead as (K/2)*(1 - sin(u)/u) = (K/2)*(u^2/3! - u^4/5! + ...).
    On the rate ladder the sine term vanishes and A = sqrt(2/K) exactly.
    ``IntegralMethod.QUADRATURE`` reports an independent composite rule
    instead: 20-point Gauss-Legendre on each of ceil(a*K/pi) panels, one per
    period of sin^2, refused by name past 100,000 panels. The estimated
    error is the reported integral's distance from the closed form: 0 for
    the closed form itself.
    """
    check("r", r, "positive")
    check("sigma", sigma, "positive")
    check("strike", strike, "positive")
    a = _wavenumber(r, sigma)
    u = check("2*wavenumber*strike", 2.0 * a * strike)
    if u < 1.0:
        # Nested from the tail: u^2/3! * (1 - u^2/(4*5) * (1 - u^2/(6*7) * (...))).
        series = 1.0
        for k in range(11, 1, -1):
            series = 1.0 - series * u * u / ((2 * k) * (2 * k + 1))
        closed = 0.5 * strike * (u * u / 6.0) * series
    else:
        closed = 0.5 * strike - math.sin(2.0 * a * strike) / (4.0 * a)
    value = closed
    if method is IntegralMethod.QUADRATURE:
        n_panels = max(1, math.ceil(a * strike / math.pi))
        if n_panels > _MAX_PANELS:
            raise ValidationError(f"quadrature needs ceil(wavenumber*strike/pi) = {n_panels} "
                                  f"panels, over the cap of {_MAX_PANELS}; use the closed form")
        nodes, weights = _gauss_legendre()
        h = strike / n_panels
        x = (np.arange(n_panels)[:, None] + 0.5 * (nodes + 1.0)) * h
        value = 0.5 * h * float((np.sin(a * x) ** 2 @ weights).sum())
    check("normalization integral", value, "positive")
    return NormalizationResult(
        amplitude=value ** -0.5,
        integral=value,
        estimated_error=abs(value - closed),
    )


@dataclass(frozen=True)
class PayoffSurface:
    """Tabulated Y(x, t) = amplitude*sin(a_n*x)*e^{sign*r_n*t} on a grid.

    ``values[i, j]`` holds Y(x[i], t[j]). Points beyond [0, K] are
    tabulated too: the profile is defined there but not normalized.
    """

    x: np.ndarray
    t: np.ndarray
    values: np.ndarray


def payoff_surface(
    mode: ModeSpec,
    amplitude: float,
    x_grid,
    t_grid,
    sign: DiscountSign = DiscountSign.PLUS,
) -> PayoffSurface:
    """Rectangular table of the time-weighted mode payoff.

    The growth convention (PLUS) reproduces the oscillatory surface as
    written in the closed form; MINUS applies standard discounting instead.
    """
    check("amplitude", amplitude, "positive")
    x = check("x grid", np.atleast_1d(np.asarray(x_grid, dtype=float)))
    t = check("t grid", np.atleast_1d(np.asarray(t_grid, dtype=float)), "nonnegative")
    rate = mode.rate  # refuses a strike whose ladder leaves the float range, before any sine
    with np.errstate(over="ignore"):
        profile = amplitude * np.sin(check("phase n*pi*x/K", mode.wavenumber * x))
        weight = check("time weight e^{sign*r_n*t}", np.exp(sign.factor * rate * t))
        values = check("surface Y(x, t)", profile[:, None] * weight[None, :])
    return PayoffSurface(x=x, t=t, values=values)
