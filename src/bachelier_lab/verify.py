"""Monte Carlo drift laboratory for the weighted payoff process.

For a payoff profile V and the additive price model, the process
Y(t) = V(X(t)) * e^{sign*r*t} has the one-step Ito drift

    e^{sign*r*t} * (sign*r*V(x) + r*V'(x) + (sigma^2/2)*V''(x)).

This module estimates that drift by one-step Monte Carlo from a fixed state
(exploiting the exactness of the Gaussian one-step law), compares it to the
finite-difference analytic value, and classifies the process as consistent
with a martingale, a strict supermartingale, or neither, at a caller-chosen
z threshold. Nothing here asserts which holds; it measures.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from enum import Enum

import numpy as np

from .errors import NonFiniteSampleError, check
from .model import ModelParams, _gaussian_blocks, exact_marginal
from .ode import ExponentialSolution, delta_gamma
from .payoff import DiscountSign, _time_weight


_MIN_SAMPLES = 1000
_MAX_DT = 1e-2
_H = 1e-3  # central-difference step of the analytic drift
# The control c = Y^2 of a closed form grows like e^{2aX}, a the largest |Re lambda|,
# whose relative variance is e^{4a^2s^2} - 1. Past 1, that is (a*s)^2 > ln(2)/4, the
# fitted beta is biased by the samples' missing tail: at a*s = 0.5 and 1000 samples
# the witnesses of a full form sat +0.7 standard errors off on average.
_LIGHT_TAIL = math.log(2.0) / 4.0


def _block_moments(y: np.ndarray, c: np.ndarray | None = None) -> tuple:
    """``(count, ybar, S_yy)`` of one block, ``S_yy = sum((y - ybar)^2)``; overwrites ``y``.

    With a control column ``c``, also ``(cbar, S_yc, S_cc)``, each column
    centred on its own mean; overwrites ``c`` too. A sum past the float range
    gives an inf or NaN moment for the caller to report; the sampler silences numpy.
    """
    mean = y.mean()
    y -= mean
    if c is None:
        return len(y), mean, np.square(y, out=y).sum()
    c_mean = c.mean()
    c -= c_mean
    s_yc = (y * c).sum()
    return len(y), mean, np.square(y, out=y).sum(), c_mean, s_yc, np.square(c, out=c).sum()


def _pooled(blocks: list, e_c: float | None = None) -> tuple:
    """Mean of ``y`` and its standard error from per-block ``_block_moments``, in block order.

    Blocks pool by the update of Chan, Golub & LeVeque (Am. Stat. 37, 1983),
    ``S_ab = sum S_ab_b + sum n_b*(a_b - abar)*(b_b - bbar)``, so no per-sample
    array is needed; an inf or NaN propagates without a numpy warning. With
    ``e_c``, the exact mean of the control column ``c``, the estimate is
    ``ybar - beta*(cbar - e_c)``, ``beta = S_yc/S_cc``, with the standard error
    ``sqrt((S_yy - beta*S_yc)/(n - 2)/n)`` (Glasserman, *Monte Carlo Methods in
    Financial Engineering*, 2004, 4.1). The control is dropped, for the plain
    result, where a pooled value or the result is not finite, or ``S_cc <=
    n*(cbar - e_c)^2``: ``cbar`` then misses ``e_c`` by sqrt(n) standard errors
    or more, as it does for identical samples, whose ``S_cc`` is rounding.
    """
    counts, means, m2s, *control = (np.array(column) for column in zip(*blocks))
    n = counts.sum()
    with np.errstate(all="ignore"):
        mean = (counts * means).sum() / n
        dy = means - mean
        m2 = m2s.sum() + (counts * dy ** 2).sum()
        plain = float(mean), math.sqrt(m2 / (n - 1)) / math.sqrt(n)
        if e_c is None:
            return plain
        c_means, s_yc, s_cc = control
        c_bar = (counts * c_means).sum() / n
        dc = c_means - c_bar
        s_yc = s_yc.sum() + (counts * (dy * dc)).sum()
        s_cc = s_cc.sum() + (counts * (dc * dc)).sum()
        gap, beta = c_bar - e_c, s_yc / s_cc
        mean, se = mean - beta * gap, math.sqrt(max(m2 - beta * s_yc, 0.0) / (n - 2) / n)
        # An inf or NaN c_bar or e_c, or an S_cc of 0, fails the first test.
        usable = s_cc > n * gap * gap and all(map(math.isfinite, (m2, s_yc, s_cc, mean, se)))
    return (float(mean), se) if usable else plain


@dataclass(frozen=True)
class DriftReport:
    """One-step Monte Carlo drift estimate with its analytic counterpart."""

    x0: float
    t: float
    dt: float
    n_samples: int
    estimated_drift_rate: float
    standard_error: float
    analytic_drift_rate: float
    z_score: float
    sign_convention: DiscountSign
    degenerate: bool = False

    def to_dict(self) -> dict:
        """The fields in declared order; the z-score is None where it is undefined (se = 0)."""
        return {**asdict(self), "z_score": None if self.degenerate else self.z_score,
                "sign_convention": self.sign_convention.value}


class DriftClass(str, Enum):
    CONSISTENT_WITH_MARTINGALE = "consistent_with_martingale"
    SUPERMARTINGALE_STRICT = "supermartingale_strict"
    VIOLATES_SUPERMARTINGALE = "violates_supermartingale"


@dataclass(frozen=True)
class MartingaleVerdict:
    classification: DriftClass


def analytic_drift(
    v,
    r: float,
    sigma: float,
    x: float,
    t: float,
    sign: DiscountSign = DiscountSign.PLUS,
) -> float:
    """Ito drift of V(X)e^{sign*r*t} at x; derivatives by central differences of step 1e-3.

    A drift past the float range is refused by name.
    """
    check("r", r)
    check("sigma", sigma, "nonnegative")
    check("t", t, "nonnegative")
    diffusion = check("diffusion sigma^2/2", 0.5 * sigma * sigma)
    dg = delta_gamma(v, x, _H)
    s = sign.factor
    drift = s * r * float(v(x)) + r * dg.delta + diffusion * dg.gamma
    return check("analytic drift", _time_weight(s, r, t) * drift)


def drift_estimate(
    v,
    p: ModelParams,
    x0: float,
    t: float,
    dt: float,
    n_samples: int,
    seed: int,
    sign: DiscountSign = DiscountSign.PLUS,
) -> DriftReport:
    """Estimate the conditional drift of Y = V(X)e^{sign*r*t} from state x0.

    Draws X(t+dt) = x0 + mu*dt + sigma*sqrt(dt)*Z exactly (Gaussian one-step
    law), averages the per-sample increment of Y divided by dt, and reports
    the standard error together with the analytic drift (central differences
    of step 1e-3) and the z-score of their difference. The samples come from
    ``model._gaussian_blocks`` and their block moments are pooled by
    ``_pooled``, so the estimate is a function of ``seed`` alone.

    Parameters
    ----------
    v : callable
        Payoff profile; must accept numpy arrays, and is called from several
        threads at once, each call on its own array.
    p : ModelParams
        Supplies rate, volatility, and drift. ``p.x0`` is ignored; the probe
        state ``x0`` is explicit.
    x0, t : float
        Probe state and time.
    dt : float
        One-step horizon, at most 1e-2. The difference quotient carries an
        O(dt) bias that does not shrink with ``n_samples``: on sine mode n=3
        at x0 = K/2, with dt = 1e-3 and 1e6 samples, it is about 50 standard
        errors, so a large z there does not by itself refute the analytic
        drift.
    n_samples : int
        At least 1000.
    seed : int
        Master seed (64-bit unsigned).
    sign : DiscountSign
        Exponential weight convention for Y.
    """
    check("dt", dt, "positive", most=_MAX_DT)
    n_samples = check("n_samples", n_samples, "count", _MIN_SAMPLES)
    check("x0", x0)
    check("t", t, "nonnegative")

    s = sign.factor
    w_next = _time_weight(s, p.r, t + dt)
    step_mean = x0 + p.mu * dt
    step_scale = p.sigma * math.sqrt(dt)
    # A profile that overflows surfaces through the V(x0) check, or through an
    # inf or NaN estimate that classify rejects; numpy need not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        y_now = check("payoff V(x0)", float(v(x0))) * _time_weight(s, p.r, t)
        analytic = analytic_drift(v, p.r, p.sigma, x0, t, sign)
        if p.sigma == 0.0:
            # Every sample is the same deterministic difference quotient.
            mean = (float(v(step_mean)) * w_next - y_now) / dt
            se = 0.0
        else:
            def rate(_, x):
                dy = np.asarray(v(x[:, 0]), dtype=float) * w_next - y_now
                return _block_moments(dy / dt)

            mean, se = _pooled(
                _gaussian_blocks(seed, n_samples, np.array([step_scale]), step_mean, rate))
    z_score = (mean - analytic) / se if se > 0 else math.nan
    return DriftReport(
        x0=x0,
        t=t,
        dt=dt,
        n_samples=n_samples,
        estimated_drift_rate=mean,
        standard_error=se,
        analytic_drift_rate=analytic,
        z_score=z_score,
        sign_convention=sign,
        degenerate=se == 0.0,
    )


def classify(report: DriftReport, z_threshold: float = 3.0) -> MartingaleVerdict:
    """Classify the measured drift against zero at the given z threshold."""
    check("z_threshold", z_threshold, "positive")
    est = report.estimated_drift_rate
    se = report.standard_error
    if not (math.isfinite(est) and math.isfinite(se)):
        raise NonFiniteSampleError(
            f"cannot classify a non-finite drift estimate: estimate={est!r}, se={se!r}"
        )
    if se > 0:
        z = est / se
    else:
        z = 0.0 if est == 0.0 else math.copysign(math.inf, est)
    if abs(z) <= z_threshold:
        cls = DriftClass.CONSISTENT_WITH_MARTINGALE
    elif z < 0:
        cls = DriftClass.SUPERMARTINGALE_STRICT
    else:
        cls = DriftClass.VIOLATES_SUPERMARTINGALE
    return MartingaleVerdict(classification=cls)


@dataclass(frozen=True)
class IntegrabilityWitness:
    """Monte Carlo evidence that E|Y(t)| is finite."""

    mean_abs: float
    standard_error: float
    analytic_bound: float | None = None


def integrability_check(
    v,
    p: ModelParams,
    t: float,
    n_samples: int,
    seed: int,
    sign: DiscountSign = DiscountSign.PLUS,
) -> IntegrabilityWitness:
    """Estimate E|V(X(t))e^{sign*r*t}| and abort on any non-finite sample.

    For a purely oscillatory closed form, an ``ExponentialSolution`` over
    roots +/- i*b such as the sine mode, the bound (|coef1| + |coef2|)*e^{|r|t}
    is attached as well; it holds for every t regardless of the sample. The
    profile ``v`` is called as in ``drift_estimate``. The first non-finite
    sample is reported by its index, whatever the thread count. A law whose
    mean or scale leaves the float range is refused by ``exact_marginal``
    before sampling, and finite samples whose pooled mean or standard error
    overflows are refused after it.

    For an ``ExponentialSolution`` with light tails, the estimate regresses
    |Y| on the control c = Y^2, whose mean w^2*E[V(X)^2], w = e^{sign*r*t},
    is exact (see ``_pooled``). Fitting beta on the same samples leaves a
    bias of O(1/n), against a standard error of O(1/sqrt(n)). At 1e6 samples
    the variance falls about 20-fold on the sine modes and 30- to 70-fold on
    the full forms of ``drift_lab``. Light tails means ``(a*s)^2 <= ln(2)/4``
    for ``a`` the largest |Re| of the roots and ``s = sigma*sqrt(t)``: the
    envelope e^{2aX} of c then has a relative variance of at most 1. Heavier
    tails leave too few large samples to fit beta on, and bias it.

    Any other callable, a heavier tail, an E[Y^2] out of the float range, or
    pooled moments that give no usable beta get the plain sample mean, from
    the blocks of the same single draw.
    """
    n_samples = check("n_samples", n_samples, "count", _MIN_SAMPLES)
    law = exact_marginal(p, t)
    weight = _time_weight(sign.factor, p.r, t)
    e_c = bound = None  # E[Y^2] of a light-tailed closed form; _pooled drops an inf one
    if isinstance(v, ExponentialSolution):
        growth = max(abs(v.roots.root1.real), abs(v.roots.root2.real)) * law.std
        mean_square = v._mean_square(law.mean, law.std) if growth * growth <= _LIGHT_TAIL else None
        if mean_square is not None:
            e_c = (weight * weight) * mean_square
        if v.roots.root1.real == 0.0 and v.wavenumber != 0.0:
            bound = (abs(v.coef1) + abs(v.coef2)) * _time_weight(1.0, abs(p.r), t)

    def absolute(x):
        return np.abs(np.asarray(v(x[:, 0]), dtype=float) * weight)

    def moments(start, x):
        y = absolute(x)
        block = _block_moments(y, None if e_c is None else y * y)
        if not math.isfinite(block[1]):  # an inf or NaN |Y|, or finite ones whose sum overflows
            y = absolute(x)
            bad = np.flatnonzero(~np.isfinite(y))
            if bad.size:
                raise NonFiniteSampleError(
                    f"non-finite |Y| sample at index {start + bad[0]}: payoff evaluated to "
                    f"{float(y[bad[0]])!r} at X = {float(x[bad[0], 0])!r}"
                )
        return block

    blocks = _gaussian_blocks(seed, n_samples, np.array([law.std]), law.mean, moments)
    mean, se = _pooled(blocks, e_c)
    if not (math.isfinite(mean) and math.isfinite(se)):
        raise NonFiniteSampleError(
            f"non-finite pooled |Y| statistics: mean_abs={mean!r}, standard_error={se!r}"
        )
    return IntegrabilityWitness(mean_abs=mean, standard_error=se, analytic_bound=bound)
