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


def _block_moments(y: np.ndarray) -> tuple:
    """``(count, mean, M2)`` of one block, ``M2 = sum((y - mean)^2)``; overwrites ``y``.

    Finite values whose sum leaves the float range give an inf or NaN moment,
    which the caller reports; the sampler keeps numpy from warning.
    """
    mean = y.mean()
    y -= mean
    return len(y), mean, np.square(y, out=y).sum()


def _pooled(blocks: list) -> tuple:
    """Sample mean and its standard error from per-block ``(count, mean, M2)``, in block order.

    The pairwise update of Chan, Golub & LeVeque (Am. Stat. 37, 1983):
    ``M2 = sum M2_b + sum n_b*(m_b - mean)^2``, so no per-sample array is
    needed. An inf or NaN block moment, or a sum past the float range,
    propagates to the result without a numpy warning.
    """
    counts, means, m2s = (np.array(column) for column in zip(*blocks))
    n = counts.sum()
    with np.errstate(over="ignore", invalid="ignore"):
        mean = (counts * means).sum() / n
        m2 = m2s.sum() + (counts * (means - mean) ** 2).sum()
    return float(mean), math.sqrt(m2 / (n - 1)) / math.sqrt(n)


def _shifted_power_sums(y: np.ndarray, shift: float) -> tuple:
    """``(count, sum a, sum a^2, sum a^3, sum a^4)`` of one block, ``a = y - shift``.

    Leaves ``a`` in ``y``. For ``y >= 0`` and a finite ``shift >= 0``, ``a``
    is finite where ``y`` is and equals it where it is inf or NaN; the sum of
    ``a`` is finite only if every ``a`` is. An inf or NaN sum is left to the
    caller, as in ``_block_moments``.
    """
    y -= shift
    square = y * y
    return (len(y), y.sum(), square.sum(), (square * y).sum(),
            np.square(square, out=square).sum())


def _controlled(sums: list, shift: float) -> tuple | None:
    """Mean of ``y >= 0`` and its standard error, with the control ``c = y^2`` of mean ``shift^2``.

    ``sums`` holds each block's ``_shifted_power_sums``, which add up over the
    blocks. With ``a = y - shift`` and ``d = c - shift^2 = a^2 + 2*shift*a``,
    the centred sums are ``S_yy = sum a^2 - n*abar^2``, ``S_yc = sum a*d -
    n*abar*dbar`` and ``S_cc = sum d^2 - n*dbar^2``. The estimate is ``ybar -
    beta*dbar`` with ``beta = S_yc/S_cc``, and its standard error is
    ``sqrt((S_yy - beta*S_yc)/(n - 2)/n)`` (Glasserman, *Monte Carlo Methods
    in Financial Engineering*, 2004, 4.1). No centring pass is needed: as
    ``a >= -shift``, the power sums in ``sum a*d`` and ``sum d^2`` cancel by
    at most factors 3 and 9, and while ``cbar`` is near ``shift^2``,
    ``n*abar^2`` is about ``S_yy`` at most.

    None, for the caller to take the plain mean, where the sums give no
    usable beta: where a block sum, their total, ``S_yc``, ``S_cc`` or the
    result is not finite, or ``S_cc <= sum d^2/2``. The last means that
    ``cbar`` misses ``shift^2`` by at least the sample deviation of ``c``,
    which is sqrt(n) standard errors; identical samples, whose ``S_cc`` is
    rounding, give it.
    """
    columns = list(zip(*sums))
    if not all(math.isfinite(total) for column in columns[1:] for total in column):
        return None
    try:
        n, s1, s2, s3, s4 = (math.fsum(column) for column in columns)
    except OverflowError:  # finite block sums whose total leaves the float range
        return None
    abar, dbar = s1 / n, (s2 + 2.0 * shift * s1) / n
    sum_d2 = s4 + 4.0 * shift * (s3 + shift * s2)
    s_yc, s_cc = s3 + 2.0 * shift * s2 - s1 * dbar, sum_d2 - n * dbar * dbar
    if not (math.isfinite(s_yc) and s_cc > 0.5 * sum_d2):  # false for an inf or NaN S_cc
        return None
    beta = s_yc / s_cc
    residual = s2 - s1 * abar - beta * s_yc
    mean, se = shift + (abar - beta * dbar), math.sqrt(max(residual, 0.0) / (n - 2) / n)
    return (mean, se) if math.isfinite(mean) and math.isfinite(se) else None


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
    """Ito drift of V(X)e^{sign*r*t} at x; derivatives by central differences of step 1e-3."""
    check("r", r)
    check("sigma", sigma, "nonnegative")
    check("t", t, "nonnegative")
    diffusion = check("diffusion sigma^2/2", 0.5 * sigma * sigma)
    dg = delta_gamma(v, x, _H)
    s = sign.factor
    return _time_weight(s, r, t) * (s * r * float(v(x)) + r * dg.delta + diffusion * dg.gamma)


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
    mean or scale ``sigma*sqrt(t)`` leaves the float range is refused by name
    before sampling, and finite samples whose pooled mean or standard error
    overflows are refused after it.

    For an ``ExponentialSolution`` with light tails, the estimate uses the
    control variate c = Y^2, whose mean w^2*E[V(X)^2], w = e^{sign*r*t}, is
    exact: it is ``|Y|bar - beta*(cbar - E c)`` with ``beta = S_yc/S_cc``
    fitted on the same samples, and its standard error is ``sqrt((S_yy -
    beta*S_yc)/(n - 2)/n)``. Fitting beta leaves a bias of O(1/n), against a
    standard error of O(1/sqrt(n)). At 1e6 samples the variance falls about
    20-fold on the sine modes and 30- to 70-fold on the full forms of
    ``drift_lab``. Light tails means ``(a*s)^2 <= ln(2)/4`` for ``a`` the
    largest |Re| of the roots and ``s = sigma*sqrt(t)``: the envelope
    e^{2aX} of c then has a relative variance of at most 1. Heavier tails
    leave too few large samples to fit beta on, and bias it.

    Any other callable, a heavier tail, or an E[Y^2] out of the float range
    gets the plain sample mean. So does a closed form whose pooled sums give
    no usable beta (see ``_controlled``): its samples are drawn again from
    the same seed, so its witness is the plain one bit for bit, at twice the
    cost.
    """
    n_samples = check("n_samples", n_samples, "count", _MIN_SAMPLES)
    law = exact_marginal(p, t)
    check("x0 + mu*t", law.mean)
    check("sigma*sqrt(t)", law.std)
    weight = _time_weight(sign.factor, p.r, t)
    shift = None  # sqrt(E[Y^2]) of a light-tailed closed form, where it is in the float range
    if isinstance(v, ExponentialSolution):
        growth = max(abs(v.roots.root1.real), abs(v.roots.root2.real)) * law.std
        mean_square = v._mean_square(law.mean, law.std) if growth * growth <= _LIGHT_TAIL else None
        if mean_square is not None and math.isfinite((weight * weight) * mean_square):
            shift = weight * math.sqrt(mean_square)

    def refuse_non_finite(start, x, y):
        if not np.all(np.isfinite(y)):
            bad = int(np.flatnonzero(~np.isfinite(y))[0])
            raise NonFiniteSampleError(
                f"non-finite |Y| sample at index {start + bad}: payoff evaluated to "
                f"{y[bad]!r} at X = {float(x[bad, 0])!r}"
            )

    def absolute(x):
        return np.abs(np.asarray(v(x[:, 0]), dtype=float) * weight)

    def moments(start, x):
        y = absolute(x)
        refuse_non_finite(start, x, y)
        return _block_moments(y)

    def power_sums(start, x):
        y = absolute(x)
        sums = _shifted_power_sums(y, shift)
        if not math.isfinite(sums[1]):  # an inf or NaN sample, or finite ones whose sum overflows
            refuse_non_finite(start, x, y)
        return sums

    def blocks(reduce):
        return _gaussian_blocks(seed, n_samples, np.array([law.std]), law.mean, reduce)

    controlled = None if shift is None else _controlled(blocks(power_sums), shift)
    mean, se = _pooled(blocks(moments)) if controlled is None else controlled
    if not (math.isfinite(mean) and math.isfinite(se)):
        raise NonFiniteSampleError(
            f"non-finite pooled |Y| statistics: mean_abs={mean!r}, standard_error={se!r}"
        )
    bound = None
    if isinstance(v, ExponentialSolution) and v.roots.root1.real == 0.0 and v.wavenumber != 0.0:
        bound = (abs(v.coef1) + abs(v.coef2)) * _time_weight(1.0, abs(p.r), t)
    return IntegrabilityWitness(mean_abs=mean, standard_error=se, analytic_bound=bound)
