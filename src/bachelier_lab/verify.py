"""Monte Carlo drift laboratory for the weighted payoff process.

For a payoff profile V and the additive price model, the process
Y(t) = V(X(t)) * e^{sign*r*t} has the one-step Ito drift

    e^{sign*r*t} * (sign*r*V(x) + mu*V'(x) + (sigma^2/2)*V''(x)),

where mu = r unless the drift is exploratory.

This module estimates that drift by one-step Monte Carlo from a fixed state
(exploiting the exactness of the Gaussian one-step law), compares it to the
finite-difference analytic value, and classifies the process as consistent
with a martingale, a strict supermartingale, or neither, at a caller-chosen
z threshold. Nothing here asserts which holds; it measures.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, replace
from enum import Enum

import numpy as np

from .errors import NonFiniteSampleError, check
from .model import _BLOCK, _TAIL, GaussianLaw, ModelParams, _gaussian_blocks, exact_marginal
from .ode import ExponentialSolution, _ito_drift
from .payoff import DiscountSign, _time_weight


_MIN_SAMPLES = 1000
_MAX_DT = 1e-2
_H = 1e-3  # central-difference step of the analytic drift
_MIN_REPLICATES = 32  # full stratified blocks from which their spread gives the standard error


def _block_moments(y: np.ndarray, centred: bool = True) -> tuple:
    """``(count, ybar, S_yy)`` of one block, ``S_yy = sum((y - ybar)^2)``; overwrites ``y``.

    A sum past the float range gives an inf or NaN moment for the caller to
    report; the sampler silences numpy. Where ``ybar`` is not finite, or
    ``centred`` is false, ``y`` is left as it is, for the caller to locate a
    bad sample in, and ``S_yy`` is NaN.
    """
    mean = y.mean()
    if not (centred and math.isfinite(mean)):
        return len(y), mean, math.nan
    y -= mean
    return len(y), mean, np.square(y, out=y).sum()


def _pooled(blocks: list, replicates: bool = False) -> tuple:
    """Mean of ``y``, its standard error and the sum of squares behind it, from ``_block_moments``.

    The blocks are pooled in block order. By default the samples are
    independent: the sum of squares is the pooled ``S_yy = sum S_yy_b +
    sum n_b*(ybar_b - ybar)^2`` of Chan, Golub & LeVeque (Am. Stat. 37,
    1983), so no per-sample array is needed, and the standard error is
    ``sqrt(S_yy/(n - 1))/sqrt(n)``.

    With ``replicates``, the blocks are stratified samples, whose samples
    are not independent, but whose full blocks are independent replicates.
    The sum of squares is then ``8192*sum((ybar_b - ybar_F)^2)`` over the F
    full blocks, ybar_F their mean, and the standard error
    ``sqrt(sum/(F - 1))/sqrt(n)``: the variance per sample that the spread
    of full-block means implies, over all n samples, so that a tail block
    counts by its rows. No ``S_yy_b`` is read. An inf or NaN propagates
    without a numpy warning.
    """
    counts, means, m2s = (np.array(column) for column in zip(*blocks))
    n = counts.sum()
    with np.errstate(all="ignore"):
        mean = (counts * means).sum() / n
        if replicates:
            full = means[counts == _BLOCK]
            m2, dof = _BLOCK * ((full - full.mean()) ** 2).sum(), full.size - 1
        else:
            m2, dof = m2s.sum() + (counts * (means - mean) ** 2).sum(), n - 1
    return float(mean), math.sqrt(m2 / dof) / math.sqrt(n), m2


def _sample_mean(sample, law: GaussianLaw, n_samples: int, seed: int,
                 stratified: bool = False) -> tuple:
    """Mean and standard error of ``sample(x)`` over ``n_samples`` draws ``x`` of ``law``.

    ``sample`` maps a vector of draws from ``model._gaussian_blocks``, with
    its ``stratified`` fill or not, to a new array of samples, whose
    ``_block_moments`` ``_pooled`` combines in block order: the result is a
    function of ``seed`` alone. In a stratified draw the sample of each end
    row, the row of stratum 0 or 8191 of its block, is the mean of
    ``sample`` over its own X and the 63 further draws of its stratum that
    the sampler makes after the join, one call per run of 64 blocks, which
    evaluates the own X again: the tails hold most of the variance. Each
    block's mean is moved by the change, and below 32 full blocks its
    ``S_yy`` too. The mean over 64 draws of the stratum has
    the expectation of one, so the mean is unbiased at every n, and a row's
    sample does not depend on n. A stratified draw of at least 32 full
    blocks takes its standard error from the spread of the block means, and
    forms no ``S_yy``; a smaller one, with too few replicates for a spread,
    takes the independent formula, which overstates it. Three rules hold:

    - Zero spread, ``law.std == 0``: one evaluation at ``law.mean``, with
      numpy silenced, and a standard error of exactly 0.
    - A block whose mean is not finite refuses its first inf or NaN sample
      by index, value and X, read from the samples already computed; the
      sampler raises the lowest failing block. An inf or NaN at a further
      draw of an end stratum is refused by the end row's index and the
      draw's X, in block order with the rest; a block fails first at its
      rows' samples, and only then, if they are finite, at the further
      draws of its end rows. Finite samples whose pooled
      statistics overflow are refused after pooling.
    - Deviations below about 1e-154 square to a subnormal or 0: a spread lost
      to rounding. Where the sum of squares behind the standard error lies
      below the smallest normal float and the mean is not 0, the draw is
      repeated once with every sample scaled by 2^k, k the negated exponent
      of the mean, and mean and standard error are scaled back by 2^-k,
      exactly. So a profile scaled by a power of two scales both by it, and
      a standard error of 0 is never a lost spread.
    """
    replicates = stratified and n_samples >= _MIN_REPLICATES * _BLOCK

    def refuse(index, y, x):
        raise NonFiniteSampleError(f"non-finite sample at index {index}: "
                                   f"{float(y)!r} at X = {float(x)!r}")

    def moments(start, x, k=0):
        x = x[:, 0]
        y = sample(x)
        if k:
            np.ldexp(y, k, out=y)
        block = _block_moments(y, not replicates)
        if not math.isfinite(block[1]):
            bad = np.flatnonzero(~np.isfinite(y))
            if bad.size:
                refuse(start + bad[0], y[bad[0]], x[bad[0]])
        return block

    if law.std == 0.0:
        with np.errstate(over="ignore", invalid="ignore"):
            return float(moments(0, np.full((1, 1), law.mean))[1]), 0.0

    def draw(k):
        def tails(blocks, first, rows, x):  # each end row's sample becomes the mean of its 64 draws
            if not rows.size:
                return blocks
            y = sample(x.ravel()).reshape(x.shape)
            if k:
                np.ldexp(y, k, out=y)
            finite = np.isfinite(y)
            if not finite.all():
                i = np.unravel_index(np.argmin(finite), y.shape)
                refuse(rows[i[0]], y[i], x[i])
            counts, means, m2s = (np.array(column) for column in zip(*blocks))
            own, b = y[:, 0], rows // _BLOCK - first
            mean = (own + y[:, 1:].sum(axis=1)) / _TAIL
            change = mean - own
            moved = means + np.bincount(b, change, len(blocks)) / counts
            if not replicates:  # S_yy after the same replacement; rounding may take it below 0
                m2s = m2s + np.bincount(b, change * ((own - means[b]) + (mean - moved[b])),
                                        len(blocks))
                np.maximum(m2s, 0.0, out=m2s)
            return list(zip(counts, moved, m2s))

        blocks = _gaussian_blocks(seed, n_samples, np.array([law.std]), law.mean,
                                  lambda start, x: moments(start, x, k),
                                  tails if stratified else None)
        return _pooled(blocks, replicates)

    mean, se, m2 = draw(0)
    if not (math.isfinite(mean) and math.isfinite(se)):
        raise NonFiniteSampleError(
            f"non-finite pooled statistics: mean={mean!r}, standard_error={se!r}")
    if m2 < sys.float_info.min and mean != 0.0:
        k = -math.frexp(mean)[1]
        mean, se, _ = draw(k)
        mean, se = math.ldexp(mean, -k), math.ldexp(se, -k)
    return mean, se


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
    z_score: float | None  # None where it is undefined, a standard error of 0
    sign_convention: DiscountSign
    degenerate: bool = False

    def to_dict(self) -> dict:
        """The fields in declared order."""
        return {**asdict(self), "sign_convention": self.sign_convention.value}


class DriftClass(str, Enum):
    CONSISTENT_WITH_MARTINGALE = "consistent_with_martingale"
    SUPERMARTINGALE_STRICT = "supermartingale_strict"
    VIOLATES_SUPERMARTINGALE = "violates_supermartingale"


@dataclass(frozen=True)
class MartingaleVerdict:
    classification: DriftClass


def analytic_drift(v, p: ModelParams, x: float, t: float,
                   sign: DiscountSign = DiscountSign.PLUS) -> float:
    """Ito drift of V(X)e^{sign*r*t} at x; derivatives by central differences of step 1e-3.

    r, mu and sigma are read from ``p``; ``p.x0`` is ignored, the state ``x``
    is explicit. A drift past the float range is refused by name.
    """
    check("t", t, "nonnegative")
    diffusion = check("diffusion sigma^2/2", 0.5 * p.sigma * p.sigma)
    drift = _ito_drift(v, sign.factor * p.r, p.mu, diffusion, x, _H)
    return check("analytic drift", _time_weight(sign.factor, p.r, t) * drift)


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

    Draws X(t+dt) exactly from the one-step law, ``exact_marginal`` at
    ``t = dt`` from ``x0``, averages the per-sample increment of Y divided by
    dt, and reports the standard error together with ``analytic_drift`` under
    the same ``p``, the drift of the law drawn, and the z-score of their difference.
    The samples are drawn and pooled by ``_sample_mean``, under its rules:
    sigma = 0 gives a standard error of 0 and a z-score of None.

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
    step = exact_marginal(replace(p, x0=x0), dt)
    check("t", t, "nonnegative")

    s = sign.factor
    w_next = _time_weight(s, p.r, t + dt)
    # A profile that overflows at x0 is refused by the V(x0) check; numpy need not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        y_now = check("payoff V(x0)", float(v(x0))) * _time_weight(s, p.r, t)
        analytic = analytic_drift(v, p, x0, t, sign)

    def rate(x):
        return (np.asarray(v(x), dtype=float) * w_next - y_now) / dt

    mean, se = _sample_mean(rate, step, n_samples, seed)
    return DriftReport(
        x0=x0,
        t=t,
        dt=dt,
        n_samples=n_samples,
        estimated_drift_rate=mean,
        standard_error=se,
        analytic_drift_rate=analytic,
        z_score=(mean - analytic) / se if se > 0 else None,
        sign_convention=sign,
        degenerate=se == 0.0,
    )


def classify(report: DriftReport, z_threshold: float = 3.0) -> MartingaleVerdict:
    """Classify the measured drift against zero: consistent with a martingale iff |est| <= z*SE.

    Outside that band the sign of the estimate decides.
    """
    check("z_threshold", z_threshold, "positive")
    est = report.estimated_drift_rate
    se = report.standard_error
    if not (math.isfinite(est) and math.isfinite(se)):
        raise NonFiniteSampleError(
            f"cannot classify a non-finite drift estimate: estimate={est!r}, se={se!r}"
        )
    if abs(est) <= z_threshold * se:
        cls = DriftClass.CONSISTENT_WITH_MARTINGALE
    elif est < 0:
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
    profile ``v`` is called as in ``drift_estimate``. A law whose mean or
    scale leaves the float range is refused by ``exact_marginal``; a law
    without spread, a non-finite sample and a spread lost to underflow follow
    the rules of ``_sample_mean``.

    The witness is the mean of |Y| over stratified normals (Glasserman,
    *Monte Carlo Methods in Financial Engineering*, 2004, 4.3): each
    8192-sample block holds one X in each of 8192 equal-probability strata
    of its law, every X exactly distributed as X(t). The two unbounded end
    strata hold most of the variance, so each end row's sample is the mean
    of |Y| over its own X and 63 further exact draws of its stratum; every
    other sample is |Y| at its X. Each sample has the mean of |Y| at one
    X(t), so the witness is E|Y| at every sample count. From 32 full blocks
    the standard error comes from the spread of the block means; below
    that, from the independent formula, which overstates it. At 32*8192
    samples over 60 seeds, averaging the end strata cut the median squared
    standard error of the ``drift_lab`` profiles 4.5- to 11.2-fold.
    """
    n_samples = check("n_samples", n_samples, "count", _MIN_SAMPLES)
    law = exact_marginal(p, t)
    weight = _time_weight(sign.factor, p.r, t)
    bound = None
    if isinstance(v, ExponentialSolution) and v.roots.root1.real == 0.0 and v.wavenumber != 0.0:
        bound = (abs(v.coef1) + abs(v.coef2)) * _time_weight(1.0, abs(p.r), t)

    def absolute(x):
        y = np.asarray(v(x), dtype=float) * weight
        return np.abs(y, out=y)

    mean, se = _sample_mean(absolute, law, n_samples, seed, stratified=True)
    return IntegrabilityWitness(mean_abs=mean, standard_error=se, analytic_bound=bound)
