"""Additive (arithmetic Brownian) stock-price model.

The price follows X(t) = x0 + mu*t + sigma*W(t) with constant drift and
volatility, so increments over a time grid are exactly Gaussian and paths can
be simulated without discretization bias. Under no-arbitrage the drift mu
equals the risk-free rate r; that is the default here.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, check


_MAX_SEED = 1 << 64
_BLOCK = 1 << 13  # rows per substream; part of the determinism contract
RNG_SCHEME = "philox4x64-block8192"  # recorded in CLI provenance; bump when sampled values move


@dataclass(frozen=True)
class ModelParams:
    """Parameters of the additive price process.

    Parameters
    ----------
    x0 : float
        Initial price. Negative values are allowed; the additive model does
        not confine prices to the positive axis.
    r : float
        Risk-free rate per unit time. Also the drift unless overridden.
    sigma : float
        Volatility in price units per sqrt(unit time). Must be >= 0.
    drift : float, optional
        Real-world drift mu. Defaults to r (risk-neutral). Any other value
        requires ``exploratory_drift=True``.
    exploratory_drift : bool
        Permit drift != r for exploratory runs only.
    """

    x0: float
    r: float
    sigma: float
    drift: float | None = None
    exploratory_drift: bool = False

    def __post_init__(self):
        check("x0", self.x0)
        check("r", self.r)
        check("sigma", self.sigma, "nonnegative")
        if check("drift", self.mu) != self.r and not self.exploratory_drift:
            raise ValidationError(
                "drift must equal r under no-arbitrage; set exploratory_drift=True to override"
            )

    @property
    def mu(self) -> float:
        """Effective drift: r unless an exploratory drift was supplied."""
        return self.r if self.drift is None else self.drift


@dataclass(frozen=True)
class GaussianLaw:
    """Normal law with the given mean and variance."""

    mean: float
    variance: float

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)


def exact_marginal(p: ModelParams, t: float) -> GaussianLaw:
    """Exact law of X(t): Gaussian with mean x0 + mu*t and variance sigma^2*t."""
    check("t", t, "nonnegative")
    return GaussianLaw(mean=p.x0 + p.mu * t, variance=p.sigma * p.sigma * t)


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing observation times starting exactly at 0."""

    times: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        if times.ndim != 1 or times.size < 2:
            raise ValidationError("times must be a 1-d grid with at least two points")
        if check("times", times)[0] != 0.0:
            raise ValidationError(f"times must start exactly at 0, got {times[0]!r}")
        if not np.all(np.diff(times) > 0):
            raise ValidationError("times must be strictly increasing")
        object.__setattr__(self, "times", times)

    @classmethod
    def regular(cls, t_end: float, n_steps: int) -> "TimeGrid":
        """Uniform grid of ``n_steps`` steps on [0, t_end]."""
        return cls(np.linspace(0.0, float(t_end), check("n_steps", n_steps, "count", 1) + 1))

    @property
    def n_times(self) -> int:
        return self.times.size

    @property
    def steps(self) -> np.ndarray:
        return np.diff(self.times)


class SeedStreams:
    """Per-index deterministic substreams of one master seed.

    Stream ``i`` is ``Philox(key=seed, counter=i << 128)``: a counter-based
    generator whose values depend only on (seed, index), never on how many
    streams exist or the order in which they are consumed. The samplers key
    one stream per block of 8192 rows, which makes chunked or parallel
    sampling reproducible.
    """

    def __init__(self, seed: int):
        if not (0 <= int(seed) < _MAX_SEED):
            raise ValidationError(f"seed must be a 64-bit unsigned integer, got {seed!r}")
        self._seed = int(seed)

    def generator(self, index: int) -> np.random.Generator:
        """A fresh generator at the start of substream ``index`` (< 2^64)."""
        return np.random.Generator(np.random.Philox(key=self._seed, counter=int(index) << 128))


@dataclass(frozen=True)
class PathSet:
    """Simulated trajectories: one row per path, one column per grid time."""

    grid: TimeGrid
    values: np.ndarray

    @property
    def n_paths(self) -> int:
        return self.values.shape[0]

    def path(self, i: int) -> np.ndarray:
        return self.values[i]


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS has one, else all of them."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _gaussian_blocks(seed: int, n_rows: int, scale: np.ndarray, base, each) -> list:
    """Return ``[each(start, block) for every block]`` in block order.

    The one sampler of the package. ``block`` holds the rows ``start ..
    start + len(block) - 1`` of ``base + cumsum(scale * Z)``. Block ``b``
    covers rows ``b*8192 .. b*8192 + 8191`` and draws its standard normals
    as one ``(rows, scale.size)`` matrix from ``SeedStreams(seed).generator(b)``,
    so row ``i`` reads offset ``(i % 8192)*scale.size`` of stream ``i // 8192``
    and does not depend on ``n_rows``, nor on how the blocks are scheduled.

    The blocks run on up to one thread per usable CPU, and on no more
    threads than ``n_rows / 8192`` rounded half up, worker ``k`` taking
    blocks ``k, k+W, ...``; the caller runs worker 0 itself. ``each`` is
    therefore called from several threads at once, each time with a block no
    other call sees, and the block is a buffer that the worker's next block
    overwrites: ``each`` copies what it keeps. A worker keeps one generator
    and re-keys its bit generator in place to counter ``b << 128`` with an
    empty buffer, the state ``generator(b)`` starts in, which costs a
    fraction of building a Philox. numpy's ``errstate`` does not reach a new
    thread, so ``each`` sets its own.

    A worker stops at its first failing block; the exception of the lowest
    failing block is raised, the one a serial loop would raise.
    """
    streams = SeedStreams(seed)
    n_blocks = -(-n_rows // _BLOCK)
    # A short tail block is not worth the start and join of a thread.
    n_workers = min(_usable_cpus(), max(1, (n_rows + _BLOCK // 2) // _BLOCK))
    results = [None] * n_blocks
    failures = []  # (block, exception), at most one per worker

    def work(k):
        b = k
        try:
            gen = streams.generator(0)
            state = gen.bit_generator.state  # substream 0 before any draw
            buf = np.empty((min(_BLOCK, n_rows), scale.size))
            for b in range(k, n_blocks, n_workers):
                start = b * _BLOCK
                block = buf[: min(_BLOCK, n_rows - start)]
                if b:
                    state["state"]["counter"] = np.array([0, 0, b, 0], dtype=np.uint64)
                    gen.bit_generator.state = state
                gen.standard_normal(out=block)
                with np.errstate(over="raise", invalid="raise"):
                    try:
                        block *= scale
                        if scale.size > 1:  # a one-column cumsum is the identity, yet costs a pass
                            np.cumsum(block, axis=1, out=block)
                        block += base
                    except FloatingPointError as exc:
                        raise ValidationError(
                            f"path values x0 + mu*t + sigma*W(t) must be finite: {exc}"
                        ) from None
                results[b] = each(start, block)
        except Exception as exc:  # handed to the caller, which raises the lowest block's
            failures.append((b, exc))

    threads = []
    try:
        for k in range(1, n_workers):
            thread = threading.Thread(target=work, args=(k,))
            thread.start()
            threads.append(thread)
        work(0)
    finally:
        for thread in threads:
            thread.join()
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return results


def _increments(p: ModelParams, grid: TimeGrid):
    """Per-step scale sigma*sqrt(dt) and the exact drift line x0 + mu*t at times after 0.

    Drift enters through the line rather than a cumulative sum of mu*dt, so
    sigma = 0 paths are exactly linear. Either leaving the float range is
    rejected by name.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        scale = check("step scale sigma*sqrt(dt)", p.sigma * np.sqrt(grid.steps))
        base = check("drift line x0 + mu*t", p.x0 + p.mu * grid.times[1:])
    return scale, base


def simulate_paths(p: ModelParams, grid: TimeGrid, n_paths: int, seed: int) -> PathSet:
    """Simulate exact-increment paths of the additive model.

    Each increment X(t_{i+1}) - X(t_i) is drawn exactly from
    N(mu*dt, sigma^2*dt); there is no time-stepping bias. Rows are sampled in
    blocks of 8192, block ``b`` from substream ``b`` of ``seed``, so the output
    is a pure function of (params, grid, n_paths, seed) regardless of
    chunking or parallelism, and the first k rows coincide with those of any
    larger run.

    Parameters
    ----------
    p : ModelParams
    grid : TimeGrid
    n_paths : int
        Number of trajectories, >= 1.
    seed : int
        Master seed (64-bit unsigned).

    Returns
    -------
    PathSet
    """
    n_paths = check("n_paths", n_paths, "count", 1)
    check("n_paths * n_times", n_paths * grid.n_times, "count")  # the array's size, not each axis
    values = np.empty((n_paths, grid.n_times))
    values[:, 0] = p.x0

    def copy(start, block):
        values[start : start + len(block), 1:] = block

    _gaussian_blocks(seed, n_paths, *_increments(p, grid), copy)
    return PathSet(grid=grid, values=values)


@dataclass(frozen=True)
class HittingTime:
    """First grid time at which a path reaches a level; absent when it never does."""

    value: float | None

    @property
    def hit(self) -> bool:
        return self.value is not None


def _reached(values: np.ndarray, start: float, level: float) -> np.ndarray:
    """Where ``values`` are at or beyond ``level``: above it from a start below, else below it."""
    return values >= level if start < level else values <= level


def first_hitting_time(path: np.ndarray, grid: TimeGrid, level: float) -> HittingTime:
    """First grid time at which the path is at or beyond ``level``.

    A path starting below the level is monitored for up-crossings (value >=
    level), one starting above for down-crossings (value <= level); starting
    exactly at the level hits at time 0. Only values up to the returned time
    are inspected; crossings between grid points are not interpolated.
    """
    check("level", level)
    values = np.asarray(path, dtype=float)
    if values.shape != grid.times.shape:
        raise ValidationError(
            f"path has {values.size} values but the grid has {grid.n_times} times"
        )
    mask = _reached(values, values[0], level)
    if not mask.any():
        return HittingTime(value=None)
    return HittingTime(value=float(grid.times[int(np.argmax(mask))]))


def _normal_cdf(x: float) -> float:
    """Standard normal CDF Phi(x), accurate in relative terms down to its underflow near -37."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def hitting_probability(p: ModelParams, level: float, t: float) -> float:
    """Exact P(tau <= t) for the first passage of the additive model to ``level``.

    Closed form for arithmetic Brownian motion with drift mu: for a level
    above the start, with d = level - x0,

        P = Phi((-d + mu*t)/(sigma*sqrt(t)))
            + exp(2*mu*d/sigma^2) * Phi((-d - mu*t)/(sigma*sqrt(t)))

    and the mirrored expression for a level below the start. Serves as the
    independent oracle for Monte Carlo hitting frequencies. With sigma = 0
    the crossing is deterministic and the probability is 0 or 1.
    """
    check("t", t, "positive")
    if check("level", level) == p.x0:
        raise ValidationError("level must differ from x0; the path starts on the level")
    mu = p.mu
    if p.sigma == 0.0:
        if mu == 0.0:
            return 0.0
        crossing = (level - p.x0) / mu
        return 1.0 if 0.0 < crossing <= t else 0.0
    d = abs(level - p.x0)
    drift = mu if level > p.x0 else -mu
    sig_sqrt_t = p.sigma * math.sqrt(t)
    a = (-d + drift * t) / sig_sqrt_t
    b = (-d - drift * t) / sig_sqrt_t
    exponent = 2.0 * drift * d / (p.sigma * p.sigma)
    # exp * cdf evaluated in log space: the exponential factor alone can
    # overflow for strong drift even though the product is a probability.
    # Below b = -20, Phi(b) = e^(-b^2/2)/(-b*sqrt(2*pi)) * series, the Mills-ratio
    # series of Abramowitz & Stegun 26.2.12 (at -20 the first term left out is
    # 2e-20), and exponent - b^2/2 = -a^2/2 exactly, so the large terms cancel
    # in closed form. An overflowed exponent leaves the term undefined.
    if b > -20.0:
        log_term2 = exponent + math.log(_normal_cdf(b))
    elif exponent < math.inf:
        series = sum((-1) ** k * math.prod(range(1, 2 * k, 2)) * (b * b) ** -k for k in range(12))
        log_term2 = -0.5 * a * a - (math.log(-b) + 0.5 * math.log(2 * math.pi) - math.log(series))
    else:
        log_term2 = math.nan
    term1 = _normal_cdf(a)
    term2 = check("first-passage term e^(2*mu*d/sigma^2)*Phi(.)", math.exp(log_term2))
    prob = term1 + term2
    return min(max(prob, 0.0), 1.0)


@dataclass(frozen=True)
class HitFrequency:
    """Monte Carlo estimate of P(tau <= t_end) on a grid."""

    n_paths: int
    n_hits: int
    frequency: float
    standard_error: float


def hitting_frequency(
    p: ModelParams, level: float, grid: TimeGrid, n_paths: int, seed: int
) -> HitFrequency:
    """Fraction of simulated paths that reach ``level`` by the end of the grid.

    Path ``i`` is row ``i`` of ``simulate_paths`` with the same arguments;
    each worker thread scans one 8192-row block at a time to bound memory.
    """
    check("level", level)
    n_paths = check("n_paths", n_paths, "count", 1)

    def count(_, block):
        return int((_reached(block, p.x0, level).any(axis=1) | (p.x0 == level)).sum())

    n_hits = sum(_gaussian_blocks(seed, n_paths, *_increments(p, grid), count))
    freq = n_hits / n_paths
    se = math.sqrt(freq * (1.0 - freq) / n_paths)
    return HitFrequency(n_paths=n_paths, n_hits=n_hits, frequency=freq, standard_error=se)
