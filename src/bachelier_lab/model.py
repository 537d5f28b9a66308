"""Additive (arithmetic Brownian) stock-price model.

The price follows X(t) = x0 + mu*t + sigma*W(t) with constant drift and
volatility, so increments over a time grid are exactly Gaussian and paths can
be simulated without discretization bias. Under no-arbitrage the drift mu
equals the risk-free rate r; that is the default here.
"""

from __future__ import annotations

import math
import os
import sys
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, check


_MAX_SEED = (1 << 64) - 1
_BLOCK = 1 << 13  # rows per substream; part of the determinism contract
_TILE = 1 << 16  # floats a sampler worker holds at once; bounds memory, moves no value
_ROWS_PER_STEP = 32  # tiles at least this many rows per step are folded column by column
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
    """Exact law of X(t): Gaussian with mean x0 + mu*t and variance sigma^2*t.

    A mean ``x0 + mu*t`` or a scale ``sigma*sqrt(t)`` out of the float range is refused by name.
    """
    check("t", t, "nonnegative")
    law = GaussianLaw(mean=check("x0 + mu*t", p.x0 + p.mu * t), variance=p.sigma * p.sigma * t)
    check("sigma*sqrt(t)", law.std)
    return law


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
        """Uniform grid of ``n_steps`` steps on [0, t_end].

        ``linspace`` places time ``i < n_steps`` at ``i*step``, ``step =
        t_end/n_steps``, and the last at ``t_end``; a step that rounds to 0, or
        up so that ``(n_steps - 1)*step`` reaches ``t_end``, is refused by name.
        """
        t_end = float(check("t_end", t_end, "positive"))
        n_steps = check("n_steps", n_steps, "count", 1)
        step = t_end / n_steps
        if not (step > 0.0 and (n_steps - 1) * step < t_end):
            raise ValidationError(
                f"t_end/n_steps must leave {n_steps + 1} distinct grid times, got {step!r}")
        return cls(np.linspace(0.0, t_end, n_steps + 1))

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
        self._seed = check("seed", seed, "integer", 0, _MAX_SEED)

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


def _fold_steps(op, tile: np.ndarray, accumulate: bool = False) -> np.ndarray:
    """``op.accumulate(tile, axis=1, out=tile)`` if ``accumulate``, else ``op.reduce(tile, axis=1)``.

    The step axis of the sampler's tiles goes through here. numpy runs an
    operation along axis 1 as one inner loop per row, about 40 ns a row
    whatever the width, which dominates a narrow tile. A tile with at least
    32 rows per step column is therefore folded one column at a time, one
    call over all rows per step. ``op(tile[:, j-1], tile[:, j])`` combines
    the same two values in the same order as numpy's row loop does, so the
    bits are the same either way; the choice depends on the shape alone.
    """
    n_steps = tile.shape[1]
    if len(tile) < _ROWS_PER_STEP * n_steps:
        return op.accumulate(tile, axis=1, out=tile) if accumulate else op.reduce(tile, axis=1)
    if accumulate:
        for j in range(1, n_steps):
            op(tile[:, j - 1], tile[:, j], out=tile[:, j])
        return tile
    folded = tile[:, 0].copy()
    for j in range(1, n_steps):
        op(folded, tile[:, j], out=folded)
    return folded


def _gaussian_blocks(seed: int, n_rows: int, scale: np.ndarray, base, each) -> list:
    """Return ``[each(start, tile) for every tile]`` in row order.

    The one sampler of the package. ``tile`` holds the rows ``start ..
    start + len(tile) - 1`` of ``base + cumsum(scale * Z)``. Block ``b``
    covers rows ``b*8192 .. b*8192 + 8191`` and draws its standard normals
    in row-major order from ``SeedStreams(seed).generator(b)``, so row ``i``
    reads offset ``(i % 8192)*scale.size`` of stream ``i // 8192`` and does
    not depend on ``n_rows``, nor on how the blocks are scheduled.

    A block is drawn as consecutive tiles of ``max(1, min(8192, 2^16 //
    scale.size))`` rows from its one generator, the last tile of a block
    possibly shorter; the tiles hold exactly the normals of a whole-block
    draw, and a worker holds one tile of at most 2^16 floats (512 KB) or
    one row, whichever is larger. Up to 8 steps a tile is the whole block.

    The blocks run on up to one thread per usable CPU, and on no more
    threads than ``n_rows / 8192`` rounded half up, worker ``k`` taking
    blocks ``k, k+W, ...``; the caller runs worker 0 itself. ``each`` is
    therefore called from several threads at once, each time with a tile no
    other call sees, and the tile is a buffer that the worker's next tile
    overwrites: ``each`` copies what it keeps. A worker keeps one generator
    and re-keys its bit generator in place to counter ``b << 128`` with an
    empty buffer, the state ``generator(b)`` starts in, which costs a
    fraction of building a Philox. numpy's ``errstate`` does not reach a new
    thread, so every worker, the caller included, runs ``each`` under
    ``errstate(over="ignore", invalid="ignore")``; ``each`` reports inf or NaN.

    A worker stops at its first failing block and stores the exception in its
    place. The first one in block order is raised, as a serial loop would: a
    lower block that did not finish belongs to a worker that failed earlier.
    """
    streams = SeedStreams(seed)
    n_blocks = -(-n_rows // _BLOCK)
    tile_rows = max(1, min(_BLOCK, _TILE // scale.size))
    # A short tail block is not worth the start and join of a thread.
    n_workers = min(_usable_cpus(), max(1, (n_rows + _BLOCK // 2) // _BLOCK))
    results = [()] * n_blocks  # per block, the results of its tiles or the exception it raised

    def work(k):
        b = k
        try:
            gen = streams.generator(0)
            state = gen.bit_generator.state  # substream 0 before any draw
            buf = np.empty((min(tile_rows, n_rows), scale.size))
            for b in range(k, n_blocks, n_workers):
                if b:
                    state["state"]["counter"] = np.array([0, 0, b, 0], dtype=np.uint64)
                    gen.bit_generator.state = state
                end = min((b + 1) * _BLOCK, n_rows)
                tiles = []
                for start in range(b * _BLOCK, end, tile_rows):
                    tile = buf[: min(tile_rows, end - start)]
                    gen.standard_normal(out=tile)
                    with np.errstate(over="raise", invalid="raise"):
                        try:
                            tile *= scale
                            _fold_steps(np.add, tile, accumulate=True)
                            tile += base
                        except FloatingPointError as exc:
                            raise ValidationError(
                                f"path values x0 + mu*t + sigma*W(t) must be finite: {exc}"
                            ) from None
                    with np.errstate(over="ignore", invalid="ignore"):
                        tiles.append(each(start, tile))
                results[b] = tiles
        except Exception as exc:  # raised by the caller, in block order
            results[b] = exc

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
    for result in results:
        if isinstance(result, Exception):
            raise result
    return [result for tiles in results for result in tiles]


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
    are inspected; crossings between grid points are not interpolated. An
    inf or NaN path value is refused by name.
    """
    check("level", level)
    values = np.asarray(path, dtype=float)
    if values.shape != grid.times.shape:
        raise ValidationError(
            f"path has {values.size} values but the grid has {grid.n_times} times"
        )
    check("path", values)
    mask = _reached(values, values[0], level)
    if not mask.any():
        return HittingTime(value=None)
    return HittingTime(value=float(grid.times[int(np.argmax(mask))]))


def _normal_cdf(x: float) -> float:
    """Standard normal CDF Phi(x), accurate in relative terms down to its underflow near -37."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _ratio(x: float, y: float, u: float, v: float) -> float:
    """``x*y / (u*v)``, or ``(x/u) * (y/v)`` where ``x*y`` overflows or ``u*v`` is not a normal float.

    In the normal range this is one product over another, with their bits.
    Outside it, a tiny sigma would underflow the divisor to 0 or to a few
    digits, and an overflowed product would turn a finite ratio into inf.
    """
    xy, uv = x * y, u * v
    if abs(xy) < math.inf and sys.float_info.min <= uv < math.inf:
        return xy / uv
    return (x / u) * (y / v)


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
    sqrt_t = math.sqrt(t)
    if math.isfinite(d) and math.isfinite(drift * t):
        a = _ratio(-d + drift * t, 1.0, p.sigma, sqrt_t)
        b = _ratio(-d - drift * t, 1.0, p.sigma, sqrt_t)
        half_exponent = _ratio(drift, d, p.sigma, p.sigma)
    else:  # d or mu*t leaves the float range: measure both in units of sigma*sqrt(t)
        d_s = abs(_ratio(level, 1.0, p.sigma, sqrt_t) - _ratio(p.x0, 1.0, p.sigma, sqrt_t))
        mu_s = _ratio(drift, sqrt_t, p.sigma, 1.0)
        a, b, half_exponent = -d_s + mu_s, -d_s - mu_s, d_s * mu_s
    # exp * cdf evaluated in log space: the exponential factor alone can
    # overflow for strong drift even though the product is a probability.
    # Below b = -20, Phi(b) = e^(-b^2/2)/(-b*sqrt(2*pi)) * series, the Mills-ratio
    # series of Abramowitz & Stegun 26.2.12 (at -20 the first term left out is
    # 2e-20), and exponent - b^2/2 = -a^2/2 exactly, so the large terms cancel
    # in closed form and the exponent is never formed. Above -20, d and |mu|*t
    # are each below 20*sigma*sqrt(t), so a positive exponent is below 800.
    if b > -20.0:
        log_term2 = 2.0 * half_exponent + math.log(_normal_cdf(b))
    else:
        series = sum((-1) ** k * math.prod(range(1, 2 * k, 2)) * (b * b) ** -k for k in range(12))
        log_term2 = -0.5 * a * a - (math.log(-b) + 0.5 * math.log(2 * math.pi) - math.log(series))
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

    Path ``i`` is row ``i`` of ``simulate_paths`` with the same arguments.
    Each worker thread scans one sampler tile at a time, at most 2^16
    values or one path, so memory does not grow with the path count or, past
    one path, the step count. A path hits when any of its values is at or
    beyond the level; that scan goes along the steps the same way as the
    sampler's cumulative sum, column by column on a tile with at least 32
    rows per step and row by row otherwise.
    """
    check("level", level)
    n_paths = check("n_paths", n_paths, "count", 1)

    def count(_, tile):
        hit = _fold_steps(np.logical_or, _reached(tile, p.x0, level))
        return int((hit | (p.x0 == level)).sum())

    n_hits = sum(_gaussian_blocks(seed, n_paths, *_increments(p, grid), count))
    freq = n_hits / n_paths
    se = math.sqrt(freq * (1.0 - freq) / n_paths)
    return HitFrequency(n_paths=n_paths, n_hits=n_hits, frequency=freq, standard_error=se)
