"""Additive (arithmetic Brownian) stock-price model.

The price follows X(t) = x0 + mu*t + sigma*W(t) with constant drift and
volatility, so increments over a time grid are exactly Gaussian and paths can
be simulated without discretization bias. Under no-arbitrage the drift mu
equals the risk-free rate r; that is the default here.
"""

from __future__ import annotations

import functools
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
_TAIL = 64  # draws behind each end row of a tail-averaged block; a power of two, so 1/64 is exact
_TAIL_PAIRS = 88  # Marsaglia pairs a block draws per end stratum; 63 kept fail at odds of 1e-11
_TAIL_RUN = 64  # blocks whose tails are settled at once: 2*64*64 = 8192 draws
_END_ROWS = np.array([0, _BLOCK - 1])  # columns of strata 0 and 8191: bitrev13 fixes both
_PATH_VALUES = "path values x0 + mu*t + sigma*W(t) must be finite"


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
        Real-world drift mu. None, the default, gives mu = r (risk-neutral,
        as no-arbitrage requires); a given drift makes the run exploratory.
    """

    x0: float
    r: float
    sigma: float
    drift: float | None = None

    def __post_init__(self):
        check("x0", self.x0)
        check("r", self.r)
        check("sigma", self.sigma, "nonnegative")
        check("drift", self.mu)

    @property
    def mu(self) -> float:
        """Effective drift: r unless an exploratory drift was supplied."""
        return self.r if self.drift is None else self.drift


@dataclass(frozen=True)
class GaussianLaw:
    """Normal law with the given mean and scale: floats, or arrays elementwise in time."""

    mean: float | np.ndarray
    std: float | np.ndarray

    @property
    def variance(self) -> float | np.ndarray:
        """``std*std``, refused by name as ``sigma^2*t`` where it leaves the float range."""
        with np.errstate(over="ignore"):
            return check("sigma^2*t", self.std * self.std)


def exact_marginal(p: ModelParams, t: float | np.ndarray) -> GaussianLaw:
    """Exact law of X(t), elementwise in ``t``: mean x0 + mu*t and scale sigma*sqrt(t).

    The law of a step of length dt from x0 is the law at ``t = dt``. This is
    the one place the sampler's law is computed: its step scales and drift
    line come from here, so the law is the one drawn, bit for bit. A float
    ``t`` gives Python floats. A mean ``x0 + mu*t`` or a scale
    ``sigma*sqrt(t)`` out of the float range is refused by name.
    """
    check("t", t, "nonnegative")
    with np.errstate(over="ignore"):
        mean, std = p.x0 + p.mu * t, p.sigma * (np.sqrt(t) if np.ndim(t) else math.sqrt(t))
    return GaussianLaw(check("x0 + mu*t", mean), check("sigma*sqrt(t)", std))


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
        with np.errstate(over="ignore"):  # near the float range, i*step overflows; t_end is last
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


@functools.cache
def _strata() -> np.ndarray:
    """Tables of the stratified fill, in row order: rows ``lo, a, b, keep, near, top``.

    Stratum j of 8192 is [e_j, e_{j+1}), with e_j = Phi^-1(j/8192) by AS241
    (``statistics.NormalDist().inv_cdf``), e_0 = -inf and e_8192 = inf, so
    each holds probability 1/8192. Column k belongs to stratum bitrev13(k),
    and the columns are stored twice over, so that the rows of a block
    shifted by c read the slice ``[:, c : c + 8192]``. Built once, in a few
    ms, and 768 KB in all.

    An inner stratum proposes x(u) = lo + u*(a + b*u), u in [0, 1): a
    quadratic in u, bent to follow phi to first order, that ends 16 ulps
    below e_{j+1}. Its density is 1/x'(u), so x is kept with probability
    e^{f(u) - top}, f(u) = (near^2 - x^2)/2 + ln(x'(u)/a), near the edge
    closer to 0. ``top`` and ``keep`` = e^{min f - top} bound f from above
    and below: f at 17 points of u, widened by |f''|*h^2/8, h = 1/16, the
    most f can pass them by in between, with |f''| <= x'^2 + 2|b|*|x| +
    4b^2/x'^2. So v <= ``keep`` keeps x without an exponential; about 0.46
    rows a block fail it. The end strata have a = b = 0 and keep -1, which
    no v passes, and near e_1 or e_8191, where their tails start.
    """
    from statistics import NormalDist  # here, so that importing the package does not load it

    inv_cdf = NormalDist().inv_cdf
    edges = np.array([inv_cdf(j / _BLOCK) for j in range(1, _BLOCK)])
    lo, hi = edges[:-1], edges[1:]  # the inner strata 1 .. 8190
    width = hi - lo
    b = width * np.clip(0.25 * (lo + hi) * width, -0.5, 0.5)
    a = hi - 16.0 * np.abs(np.spacing(hi)) - lo - b
    last = 1.0 - 2.0**-53
    while (over := lo + last * (a + b * last) >= hi).any():
        a[over] = np.nextafter(a[over], 0.0)
    near = np.where(hi <= 0.0, hi, lo)
    low, high = np.full_like(lo, np.inf), np.full_like(lo, -np.inf)
    for u in np.linspace(0.0, 1.0, 17):  # one row at a time: a 17-row grid would raise peak memory
        x = lo + u * (a + b * u)
        f = 0.5 * (near * near - x * x) + np.log1p(2.0 * b * u / a)
        np.minimum(low, f, out=low)
        np.maximum(high, f, out=high)
    slopes = (a, a + 2.0 * b)  # x'(u) at u = 0 and 1; it is linear in u
    curve = (np.maximum(*slopes) ** 2 + 2.0 * np.abs(b) * np.maximum(-lo, hi)
             + 4.0 * b * b / np.minimum(*slopes) ** 2)
    rise = curve / (8.0 * 16**2) + 1e-12
    top = high + rise
    keep = np.exp(low - rise - top)
    ends = ((0.0, 0.0), (0.0, 0.0), (0.0, 0.0), (-1.0, -1.0), (edges[0], edges[-1]), (0.0, 0.0))
    k = np.arange(_BLOCK)
    bitrev = sum(((k >> bit) & 1) << (12 - bit) for bit in range(13))
    return np.array([np.tile(np.concatenate(([first], table, [last]))[bitrev], 2)
                     for table, (first, last) in zip((lo, a, b, keep, near, top), ends)])


def _fill_strata(gen: np.random.Generator, z: np.ndarray, u: np.ndarray, affine: np.ndarray,
                 base: float, scale: float, tail: np.ndarray) -> int:
    """Fill ``z``, 8192 rows, with base + scale*x for one x ~ N(0, 1) in each stratum of ``_strata``.

    Return the shift c. Each row is exactly N(base, scale^2) over the draw
    of c; ``_tail_draws`` adds further draws of the two end strata.

    One call fills ``u``, 2*8192 + 1 uniforms or more, from ``gen``. Of the
    first 2*8192 + 1, the last gives the
    shift c = floor(8192*u), and row i takes stratum bitrev13((i + c) % 8192):
    a short prefix of the rows is spread over all the strata, and every row
    lands in each stratum with probability 1/8192. Row i takes x(u) from
    ``u[i]`` unless v = ``u[8192 + i]`` exceeds ``keep``. The rows that do,
    the two end rows and about 0.46 others a block, are decided in row
    order: an inner row keeps x(u) if v < e^{f(u) - top}, an end row takes
    Marsaglia's tail method (*Technometrics* 6, 1964), x = sqrt(near^2 -
    2*ln(1 - u)) kept if v*x < |near|. The row's own u and v come first;
    further pairs come 64 uniforms at a time from the rest of ``u`` and then
    from ``gen``, which continue its stream. ``tail`` is filled in C order
    with the uniforms that follow in the stream, the values a
    ``gen.random`` call after the fill would give, whatever the length of
    ``u``. Drawn with the fill's own, they cost the block no numpy call of
    their own: each one that releases the GIL can hold up a second worker.

    ``affine`` holds the rows lo, a and b of ``_strata`` times ``scale``, lo
    plus ``base``, so that a row kept at once is (base + scale*lo) +
    u*(scale*a + scale*b*u) with no pass of its own; a row decided later is
    base + scale*x, and refused by name if that leaves the float range.
    """
    gen.random(out=u)
    spare = 2 * _BLOCK + 1

    def stream(n):  # the next n uniforms of the stream: u's spare ones, then gen's
        nonlocal spare
        head, spare = u[spare : spare + n], spare + n
        return head if head.size == n else np.concatenate((head, gen.random(n - head.size)))

    c = int(u[2 * _BLOCK] * _BLOCK)
    tables = _strata()
    lo, a, b = affine[:, c : c + _BLOCK]
    pairs = u[: 2 * _BLOCK].reshape(2, _BLOCK)
    rows = np.flatnonzero(pairs[1] > tables[3, c : c + _BLOCK])
    np.multiply(pairs[0], b, out=z)
    z += a
    z *= pairs[0]
    z += lo
    pool = []
    for i, (lo_i, a_i, b_i, _, near, top), (u_i, v_i) in zip(
            rows.tolist(), tables[:, rows + c].T.tolist(), pairs[:, rows].T.tolist()):
        while True:
            if a_i:
                x = lo_i + u_i * (a_i + b_i * u_i)
                f = 0.5 * (near * near - x * x) + math.log((a_i + 2.0 * b_i * u_i) / a_i)
                if v_i < math.exp(f - top):
                    break
            else:
                x = math.sqrt(near * near - 2.0 * math.log1p(-u_i))
                if v_i * x < abs(near):
                    x = math.copysign(x, near)
                    break
            if not pool:
                pool = stream(64).tolist()
            u_i, v_i = pool.pop(), pool.pop()
        z[i] = x = base + scale * x
        if not math.isfinite(x):
            raise ValidationError(f"{_PATH_VALUES}, got {x!r}")
    tail[...] = stream(tail.size).reshape(tail.shape)
    return c


def _tail_draws(first: int, ends: np.ndarray, pairs: np.ndarray, n_rows: int,
                base: float, scale: float) -> tuple:
    """``(rows, draws)``: the end rows of stratified blocks, and 64 draws of each one's stratum.

    The blocks are ``first, first + 1, ...``. Block b has shift c and end
    rows of values X0 and X1, ``ends[b - first] = c, X0, X1``, and drew
    4*88 uniforms after its fill: for stratum 0, then 8191, 88 u and then 88
    v, held in ``pairs[0, b - first]`` (the u) and ``pairs[1, b - first]``
    (the v), which this pass overwrites. ``rows`` holds the index of each
    end row below ``n_rows``, in block order and stratum 0 first.
    ``draws[i]`` holds row i's own X, then base + scale*x for the first 63 x
    that Marsaglia's method, as ``_fill_strata`` runs it, keeps from the
    row's pairs. Each is an exact draw of the stratum, independent of the
    row's own X. A row that keeps fewer, at odds of 1e-11, repeats its own X
    in the place of the rest: the weights of its mean are then fixed by the
    count, so the mean keeps its expectation. A draw past the float range is
    refused by name, the first in row order.
    """
    near = _strata()[4, _END_ROWS]
    rows = (((first + np.arange(len(ends))) * _BLOCK)[:, None]
            + (_END_ROWS - ends[:, :1].astype(np.int64)) % _BLOCK).ravel()
    held = np.flatnonzero(rows < n_rows)  # a tail block may lack an end row
    x, v = pairs  # each pass in place, in memory the workers have written
    np.negative(x, out=x)
    np.log1p(x, out=x)
    x *= -2.0
    x += (near * near)[:, None]
    np.sqrt(x, out=x)
    v *= x
    kept = (v < np.abs(near)[:, None]).reshape(-1, _TAIL_PAIRS)
    counts = kept.sum(axis=1)
    x, v = x.reshape(-1), v.reshape(-1)
    np.compress(kept.reshape(-1), x, out=v[: counts.sum()])  # the kept x, row after row
    draws = np.empty((held.size, _TAIL))
    draws[:, 0] = ends[:, 1:].reshape(-1)[held]
    # A short row reads on into the next row's x, or past them: replaced below.
    np.take(v, (np.cumsum(counts) - counts)[held, None] + np.arange(_TAIL - 1), mode="clip",
            out=draws[:, 1:])
    further = draws[:, 1:]
    with np.errstate(over="ignore", invalid="ignore"):
        further *= np.copysign(scale, near)[held % 2, None]  # -x*scale is -(x*scale), bit for bit
        further += base
    np.copyto(further, draws[:, :1], where=np.arange(1, _TAIL) > counts[held, None])
    finite = np.isfinite(further)
    if not finite.all():
        raise ValidationError(f"{_PATH_VALUES}, got {float(further[~finite][0])!r}")
    return rows[held], draws


def _gaussian_blocks(seed: int, n_rows: int, scale: np.ndarray, base, each,
                     tails=None) -> list:
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

    With ``tails``, for one step only, ``_fill_strata`` draws each
    block instead, from the same generator: one Z in each of 8192
    equal-probability strata, in the row order it documents. It writes
    ``base + scale*Z`` itself, from tables scaled once per call, so the
    rounding differs from the product and sum above; a table or a row past
    the float range is refused by the same name. A tail block takes the
    leading rows of a whole block's fill, so the prefix property holds, at
    the cost of a whole block's draw.

    Each block's fill also yields the 4*88 uniforms that follow it in its
    stream, Marsaglia pairs for its two end strata, and the worker records
    them with the block's shift and the X of its end rows: 2.8 KB per block
    until the join. The workers do no more: on two threads each further
    numpy call per block can wait for the other thread to release the GIL.
    After the join, over the blocks before the first failing one, in runs
    of 64 blocks and in block order, ``_tail_draws`` turns a run's pairs
    into 63 further draws of each end row's stratum, and ``tails(results,
    first, rows, draws)`` replaces the run's results, under the same
    ``errstate``: ``results`` those of blocks ``first, first + 1, ...``, one
    per block, ``rows`` their end rows' indices and ``draws[i]`` row i's own
    X and then its further draws. So ``tails`` can refuse a draw ahead of a
    later block's failure, no row's value moves, and a run's 8192 draws
    bound the memory of the pass.

    The blocks run on up to one thread per usable CPU, and on no more
    threads than ``n_rows / 8192`` rounded half up, worker ``k`` taking
    blocks ``k, k+W, ...``; the caller runs worker 0 itself. ``each`` is
    therefore called from several threads at once, each time with a tile no
    other call sees, and the tile is a buffer that the worker's next tile
    overwrites: ``each`` copies what it keeps. A worker keeps one generator
    and, before every block, re-keys its bit generator in place to counter
    ``b << 128`` with an empty buffer, the state ``generator(b)`` starts in,
    which costs a fraction of building a Philox. numpy's ``errstate`` does not reach a new
    thread, so every worker, the caller included, runs its blocks, ``each``
    included, under one ``errstate(over="ignore", invalid="ignore")``; ``each``
    reports inf or NaN.

    A worker stops at its first failing block and stores the exception in its
    place. The first one in block order is raised, as a serial loop would: a
    lower block that did not finish belongs to a worker that failed earlier.
    """
    streams = SeedStreams(seed)
    n_blocks = -(-n_rows // _BLOCK)
    tile_rows = max(1, min(_BLOCK, _TILE // scale.size))
    stratified = tails is not None
    if stratified:  # the fill's tables, built and scaled before any worker starts
        shift, spread = float(np.ravel(base)[0]), float(scale[0])
        tables = _strata()
        with np.errstate(over="raise", invalid="raise"):
            try:
                affine = np.multiply(spread, tables[:3])  # in place: no temporaries to page in
                affine[0] += shift
            except FloatingPointError as exc:
                raise ValidationError(f"{_PATH_VALUES}: {exc}") from None
        # The shift and the X of the end rows, and u and v of the tail pairs, per block and end.
        ends, pairs = np.empty((n_blocks, 3)), np.empty((2, n_blocks, 2, _TAIL_PAIRS))
    # A short tail block is not worth the start and join of a thread.
    n_workers = min(_usable_cpus(), max(1, (n_rows + _BLOCK // 2) // _BLOCK))
    results = [()] * n_blocks  # per block, the results of its tiles or the exception it raised

    def work(k):
        b = k
        try:
            with np.errstate(over="ignore", invalid="ignore"):  # once, not 1 us per block
                gen = streams.generator(0)
                state = gen.bit_generator.state  # substream 0 before any draw
                buf = np.empty((_BLOCK if stratified else min(tile_rows, n_rows), scale.size))
                # The fill's uniforms, its first 64 further ones and the tail pairs: one draw.
                uniforms = np.empty(2 * _BLOCK + 1 + 64 + 4 * _TAIL_PAIRS) if stratified else None
                for b in range(k, n_blocks, n_workers):
                    state["state"]["counter"] = np.array([0, 0, b, 0], dtype=np.uint64)
                    gen.bit_generator.state = state
                    end = min((b + 1) * _BLOCK, n_rows)
                    tiles = []
                    for start in range(b * _BLOCK, end, tile_rows):
                        tile = buf[: min(tile_rows, end - start)]
                        if stratified:
                            c = _fill_strata(gen, buf[:, 0], uniforms, affine, shift, spread,
                                             pairs[:, b].swapaxes(0, 1))
                            ends[b] = c, buf[-c % _BLOCK, 0], buf[(_BLOCK - 1 - c) % _BLOCK, 0]
                        else:
                            gen.standard_normal(out=tile)
                            with np.errstate(over="raise", invalid="raise"):
                                try:
                                    tile *= scale
                                    _fold_steps(np.add, tile, accumulate=True)
                                    tile += base
                                except FloatingPointError as exc:
                                    raise ValidationError(f"{_PATH_VALUES}: {exc}") from None
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
    done = next((b for b, result in enumerate(results) if isinstance(result, Exception)),
                n_blocks)
    out = [result for tiles in results[:done] for result in tiles]
    if stratified:  # one tile per block
        with np.errstate(over="ignore", invalid="ignore"):
            for first in range(0, done, _TAIL_RUN):
                run = slice(first, min(first + _TAIL_RUN, done))
                out[run] = tails(out[run], first, *_tail_draws(first, ends[run], pairs[:, run],
                                                               n_rows, shift, spread))
    if done < n_blocks:
        raise results[done]
    return out


def _grid_law(p: ModelParams, grid: TimeGrid) -> tuple[np.ndarray, np.ndarray]:
    """The sampler's step scales and drift line, from one ``exact_marginal`` build.

    Row 0 holds the grid times and row 1 the steps, each step at its end
    time's position. A step's scale or line leaves the float range only where
    the one at its end time does, so a refusal names a position on the grid.
    """
    law = exact_marginal(p, np.stack((grid.times, np.append(0.0, grid.steps))))
    return law.std[1, 1:], law.mean[0, 1:]


def simulate_paths(p: ModelParams, grid: TimeGrid, n_paths: int, seed: int) -> PathSet:
    """Simulate exact-increment paths of the additive model.

    Each increment X(t_{i+1}) - X(t_i) is drawn exactly, with the scale
    sigma*sqrt(dt) of ``exact_marginal`` at ``t = dt``; there is no
    time-stepping bias. Drift enters through the line x0 + mu*t of
    ``exact_marginal`` at the grid times rather than a cumulative sum of
    mu*dt, so sigma = 0 paths are exactly linear. Rows are sampled in
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

    _gaussian_blocks(seed, n_paths, *_grid_law(p, grid), copy)
    return PathSet(grid=grid, values=values)


def _reached(values: np.ndarray, start: float, level: float) -> np.ndarray:
    """Where ``values`` are at or beyond ``level``: above it from a start below, else below it."""
    return values >= level if start < level else values <= level


def first_hitting_time(path: np.ndarray, grid: TimeGrid, level: float) -> float | None:
    """First grid time at which the path is at or beyond ``level``, or None if it never is.

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
    return float(grid.times[int(np.argmax(mask))]) if mask.any() else None


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

    n_hits = sum(_gaussian_blocks(seed, n_paths, *_grid_law(p, grid), count))
    freq = n_hits / n_paths
    se = math.sqrt(freq * (1.0 - freq) / n_paths)
    return HitFrequency(n_paths=n_paths, n_hits=n_hits, frequency=freq, standard_error=se)
