import functools
import itertools
import math
import re
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from bachelier_lab import (
    ModelParams,
    SeedStreams,
    TimeGrid,
    ValidationError,
    drift_estimate,
    exact_marginal,
    first_hitting_time,
    hitting_frequency,
    hitting_probability,
    integrability_check,
    simulate_paths,
    sine_solution,
)
from bachelier_lab import model
from bachelier_lab.model import _gaussian_blocks

# First-passage oracle values, frozen from 30-digit evaluation of the closed
# form: 2*Phi(-1) for the driftless case, Phi(0) + e^2*Phi(-2) with unit drift.
HIT_NO_DRIFT = 0.3173105078629141
HIT_UNIT_DRIFT = 0.6681020012231706


def test_validate_params_accepts_good_params():
    p = ModelParams(x0=100.0, r=0.05, sigma=0.2)
    assert (p.x0, p.r, p.sigma, p.mu) == (100.0, 0.05, 0.2, 0.05)


def test_validate_params_rejects_negative_sigma():
    with pytest.raises(ValidationError, match="sigma"):
        ModelParams(x0=100.0, r=0.05, sigma=-0.1)


def test_validate_params_rejects_non_finite_naming_field():
    with pytest.raises(ValidationError, match="x0"):
        ModelParams(x0=math.nan, r=0.05, sigma=0.2)
    with pytest.raises(ValidationError, match="r"):
        ModelParams(x0=0.0, r=math.inf, sigma=0.2)
    with pytest.raises(ValidationError, match="sigma"):
        ModelParams(x0=0.0, r=0.05, sigma=math.inf)
    with pytest.raises(ValidationError, match="drift"):
        ModelParams(x0=0.0, r=0.05, sigma=0.2, drift=math.nan)


def test_drift_defaults_to_rate_and_a_given_drift_is_used():
    p = ModelParams(x0=0.0, r=0.05, sigma=0.2)
    assert p.mu == 0.05
    q = ModelParams(x0=0.0, r=0.05, sigma=0.2, drift=0.10)
    assert q.mu == 0.10


def test_exact_marginal_moments():
    law = exact_marginal(ModelParams(x0=100.0, r=0.05, sigma=0.2), 4.0)
    assert law.mean == pytest.approx(100.2, abs=1e-12)
    assert law.variance == pytest.approx(0.16, abs=1e-12)

    law0 = exact_marginal(ModelParams(x0=7.5, r=0.3, sigma=1.0), 0.0)
    assert law0.mean == 7.5
    assert law0.variance == 0.0

    law2 = exact_marginal(ModelParams(x0=0.0, r=1.0, sigma=1.0), 2.0)
    assert law2.mean == pytest.approx(2.0)
    assert law2.variance == pytest.approx(2.0)


def test_exact_marginal_rejects_negative_time():
    with pytest.raises(ValidationError, match="t"):
        exact_marginal(ModelParams(x0=0.0, r=0.0, sigma=1.0), -1.0)


@pytest.mark.parametrize("p,t,name", [
    (ModelParams(x0=1e308, r=1e308, sigma=1.0), 1.0, "x0 + mu*t"),
    (ModelParams(x0=0.0, r=-1e200, sigma=1.0), 1e154, "x0 + mu*t"),
    # The scale sigma*sqrt(t) is 1e310.
    (ModelParams(x0=0.0, r=0.0, sigma=1e300), 1e20, "sigma*sqrt(t)"),
])
def test_exact_marginal_refuses_a_law_past_the_float_range(p, t, name):
    with pytest.raises(ValidationError, match=re.escape(name) + " must be finite, got -?inf"):
        exact_marginal(p, t)


def test_exact_marginal_keeps_a_scale_whose_square_overflows_only_in_sigma():
    # sigma^2 = 1e400 is past the float range, but the scale 1e150 and sigma^2*t = 1e300 are not.
    law = exact_marginal(ModelParams(x0=0.0, r=0.0, sigma=1e200), 1e-100)
    assert law.std == 1e150 and law.variance == pytest.approx(1e300, rel=1e-15)
    assert type(law.mean) is float and type(law.std) is float


def test_exact_marginal_refuses_a_variance_past_the_float_range_by_name():
    # The scale 1e160 is finite; its square is not, and is refused rather than returned as inf.
    law = exact_marginal(ModelParams(x0=0.0, r=0.0, sigma=1e160), 1.0)
    assert law.std == 1e160
    with pytest.raises(ValidationError, match=re.escape("sigma^2*t must be finite, got inf")):
        law.variance


def test_one_step_paths_are_the_exact_marginal_law_bit_for_bit():
    # At sigma = 0.2, t = 3, sigma*sqrt(t) and sqrt(sigma^2*t) differ in the last bit;
    # the sampler draws with the former, which is the law exact_marginal states.
    p = ModelParams(x0=1.0, r=0.05, sigma=0.2)
    law = exact_marginal(p, 3.0)
    assert law.std == 0.2 * math.sqrt(3.0) != math.sqrt(0.2 * 0.2 * 3.0)
    paths = simulate_paths(p, TimeGrid(np.array([0.0, 3.0])), 1000, seed=11)
    z = SeedStreams(11).generator(0).standard_normal(1000)
    assert paths.n_paths == 1000
    assert np.array_equal(paths.values[:, 1], law.mean + law.std * z)


def test_time_grid_validation():
    with pytest.raises(ValidationError, match="start exactly at 0"):
        TimeGrid(np.array([0.1, 0.2]))
    with pytest.raises(ValidationError, match="strictly increasing"):
        TimeGrid(np.array([0.0, 0.5, 0.5]))
    with pytest.raises(ValidationError, match="at least two points"):
        TimeGrid(np.array([0.0]))
    with pytest.raises(ValidationError, match="times must be finite, got inf at index 2"):
        TimeGrid(np.array([0.0, 0.5, np.inf]))
    grid = TimeGrid.regular(2.0, 4)
    assert grid.n_times == 5
    assert grid.times[0] == 0.0
    assert grid.times[-1] == 2.0
    # An integral float count is accepted as the integer it equals.
    assert np.array_equal(TimeGrid.regular(2.0, 4.0).times, grid.times)
    with pytest.raises(ValidationError, match="n_steps"):
        TimeGrid.regular(2.0, 2.5)


@pytest.mark.parametrize("t_end", [math.inf, math.nan, 0.0, -1.0])
def test_regular_grid_names_a_bad_end_time_without_a_warning(t_end):
    # linspace over [0, inf] warned before the grid was refused as "times ... nan".
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=r"^t_end must be finite and > 0"):
            TimeGrid.regular(t_end, 3)


@pytest.mark.parametrize("n_steps", [3, 6, 7])
def test_regular_grid_at_the_top_of_the_float_range_emits_no_warning(n_steps):
    # linspace's i*step overflowed inside numpy, with a warning, though t_end is stored last.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = TimeGrid.regular(sys.float_info.max, n_steps)
    assert grid.times[-1] == sys.float_info.max and np.isfinite(grid.times).all()


@pytest.mark.parametrize("t_end, n_steps", [(5e-324, 3), (1e-320, 10**6), (4e-323, 5)],
                         ids=["underflow", "underflow-many-steps", "rounds-up"])
def test_regular_grid_names_a_step_that_repeats_a_time(t_end, n_steps):
    # 4e-323 is 8 subnormal units: t_end/5 rounds up to 2, and 4*2 reaches t_end.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=r"^t_end/n_steps must leave"):
            TimeGrid.regular(t_end, n_steps)
        # The grids just inside keep linspace's times.
        for t, n in [(5e-324, 1), (4e-323, 4), (1e-322, 20), (2.0, 4)]:
            assert np.array_equal(TimeGrid.regular(t, n).times, np.linspace(0.0, t, n + 1))


def test_sigma_zero_paths_are_exactly_linear():
    grid = TimeGrid(np.array([0.0, 0.5, 1.0]))
    paths = simulate_paths(ModelParams(x0=0.0, r=1.0, sigma=0.0), grid, 4, seed=0)
    for i in range(4):
        assert np.array_equal(paths.values[i], np.array([0.0, 0.5, 1.0]))


def test_simulation_is_bit_exact_for_fixed_inputs():
    p = ModelParams(x0=1.0, r=0.05, sigma=0.3)
    grid = TimeGrid.regular(1.0, 16)
    a = simulate_paths(p, grid, 64, seed=12345)
    b = simulate_paths(p, grid, 64, seed=12345)
    assert np.array_equal(a.values, b.values)
    c = simulate_paths(p, grid, 64, seed=12346)
    assert not np.array_equal(a.values, c.values)


def test_path_rows_do_not_depend_on_how_many_paths_are_drawn():
    # Block-keyed substreams: row i of a small run equals row i of a large run,
    # also across an 8192-row block boundary, which is what makes chunked or
    # parallel generation order-independent.
    p = ModelParams(x0=1.0, r=0.05, sigma=0.3)
    grid = TimeGrid.regular(1.0, 8)
    for n_small, n_large in [(10, 200), (8193, 2 * 8192 + 3)]:
        small = simulate_paths(p, grid, n_small, seed=99)
        large = simulate_paths(p, grid, n_large, seed=99)
        assert np.array_equal(small.values, large.values[:n_small])


def test_row_i_reads_its_block_substream_at_its_offset():
    # Pins the sampling scheme: row i takes n_steps normals at offset
    # (i % 8192)*n_steps of Philox(key=seed, counter=(i // 8192) << 128).
    p = ModelParams(x0=1.0, r=0.05, sigma=0.3)
    grid = TimeGrid.regular(1.0, 5)
    n, seed = 2 * 8192 + 3, 2024
    paths = simulate_paths(p, grid, n, seed)
    for i in (0, 1, 8191, 8192, 8193, n - 1):
        gen = np.random.Generator(np.random.Philox(key=seed, counter=(i // 8192) << 128))
        z = gen.standard_normal((i % 8192 + 1) * 5)[-5:]
        expected = p.x0 + p.mu * grid.times[1:] + np.cumsum(p.sigma * np.sqrt(grid.steps) * z)
        assert paths.values[i, 0] == p.x0
        assert np.array_equal(paths.values[i, 1:], expected)


def test_each_block_reads_its_substream_from_the_start():
    # One generator is re-keyed per block; it must give exactly the normals of a
    # fresh generator(b), across blocks 0-3 and a partial last block.
    seed, n = 31, 3 * 8192 + 5
    for width in (1, 3):
        blocks = _gaussian_blocks(seed, n, np.ones(width), np.zeros(width),
                                  lambda start, block: (start, block.copy()))
        assert [start for start, _ in blocks] == [0, 8192, 2 * 8192, 3 * 8192]
        for b, (start, block) in enumerate(blocks):
            z = SeedStreams(seed).generator(b).standard_normal((min(8192, n - start), width))
            assert np.array_equal(block, np.cumsum(z, axis=1))


def _stratified(seed, n):  # the rows of the stratified fill, their tail draws left unread
    return np.concatenate(_gaussian_blocks(seed, n, np.ones(1), 0.0,
                                           lambda _, x: x[:, 0].copy(),
                                           (model._EVEN, lambda blocks, *_: blocks)))


def _stratum_edges():
    from statistics import NormalDist
    return np.array([NormalDist().inv_cdf(j / 8192) for j in range(1, 8192)])


def test_a_stratified_block_holds_one_value_per_stratum_in_its_documented_row():
    # Stratum j is [e_j, e_{j+1}), e_j = Phi^-1(j/8192). Row i of block b takes
    # stratum bitrev13((i + c) % 8192), c = floor(8192*u) for the last of the
    # 2*8192 + 1 uniforms that the block's generator draws first.
    edges, k = _stratum_edges(), np.arange(8192)
    bitrev = sum(((k >> bit) & 1) << (12 - bit) for bit in range(13))
    for seed in range(20):
        z = _stratified(seed, 3 * 8192 + 5)
        for b in range(3):
            strata = np.searchsorted(edges, z[8192 * b : 8192 * (b + 1)], side="right")
            c = int(SeedStreams(seed).generator(b).random(2 * 8192 + 1)[-1] * 8192)
            assert np.array_equal(strata, bitrev[(k + c) % 8192])


@pytest.mark.parametrize("row", [0, 1, 4095, 8191])
def test_each_stratified_row_is_standard_normal(row):
    # Row 0 of 4,000 seeds: KS p = 0.40, mean -0.017, variance 0.997.
    stats = pytest.importorskip("scipy.stats")
    z = np.array([_stratified(seed, row + 1)[row] for seed in range(4000)])
    assert stats.kstest(z, "norm").pvalue > 1e-3


@functools.cache
def _further_draws_by_stratum():
    """Further draws of tail strata 0, 1, 2, 15 and their mirrors, 16 a block each, over 300
    blocks of seed 11, keyed by stratum; a row short of its draws repeats its own X, left out."""
    further = np.zeros(32, dtype=int)
    further[[0, 1, 2, 3, 16, 17, 30, 31]] = 16  # strata 0, 8191, 1, 2, 15, 8176, 8189, 8190
    edges, found = _stratum_edges(), {}

    def settle(blocks, first, rows, draws, sizes):
        for row in np.split(draws, np.cumsum(sizes)[:-1]):
            stratum = int(np.searchsorted(edges, row[0], side="right"))
            found.setdefault(stratum, []).extend(row[1:][row[1:] != row[0]])
        return blocks

    _gaussian_blocks(11, 300 * 8192, np.ones(1), 0.0, lambda *_: (), (further, settle))
    return {stratum: np.array(values) for stratum, values in found.items()}


@pytest.mark.parametrize("stratum", [0, 1, 2, 15, 8176, 8189, 8190, 8191])
def test_further_draws_of_a_tail_stratum_are_exact_draws_of_it(stratum):
    # Stratum j is [e_j, e_{j+1}), e_j = Phi^-1(j/8192): its law has the CDF
    # 8192*(Phi(x) - j/8192), taken on the mirror -x, stratum 8191 - j, above
    # the middle. The end strata draw by Marsaglia's method, the others by the
    # fill's quadratic proposal and its exp test; 4,800 draws a stratum.
    stats = pytest.importorskip("scipy.stats")
    x = _further_draws_by_stratum()[stratum]
    assert len(x) > 4700
    j = stratum
    if j >= 4096:
        x, j = -x, 8191 - j
    assert stats.kstest(x, lambda x: 8192.0 * stats.norm.cdf(x) - j).pvalue > 1e-3


@pytest.mark.parametrize("workers", [1, 2, 6])
def test_stratified_rows_keep_the_prefix_and_the_worker_bits(workers, monkeypatch):
    # A 1000-row call is the prefix of a 3*8192 + 5-row call, bit for bit, on
    # any worker count, and no RuntimeWarning is raised on any thread.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        long = _stratified(5, 3 * 8192 + 5)
        monkeypatch.setattr(model, "_usable_cpus", lambda: workers)
        assert np.array_equal(_stratified(5, 3 * 8192 + 5), long)
        assert np.array_equal(_stratified(5, 1000), long[:1000])


@pytest.mark.parametrize("width", [1, 2, 8, 45, 46, 64, 1000])
def test_tiles_hold_the_rows_of_a_whole_block_draw(width):
    # A worker draws a block as tiles of 2^16 // width rows (the whole block up
    # to 8 steps). Their rows, folded along the steps column by column or row
    # by row, must be those of one (rows, width) draw from generator(b) and its
    # row cumsum, in row order, however the tile edges fall.
    seed, n = 8, 8192 + 70
    scale, base = np.linspace(0.5, 1.5, width), np.linspace(-1.0, 1.0, width)
    tiles = _gaussian_blocks(seed, n, scale, base, lambda start, tile: (start, tile.copy()))
    rows = max(1, min(8192, (1 << 16) // width))
    starts = [*range(0, 8192, rows), *range(8192, n, rows)]
    assert [start for start, _ in tiles] == starts
    assert all(start + len(tile) in (*starts[1:], n) for start, tile in tiles)
    got = np.concatenate([tile for _, tile in tiles])
    for b in range(2):
        z = SeedStreams(seed).generator(b).standard_normal((min(8192, n - 8192 * b), width))
        expected = base + np.cumsum(scale * z, axis=1)
        assert np.array_equal(got[8192 * b : 8192 * b + len(z)], expected)


def test_wide_paths_match_a_direct_draw_at_tile_edges():
    # 1000 steps: tiles of 65 rows, so rows 64 | 65 and 129 | 130 sit on tile
    # edges, and the last tile of a block holds 8192 - 126*65 = 2 rows.
    p = ModelParams(x0=1.0, r=0.05, sigma=0.3)
    grid = TimeGrid.regular(1.0, 1000)
    n, seed = 8192 + 66, 77
    paths = simulate_paths(p, grid, n, seed)
    for i in (0, 64, 65, 66, 129, 130, 8189, 8190, 8191, 8192, 8192 + 64, 8192 + 65):
        z = SeedStreams(seed).generator(i // 8192).standard_normal((i % 8192 + 1, 1000))[-1]
        expected = p.x0 + p.mu * grid.times[1:] + np.cumsum(p.sigma * np.sqrt(grid.steps) * z)
        assert np.array_equal(paths.values[i, 1:], expected)


@pytest.mark.parametrize("workers", [1, 2])
def test_callbacks_overflow_without_a_warning_on_every_worker(workers, monkeypatch):
    # numpy's errstate does not reach a new thread; the sampler sets it around
    # each callback, on the calling thread and on the worker alike.
    monkeypatch.setattr(model, "_usable_cpus", lambda: workers)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _gaussian_blocks(0, 2 * 8192, np.ones(1), 0.0,
                               lambda _, tile: float(np.exp(tile + 1000.0).max()))
    assert got == [math.inf, math.inf]


@pytest.mark.parametrize("n_steps, n_paths, step_scale, fold", [
    (2, 500, 4.4e307, "add"), (1000, 100, 3.6e306, "accumulate")])
def test_an_overflow_along_the_steps_is_refused_by_name(n_steps, n_paths, step_scale, fold):
    # Every scaled normal is finite; only the running sum along the steps
    # overflows: column by column at 2 steps (numpy's add), row by row at 1000
    # (its accumulate). Either way the named error comes back, with no warning.
    grid = TimeGrid.regular(1.0, n_steps)
    p = ModelParams(x0=0.0, r=0.0, sigma=step_scale * math.sqrt(n_steps))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=f"path values .* must be finite: .* in {fold}$"):
            simulate_paths(p, grid, n_paths, seed=1)


@pytest.mark.parametrize("p, t_end, n_steps, message", [
    # The line 1e308 + t passes the float range at the last of 3 grid times.
    (ModelParams(x0=1e308, r=1.0, sigma=1.0), 1e308, 2,
     "x0 + mu*t must be finite, got inf at index 2"),
    # Scale and line both fail there; the line is named, as exact_marginal names it.
    (ModelParams(x0=1e308, r=1.0, sigma=1e156), 1e308, 2,
     "x0 + mu*t must be finite, got inf at index 2"),
    # Each step's scale is 1.4e308; the scale at grid time 6.7e307 is 2e308.
    (ModelParams(x0=0.0, r=0.0, sigma=2.5e154), 1e308, 3,
     "sigma*sqrt(t) must be finite, got inf at index 2"),
], ids=["line", "line-and-scale", "scale"])
def test_both_samplers_refuse_a_law_past_the_float_range_at_its_grid_position(
        p, t_end, n_steps, message):
    grid = TimeGrid.regular(t_end, n_steps)
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        simulate_paths(p, grid, 1, seed=0)
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        hitting_frequency(p, 1.0, grid, 1, seed=0)


@pytest.mark.parametrize("workers", [1, 2, 6])
def test_a_wide_scan_holds_a_bounded_tile_per_worker(workers, monkeypatch):
    # A tile is at most 2^16 floats (512 KB); with its mask, one worker stays
    # under 1 MiB, whatever the path count. A whole 8192 x 1000 block would be
    # 65.5 MB per worker. 3*8192 + 5 rows run on at most 3 workers.
    monkeypatch.setattr(model, "_usable_cpus", lambda: workers)
    p = ModelParams(x0=0.0, r=0.0, sigma=1.0)
    grid = TimeGrid.regular(1.0, 1000)
    n = 3 * 8192 + 5
    expected = hitting_frequency(p, 1.0, grid, n, seed=2)  # one-time allocations happen here
    tracemalloc.start()
    try:
        assert hitting_frequency(p, 1.0, grid, n, seed=2) == expected
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < min(workers, 3) * (1 << 20)


def test_results_do_not_depend_on_the_worker_count(monkeypatch):
    # More workers than blocks or cores, with thread switches forced as often as
    # the interpreter allows: every result must match the one-worker bits, and
    # every worker thread must be gone when the call returns.
    p = ModelParams(x0=0.2, r=0.05, sigma=0.3)
    grid = TimeGrid.regular(1.0, 3)
    n = 3 * 8192 + 5
    v = sine_solution(1.0, 0.05, 0.3)

    def results():
        return (
            simulate_paths(p, grid, n, seed=9).values,
            hitting_frequency(p, 0.5, grid, n, seed=9),
            drift_estimate(v, p, 0.3, 0.5, 1e-3, n, seed=9),
            integrability_check(v, p, 1.0, n, seed=9),
        )

    threads_before = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runs = {}
        for workers in (1, 2, 6):
            monkeypatch.setattr(model, "_usable_cpus", lambda workers=workers: workers)
            runs[workers] = results()
            assert threading.active_count() == threads_before
    finally:
        sys.setswitchinterval(interval)
    values, hits, drift, witness = runs[1]
    for workers in (2, 6):
        assert np.array_equal(runs[workers][0], values)
        assert runs[workers][1:] == (hits, drift, witness)


@pytest.mark.parametrize("n_rows, started", [(10_000, 0), (16_383, 1)])
def test_a_short_tail_block_starts_no_thread(n_rows, started, monkeypatch):
    # 10,000 rows are 8192 + 1808: the caller runs both blocks. 16,383 rows
    # round up to two blocks' worth and take the second CPU.
    monkeypatch.setattr(model, "_usable_cpus", lambda: 2)
    starts = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda self: starts.append(start(self)))
    blocks = _gaussian_blocks(3, n_rows, np.ones(1), np.zeros(1), lambda start, block: len(block))
    assert sum(blocks) == n_rows
    assert len(starts) == started


def test_initial_column_equals_x0():
    p = ModelParams(x0=-3.5, r=0.1, sigma=0.5)
    paths = simulate_paths(p, TimeGrid.regular(1.0, 3), 20, seed=5)
    assert np.all(paths.values[:, 0] == -3.5)


def test_simulate_rejects_zero_paths_and_bad_seed():
    p = ModelParams(x0=0.0, r=0.0, sigma=1.0)
    grid = TimeGrid.regular(1.0, 2)
    with pytest.raises(ValidationError, match="n_paths"):
        simulate_paths(p, grid, 0, seed=0)
    with pytest.raises(ValidationError, match="seed"):
        simulate_paths(p, grid, 1, seed=-1)
    with pytest.raises(ValidationError, match="seed"):
        simulate_paths(p, grid, 1, seed=1 << 64)
    # Not an integer: refused by name, never truncated or parsed.
    for seed in (2.5, "7", math.nan):
        with pytest.raises(ValidationError, match="^seed "):
            simulate_paths(p, grid, 1, seed=seed)
        with pytest.raises(ValidationError, match="^seed "):
            SeedStreams(seed)
    # An integral float is the integer it equals.
    assert np.array_equal(simulate_paths(p, grid, 3, seed=2.0).values,
                          simulate_paths(p, grid, 3, seed=2).values)


@pytest.mark.parametrize(
    "x0,r,sigma,t",
    [(0.0, 0.0, 1.0, 1.0), (100.0, 0.05, 0.2, 4.0), (-2.0, 0.3, 2.0, 0.25)],
)
def test_sampled_moments_match_exact_marginal(x0, r, sigma, t):
    n = 100_000
    p = ModelParams(x0=x0, r=r, sigma=sigma)
    law = exact_marginal(p, t)
    paths = simulate_paths(p, TimeGrid(np.array([0.0, t])), n, seed=2024)
    x_t = paths.values[:, 1]
    se_mean = law.std / math.sqrt(n)
    se_var = law.variance * math.sqrt(2.0 / (n - 1))
    assert abs(x_t.mean() - law.mean) <= 4 * se_mean
    assert abs(x_t.var(ddof=1) - law.variance) <= 4 * se_var


def test_driftless_unit_variance_example():
    n = 100_000
    p = ModelParams(x0=0.0, r=0.0, sigma=1.0)
    paths = simulate_paths(p, TimeGrid(np.array([0.0, 1.0])), n, seed=7)
    x1 = paths.values[:, 1]
    assert abs(x1.mean()) <= 4 / math.sqrt(n)
    assert abs(x1.var(ddof=1) - 1.0) <= 0.05


def test_first_hitting_time_on_drift_line():
    grid = TimeGrid.regular(1.0, 100)
    paths = simulate_paths(ModelParams(x0=0.0, r=1.0, sigma=0.0), grid, 1, seed=0)
    tau = first_hitting_time(paths.values[0], grid, 0.5)
    assert isinstance(tau, float) and tau == pytest.approx(0.5, abs=1e-12)


def test_first_hitting_time_at_start():
    grid = TimeGrid(np.array([0.0, 1.0]))
    tau = first_hitting_time(np.array([0.5, 0.2]), grid, 0.5)
    assert isinstance(tau, float) and tau == 0.0


def test_first_hitting_time_grid_convention():
    # 0.4 stays below the level; the first grid time at or beyond 0.5 is t=2.
    grid = TimeGrid(np.array([0.0, 1.0, 2.0]))
    tau = first_hitting_time(np.array([0.0, 0.4, 0.6]), grid, 0.5)
    assert isinstance(tau, float) and tau == 2.0


def test_first_hitting_time_down_crossing_and_miss():
    grid = TimeGrid(np.array([0.0, 1.0, 2.0]))
    down = first_hitting_time(np.array([1.0, 0.7, 0.2]), grid, 0.5)
    assert isinstance(down, float) and down == 2.0
    miss = first_hitting_time(np.array([0.0, 0.1, 0.2]), grid, 0.5)
    assert miss is None


def test_first_hitting_time_ignores_later_values():
    grid = TimeGrid(np.array([0.0, 1.0, 2.0, 3.0]))
    a = first_hitting_time(np.array([0.0, 0.6, 0.1, 0.1]), grid, 0.5)
    b = first_hitting_time(np.array([0.0, 0.6, 9.9, -9.9]), grid, 0.5)
    assert isinstance(a, float) and a == b == 1.0


def test_first_hitting_time_refuses_a_path_off_the_grid():
    grid = TimeGrid(np.array([0.0, 1.0, 2.0]))
    with pytest.raises(ValidationError, match="path has 2 values but the grid has 3 times"):
        first_hitting_time(np.array([0.0, 0.6]), grid, 0.5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_first_hitting_time_refuses_a_non_finite_path_value(bad):
    # A NaN compares false with the level, so it would read as "never reached".
    grid = TimeGrid(np.array([0.0, 1.0]))
    with pytest.raises(ValidationError, match="path must be finite"):
        first_hitting_time(np.array([0.0, bad]), grid, 1.0)


def test_hitting_probability_matches_frozen_oracle():
    p0 = ModelParams(x0=0.0, r=0.0, sigma=1.0)
    assert hitting_probability(p0, 1.0, 1.0) == pytest.approx(HIT_NO_DRIFT, abs=1e-12)
    p1 = ModelParams(x0=0.0, r=1.0, sigma=1.0)
    assert hitting_probability(p1, 1.0, 1.0) == pytest.approx(HIT_UNIT_DRIFT, abs=1e-12)


def test_hitting_probability_vanishes_for_short_horizons():
    p = ModelParams(x0=0.0, r=0.5, sigma=1.0)
    assert hitting_probability(p, 1.0, 1e-12) < 1e-10


def test_hitting_probability_mirror_symmetry():
    # Reflecting the level and the drift across the start leaves the law unchanged.
    up = hitting_probability(ModelParams(x0=0.0, r=0.3, sigma=0.7), 1.0, 2.0)
    down = hitting_probability(ModelParams(x0=0.0, r=-0.3, sigma=0.7), -1.0, 2.0)
    assert up == pytest.approx(down, rel=1e-12)


def test_hitting_probability_degenerate_sigma():
    reaches = ModelParams(x0=0.0, r=1.0, sigma=0.0)
    assert hitting_probability(reaches, 0.5, 1.0) == 1.0
    assert hitting_probability(reaches, 2.0, 1.0) == 0.0
    wrong_way = ModelParams(x0=0.0, r=-1.0, sigma=0.0)
    assert hitting_probability(wrong_way, 0.5, 1.0) == 0.0
    assert hitting_probability(wrong_way, -0.5, 1.0) == 1.0
    # No drift and no noise: the path stays at x0 and never reaches a level.
    still = ModelParams(x0=0.0, r=0.0, sigma=0.0)
    assert hitting_probability(still, 0.5, 1.0) == hitting_probability(still, -0.5, 1e300) == 0.0


def test_hitting_probability_holds_where_the_reflection_exponent_overflows():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # 2*mu*d/sigma^2 overflows, yet the drift carries the path past the level at once.
        p = ModelParams(x0=-0.5, r=1.08e296, sigma=0.5)
        assert hitting_probability(p, 1.89e16, 1.0) == 1.0
        # log Phi alone at -inf is a zero term, not an error.
        assert hitting_probability(ModelParams(x0=0.0, r=1.0, sigma=1.0), 1e200, 1.0) == 0.0
        # level - x0 and mu*t both overflow; the drift line crosses the level at t = 2e8.
        p = ModelParams(x0=-1e308, r=1e300, sigma=1.0)
        assert hitting_probability(p, 1e308, 1e10) == 1.0
        # level - x0 overflows, yet is 0.02 in units of sigma*sqrt(t), with no drift.
        p = ModelParams(x0=-1e308, r=0.0, sigma=1e300)
        assert hitting_probability(p, 1e308, 1e20) == pytest.approx(2 * model._normal_cdf(-0.02),
                                                                    rel=1e-13)


@pytest.mark.parametrize("scale", [1e-170, 1e-155, 1e160])
def test_hitting_probability_does_not_depend_on_the_unit_of_price(scale):
    # Measuring x0, level, mu and sigma in another unit leaves the law alone, also
    # where sigma^2 underflows to 0 (1e-170) or to a subnormal (1e-155), or where
    # mu*d overflows (1e160).
    for mu, d in [(9.0, 9.0), (-0.5, 2.0), (3.0, 0.01)]:
        unit = hitting_probability(ModelParams(x0=0.0, r=mu, sigma=1.0), d, 1.0)
        scaled = hitting_probability(ModelParams(x0=0.0, r=mu * scale, sigma=scale), d * scale, 1.0)
        assert scaled == pytest.approx(unit, rel=1e-13)


def _hitting_probability_mpmath(mpmath, mu, sigma, d, t):
    """The closed form at 50 digits, for a level d above the start."""
    with mpmath.workdps(50):
        mu, sigma, d, t = map(mpmath.mpf, (mu, sigma, d, t))
        s = sigma * mpmath.sqrt(t)
        return (mpmath.ncdf((-d + mu * t) / s)
                + mpmath.exp(2 * mu * d / sigma**2) * mpmath.ncdf((-d - mu * t) / s))


# (mu, sigma, d, t): a product grid, then drift equal to the distance at unit
# sigma and t, which puts the argument b = -(d + mu*t)/(sigma*sqrt(t)) of the
# reflection term's Phi at -19.9, -20.1, -37.6, -100 and -177 while that term
# still carries a share of P of order 1/|b|.
_HIT_GRID = [
    *itertools.product([-30.0, -5.0, -0.5, 0.0, 0.5, 5.0, 20.0], [0.02, 0.3, 1.0, 3.0],
                       [0.01, 0.5, 1.0, 10.0, 50.0], [1e-3, 0.5, 1.0, 7.0]),
    *((m, 1.0, m, 1.0) for m in (9.95, 10.05, 18.8, 50.0, 88.5)),
]


def test_hitting_probability_matches_mpmath_into_the_far_tail():
    mpmath = pytest.importorskip("mpmath")
    worst_likely = worst_rare = 0.0
    arguments = []
    for mu, sigma, d, t in _HIT_GRID:
        exact = _hitting_probability_mpmath(mpmath, mu, sigma, d, t)
        if exact < mpmath.mpf("1e-300"):
            continue
        arguments.append((-d - mu * t) / (sigma * math.sqrt(t)))
        for sign in (1.0, -1.0):  # the level above the start, then its mirror image
            got = hitting_probability(ModelParams(x0=0.0, r=sign * mu, sigma=sigma), sign * d, t)
            rel = float(abs((got - exact) / exact))
            if exact >= 1e-10:
                worst_likely = max(worst_likely, rel)
            else:
                worst_rare = max(worst_rare, rel)
    assert worst_likely <= 1e-13
    assert worst_rare <= 1e-12
    # Both branches of log Phi are exercised, far into the series one.
    for b in (-19.9, -20.1, -37.6, -100.0, -177.0):
        assert any(abs(arg - b) < 0.05 for arg in arguments)
    assert max(arguments) > 0.0 and min(arguments) < -1000.0


def test_hitting_probability_rejects_start_on_level():
    with pytest.raises(ValidationError, match="level"):
        hitting_probability(ModelParams(x0=1.0, r=0.0, sigma=1.0), 1.0, 1.0)


def test_hitting_frequency_agrees_with_closed_form():
    p = ModelParams(x0=0.0, r=0.0, sigma=1.0)
    grid = TimeGrid.regular(1.0, 1000)
    freq = hitting_frequency(p, 1.0, grid, 20_000, seed=11)
    # Grid monitoring undercounts continuous crossings; allow 0.01 on top of noise.
    assert abs(freq.frequency - HIT_NO_DRIFT) <= 4 * freq.standard_error + 0.01
    assert freq.frequency <= HIT_NO_DRIFT + 4 * freq.standard_error  # bias is one-sided


def test_hitting_frequency_counts_the_simulated_paths_that_reach_the_level():
    # 2*8192 + 3 paths straddle two block boundaries.
    p = ModelParams(x0=0.0, r=0.1, sigma=1.0)
    grid = TimeGrid.regular(1.0, 50)
    n = 2 * 8192 + 3
    paths = simulate_paths(p, grid, n, seed=3)
    up = hitting_frequency(p, 0.8, grid, n, seed=3)
    assert up.n_hits == int((paths.values >= 0.8).any(axis=1).sum())
    down = hitting_frequency(p, -0.8, grid, n, seed=3)
    assert down.n_hits == int((paths.values <= -0.8).any(axis=1).sum())
