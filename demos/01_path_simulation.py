"""Simulating the additive price model.

The model moves by X(t) = x0 + mu*t + sigma*W(t): increments are Gaussian
with mean mu*dt and variance sigma^2*dt regardless of the price level, so
paths can be sampled exactly on any grid. Prices may go negative; that is a
property of the additive model, not a bug.
"""

import contextlib
import io

import numpy as np

from bachelier_lab import ModelParams, TimeGrid, exact_marginal, simulate_paths
from bachelier_lab.cli import run

params = ModelParams(x0=100.0, r=0.05, sigma=0.2)
grid = TimeGrid.regular(1.0, 12)

print("== a few sample paths ==")
paths = simulate_paths(params, grid, n_paths=3, seed=42)
for i in range(paths.n_paths):
    tail = ", ".join(f"{v:.3f}" for v in paths.values[i][-4:])
    print(f"path {i}: ... {tail}")

print()
print("== the marginal law is exact, no time-stepping bias ==")
law = exact_marginal(params, 1.0)
big = simulate_paths(params, TimeGrid(np.array([0.0, 1.0])), n_paths=50_000, seed=7)
x1 = big.values[:, 1]
print(f"exact:  mean {law.mean:.4f}, variance {law.variance:.6f}")
print(f"sample: mean {x1.mean():.4f}, variance {x1.var(ddof=1):.6f}")

print()
print("== reproducibility ==")
again = simulate_paths(params, grid, n_paths=3, seed=42)
print("same seed, bit-identical:", np.array_equal(paths.values, again.values))
# Each block of 8192 paths owns one substream of the master seed, so the first
# rows of a bigger run coincide with a smaller one; chunked or parallel
# generation cannot change the numbers.
more = simulate_paths(params, grid, n_paths=10, seed=42)
print("rows stable under a larger run:", np.array_equal(paths.values, more.values[:3]))

print()
print("== CSV export through the CLI: one row per grid time ==")
buf = io.StringIO()
with contextlib.redirect_stdout(buf):
    run(["simulate", "--x0", "100", "--rate", "0.05", "--sigma", "0.2", "--t-end", "1",
         "--steps", "12", "--paths", "3", "--seed", "42", "--precision", "6"])
table = [line for line in buf.getvalue().splitlines() if not line.startswith("#")]
print("\n".join(table[:5]))
