"""First-passage times: Monte Carlo frequencies against the exact law.

When the price starts below a level K, the time it first touches K is a
stopping time: deciding whether it has happened by time t needs no knowledge
of the future. For the additive model the law of that time is known in
closed form, which gives an oracle to audit the simulator against.
"""

from bachelier_lab import (
    ModelParams,
    TimeGrid,
    first_hitting_time,
    hitting_frequency,
    hitting_probability,
    simulate_paths,
)

params = ModelParams(x0=0.0, r=0.0, sigma=1.0)
level, horizon = 1.0, 1.0

print("== one path, one stopping time ==")
grid = TimeGrid.regular(horizon, 1000)
paths = simulate_paths(params, grid, n_paths=5, seed=3)
for i in range(5):
    tau = first_hitting_time(paths.values[i], grid, level)
    print(f"path {i}: tau = {'not reached' if tau is None else f'{tau:.3f}'}")

print()
print("== closed form vs Monte Carlo ==")
exact = hitting_probability(params, level, horizon)
print(f"exact P(tau <= {horizon}) = {exact:.7f}")
for step, n_steps in ((0.01, 100), (0.001, 1000)):
    freq = hitting_frequency(params, level, TimeGrid.regular(horizon, n_steps),
                             n_paths=50_000, seed=11)
    print(f"grid step {step}: frequency {freq.frequency:.4f} "
          f"(se {freq.standard_error:.4f}, {freq.n_hits} hits)")
print("A grid only sees crossings at its own times, so the frequency sits a")
print("little below the continuous-time law; refining the grid shrinks the gap.")

print()
print("== drift matters ==")
drifted = ModelParams(x0=0.0, r=1.0, sigma=1.0)
print(f"with unit drift: P(tau <= 1) = {hitting_probability(drifted, level, horizon):.6f}")
downhill = ModelParams(x0=0.0, r=-1.0, sigma=1.0)
print(f"drifting away:   P(tau <= 1) = {hitting_probability(downhill, level, horizon):.6f}")
