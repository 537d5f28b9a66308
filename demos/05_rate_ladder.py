"""The quantized rate ladder and its normalization.

The oscillatory hedged-form solution must vanish at the strike (at the money
the payoff is zero). That boundary condition confines the wave to [0, K]
exactly like a standing wave in a box, and only rates

    r_n = (sigma^2 / (2 K^2)) * n^2 * pi^2

survive. Between ladder rungs the boundary condition simply cannot be met.
"""

import numpy as np

from bachelier_lab import (
    IntegralMethod,
    ModeSpec,
    RateSpectrum,
    boundary_residual,
    mode_index,
    normalization_constant,
    payoff_surface,
)

sigma, strike = 0.2, 1.0

print("== the ladder ==")
print(f"{'n':>3} {'r_n':>12} {'wavenumber':>12} {'sin(aK)':>10}")
for mode in RateSpectrum.build(sigma, strike, n_max=5):
    print(f"{mode.n:3d} {mode.rate:12.7f} {mode.wavenumber:12.7f} "
          f"{boundary_residual(mode.n, sigma, strike):10.1e}")
print("rates grow like n^2, like sigma^2, and like 1/K^2")

print()
print("== reading a rate off the ladder ==")
for r in (0.1973921, 0.15, 0.7895684):
    n, admissible = mode_index(r, sigma, strike, rel_tol=1e-6)
    tag = "on the ladder" if admissible else "between rungs"
    print(f"r={r:<10} nearest mode n={n}: {tag}")

print()
print("== normalization over [0, K] ==")
mode = ModeSpec(n=1, sigma=sigma, strike=strike)
res = normalization_constant(mode.rate, sigma, strike)
quad = normalization_constant(mode.rate, sigma, strike, IntegralMethod.QUADRATURE)
print(f"ladder mode: integral {res.integral:.12f}, amplitude {res.amplitude:.12f} "
      f"(= sqrt(2/K)), cross-check error {quad.estimated_error:.1e}")
off = normalization_constant(0.1, sigma, strike)
print(f"off-ladder r=0.1: integral {off.integral:.6f}, amplitude {off.amplitude:.6f}")
print("(closed-form antiderivative, cross-checked by composite Gauss-Legendre quadrature)")

print()
print("== the weighted payoff surface Y(x, t) ==")
surf = payoff_surface(mode, res.amplitude, np.linspace(0, strike, 6), [0.0, 0.5, 1.0])
header = "    x " + "".join(f"  t={t:<6.1f}" for t in surf.t)
print(header)
for i, x in enumerate(surf.x):
    print(f"{x:5.1f} " + "".join(f"{y:9.4f}" for y in surf.values[i]))
print("zero at both walls for every t; the growth factor e^{r t} scales columns")
