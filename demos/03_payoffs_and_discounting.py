"""Option payoffs, the three moneyness states, and discounting conventions.

A call pays max(x - K, 0), a put max(K - x, 0); exactly at the strike both
are zero, which is the boundary the whole rate ladder is built on. The price
axis splits into three states: above the strike (a), at it (b), below (c).
"""

import numpy as np

from bachelier_lab import (
    DiscountSign,
    call_payoff,
    discounted_value,
    moneyness,
    put_payoff,
)

strike = 100.0

print("== payoff table ==")
print(f"{'x':>6} {'call':>6} {'put':>6} {'state':>5}")
for x in (80.0, 95.0, 100.0, 105.0, 120.0):
    state = moneyness(x, strike, tol=1e-9)
    print(f"{x:6.1f} {call_payoff(x, strike):6.1f} {put_payoff(x, strike):6.1f} "
          f"{state.letter:>5}")

print()
print("== call minus put recovers the forward difference exactly ==")
xs = np.linspace(60.0, 140.0, 9)
print("max |(call - put) - (x - K)| =",
      np.max(np.abs(call_payoff(xs, strike) - put_payoff(xs, strike) - (xs - strike))))

print()
print("== two discounting conventions ==")
value, r, t = 5.0, 0.05, 1.0
minus = discounted_value(value, r, t)  # e^{-rt}, the standard present value
plus = discounted_value(value, r, t, DiscountSign.PLUS)
print(f"value {value} at r={r}, t={t}:")
print(f"  minus convention (e^-rt): {minus:.6f}")
print(f"  plus convention  (e^+rt): {plus:.6f}")
print(f"  the two weights invert each other: {minus * plus / value**2 * value:.15f}")
print("Every result downstream records which convention produced it.")
