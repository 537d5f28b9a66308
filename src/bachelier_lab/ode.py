"""Constant-coefficient expected-payoff ODEs and their closed-form solutions.

Two second-order problems for the payoff profile V(x) appear in this lab:

* full form:    r*V + r*V' + (sigma^2/2)*V'' = 0
* hedged form:  r*V + (sigma^2/2)*V''        = 0   (the V' term removed)

The hedged form drops the first-derivative term, which is delta hedging
expressed as an equation choice rather than a trading strategy. Both have
exponential/oscillatory closed forms through their characteristic roots;
candidate solutions are checked numerically via central-difference residuals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ValidationError, check


class OdeForm(str, Enum):
    FULL = "full"
    HEDGED = "hedged"


class RootCase(str, Enum):
    COMPLEX_CONJUGATE = "complex_conjugate"
    DISTINCT_REAL = "distinct_real"
    REPEATED_REAL = "repeated_real"


@dataclass(frozen=True)
class OdeProblem:
    """One of the two payoff ODEs, with diffusion constant D = sigma^2/2."""

    r: float
    sigma: float
    form: OdeForm

    def __post_init__(self):
        check("r", self.r)
        check("sigma", self.sigma, "positive")

    @property
    def diffusion(self) -> float:
        return _diffusion(self.sigma)


def _diffusion(sigma: float) -> float:
    """D = sigma^2/2; rejected if it underflows to 0 or overflows."""
    return check("diffusion sigma^2/2", 0.5 * sigma * sigma, "positive")


@dataclass(frozen=True)
class CharacteristicRoots:
    """Root pair of a characteristic polynomial, tagged by case.

    ``root1`` carries the larger real part (distinct real case) or the
    positive imaginary part (complex case); repeated roots store the same
    value twice.
    """

    case: RootCase
    root1: complex
    root2: complex

    def __post_init__(self):
        check("characteristic roots", (self.root1, self.root2))
        r1, r2 = self.root1, self.root2
        if self.case is RootCase.COMPLEX_CONJUGATE:
            tagged = r2 == r1.conjugate() and r1.imag > 0.0
        elif self.case is RootCase.REPEATED_REAL:
            tagged = r1 == r2 and r1.imag == 0.0
        else:
            tagged = r1.imag == 0.0 and r2.imag == 0.0
        if not tagged:
            raise ValidationError(f"roots {r1!r}, {r2!r} do not fit the case {self.case.value}")


def characteristic_roots_full(r: float, sigma: float) -> CharacteristicRoots:
    """Roots of (sigma^2/2)*lam^2 + r*lam + r = 0.

    Case boundaries in the (r, sigma) plane: complex conjugates for
    0 < r < 2*sigma^2, a repeated real root at r = 0 and r = 2*sigma^2,
    distinct real roots otherwise.
    """
    check("sigma", sigma, "positive")
    check("r", r)
    a = _diffusion(sigma)
    sig2 = 2.0 * a
    if r == 0.0:
        return CharacteristicRoots(RootCase.REPEATED_REAL, 0j, 0j)
    disc = check("discriminant r^2 - 2*sigma^2*r", r * r - 2.0 * sig2 * r)
    # The repeated-root boundary r = 2*sigma^2 is a zero of the discriminant;
    # honor it within a few ulps of the computed value. The bound is scaled
    # term by term: r^2 + 2*sigma^2*|r| itself can overflow when disc does not.
    ulps = 8.0 * np.finfo(float).eps
    if abs(disc) <= ulps * r * r + ulps * 2.0 * sig2 * abs(r):
        lam = complex(-r / sig2)
        return CharacteristicRoots(RootCase.REPEATED_REAL, lam, lam)
    if 0.0 < r < 2.0 * sig2:
        real = -r / sig2
        imag = math.sqrt(-disc) / sig2
        return CharacteristicRoots(
            RootCase.COMPLEX_CONJUGATE, complex(real, imag), complex(real, -imag)
        )
    # Distinct real: evaluate the quadratic formula in its cancellation-free
    # arrangement, then order by real part.
    sq = math.sqrt(disc)
    q = -0.5 * (r + math.copysign(sq, r))
    lo, hi = sorted((q / a, r / q))
    return CharacteristicRoots(RootCase.DISTINCT_REAL, complex(hi), complex(lo))


def _wavenumber(r: float, sigma: float) -> float:
    """sqrt(r/D) with D = sigma^2/2, for r > 0; rejected if it leaves the float range."""
    return check("wavenumber sqrt(r/D)", math.sqrt(r / _diffusion(sigma)), "positive")


def characteristic_roots_hedged(r: float, sigma: float) -> CharacteristicRoots:
    """Roots of r + (sigma^2/2)*lam^2 = 0: purely imaginary +/- i*sqrt(r/D)."""
    check("sigma", sigma, "positive")
    if check("r", r, "nonnegative") == 0.0:
        return CharacteristicRoots(RootCase.REPEATED_REAL, 0j, 0j)
    w = _wavenumber(r, sigma)
    return CharacteristicRoots(RootCase.COMPLEX_CONJUGATE, complex(0.0, w), complex(0.0, -w))


@dataclass(frozen=True)
class ExponentialSolution:
    """Two-parameter closed form over a characteristic root pair, evaluated in real arithmetic.

    The value is the real part of coef1*e^{root1*x} + coef2*e^{root2*x}, or
    of (coef1 + coef2*x)*e^{root*x} for a repeated root: for real ODE
    coefficients the real part of a complex solution is itself a solution.
    With c1 = coef1, c2 = coef2, it is computed per case as

    * repeated root lam:         (Re c1 + Re c2*x) * e^{lam*x}
    * distinct real lam1, lam2:  Re c1 * e^{lam1*x} + Re c2 * e^{lam2*x}
    * conjugate pair a +/- i*b:  e^{a*x} * ((Re c1 + Re c2)*cos(b*x) + (Im c2 - Im c1)*sin(b*x))

    where ``root1`` = a + i*b. A zero cosine coefficient drops the cosine term,
    else a zero sine coefficient (real coefficients) the sine term, and a = 0
    drops e^{a*x}: the hedged sine mode, coefficients (0, i*A), is A*sin(b*x).
    """

    roots: CharacteristicRoots
    coef1: complex
    coef2: complex

    @property
    def wavenumber(self) -> float:
        """Im root1: b of a conjugate pair, sqrt(r/D) for the hedged form, 0 for real roots."""
        return self.roots.root1.imag

    def __call__(self, x):
        """V at ``x``, elementwise; an overflow passes through as numpy's inf or NaN and warning."""
        x = np.asarray(x, dtype=float)
        c1, c2, lam1 = self.coef1, self.coef2, self.roots.root1
        if self.roots.case is RootCase.REPEATED_REAL:
            out = (c1.real + c2.real * x) * np.exp(lam1.real * x)
        elif self.roots.case is RootCase.DISTINCT_REAL:
            out = c1.real * np.exp(lam1.real * x) + c2.real * np.exp(self.roots.root2.real * x)
        else:
            cos_coef, sin_coef = c1.real + c2.real, c2.imag - c1.imag
            if cos_coef == 0.0:
                out = sin_coef * np.sin(lam1.imag * x)
            else:
                out = cos_coef * np.cos(lam1.imag * x)
                if sin_coef != 0.0:
                    out += sin_coef * np.sin(lam1.imag * x)
            if lam1.real != 0.0:
                out = np.exp(lam1.real * x) * out
        return float(out) if out.ndim == 0 else out

    def _mean_square(self, m: float, s: float) -> float | None:
        """E[V(X)^2] for X ~ N(m, s^2) in closed form; None where it leaves the float range.

        Each case applies E[e^{kX}] = e^{k*m + k^2*s^2/2}, k complex, to V^2,
        in an arrangement whose terms share one sign, except where P*Q > 0
        below; there the subtracted term is at most half the first:

        * repeated lam:  e^{2*lam*(m + lam*s^2)} * ((Re c1 + Re c2*(m + 2*lam*s^2))^2
          + (Re c2*s)^2)
        * distinct p, q:  (P + Q)^2 + 2*P*Q*(e^{-(p-q)^2*s^2/2} - 1) with
          P = Re c1*e^{p*(m + p*s^2)} and Q = Re c2*e^{q*(m + q*s^2)}
        * pair a +/- i*b:  e^{2*a*(m + a*s^2)} * ((C^2 + S^2)*(1 - e^{-u})/2 + e^{-u}*W^2)
          with u = 2*b^2*s^2 and W = C*cos(b*m') + S*sin(b*m'), m' = m + 2*a*s^2

        where C and S are the cosine and sine coefficients of ``__call__``. The
        last is (|g|^2*e^{2*a*m + 2*a^2*s^2} + Re[g^2*e^{2*lam*m + 2*lam^2*s^2}])/2
        for V = Re[g*e^{lam*x}], g = C - i*S and lam = a + i*b, with the
        e^{-u} part of |g|^2 folded into W^2.
        """
        c1, c2, lam1 = self.coef1, self.coef2, self.roots.root1
        s2 = s * s
        with np.errstate(all="ignore"):
            if self.roots.case is RootCase.REPEATED_REAL:
                lam = lam1.real
                level, slope = c1.real + c2.real * (m + 2.0 * lam * s2), c2.real * s
                value = np.exp(2.0 * lam * (m + lam * s2)) * (level * level + slope * slope)
            elif self.roots.case is RootCase.DISTINCT_REAL:
                p, q = lam1.real, self.roots.root2.real
                big_p = c1.real * np.exp(p * (m + p * s2))
                big_q = c2.real * np.exp(q * (m + q * s2))
                total, gap = big_p + big_q, (p - q) * s
                value = total * total + 2.0 * big_p * big_q * np.expm1(-0.5 * gap * gap)
            else:
                a, b = lam1.real, lam1.imag
                cos_coef, sin_coef = c1.real + c2.real, c2.imag - c1.imag
                u, phase = 2.0 * b * b * s2, b * (m + 2.0 * a * s2)
                wave = cos_coef * np.cos(phase) + sin_coef * np.sin(phase)
                spread = -0.5 * (cos_coef * cos_coef + sin_coef * sin_coef) * np.expm1(-u)
                value = np.exp(2.0 * a * (m + a * s2)) * (spread + np.exp(-u) * wave * wave)
        value = float(value)
        return value if math.isfinite(value) else None


def general_solution(roots: CharacteristicRoots, coef1: complex, coef2: complex) -> ExponentialSolution:
    """Closed-form solution with free coefficients over the given roots."""
    check("coef1", coef1)
    check("coef2", coef2)
    return ExponentialSolution(roots=roots, coef1=complex(coef1), coef2=complex(coef2))


def sine_solution(amplitude: float, r: float, sigma: float) -> ExponentialSolution:
    """Hedged-form A*sin(sqrt(r/D)*x), D = sigma^2/2: coefficients (0, i*A), so A is not rounded."""
    check("amplitude", amplitude)
    check("r", r, "positive")
    return general_solution(characteristic_roots_hedged(r, sigma), 0.0, complex(0.0, amplitude))


@dataclass(frozen=True)
class DeltaGamma:
    """Central-difference first and second derivatives at a point."""

    delta: float
    gamma: float


def delta_gamma(v, x: float, h: float) -> DeltaGamma:
    """Delta and gamma of an evaluator by second-order central differences.

    Both estimates carry O(h^2) truncation error for four-times
    differentiable evaluators. Steps below 1e-8*max(1, |x|) are rejected:
    there subtractive cancellation, not truncation, dominates. A probe
    x +/- h, a delta or a gamma past the float range is refused by name.
    """
    check("x", x)
    if check("h", h, "positive") < 1e-8 * max(1.0, abs(x)):
        raise ValidationError(
            f"h={h!r} is below the cancellation floor 1e-8*max(1, |x|) at x={x!r}"
        )
    up = float(v(check("x + h", x + h)))
    down = float(v(check("x - h", x - h)))
    mid = float(v(x))
    return DeltaGamma(
        delta=check("delta", (up - down) / (2.0 * h)),
        gamma=check("gamma", (up - 2.0 * mid + down) / (h * h)),
    )


def residual(v, problem: OdeProblem, x: float, h: float) -> float:
    """Left-hand side of the selected ODE at x, derivatives by central differences.

    Exact closed-form solutions give residuals that vanish at rate O(h^2).
    A residual past the float range is refused by name.
    """
    dg = delta_gamma(v, x, h)
    value = float(v(x))
    if problem.form is OdeForm.FULL:
        return check("residual", problem.r * value + problem.r * dg.delta
                     + problem.diffusion * dg.gamma)
    return check("residual", problem.r * value + problem.diffusion * dg.gamma)
