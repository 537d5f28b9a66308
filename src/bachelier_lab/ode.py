"""Constant-coefficient expected-payoff ODEs and their closed-form solutions.

Both payoff ODEs of this lab set the Ito drift r*V + mu*V' + (sigma^2/2)*V'' of V(x) to 0:

* full form:    mu = r,  r*V + r*V' + (sigma^2/2)*V'' = 0
* hedged form:  mu = 0,  r*V + (sigma^2/2)*V''        = 0

The hedged form drops the first-derivative term, which is delta hedging
expressed as an equation choice rather than a trading strategy. Both have
exponential/oscillatory closed forms through their characteristic roots.
One solver, ``_roots``, finds the roots of D*lam^2 + mu*lam + q = 0 with
D = sigma^2/2: its (mu, q) = (r, r) and (0, r) cases are the full and hedged
forms. A root past the float range is refused by its value. Candidate
solutions are checked numerically via central-difference residuals.
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


def _diffusion(sigma: float) -> float:
    """D = sigma^2/2; refused by name below the smallest normal float or past the float range."""
    return check("diffusion sigma^2/2", 0.5 * sigma * sigma, "normal")


@dataclass(frozen=True)
class CharacteristicRoots:
    """Root pair of a characteristic polynomial; the pair determines its case.

    The pair is either real or a conjugate pair a +/- i*b with b > 0 in
    ``root1``. ``root1`` carries the larger real part (distinct real case);
    repeated roots store the same value twice.
    """

    root1: complex
    root2: complex

    def __post_init__(self):
        r1, r2 = check("characteristic roots", (self.root1, self.root2))
        if (r1.imag or r2.imag) and not (r2 == r1.conjugate() and r1.imag > 0.0):
            raise ValidationError(f"roots {r1!r}, {r2!r} are neither real nor a conjugate pair")

    @property
    def case(self) -> RootCase:
        """Complex for a conjugate pair, repeated for two equal real roots, else distinct."""
        if self.root1.imag != 0.0:
            return RootCase.COMPLEX_CONJUGATE
        return RootCase.REPEATED_REAL if self.root1 == self.root2 else RootCase.DISTINCT_REAL


def _roots(mu: float, q: float, sigma: float) -> CharacteristicRoots:
    """Roots of D*lam^2 + mu*lam + q = 0 with D = sigma^2/2: the one characteristic-root solver.

    mu and q are finite, with q = 0 only where mu = 0, as in the full, hedged
    and discounted forms; sigma is checked by the caller. The roots are
    -beta +/- w, or -beta +/- i*w, with beta = mu/sigma^2 and
    w = sqrt(|disc|)/sigma^2, disc = mu^2 - 2*sigma^2*q; they are complex iff
    q > 0 and t < 2, with t = beta*(mu/q) = mu^2/(sigma^2*q). Where both terms
    of disc lie below the smallest normal float, disc has lost its digits, and
    where either overflows, or for q < 0 their sum, it is not a number; there
    w is formed as sqrt(|q|)/sigma * sqrt(|t - 2|) instead, which does
    neither. beta itself can underflow to 0, so the case is decided on q and
    t. mu = 0 < q gives +/- i*sqrt(q/D), refused as ``wavenumber sqrt(r/D)``
    where it underflows to 0 or overflows; any other root past the float
    range is refused by its value.
    """
    d = _diffusion(sigma)
    sig2 = 2.0 * d
    if mu == 0.0 < q:
        w = check("wavenumber sqrt(r/D)", math.sqrt(q / d), "positive")
        return CharacteristicRoots(complex(0.0, w), complex(0.0, -w))
    if q == 0.0:  # the zero rate: D*lam^2 = 0
        return CharacteristicRoots(0j, 0j)
    terms = mu * mu, 2.0 * sig2 * abs(q)
    # Where q < 0 the terms add, so disc can overflow though each is finite.
    scaled = not (np.finfo(float).tiny <= max(terms)
                  and (sum(terms) if q < 0.0 else max(terms)) < math.inf)
    beta = mu / sig2
    # The repeated-root boundary t = 2 is a zero of the discriminant; honor it
    # within a few ulps of the computed value. The bound is scaled term by term:
    # mu^2 + 2*sigma^2*|q| itself can overflow when disc does not. disc is named
    # in the full form's terms, mu = q = r; the hedged form never forms it.
    if not scaled:
        disc = check("discriminant r^2 - 2*sigma^2*r", mu * mu - 2.0 * sig2 * q)
        ulps = 8.0 * np.finfo(float).eps
        if abs(disc) <= ulps * mu * mu + ulps * 2.0 * sig2 * abs(q):
            return CharacteristicRoots(complex(-beta), complex(-beta))
    t = beta * (mu / q)
    w = (math.sqrt(abs(q)) / sigma * math.sqrt(abs(t - 2.0)) if scaled
         else math.sqrt(abs(disc)) / sig2)
    if q > 0.0 and t < 2.0:
        return CharacteristicRoots(complex(-beta, w), complex(-beta, -w))
    # Distinct real: the quadratic formula in its cancellation-free arrangement.
    # Where disc is not formed, the other root is the product of the roots,
    # 2*beta/(mu/q), over the first; below |t| = 2, where beta can underflow, it
    # is -beta + sign(mu)*w, which does not cancel there.
    if scaled:
        first = check("characteristic roots", -(beta + math.copysign(w, mu)))
        pair = (first, 2.0 * beta / (mu / q) / first if abs(t) >= 2.0
                else math.copysign(w, mu) - beta)
    else:
        s = -0.5 * (mu + math.copysign(math.sqrt(disc), mu))
        pair = (s / d, q / s)
    lo, hi = sorted(pair)
    return CharacteristicRoots(complex(hi), complex(lo))


def characteristic_roots_full(r: float, sigma: float) -> CharacteristicRoots:
    """Roots of (sigma^2/2)*lam^2 + r*lam + r = 0: the solver's mu = q = r.

    Complex conjugates for 0 < r < 2*sigma^2, a repeated real root at r = 0
    and r = 2*sigma^2, distinct real roots otherwise.
    """
    check("sigma", sigma, "positive")
    return _roots(check("r", r), r, sigma)


def characteristic_roots_hedged(r: float, sigma: float) -> CharacteristicRoots:
    """Roots of r + (sigma^2/2)*lam^2 = 0, the solver's mu = 0, q = r: +/- i*sqrt(r/D)."""
    check("sigma", sigma, "positive")
    return _roots(0.0, check("r", r, "nonnegative"), sigma)


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

        def term(f, rate, coef=1.0):  # coef*f(rate*x), formed in one new array: the same bits
            out = np.multiply(rate, x, out=np.empty(x.shape))
            f(out, out=out)
            if coef != 1.0:
                out *= coef
            return out

        if self.roots.case is RootCase.REPEATED_REAL:
            out = np.multiply(c2.real, x, out=np.empty(x.shape))
            out += c1.real
            out *= term(np.exp, lam1.real)
        elif self.roots.case is RootCase.DISTINCT_REAL:
            out = term(np.exp, lam1.real, c1.real)
            out += term(np.exp, self.roots.root2.real, c2.real)
        else:
            cos_coef, sin_coef = c1.real + c2.real, c2.imag - c1.imag
            if cos_coef == 0.0:
                out = term(np.sin, lam1.imag, sin_coef)
            else:
                out = term(np.cos, lam1.imag, cos_coef)
                if sin_coef != 0.0:
                    out += term(np.sin, lam1.imag, sin_coef)
            if lam1.real != 0.0:
                out *= term(np.exp, lam1.real)
        return float(out) if out.ndim == 0 else out


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


def _ito_drift(v, rate: float, mu: float, diffusion: float, x: float, h: float) -> float:
    """Ito drift ``rate*V + mu*V' + diffusion*V''`` at x, V' and V'' by ``delta_gamma``; unchecked."""
    dg = delta_gamma(v, x, h)
    return rate * float(v(x)) + mu * dg.delta + diffusion * dg.gamma


def residual(v, problem: OdeProblem, x: float, h: float) -> float:
    """Left-hand side of the selected ODE at x, derivatives by central differences.

    Exact closed-form solutions give residuals that vanish at rate O(h^2).
    A residual past the float range is refused by name.
    """
    mu = problem.r if problem.form is OdeForm.FULL else 0.0
    return check("residual", _ito_drift(v, problem.r, mu, _diffusion(problem.sigma), x, h))
