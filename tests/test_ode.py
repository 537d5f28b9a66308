import math
import warnings

import numpy as np
import pytest

from bachelier_lab import (
    CharacteristicRoots,
    OdeForm,
    OdeProblem,
    RootCase,
    ValidationError,
    characteristic_roots_full,
    characteristic_roots_hedged,
    delta_gamma,
    general_solution,
    quantized_rate,
    residual,
    sine_solution,
)
from bachelier_lab.ode import _roots

R1 = quantized_rate(1, 0.2, 1.0)  # 0.19739208802178718

# Frozen root values: the scaled polynomials lam^2 + lam + 1 and
# lam^2 + 9*lam + 9, solved at 30-digit precision.
COMPLEX_IMAG = 0.8660254037844386
DISTINCT_HI = -1.1458980337503155
DISTINCT_LO = -7.8541019662496845


def _poly_full(r, sigma, lam):
    return 0.5 * sigma * sigma * lam * lam + r * lam + r


def test_full_roots_complex_case():
    roots = characteristic_roots_full(0.02, 0.2)
    assert roots.case is RootCase.COMPLEX_CONJUGATE
    assert roots.root1 == pytest.approx(complex(-0.5, COMPLEX_IMAG), rel=1e-12)
    assert roots.root2 == pytest.approx(roots.root1.conjugate(), rel=1e-12)


def test_full_roots_distinct_case():
    roots = characteristic_roots_full(0.18, 0.2)
    assert roots.case is RootCase.DISTINCT_REAL
    assert roots.root1.imag == 0.0 and roots.root2.imag == 0.0
    assert roots.root1.real == pytest.approx(DISTINCT_HI, rel=1e-12)
    assert roots.root2.real == pytest.approx(DISTINCT_LO, rel=1e-12)


def test_full_roots_repeated_case():
    # r = 2*sigma^2 exactly, then 1 ulp on either side (0.08 is the one below).
    boundary = 2.0 * 0.2 * 0.2
    for r in (boundary, math.nextafter(boundary, 0.0), math.nextafter(boundary, 1.0)):
        roots = characteristic_roots_full(r, 0.2)
        assert roots.case is RootCase.REPEATED_REAL
        assert roots.root1 == roots.root2
        assert roots.root1.real == pytest.approx(-2.0, rel=1e-12)


def test_full_roots_zero_rate():
    roots = characteristic_roots_full(0.0, 0.2)
    assert roots.case is RootCase.REPEATED_REAL
    assert roots.root1 == 0j and roots.root2 == 0j


def test_full_roots_negative_rate_is_distinct():
    roots = characteristic_roots_full(-0.02, 0.2)
    assert roots.case is RootCase.DISTINCT_REAL
    assert roots.root1.real > 0 > roots.root2.real


def test_full_roots_reject_zero_sigma():
    with pytest.raises(ValidationError, match="sigma"):
        characteristic_roots_full(0.05, 0.0)


def test_roots_reject_a_diffusion_or_root_outside_the_float_range():
    # sigma > 0 whose sigma^2/2 underflows to 0 used to raise ZeroDivisionError.
    for roots in (characteristic_roots_full, characteristic_roots_hedged):
        with pytest.raises(ValidationError, match="diffusion sigma\\^2/2"):
            roots(1.0, 1e-170)
    with pytest.raises(ValidationError, match="diffusion sigma\\^2/2"):
        characteristic_roots_full(1.0, 1e-160)  # D = 5e-321 is subnormal: digits lost
    # r*r overflows, so the roots come from rho = r/sigma^2 = 1e300: -1 and
    # -2e300 are floats. Where rho itself overflows, the first root is -inf,
    # refused by its value.
    roots = characteristic_roots_full(1e300, 1.0)
    assert (roots.root1, roots.root2) == pytest.approx((-1.0, -2e300), rel=1e-15)
    with pytest.raises(ValidationError, match="characteristic roots must be finite, got -inf$"):
        characteristic_roots_full(1e300, 1e-5)


def test_a_zero_rate_takes_its_diffusion_from_the_one_check():
    # D = 5e-341 is not a normal float: both forms refuse it at r = 0, as at any
    # other rate, and answer the double root 0 where D is normal.
    for roots in (characteristic_roots_full, characteristic_roots_hedged):
        with pytest.raises(ValidationError, match="diffusion sigma\\^2/2"):
            roots(0.0, 1e-170)
        assert roots(0.0, 1e-150) == CharacteristicRoots(0j, 0j)


# The pair determines its case: a pair that is neither real nor a conjugate
# pair with Im root1 > 0 is refused (case None); any other pair gets its case.
@pytest.mark.parametrize("case,root1,root2", [
    (None, complex(-0.5, 0.8), complex(-0.5, 0.8)),
    (None, complex(-0.5, 0.8), complex(-0.4, -0.8)),
    (RootCase.DISTINCT_REAL, complex(-2.0), complex(-1.0)),
    (None, complex(0.0, 1.0), complex(0.0, 1.0)),
    (None, complex(1.0), complex(-1.0, 0.5)),
    (RootCase.COMPLEX_CONJUGATE, complex(0.0, 1.0), complex(0.0, -1.0)),
    (RootCase.REPEATED_REAL, complex(0.5), complex(0.5)),
    (None, complex(-0.5, -0.8), complex(-0.5, 0.8)),
], ids=["complex-not-conjugate", "complex-real-parts-differ", "repeated-unequal",
        "repeated-not-real", "distinct-root2-not-real", "distinct-conjugate-pair",
        "complex-real-roots", "complex-root1-negative-imaginary"])
def test_roots_must_fit_their_case(case, root1, root2):
    if case is None:
        with pytest.raises(ValidationError, match="neither real nor a conjugate pair"):
            CharacteristicRoots(root1, root2)
    else:
        assert CharacteristicRoots(root1, root2).case is case


def test_full_roots_near_the_float_range_are_classified():
    # The discriminant is finite, but r^2 + 2*sigma^2*r overflows; an infinite
    # repeated-root bound used to report these distinct roots as repeated.
    r, sigma = 1.3e154, math.sqrt(7.5e152)
    roots = characteristic_roots_full(r, sigma)
    assert roots.case is RootCase.DISTINCT_REAL
    assert roots.root2.real < roots.root1.real < 0
    assert abs(_poly_full(r, sigma, roots.root1)) <= 1e-12 * r * abs(roots.root1)
    # At sigma = 1e-150, r^2 and 2*sigma^2*r lie below the subnormals for any r
    # in (0, 2*sigma^2): the discriminant underflowed to 0 and gave the repeated
    # -r/sigma^2. The roots are -rho +/- i*sqrt(rho*(2 - rho)), rho = r/sigma^2.
    for r, imag in ((1e-300, 1.0), (1.9e-300, math.sqrt(1.9 * 0.1))):
        roots = characteristic_roots_full(r, 1e-150)
        assert roots.case is RootCase.COMPLEX_CONJUGATE
        assert roots.root1 == pytest.approx(complex(-r / 1e-300, imag), rel=1e-15)


# The roots of D*lam^2 + mu*lam + q = 0 against a 4000-bit reference. First the
# full form, mu = q = r. Both terms of the discriminant r^2 - 2*sigma^2*r lie
# below the smallest normal float in the first six. The first two printed a
# repeated root at exit 0; in the next two rho = r/sigma^2 underflows to 0;
# rho = -1 is real; rho = 2 exactly is repeated. In the next two both terms
# overflow, and the discriminant was inf - inf: solve refused them at exit 2,
# although rho is 6.1 and 0.5. Then the discounted form, mu = r, q = -r, whose
# roots are always real, in the plain regime, where both terms underflow (rho = 1)
# and where both overflow (rho = 100); and an exploratory pair with mu != q, in
# both regimes. Last, two where q < 0 and each term of the discriminant
# mu^2 + 2*sigma^2*|q| is finite but their sum is not: solve refused the full
# one at exit 2 (rho = -1.7), and the solver the discounted one (rho = 2).
@pytest.mark.parametrize("mu, q, sigma, case", [
    (1e-300, 1e-300, 1e-150, RootCase.COMPLEX_CONJUGATE),
    (9.809919665008833e-194, 9.809919665008833e-194, 5.471784533207608e-122,
     RootCase.DISTINCT_REAL),
    (5.4854e-319, 5.4854e-319, 73544.0, RootCase.COMPLEX_CONJUGATE),
    (-1e-320, -1e-320, 1e5, RootCase.DISTINCT_REAL),
    (-1e-300, -1e-300, 1e-150, RootCase.DISTINCT_REAL),
    (2.0**-679, 2.0**-679, 2.0**-340, RootCase.REPEATED_REAL),
    (1.1540196901789048e+192, 1.1540196901789048e+192, 4.3501522650997584e+95,
     RootCase.DISTINCT_REAL),
    (1e200, 1e200, 1e100, RootCase.COMPLEX_CONJUGATE),
    (0.05, -0.05, 0.2, RootCase.DISTINCT_REAL),
    (1e-300, -1e-300, 1e-150, RootCase.DISTINCT_REAL),
    (1e200, -1e200, 1e99, RootCase.DISTINCT_REAL),
    (0.03, 0.05, 0.2, RootCase.COMPLEX_CONJUGATE),
    (3e-300, 1e-300, 1e-150, RootCase.DISTINCT_REAL),
    (-1.0833752067652072e+154, -1.0833752067652072e+154, 7.983864793110364e+76,
     RootCase.DISTINCT_REAL),
    (1e154, -1e154, 7.0710678118654755e76, RootCase.DISTINCT_REAL),
], ids=["complex", "distinct-far-apart", "complex-rho-underflow", "distinct-rho-underflow",
        "distinct-negative-rate", "repeated", "distinct-overflow", "complex-overflow",
        "discounted", "discounted-underflow", "discounted-overflow", "exploratory",
        "exploratory-underflow", "distinct-discriminant-sum-overflow",
        "discounted-discriminant-sum-overflow"])
def test_roots_match_a_4000_bit_reference(mu, q, sigma, case):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workprec(4000):  # enough bits that -mu + sqrt(disc) does not cancel
        big_mu, sig2 = mpmath.mpf(mu), mpmath.mpf(sigma) ** 2
        disc = big_mu * big_mu - 2 * sig2 * mpmath.mpf(q)
        sq = mpmath.sqrt(disc) if disc >= 0 else 1j * mpmath.sqrt(-disc)
        exact = [complex((-big_mu + sq) / sig2), complex((-big_mu - sq) / sig2)]
    roots = characteristic_roots_full(mu, sigma) if mu == q else _roots(mu, q, sigma)
    assert roots.case is case
    assert [roots.root1, roots.root2] == pytest.approx(exact, rel=1e-15)


def test_ode_problem_derives_its_diffusion():
    # residual takes sigma^2/2 from the one function that refuses it by name.
    assert not hasattr(OdeProblem(0.1, 0.2, OdeForm.FULL), "diffusion")


@pytest.mark.parametrize("r", [-0.4, -0.02, 0.005, 0.02, 0.07, 0.08, 0.18, 1.5])
@pytest.mark.parametrize("sigma", [0.05, 0.2, 1.3])
def test_full_roots_satisfy_polynomial(r, sigma):
    roots = characteristic_roots_full(r, sigma)
    tol = 1e-12 * max(0.5 * sigma * sigma, abs(r))
    assert abs(_poly_full(r, sigma, roots.root1)) <= tol
    assert abs(_poly_full(r, sigma, roots.root2)) <= tol


@pytest.mark.parametrize("r,sigma", [(0.02, 0.2), (0.18, 0.2), (-0.3, 0.5), (2.0, 0.4)])
def test_full_roots_agree_with_polynomial_solver(r, sigma):
    # Independent oracle: numpy's companion-matrix root finder.
    roots = characteristic_roots_full(r, sigma)
    expected = sorted(np.roots([0.5 * sigma * sigma, r, r]), key=lambda z: (z.real, z.imag))
    got = sorted([roots.root1, roots.root2], key=lambda z: (z.real, z.imag))
    for g, e in zip(got, expected):
        assert g == pytest.approx(complex(e), rel=1e-9, abs=1e-12)


def test_hedged_roots_unit_wavenumber():
    roots = characteristic_roots_hedged(0.02, 0.2)
    assert roots.case is RootCase.COMPLEX_CONJUGATE
    assert roots.root1 == pytest.approx(1j, rel=1e-12)
    assert roots.root2 == pytest.approx(-1j, rel=1e-12)


def test_hedged_roots_pi_at_first_ladder_rate():
    roots = characteristic_roots_hedged(R1, 0.2)
    assert roots.root1.imag == pytest.approx(math.pi, rel=1e-12)
    assert roots.root1.real == 0.0
    assert abs(R1 + 0.02 * roots.root1 ** 2) <= 1e-12 * max(0.02, R1)


def test_hedged_roots_degenerate_and_invalid():
    roots = characteristic_roots_hedged(0.0, 0.2)
    assert roots.case is RootCase.REPEATED_REAL and roots.root1 == 0j
    with pytest.raises(ValidationError, match="r"):
        characteristic_roots_hedged(-0.01, 0.2)


def test_sine_solution_values():
    v = sine_solution(1.0, R1, 0.2)
    assert v(0.0) == 0.0
    assert v(0.5) == pytest.approx(1.0, rel=1e-12)
    assert abs(v(1.0)) < 1e-9


def test_sine_solution_vanishes_at_origin_for_any_parameters():
    rng = np.random.default_rng(2)
    for _ in range(20):
        v = sine_solution(rng.uniform(-5, 5), rng.uniform(0.01, 2), rng.uniform(0.05, 1))
        assert v(0.0) == 0.0


def test_general_solution_reduces_to_sine_with_conjugate_coefficients():
    # coef1 = 1/(2i), coef2 = -1/(2i) turns the exponential pair into sin.
    roots = characteristic_roots_hedged(R1, 0.2)
    ge = general_solution(roots, complex(0.0, -0.5), complex(0.0, 0.5))
    sine = sine_solution(1.0, R1, 0.2)
    xs = np.linspace(0.0, 1.0, 1000)
    assert ge(xs).tobytes() == sine(xs).tobytes()


@pytest.mark.parametrize("amplitude", [5e-324, -1.5e-323, 0.0, -0.0, 1e308,
                                       -1.7976931348623157e308])
def test_sine_solution_is_the_amplitude_times_the_sine_bit_for_bit(amplitude):
    # Coefficients that halve the amplitude, (-iA/2, iA/2), would lose 5e-324
    # and round 1.5e-323; i*A as 1j*A would lose the sign of -0.0.
    v = sine_solution(amplitude, R1, 0.2)
    k = characteristic_roots_hedged(R1, 0.2).root1.imag
    assert v.wavenumber == k
    xs = np.concatenate([np.linspace(-2.0, 2.0, 4001), [0.0, -0.0]])
    assert v(xs).tobytes() == (amplitude * np.sin(k * xs)).tobytes()
    for x in (0.0, -0.0):
        assert np.float64(v(x)).tobytes() == np.float64(amplitude * np.sin(k * x)).tobytes()


def test_general_solution_zero_coefficients():
    roots = characteristic_roots_full(0.02, 0.2)
    ge = general_solution(roots, 0.0, 0.0)
    xs = np.linspace(-2.0, 2.0, 11)
    assert np.all(ge(xs) == 0.0)


def test_general_solution_conjugate_pair_at_origin():
    roots = characteristic_roots_full(0.02, 0.2)
    ge = general_solution(roots, 0.5, 0.5)
    assert ge(0.0) == pytest.approx(1.0, rel=1e-14)


def test_general_solution_repeated_root_formula():
    roots = characteristic_roots_full(0.08, 0.2)
    ge = general_solution(roots, 0.7, 0.3)
    lam = roots.root1.real
    for x in (0.0, 0.4, 1.1):
        assert ge(x) == pytest.approx((0.7 + 0.3 * x) * math.exp(lam * x), rel=1e-13)


def test_general_solution_rejects_non_finite_coefficients():
    roots = characteristic_roots_full(0.02, 0.2)
    with pytest.raises(ValidationError, match="coef"):
        general_solution(roots, math.nan, 0.0)


# Dyadic roots make every product root*x exact, so the bound measures the
# evaluator. Rounding root*x, which any evaluation must, adds about
# eps*|root*x| relative on top.
_DYADIC_ROOTS = [
    CharacteristicRoots(complex(-0.25, 0.5), complex(-0.25, -0.5)),
    CharacteristicRoots(complex(0.125, 2.0), complex(0.125, -2.0)),
    CharacteristicRoots(1j, -1j),
    CharacteristicRoots(complex(0.5), complex(-1.0)),
    CharacteristicRoots(complex(-2.0), complex(-2.0)),
    CharacteristicRoots(0j, 0j),
]


@pytest.mark.parametrize("roots", _DYADIC_ROOTS, ids=lambda r: f"{r.case.value}-{r.root1}")
@pytest.mark.parametrize("coef1,coef2", [(0.5, 0.5), (0.7, -0.3), (0.3 + 0.4j, -1.1 + 0.25j),
                                         (-0.5j, 0.5j)], ids=["equal", "real", "complex", "sine"])
def test_exponential_solution_matches_mpmath(roots, coef1, coef2):
    # |error| <= 4*eps*(|c1*e^{lam1*x}| + |c2*e^{lam2*x}|) on |x| <= 20, against
    # the real part of the complex closed form at 40 digits.
    mpmath = pytest.importorskip("mpmath")
    xs = np.concatenate([[-20.0, 0.0, 20.0], np.random.default_rng(8).uniform(-20, 20, 120)])
    got = general_solution(roots, coef1, coef2)(xs)
    eps = np.finfo(float).eps
    with mpmath.workdps(40):
        c1, c2 = mpmath.mpc(coef1), mpmath.mpc(coef2)
        lam1, lam2 = mpmath.mpc(roots.root1), mpmath.mpc(roots.root2)
        for x, value in zip(xs.tolist(), got.tolist()):
            term1 = c1 * mpmath.exp(lam1 * x)
            term2 = c2 * mpmath.exp(lam2 * x)
            if roots.case is RootCase.REPEATED_REAL:
                term2 *= x
            bound = 4 * eps * (abs(term1) + abs(term2))
            assert abs(value - mpmath.re(term1 + term2)) <= bound, x


def test_delta_gamma_exact_on_quadratic():
    square = lambda x: x * x
    # Binary-exact inputs make the central differences exact, not just O(h^2).
    dg = delta_gamma(square, 0.5, 0.25)
    assert dg.delta == 1.0
    assert dg.gamma == 2.0
    dg2 = delta_gamma(square, -3.0, 1e-3)
    assert dg2.delta == pytest.approx(-6.0, abs=1e-9)
    assert dg2.gamma == pytest.approx(2.0, abs=1e-6)


def test_delta_gamma_on_first_ladder_sine():
    v = sine_solution(1.0, R1, 0.2)
    mid = delta_gamma(v, 0.5, 1e-3)
    assert abs(mid.delta) < 1e-5
    assert mid.gamma == pytest.approx(-math.pi ** 2, abs=1e-3)
    origin = delta_gamma(v, 0.0, 1e-3)
    assert origin.delta == pytest.approx(math.pi, abs=1e-5)


def test_delta_gamma_step_validation():
    v = sine_solution(1.0, R1, 0.2)
    with pytest.raises(ValidationError, match="h"):
        delta_gamma(v, 0.5, 0.0)
    with pytest.raises(ValidationError, match="h"):
        delta_gamma(v, 0.5, 1e-9)
    with pytest.raises(ValidationError, match="h"):
        delta_gamma(v, 1e6, 1e-3)  # floor scales with |x|


def test_delta_gamma_and_residual_refuse_values_past_the_float_range_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # x + h overflows: np.sin(inf) would warn "invalid value encountered in sin".
        with pytest.raises(ValidationError, match=r"x \+ h must be finite, got inf"):
            delta_gamma(np.sin, 1.79e308, 1.79e308)
        with pytest.raises(ValidationError, match=r"x - h must be finite, got -inf"):
            delta_gamma(np.sin, -1.79e308, 1.79e308)
        with pytest.raises(ValidationError, match="delta must be finite, got inf"):
            delta_gamma(lambda x: math.copysign(1e308, x), 0.0, 1e-3)
        with pytest.raises(ValidationError, match="residual must be finite, got inf"):
            residual(np.sin, OdeProblem(1.79e308, 1e-8, OdeForm.FULL), 0.5, 1e-3)


def test_residual_sine_hedged_form():
    v = sine_solution(1.0, R1, 0.2)
    problem = OdeProblem(r=R1, sigma=0.2, form=OdeForm.HEDGED)
    assert abs(residual(v, problem, 0.3, 1e-3)) < 1e-6


def test_residual_zero_solution():
    zero = lambda x: 0.0 * np.asarray(x)
    for form in OdeForm:
        problem = OdeProblem(r=0.1, sigma=0.3, form=form)
        assert residual(zero, problem, 0.7, 1e-3) == 0.0


def test_residual_full_form_exact_solution():
    roots = characteristic_roots_full(0.02, 0.2)
    a_coef, b_coef = 0.8, 0.2
    v = general_solution(roots, a_coef, b_coef)
    problem = OdeProblem(r=0.02, sigma=0.2, form=OdeForm.FULL)
    assert abs(residual(v, problem, 0.5, 1e-3)) < 1e-5 * (abs(a_coef) + abs(b_coef))


@pytest.mark.parametrize(
    "r,case",
    [(0.02, RootCase.COMPLEX_CONJUGATE), (0.08, RootCase.REPEATED_REAL),
     (-0.02, RootCase.DISTINCT_REAL)],
)
def test_residual_quadratic_convergence_full(r, case):
    roots = characteristic_roots_full(r, 0.2)
    assert roots.case is case
    v = general_solution(roots, 0.5, 0.5)
    problem = OdeProblem(r=r, sigma=0.2, form=OdeForm.FULL)
    xs = np.linspace(0.1, 0.9, 10)
    coarse = [residual(v, problem, x, 2e-2) for x in xs]
    fine = [residual(v, problem, x, 1e-2) for x in xs]
    ratio = np.sqrt(np.mean(np.square(coarse)) / np.mean(np.square(fine)))
    assert 3.5 <= ratio <= 4.5


def test_residual_quadratic_convergence_hedged():
    v = sine_solution(1.0, R1, 0.2)
    problem = OdeProblem(r=R1, sigma=0.2, form=OdeForm.HEDGED)
    xs = np.linspace(0.1, 0.9, 10)
    coarse = [residual(v, problem, x, 2e-2) for x in xs]
    fine = [residual(v, problem, x, 1e-2) for x in xs]
    ratio = np.sqrt(np.mean(np.square(coarse)) / np.mean(np.square(fine)))
    assert 3.5 <= ratio <= 4.5


def test_full_residual_of_sine_equals_the_hedging_gap_term():
    # The sine solves the hedged form, so its full-form residual is exactly
    # the r*delta term the hedged form drops (up to finite-difference error).
    v = sine_solution(1.0, R1, 0.2)
    problem = OdeProblem(r=R1, sigma=0.2, form=OdeForm.FULL)
    for x in (0.1, 0.3, 0.6, 0.9):
        gap = R1 * delta_gamma(v, x, 1e-3).delta
        assert abs(residual(v, problem, x, 1e-3) - gap) < 1e-6


def test_ode_problem_validates_sigma():
    with pytest.raises(ValidationError, match="sigma"):
        OdeProblem(r=0.1, sigma=0.0, form=OdeForm.FULL)
