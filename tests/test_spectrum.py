import math
import warnings

import numpy as np
import pytest
from scipy import integrate

from bachelier_lab import (
    DiscountSign,
    IntegralMethod,
    ModeSpec,
    OdeForm,
    OdeProblem,
    RateSpectrum,
    ValidationError,
    boundary_residual,
    mode_index,
    normalization_constant,
    payoff_surface,
    quantized_rate,
    residual,
    sine_solution,
)

# Frozen from 30-digit evaluation of (sigma^2/(2K^2)) * n^2 * pi^2.
R1_02_1 = 0.19739208802178717
R2_02_1 = 0.78956835208714869
R1_03_100 = 4.4413219804902114e-05
# Frozen normalization for the off-ladder rate r=0.1, sigma=0.2, K=1:
# closed-form antiderivative K/2 - sin(2aK)/(4a), cross-checked by quadrature.
OFF_LADDER_INTEGRAL = 0.60859215917561975
OFF_LADDER_AMPLITUDE = 1.281848866227063


def test_quantized_rate_frozen_values():
    assert quantized_rate(1, 0.2, 1.0) == pytest.approx(R1_02_1, abs=1e-15)
    assert quantized_rate(2, 0.2, 1.0) == pytest.approx(R2_02_1, abs=1e-15)
    assert quantized_rate(1, 0.3, 100.0) == pytest.approx(R1_03_100, abs=1e-19)


def test_quantized_rate_zero_mode_flagged_degenerate():
    with pytest.warns(UserWarning, match="degenerate"):
        assert quantized_rate(0, 0.2, 1.0) == 0.0


def test_quantized_rate_rejects_negative_mode():
    with pytest.raises(ValidationError, match="n"):
        quantized_rate(-1, 0.2, 1.0)


def test_integral_float_mode_numbers_are_accepted():
    assert quantized_rate(2.0, 0.2, 1.0) == quantized_rate(2, 0.2, 1.0)
    assert ModeSpec(n=2.0, sigma=0.2, strike=1.0).rate == quantized_rate(2, 0.2, 1.0)
    assert len(RateSpectrum.build(0.2, 1.0, 3.0).modes) == 3
    with pytest.raises(ValidationError, match="n must be an integer"):
        quantized_rate(1.5, 0.2, 1.0)


def test_quantized_rate_refuses_a_rate_past_the_float_range():
    with pytest.raises(ValidationError, match="r_n must be finite, got inf"):
        quantized_rate(3, 1e154, 1e-8)


def test_quantized_rate_validates_inputs():
    with pytest.raises(ValidationError, match="sigma"):
        quantized_rate(1, 0.0, 1.0)
    with pytest.raises(ValidationError, match="strike"):
        quantized_rate(1, 0.2, 0.0)


def test_rate_scaling_in_mode_number():
    for n in range(1, 21):
        doubled = quantized_rate(2 * n, 0.2, 1.0)
        assert abs(doubled - 4.0 * quantized_rate(n, 0.2, 1.0)) <= 1e-12 * doubled


def test_rate_scaling_in_volatility_is_exact():
    for n in range(1, 21):
        assert quantized_rate(n, 0.4, 1.0) == 4.0 * quantized_rate(n, 0.2, 1.0)


def test_rate_scaling_in_strike():
    for n in range(1, 21):
        halved = quantized_rate(n, 0.2, 2.0)
        assert abs(halved - quantized_rate(n, 0.2, 1.0) / 4.0) <= 1e-12 * halved


def test_mode_spec_derived_quantities():
    mode = ModeSpec(n=3, sigma=0.2, strike=2.0)
    assert mode.rate == pytest.approx(quantized_rate(3, 0.2, 2.0), rel=1e-15)
    assert mode.wavenumber == pytest.approx(3 * math.pi / 2.0, rel=1e-15)
    # sqrt(r_n / D) * K recovers n*pi
    assert math.sqrt(mode.rate / (0.5 * mode.sigma**2)) * 2.0 == pytest.approx(
        3 * math.pi, rel=1e-12
    )


def test_mode_spec_rejects_bad_mode_number():
    with pytest.raises(ValidationError, match="n"):
        ModeSpec(n=0, sigma=0.2, strike=1.0)


def test_mode_index_examples():
    assert mode_index(0.1973921, 0.2, 1.0, 1e-6) == (1, True)
    assert mode_index(0.15, 0.2, 1.0, 1e-6) == (1, False)
    assert mode_index(0.7895684, 0.2, 1.0, 1e-6) == (2, True)


def test_mode_index_round_trip():
    for n in range(1, 1001):
        rate = quantized_rate(n, 0.35, 2.5)
        assert mode_index(rate, 0.35, 2.5, 1e-9) == (n, True)


def test_mode_index_rejects_non_positive_rate():
    with pytest.raises(ValidationError, match="r"):
        mode_index(0.0, 0.2, 1.0, 1e-6)


@pytest.mark.parametrize("args, name", [
    ((0.1, 1e-170, 1.0, 1e-6), r"sigma\^2 must be finite and > 0, got 0\.0"),
    ((1e300, 1e-300, 1e10, 1e-6), r"sigma\^2 must be finite and > 0, got 0\.0"),
    ((0.1, 1.0, 1e200, 1e-6), r"mode index .* must be finite, got inf"),
    ((1e300, 1e200, 1e10, 1e-6), r"sigma\^2 must be finite and > 0, got inf"),
], ids=["sigma-squared-underflow", "sigma-squared-underflow-large-rate",
        "mode-index-overflow", "sigma-squared-overflow"])
def test_mode_index_names_a_quantity_outside_the_float_range(args, name):
    with pytest.raises(ValidationError, match=name):
        mode_index(*args)


def test_boundary_residual_vanishes():
    assert boundary_residual(1, 0.2, 1.0) <= 1e-9
    assert boundary_residual(3, 0.2, 1.0) <= 1e-9
    assert boundary_residual(10, 0.5, 50.0) <= 1e-8


def test_boundary_residual_all_modes_to_100():
    for n in range(1, 101):
        assert boundary_residual(n, 0.2, 1.0) <= 1e-9


def test_normalization_on_ladder_unit_strike():
    rate = quantized_rate(5, 0.2, 1.0)
    result = normalization_constant(rate, 0.2, 1.0)
    assert result.integral == pytest.approx(0.5, rel=1e-12)
    assert result.amplitude == pytest.approx(math.sqrt(2.0), rel=1e-12)
    quad = normalization_constant(rate, 0.2, 1.0, IntegralMethod.QUADRATURE)
    assert quad.estimated_error <= 1e-8


def test_normalization_on_ladder_strike_two():
    rate = quantized_rate(2, 0.4, 2.0)
    result = normalization_constant(rate, 0.4, 2.0)
    assert result.amplitude == pytest.approx(1.0, rel=1e-12)


def test_normalization_off_ladder_frozen():
    result = normalization_constant(0.1, 0.2, 1.0)
    assert result.integral == pytest.approx(OFF_LADDER_INTEGRAL, rel=1e-12)
    assert result.amplitude == pytest.approx(OFF_LADDER_AMPLITUDE, rel=1e-12)


def test_normalization_amplitude_is_inverse_sqrt_of_integral():
    result = normalization_constant(0.37, 0.6, 3.0)
    assert result.amplitude == result.integral ** -0.5


def test_normalization_method_selection():
    closed = normalization_constant(0.1, 0.2, 1.0, IntegralMethod.CLOSED_FORM)
    quad = normalization_constant(0.1, 0.2, 1.0, IntegralMethod.QUADRATURE)
    assert closed.estimated_error == 0.0
    assert quad.estimated_error == abs(quad.integral - closed.integral)
    assert closed.integral == pytest.approx(quad.integral, rel=1e-10)


def test_normalization_closed_form_and_quadrature_agree_on_random_triples():
    rng = np.random.default_rng(31)
    for _ in range(100):
        r = rng.uniform(0.01, 1.5)
        sigma = rng.uniform(0.1, 1.0)
        strike = rng.uniform(0.5, 4.0)
        result = normalization_constant(r, sigma, strike, IntegralMethod.QUADRATURE)
        assert result.estimated_error <= 1e-8 * result.integral


@pytest.mark.parametrize("r", [10.0 ** -e for e in range(2, 31, 2)])
def test_normalization_small_rate_matches_mpmath(r):
    # K/2 - sin(2aK)/(4a) cancels as 2aK -> 0; the value itself is ~ a^2 K^3 / 3.
    mpmath = pytest.importorskip("mpmath")
    sigma, strike = 0.2, 1.0
    result = normalization_constant(r, sigma, strike)
    with mpmath.workdps(50):
        a = mpmath.sqrt(mpmath.mpf(r) / (mpmath.mpf(sigma) ** 2 / 2))
        exact = mpmath.mpf(strike) / 2 - mpmath.sin(2 * a * strike) / (4 * a)
        assert abs((result.integral - exact) / exact) <= 1e-12
        assert abs((result.amplitude - exact ** -0.5) / exact ** -0.5) <= 1e-12


def test_quadrature_stays_accurate_at_a_high_rate():
    # 2251 panels: a rate where an adaptive rule with a subdivision limit falls short.
    closed = normalization_constant(1e6, 0.2, 1.0)
    quad = normalization_constant(1e6, 0.2, 1.0, IntegralMethod.QUADRATURE)
    assert quad.estimated_error == abs(quad.integral - closed.integral) <= 1e-12 * closed.integral


def test_normalized_profile_integrates_to_one():
    for r, sigma, strike in [(0.1, 0.2, 1.0), (quantized_rate(2, 0.3, 1.5), 0.3, 1.5)]:
        result = normalization_constant(r, sigma, strike)
        a = math.sqrt(r / (0.5 * sigma * sigma))
        total, _ = integrate.quad(
            lambda x: (result.amplitude * math.sin(a * x)) ** 2, 0.0, strike,
            epsabs=1e-10, epsrel=1e-10, limit=400,
        )
        assert total == pytest.approx(1.0, rel=1e-8)


def test_normalization_validates_inputs():
    with pytest.raises(ValidationError, match="r"):
        normalization_constant(0.0, 0.2, 1.0)


def test_rate_spectrum_build_and_invariants():
    ladder = RateSpectrum.build(0.2, 1.0, 20)
    assert len(ladder.modes) == 20
    rates = [mode.rate for mode in ladder]
    assert all(b > a for a, b in zip(rates, rates[1:]))
    base = rates[0]
    for n, rate in enumerate(rates, start=1):
        assert abs(rate / (n * n) - base) <= 1e-12 * base


def test_rate_spectrum_validates_n_max():
    with pytest.raises(ValidationError, match="n_max"):
        RateSpectrum.build(0.2, 1.0, 0)


@pytest.mark.parametrize("n,sigma,strike", [(1, 0.2, 1.0), (2, 0.1, 2.0), (3, 0.3, 10.0)])
def test_mode_solutions_satisfy_hedged_ode(n, sigma, strike):
    # Central differences truncate at D*(h^2/12)*wavenumber^4, so the 1e-6
    # residual bound is meaningful only where that quantity stays below it;
    # these modes satisfy it with margin.
    mode = ModeSpec(n=n, sigma=sigma, strike=strike)
    h = 1e-3
    assert 0.5 * mode.sigma**2 * h * h / 12.0 * mode.wavenumber ** 4 <= 1e-6
    v = sine_solution(1.0, mode.rate, mode.sigma)
    problem = OdeProblem(r=mode.rate, sigma=sigma, form=OdeForm.HEDGED)
    for x in np.linspace(0.1 * strike, 0.9 * strike, 9):
        assert abs(residual(v, problem, float(x), h)) <= 1e-6


def test_payoff_surface_boundary_rows():
    mode = ModeSpec(n=1, sigma=0.2, strike=1.0)
    amp = math.sqrt(2.0)
    surf = payoff_surface(mode, amp, [0.0, 0.5, 1.0], [0.0, 0.5, 1.0])
    assert np.all(surf.values[0] == 0.0)
    bound = 1e-9 * amp * np.exp(abs(mode.rate) * surf.t)
    assert np.all(np.abs(surf.values[2]) <= bound)


def test_payoff_surface_frozen_values():
    # sqrt(2)*sin(pi/2) and sqrt(2)*e^{r_1}, both at 30-digit precision.
    mode = ModeSpec(n=1, sigma=0.2, strike=1.0)
    surf = payoff_surface(mode, math.sqrt(2.0), [0.5], [0.0, 1.0], DiscountSign.PLUS)
    assert surf.values[0, 0] == pytest.approx(1.4142135623730951, rel=1e-12)
    assert surf.values[0, 1] == pytest.approx(1.7228255046990568, rel=1e-12)


def test_payoff_surface_discounting_convention():
    mode = ModeSpec(n=1, sigma=0.2, strike=1.0)
    plus = payoff_surface(mode, 1.0, [0.5], [2.0], DiscountSign.PLUS)
    minus = payoff_surface(mode, 1.0, [0.5], [2.0], DiscountSign.MINUS)
    assert plus.values[0, 0] * minus.values[0, 0] == pytest.approx(
        math.sin(mode.wavenumber * 0.5) ** 2, rel=1e-12
    )


def test_payoff_surface_validation():
    mode = ModeSpec(n=1, sigma=0.2, strike=1.0)
    with pytest.raises(ValidationError, match="amplitude"):
        payoff_surface(mode, 0.0, [0.5], [0.0])
    with pytest.raises(ValidationError, match="t"):
        payoff_surface(mode, 1.0, [0.5], [-1.0])


@pytest.mark.parametrize("mode, x, name", [
    (ModeSpec(1, 0.2, 5e-324), [0.0, 0.5], r"2\*strike\^2"),
    (ModeSpec(1, 0.2, 1e-150), [0.0, 1e300], r"phase n\*pi\*x/K must be finite, got inf at index 1"),
], ids=["subnormal-strike", "phase-overflow"])
def test_payoff_surface_refuses_without_a_warning(mode, x, name):
    # The sine of an infinite phase warned "invalid value encountered in sin" first.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=name):
            payoff_surface(mode, 1.0, x, [0.0, 1.0])


def test_payoff_surface_refuses_a_value_past_the_float_range_without_a_warning():
    # Profile and weight are finite; their product at t = 100 (weight e^19.7) is not.
    mode = ModeSpec(n=1, sigma=0.2, strike=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=r"surface Y\(x, t\) must be finite, got inf"):
            payoff_surface(mode, 1e308, [0.5], [0.0, 100.0])
