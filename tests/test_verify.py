import math
import tracemalloc
import warnings

import numpy as np
import pytest

from bachelier_lab import (
    DiscountSign,
    DriftClass,
    DriftReport,
    ExponentialSolution,
    ModelParams,
    NonFiniteSampleError,
    ValidationError,
    analytic_drift,
    characteristic_roots_full,
    characteristic_roots_hedged,
    classify,
    delta_gamma,
    drift_estimate,
    exact_marginal,
    general_solution,
    integrability_check,
    quantized_rate,
    sine_solution,
)
from bachelier_lab import model, verify
from bachelier_lab.model import _gaussian_blocks
from bachelier_lab.verify import _block_moments, _pooled

R1 = quantized_rate(1, 0.2, 1.0)
# r_1 * pi at 30-digit precision: the sine mode's drift at the origin, where
# the hedged equation kills everything except the r*V' term.
SINE_DRIFT_AT_ORIGIN = 0.6201255336059964

FULL_CASES = {
    "complex": (0.02, 0.2),
    "repeated": (0.08, 0.2),
    "distinct": (-0.02, 0.2),
}


def _full_solution(r, sigma, coef1=0.5, coef2=0.5):
    return general_solution(characteristic_roots_full(r, sigma), coef1, coef2)


def test_analytic_drift_vanishes_on_full_form_solutions():
    for r, sigma in FULL_CASES.values():
        v = _full_solution(r, sigma)
        for x in (-0.5, 0.2, 0.8):
            for t in (0.0, 1.5):
                drift = analytic_drift(v, r, sigma, x, t, DiscountSign.PLUS)
                assert abs(drift) < 1e-6


def test_analytic_drift_of_sine_at_origin():
    v = sine_solution(1.0, R1, 0.2)
    drift = analytic_drift(v, R1, 0.2, 0.0, 0.0, DiscountSign.PLUS)
    assert drift == pytest.approx(SINE_DRIFT_AT_ORIGIN, abs=1e-5)


def test_analytic_drift_of_sine_at_flat_point():
    # V'(0.5) = 0 for the first mode, so the surviving r*V' term dies too.
    v = sine_solution(1.0, R1, 0.2)
    assert abs(analytic_drift(v, R1, 0.2, 0.5, 0.0, DiscountSign.PLUS)) < 1e-5


def test_analytic_drift_minus_convention_formula():
    v = sine_solution(1.0, R1, 0.2)
    x, t, h = 0.3, 0.7, 1e-3
    dg = delta_gamma(v, x, h)
    diffusion = 0.5 * 0.2 * 0.2
    expected = math.exp(-R1 * t) * (-R1 * float(v(x)) + R1 * dg.delta + diffusion * dg.gamma)
    assert analytic_drift(v, R1, 0.2, x, t, DiscountSign.MINUS) == expected


def test_analytic_drift_names_an_overflowing_diffusion():
    # 0.5*sigma^2 is inf and gamma of sin at 0 is 0: unchecked, the drift was NaN.
    with pytest.raises(ValidationError, match=r"diffusion sigma\^2/2 must be finite, got inf"):
        analytic_drift(np.sin, 0.0, 1e200, 0.0, 0.0)


def test_drift_estimate_full_form_is_drift_free():
    v = _full_solution(0.02, 0.2)
    p = ModelParams(x0=0.5, r=0.02, sigma=0.2)
    report = drift_estimate(v, p, 0.5, 0.0, 1e-3, 100_000, seed=21)
    assert abs(report.estimated_drift_rate) <= 3 * report.standard_error
    assert abs(report.z_score) <= 3


def test_drift_estimate_sine_matches_analytic_at_origin():
    v = sine_solution(1.0, R1, 0.2)
    p = ModelParams(x0=0.0, r=R1, sigma=0.2)
    report = drift_estimate(v, p, 0.0, 0.0, 1e-3, 100_000, seed=22)
    assert abs(report.estimated_drift_rate - SINE_DRIFT_AT_ORIGIN) <= 3 * report.standard_error


def test_drift_estimate_is_deterministic():
    v = sine_solution(1.0, R1, 0.2)
    p = ModelParams(x0=0.0, r=R1, sigma=0.2)
    a = drift_estimate(v, p, 0.2, 0.0, 1e-3, 10_000, seed=5)
    b = drift_estimate(v, p, 0.2, 0.0, 1e-3, 10_000, seed=5)
    assert a == b


def test_drift_estimate_degenerate_sigma_zero():
    cube = lambda x: np.asarray(x) ** 3
    p = ModelParams(x0=1.0, r=0.5, sigma=0.0)
    dt = 1e-3
    report = drift_estimate(cube, p, 1.0, 0.3, dt, 2_000, seed=0)
    assert report.degenerate
    assert report.standard_error == 0.0
    assert math.isnan(report.z_score)
    w0 = math.exp(0.5 * 0.3)
    w1 = math.exp(0.5 * (0.3 + dt))
    quotient = ((1.0 + 0.5 * dt) ** 3 * w1 - 1.0 * w0) / dt
    assert report.estimated_drift_rate == quotient


def test_drift_estimate_validates_dt_and_sample_count():
    v = sine_solution(1.0, R1, 0.2)
    p = ModelParams(x0=0.0, r=R1, sigma=0.2)
    with pytest.raises(ValidationError, match="dt"):
        drift_estimate(v, p, 0.0, 0.0, 0.02, 10_000, seed=0)
    with pytest.raises(ValidationError, match="n_samples"):
        drift_estimate(v, p, 0.0, 0.0, 1e-3, 999, seed=0)


def test_classify_examples():
    def report(est, se):
        return DriftReport(
            x0=0.0, t=0.0, dt=1e-3, n_samples=1000,
            estimated_drift_rate=est, standard_error=se,
            analytic_drift_rate=0.0, z_score=0.0,
            sign_convention=DiscountSign.PLUS,
        )

    assert classify(report(1e-4, 1e-3), 3.0).classification is DriftClass.CONSISTENT_WITH_MARTINGALE
    assert classify(report(-1e-2, 1e-3), 3.0).classification is DriftClass.SUPERMARTINGALE_STRICT
    assert classify(report(1e-2, 1e-3), 3.0).classification is DriftClass.VIOLATES_SUPERMARTINGALE
    # Degenerate reports classify by sign of the deterministic estimate.
    assert classify(report(0.0, 0.0), 3.0).classification is DriftClass.CONSISTENT_WITH_MARTINGALE
    assert classify(report(-1.0, 0.0), 3.0).classification is DriftClass.SUPERMARTINGALE_STRICT
    assert classify(report(1e-9, 0.0), 3.0).classification is DriftClass.VIOLATES_SUPERMARTINGALE


def test_classify_rejects_bad_threshold():
    rep = DriftReport(
        x0=0.0, t=0.0, dt=1e-3, n_samples=1000,
        estimated_drift_rate=0.0, standard_error=1.0,
        analytic_drift_rate=0.0, z_score=0.0,
        sign_convention=DiscountSign.PLUS,
    )
    with pytest.raises(ValidationError, match="z_threshold"):
        classify(rep, 0.0)


def test_sigma_zero_bias_shrinks_linearly_in_dt():
    # With no noise the estimate is a deterministic difference quotient, so
    # its O(dt) bias against the analytic drift is exactly measurable.
    cube = lambda x: np.asarray(x) ** 3
    p = ModelParams(x0=1.0, r=0.5, sigma=0.0)
    biases = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        rep = drift_estimate(cube, p, 1.0, 0.3, dt, 2_000, seed=0)
        biases.append(rep.estimated_drift_rate - rep.analytic_drift_rate)
    assert 1.8 <= biases[0] / biases[1] <= 2.2
    assert 1.8 <= biases[1] / biases[2] <= 2.2


def test_oracle_agreement_within_noise_plus_linear_bias():
    cube = lambda x: np.asarray(x) ** 3
    p = ModelParams(x0=1.0, r=0.5, sigma=0.5)
    for dt in (1e-2, 5e-3):
        rep = drift_estimate(cube, p, 1.0, 0.0, dt, 200_000, seed=17)
        diff = abs(rep.estimated_drift_rate - rep.analytic_drift_rate)
        assert diff <= 3 * rep.standard_error + 1.0 * dt


@pytest.mark.parametrize("name", sorted(FULL_CASES))
def test_drift_free_certification_across_seeds(name):
    # >= 99 of 100 seeds must classify the exact full-form solution as
    # consistent with a martingale at the 3-sigma threshold.
    r, sigma = FULL_CASES[name]
    v = _full_solution(r, sigma)
    p = ModelParams(x0=0.5, r=r, sigma=sigma)
    n_ok = 0
    for k in range(100):
        report = drift_estimate(v, p, 0.5, 0.0, 1e-3, 10_000, seed=k)
        verdict = classify(report, 3.0)
        n_ok += verdict.classification is DriftClass.CONSISTENT_WITH_MARTINGALE
    assert n_ok >= 99


def test_hedging_gap_matches_dropped_delta_term():
    # The sine mode solves the hedged equation, so its measured drift is the
    # dropped r*Delta term; compare against the analytic derivative of sin.
    v = sine_solution(1.0, R1, 0.2)
    p = ModelParams(x0=0.0, r=R1, sigma=0.2)
    a = v.wavenumber
    for i, x0 in enumerate(np.linspace(0.05, 0.95, 10)):
        report = drift_estimate(v, p, float(x0), 0.0, 1e-3, 20_000, seed=100 + i)
        gap = R1 * a * math.cos(a * x0)
        assert abs(report.estimated_drift_rate - gap) <= 3 * report.standard_error


def test_sign_convention_consistency_of_estimator_and_formula():
    v = sine_solution(1.0, R1, 0.2)
    p = ModelParams(x0=0.0, r=R1, sigma=0.2)
    for sign in DiscountSign:
        report = drift_estimate(v, p, 0.3, 0.5, 1e-3, 50_000, seed=9, sign=sign)
        assert abs(report.z_score) <= 3


@pytest.mark.parametrize("profile, r, bound", [
    (lambda: sine_solution(2.0, R1, 0.2), R1, 2.0 * math.exp(R1 * 1.5)),
    # Any coefficients over purely imaginary roots: |V| <= |c1| + |c2|.
    (lambda: general_solution(characteristic_roots_hedged(R1, 0.2), 0.3 - 0.4j, 0.1 + 0.2j),
     R1, (0.5 + abs(0.1 + 0.2j)) * math.exp(R1 * 1.5)),
    # e^{a*x} with a != 0, and a + b*x at the repeated root 0: unbounded, no bound.
    (lambda: _full_solution(*FULL_CASES["complex"]), FULL_CASES["complex"][0], None),
    (lambda: general_solution(characteristic_roots_hedged(0.0, 0.2), 0.3, 0.2), 0.0, None),
], ids=["sine", "hedged-complex-coefficients", "full-complex-pair", "hedged-r-zero"])
def test_integrability_sine_bound(profile, r, bound):
    p = ModelParams(x0=0.5, r=r, sigma=0.2)
    witness = integrability_check(profile(), p, 1.5, 5_000, seed=4)
    assert math.isfinite(witness.mean_abs)
    if bound is None:
        assert witness.analytic_bound is None
    else:
        assert witness.analytic_bound == pytest.approx(bound, rel=1e-14)
        assert witness.mean_abs <= witness.analytic_bound


def _mean_abs_sine(k, m, s):
    """E|sin(kX)|, X ~ N(m, s^2), from |sin u| = 2/pi - (4/pi)*sum_j cos(2ju)/(4j^2 - 1)."""
    terms = (math.cos(2 * j * k * m) * math.exp(-2 * j * j * k * k * s * s) / (4 * j * j - 1)
             for j in range(1, 200))
    return 2 / math.pi - 4 / math.pi * math.fsum(terms)


def test_integrability_control_variate_is_unbiased_for_the_sine_modes():
    # 120 witnesses at 20,000 samples against the exact E|Y|: fitting beta on
    # the samples leaves an O(1/n) bias, so the z-scores must look standard normal.
    z = []
    for n in (1, 2, 3):
        r = quantized_rate(n, 0.2, 1.0)
        v = sine_solution(1.0, r, 0.2)
        p = ModelParams(x0=0.5, r=r, sigma=0.2)
        law = exact_marginal(p, 1.0)
        exact = math.exp(r) * _mean_abs_sine(v.wavenumber, law.mean, law.std)
        for seed in range(40):
            witness = integrability_check(v, p, 1.0, 20_000, seed)
            z.append((witness.mean_abs - exact) / witness.standard_error)
    assert abs(np.mean(z)) <= 0.3
    assert 0.8 <= np.std(z, ddof=1) <= 1.2


@pytest.mark.parametrize("name", sorted(FULL_CASES))
def test_integrability_control_variate_agrees_with_the_plain_mean(name):
    # Independent seeds, so the two standard errors add in quadrature.
    r, sigma = FULL_CASES[name]
    v = _full_solution(r, sigma)
    p = ModelParams(x0=0.5, r=r, sigma=sigma)
    controlled = integrability_check(v, p, 1.0, 1_000_000, seed=31)
    plain = integrability_check(lambda x: v(x), p, 1.0, 1_000_000, seed=32)
    assert controlled.standard_error ** 2 < plain.standard_error ** 2 / 20
    gap = controlled.mean_abs - plain.mean_abs
    assert abs(gap) <= 4 * math.hypot(controlled.standard_error, plain.standard_error)


def test_integrability_control_variate_does_not_depend_on_the_worker_count(monkeypatch):
    v = _full_solution(*FULL_CASES["complex"])
    p = ModelParams(x0=0.5, r=0.02, sigma=0.2)
    witnesses = []
    for workers in (1, 2, 3, 5):
        monkeypatch.setattr(model, "_usable_cpus", lambda workers=workers: workers)
        witnesses.append(integrability_check(v, p, 1.0, 5 * 8192 + 77, seed=8))
    assert all(repr(w) == repr(witnesses[0]) for w in witnesses)


def test_integrability_of_a_plain_callable_keeps_its_bits():
    # Frozen from the plain estimator before the control variate existed.
    v = sine_solution(1.5, R1, 0.2)
    witness = integrability_check(lambda x: v(x), ModelParams(x0=0.1, r=R1, sigma=0.2), 0.4,
                                  3 * 8192 + 5, 13)
    assert (witness.mean_abs, witness.standard_error) == (0.8434572753922874,
                                                          0.0027858311683144252)
    full = _full_solution(*FULL_CASES["complex"])
    witness = integrability_check(lambda x: full(x), ModelParams(x0=0.5, r=0.02, sigma=0.2), 1.0,
                                  100_000, 3)
    assert (witness.mean_abs, witness.standard_error) == (0.7065999630832608,
                                                          0.00040328580771292245)


def test_integrability_falls_back_to_the_plain_mean_where_the_control_mean_overflows():
    # E[V^2] holds e^{2*p*(m + p*s^2)} = e^{754} for p = 1.618 and s = 12, while
    # the samples stay near e^{80}: the witness is the plain one, bit for bit.
    v = _full_solution(*FULL_CASES["distinct"])
    p = ModelParams(x0=0.5, r=-0.02, sigma=12.0)
    assert v._mean_square(exact_marginal(p, 1.0).mean, 12.0) is None
    witness = integrability_check(v, p, 1.0, 5_000, seed=2)
    assert witness == integrability_check(lambda x: v(x), p, 1.0, 5_000, seed=2)
    # A light-tailed sine at its crest: E[V^2] = 4e308 overflows, while the
    # samples lie within 1e-5 of one another, so the plain witness is finite.
    v = sine_solution(2e154, R1, 0.2)
    p = ModelParams(x0=0.5 - R1 * 1e-4, r=R1, sigma=0.2)
    assert v._mean_square(0.5, 0.002) is None
    witness = integrability_check(v, p, 1e-4, 5_000, seed=2)
    plain = integrability_check(lambda x: v(x), p, 1e-4, 5_000, seed=2)
    assert (witness.mean_abs, witness.standard_error) == (plain.mean_abs, plain.standard_error)


@pytest.mark.parametrize("name, sigma", [("distinct", 0.5), ("distinct", 2.0), ("distinct", 8.0),
                                         ("distinct", 10.0), ("complex", 1.0), ("repeated", 0.25)])
def test_integrability_of_a_heavy_tailed_closed_form_is_the_plain_one(name, sigma):
    # With a the largest |Re| of the roots, a*s is 0.81 to 16.2 here, past the
    # light-tail bound sqrt(ln(2)/4) = 0.42. Fitted on these samples, beta
    # biased the control witness upward: at sigma = 2, 100,000 samples, 6 to
    # 15 times the exact E|Y| of 201. At sigma = 8 to 10, E[Y^2] is 1e144 to
    # 1e226, far above every sample's Y^2.
    r = FULL_CASES[name][0]
    v = _full_solution(r, 0.2)
    p = ModelParams(x0=0.5, r=r, sigma=sigma)
    witness = integrability_check(v, p, 1.0, 20_000, seed=2)
    assert witness == integrability_check(lambda x: v(x), p, 1.0, 20_000, seed=2)


def test_integrability_control_variate_is_unbiased_at_the_light_tail_bound():
    # a*s = 0.4, just inside the bound: the repeated root of drift_lab and the
    # distinct pair at s = 0.4/1.618. Both profiles are positive (the repeated
    # one changes sign 7.5 s below the mean), so E|V| = E V in closed form.
    z = []
    for name, sigma in (("repeated", 0.2), ("distinct", 0.4 / 1.618033988749895)):
        r = FULL_CASES[name][0]
        v = _full_solution(r, 0.2)
        p = ModelParams(x0=0.5, r=r, sigma=sigma)
        law = exact_marginal(p, 1.0)
        m, s2 = law.mean, law.variance
        if name == "repeated":
            lam = v.roots.root1.real
            exact = math.exp(lam * m + 0.5 * lam * lam * s2) * 0.5 * (1 + m + lam * s2)
        else:
            exact = 0.5 * sum(math.exp(k * m + 0.5 * k * k * s2)
                              for k in (v.roots.root1.real, v.roots.root2.real))
        exact *= math.exp(r)
        for seed in range(40):
            witness = integrability_check(v, p, 1.0, 20_000, seed)
            z.append((witness.mean_abs - exact) / witness.standard_error)
    assert abs(np.mean(z)) <= 0.3
    assert 0.8 <= np.std(z, ddof=1) <= 1.2


class _NanAboveOneAndAHalf(ExponentialSolution):
    def __call__(self, x):
        return np.where(np.asarray(x) > 1.5, np.nan, super().__call__(x))


@pytest.mark.parametrize("workers", [1, 3])
def test_integrability_names_a_non_finite_closed_form_sample_as_the_plain_path_does(
        workers, monkeypatch):
    # A block is scanned only when its mean of |Y| is not finite; the control
    # path must give the message the plain path gives for the same profile. The
    # first NaN, at index 22628, is in block 2, which worker 2 of 3 draws.
    monkeypatch.setattr(model, "_usable_cpus", lambda: workers)
    full = _full_solution(*FULL_CASES["complex"])
    v = _NanAboveOneAndAHalf(full.roots, full.coef1, full.coef2)
    p = ModelParams(x0=0.0, r=0.02, sigma=0.4)
    messages = []
    for profile in (v, lambda x: v(x)):
        with pytest.raises(NonFiniteSampleError,
                           match="index 22628: payoff evaluated to nan at X = ") as caught:
            integrability_check(profile, p, 1.0, 4 * 8192, seed=6)
        messages.append(str(caught.value))
    assert messages[0] == messages[1]


class _MisstatedMeanSquare(ExponentialSolution):
    def _mean_square(self, m, s):
        return 4.0 * super()._mean_square(m, s)


def test_integrability_drops_a_control_whose_mean_is_far_off():
    # With E c stated 4-fold, cbar misses it by about 3 E c, far beyond the sample
    # deviation of c: the control must be dropped, leaving the plain witness.
    full = _full_solution(*FULL_CASES["complex"])
    v = _MisstatedMeanSquare(full.roots, full.coef1, full.coef2)
    p = ModelParams(x0=0.5, r=0.02, sigma=0.2)
    witness = integrability_check(v, p, 1.0, 20_000, seed=9)
    assert witness == integrability_check(lambda x: v(x), p, 1.0, 20_000, seed=9)


def test_integrability_drops_a_control_whose_power_sums_overflow():
    # |Y| is about 1e100, so each block's S_cc, a sum of (Y^2 - mean Y^2)^2,
    # is inf, while the plain sums of squares stay finite.
    v = sine_solution(1e100, R1, 0.2)
    p = ModelParams(x0=0.1, r=R1, sigma=0.2)
    witness = integrability_check(v, p, 1.0, 3 * 8192, seed=2)
    plain = integrability_check(lambda x: v(x), p, 1.0, 3 * 8192, seed=2)
    assert (witness.mean_abs, witness.standard_error) == (plain.mean_abs, plain.standard_error)


@pytest.mark.parametrize("sums", [
    [(8192, 0.0, 1.0, 0.0, 0.0, 1e308)] * 2,  # finite block S_cc whose total overflows
    [(8192, 0.0, 1.0, 0.0, math.inf, 1.0), (8192, 0.0, 1.0, 0.0, -math.inf, 1.0)],
    [(8192, 0.0, 1.0, math.nan, 0.0, 1.0)] * 2,
])
def test_pooled_drops_a_control_whose_sums_leave_the_float_range(sums):
    # Blocks of (count, ybar, S_yy, cbar, S_yc, S_cc); with S_cc = 1e300 and
    # finite values elsewhere, the same blocks give the controlled estimate:
    # beta = 0, so the plain mean with the standard error over n - 2.
    finite = [(8192, 0.0, 1.0, 0.0, 0.0, 1e300)] * 2
    assert _pooled(finite, 1.0) == (0.0, math.sqrt(2.0 / 16382 / 16384)) != _pooled(finite)
    assert _pooled(sums, 1.0) == _pooled(sums)


@pytest.mark.parametrize("case", ["control", "misstated", "overflow"])
def test_integrability_draws_its_samples_once(case, monkeypatch):
    # The control and its fallbacks to the plain mean, for a 4-fold E[Y^2] and
    # for control products past the float range, share the blocks of one draw.
    calls = []

    def counting(*args):
        calls.append(args)
        return _gaussian_blocks(*args)

    monkeypatch.setattr(verify, "_gaussian_blocks", counting)
    full = _full_solution(*FULL_CASES["complex"])
    params = ModelParams(x0=0.5, r=0.02, sigma=0.2)
    v, p = {
        "control": (full, params),
        "misstated": (_MisstatedMeanSquare(full.roots, full.coef1, full.coef2), params),
        "overflow": (sine_solution(1e100, R1, 0.2), ModelParams(x0=0.1, r=R1, sigma=0.2)),
    }[case]
    integrability_check(v, p, 1.0, 3 * 8192, seed=2)
    assert len(calls) == 1


def test_integrability_of_a_law_without_spread_reports_the_one_value():
    # Identical samples leave S_cc, S_yc and S_yy to rounding; the witness must
    # still be the one value, with no spread.
    v = _full_solution(*FULL_CASES["complex"])
    p = ModelParams(x0=0.3, r=0.02, sigma=0.2)
    witness = integrability_check(v, p, 0.0, 20_000, seed=1)
    assert witness.mean_abs == pytest.approx(abs(v(0.3)), rel=1e-15, abs=0)
    assert witness.standard_error <= 1e-15


def test_integrability_linear_payoff():
    identity = lambda x: np.asarray(x)
    p = ModelParams(x0=100.0, r=0.05, sigma=0.2)
    t = 4.0
    witness = integrability_check(identity, p, t, 20_000, seed=12)
    expected = (100.0 + 0.05 * t) * math.exp(0.05 * t)
    assert witness.analytic_bound is None
    assert abs(witness.mean_abs - expected) <= 5 * witness.standard_error


def test_integrability_aborts_on_non_finite_sample():
    def poisoned(x):
        x = np.asarray(x)
        return np.where(x > 100.0, np.nan, x)

    p = ModelParams(x0=100.0, r=0.0, sigma=1.0)
    with pytest.raises(NonFiniteSampleError, match="index"):
        integrability_check(poisoned, p, 1.0, 5_000, seed=3)


def test_integrability_aborts_on_overflow_without_a_warning(monkeypatch):
    # e^{1.618*x} overflows near x = 3000: reported by index, with no numpy warning first.
    v = _full_solution(*FULL_CASES["distinct"])
    p = ModelParams(x0=3000.0, r=-0.02, sigma=0.2)
    for workers in (1, 2):  # with 2, block 1 runs on a worker thread
        monkeypatch.setattr(model, "_usable_cpus", lambda workers=workers: workers)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteSampleError, match="index 0"):
                integrability_check(v, p, 1.0, 2 * 8192, seed=3)


def test_integrability_refuses_finite_samples_whose_mean_overflows():
    # Every |Y| is 1e308, finite, but 2000 of them sum past the float range.
    p = ModelParams(x0=0.0, r=0.0, sigma=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteSampleError, match=r"mean_abs=inf, standard_error=nan"):
            integrability_check(lambda x: np.full_like(x, 1e308), p, 1.0, 2000, seed=0)


def _inf_above_four(x):
    # e^1000 overflows: inf where x > 4.0, after a numpy overflow a worker must silence.
    return np.exp(np.where(x > 4.0, 1000.0, 0.0))


@pytest.mark.parametrize("workers", [1, 2, 3, 5])
def test_integrability_reports_the_lowest_failing_block(workers, monkeypatch):
    # Samples above 4.0 first occur at index 111598, in block 13, which runs on
    # a worker thread whenever there is more than one; later blocks fail too.
    monkeypatch.setattr(model, "_usable_cpus", lambda: workers)
    p = ModelParams(x0=0.0, r=0.0, sigma=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteSampleError, match="index 111598: "):
            integrability_check(_inf_above_four, p, 1.0, 200_000, seed=7)


def test_drift_estimate_overflow_on_a_worker_thread_emits_no_warning(monkeypatch):
    # The overflowing samples fall in every block, so also on worker threads,
    # which do not inherit the caller's numpy errstate.
    monkeypatch.setattr(model, "_usable_cpus", lambda: 2)
    p = ModelParams(x0=0.0, r=0.0, sigma=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = drift_estimate(_inf_above_four, p, 3.7, 0.0, 1e-2, 4 * 8192, seed=7)
    assert math.isinf(report.estimated_drift_rate)


@pytest.mark.parametrize("n", [1000, 8192, 8193, 3 * 8192 + 5])
def test_pooled_block_moments_match_the_whole_array(n):
    a = np.random.default_rng(n).normal(3.0, 2.0, n)
    mean, se = _pooled([_block_moments(a[i : i + 8192].copy()) for i in range(0, n, 8192)])
    want_se = a.std(ddof=1) / math.sqrt(n)
    assert abs(mean - a.mean()) <= 1e-10 * want_se
    assert abs(se - want_se) <= 1e-10 * want_se

    # With the control c = a^2, of exact mean 3^2 + 2^2: a regression of a on c.
    c = a * a
    mean, se = _pooled([_block_moments(a[i : i + 8192].copy(), c[i : i + 8192].copy())
                        for i in range(0, n, 8192)], 13.0)
    da, dc = a - a.mean(), c - c.mean()
    beta = (da * dc).sum() / (dc * dc).sum()
    want_se = math.sqrt(((da - beta * dc) ** 2).sum() / (n - 2) / n)
    assert abs(mean - (a.mean() - beta * (c.mean() - 13.0))) <= 1e-10 * want_se
    assert abs(se - want_se) <= 1e-10 * want_se


@pytest.mark.parametrize("workers", [1, 2])
def test_estimators_match_the_moments_of_their_own_samples(workers, monkeypatch):
    # The samples are drawn again through the sampler with a copying callback
    # and reduced by numpy over the whole array. A lambda gets the plain
    # integrability mean; the closed form itself gets the control c = |Y|^2,
    # whose estimate is a regression of |Y| on c with the exact E c.
    monkeypatch.setattr(model, "_usable_cpus", lambda: workers)
    v = sine_solution(1.5, R1, 0.2)
    p = ModelParams(x0=0.1, r=R1, sigma=0.2)
    x0, t, dt, n, seed = 0.3, 0.4, 1e-3, 3 * 8192 + 5, 13

    def drawn(scale, base):
        blocks = _gaussian_blocks(seed, n, np.array([scale]), base, lambda _, x: x[:, 0].copy())
        return np.concatenate(blocks)

    x = drawn(0.2 * math.sqrt(dt), x0 + R1 * dt)
    rates = (v(x) * math.exp(R1 * (t + dt)) - float(v(x0)) * math.exp(R1 * t)) / dt
    report = drift_estimate(v, p, x0, t, dt, n, seed)
    law = exact_marginal(p, t)
    witness = integrability_check(lambda x: v(x), p, t, n, seed)
    absolute = np.abs(v(drawn(law.std, law.mean)) * math.exp(R1 * t))
    for got, samples in [((report.estimated_drift_rate, report.standard_error), rates),
                         ((witness.mean_abs, witness.standard_error), absolute)]:
        want_se = samples.std(ddof=1) / math.sqrt(n)
        assert abs(got[0] - samples.mean()) <= 1e-10 * want_se
        assert abs(got[1] - want_se) <= 1e-10 * want_se

    # E[sin(kX)^2] = (1 - cos(2km)e^{-2k^2s^2})/2, written out independently of ode.
    k = v.wavenumber
    control = absolute * absolute
    control_mean = (1.5 * math.exp(R1 * t)) ** 2 * 0.5 * (
        1.0 - math.cos(2 * k * law.mean) * math.exp(-2 * k * k * law.variance))
    dy, dc = absolute - absolute.mean(), control - control.mean()
    beta = (dy * dc).sum() / (dc * dc).sum()
    residual = dy - beta * dc
    want = absolute.mean() - beta * (control.mean() - control_mean)
    want_se = math.sqrt((residual * residual).sum() / (n - 2) / n)
    controlled = integrability_check(v, p, t, n, seed)
    assert abs(controlled.mean_abs - want) <= 1e-10 * want_se
    assert abs(controlled.standard_error - want_se) <= 1e-10 * want_se


@pytest.mark.parametrize("workers", [1, 2])
def test_estimator_memory_does_not_grow_with_the_sample_count(workers, monkeypatch):
    # 1e6 samples would be 8 MB as one float64 array; each block is reduced where it is drawn.
    monkeypatch.setattr(model, "_usable_cpus", lambda: workers)
    v = sine_solution(1.0, R1, 0.2)
    p = ModelParams(x0=0.0, r=R1, sigma=0.2)
    for estimate in (lambda: drift_estimate(v, p, 0.3, 0.0, 1e-3, 1_000_000, seed=1),
                     lambda: integrability_check(v, p, 1.0, 1_000_000, seed=1)):
        tracemalloc.start()
        try:
            estimate()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000


@pytest.mark.parametrize("workers", [1, 2])
def test_an_overflowing_profile_gives_a_drift_classify_refuses(workers, monkeypatch):
    # Samples above 4.0 overflow to inf in every block, while most stay finite.
    monkeypatch.setattr(model, "_usable_cpus", lambda: workers)
    p = ModelParams(x0=0.0, r=0.0, sigma=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = drift_estimate(_inf_above_four, p, 3.7, 0.0, 1e-2, 4 * 8192, seed=7)
        assert not (math.isfinite(report.estimated_drift_rate)
                    and math.isfinite(report.standard_error))
        with pytest.raises(NonFiniteSampleError, match="non-finite drift estimate"):
            classify(report)


@pytest.mark.parametrize("params, name", [
    (ModelParams(x0=1.79e308, r=0.0, sigma=1e306), r"sigma\*sqrt\(t\)"),
    (ModelParams(x0=1.79e308, r=0.0, sigma=1.0, drift=1e308, exploratory_drift=True),
     r"x0 \+ mu\*t"),
], ids=["scale", "mean"])
def test_integrability_names_a_law_that_leaves_the_float_range(params, name):
    # The samples would be inf + Z: without the check the payoff would be blamed at X = inf.
    with pytest.raises(ValidationError, match=name):
        integrability_check(sine_solution(1, 0.2, 0.2), params, 1.0, 2000, 1)


def test_analytic_drift_past_the_float_range_is_refused_by_name():
    # sigma^2/2 = 5e307 is finite, but times gamma = -sin(1), and e^{1.5}, it is not.
    with pytest.raises(ValidationError, match="analytic drift must be finite, got -inf"):
        analytic_drift(np.sin, 0.5, 1e154, 1.0, 3.0)


def test_integrability_validates_sample_count():
    v = sine_solution(1.0, R1, 0.2)
    p = ModelParams(x0=0.0, r=R1, sigma=0.2)
    with pytest.raises(ValidationError, match="n_samples"):
        integrability_check(v, p, 1.0, 10, seed=0)
