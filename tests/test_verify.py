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
    OdeForm,
    OdeProblem,
    RootCase,
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
    residual,
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
                drift = analytic_drift(v, ModelParams(0.0, r, sigma), x, t, DiscountSign.PLUS)
                assert abs(drift) < 1e-6


def test_analytic_drift_of_sine_at_origin():
    v = sine_solution(1.0, R1, 0.2)
    drift = analytic_drift(v, ModelParams(0.0, R1, 0.2), 0.0, 0.0, DiscountSign.PLUS)
    assert drift == pytest.approx(SINE_DRIFT_AT_ORIGIN, abs=1e-5)


def test_analytic_drift_of_sine_at_flat_point():
    # V'(0.5) = 0 for the first mode, so the surviving r*V' term dies too.
    v = sine_solution(1.0, R1, 0.2)
    assert abs(analytic_drift(v, ModelParams(0.0, R1, 0.2), 0.5, 0.0, DiscountSign.PLUS)) < 1e-5


def test_analytic_drift_minus_convention_formula():
    v = sine_solution(1.0, R1, 0.2)
    x, t, h = 0.3, 0.7, 1e-3
    dg = delta_gamma(v, x, h)
    diffusion = 0.5 * 0.2 * 0.2
    for drift in (None, -0.5):  # risk-neutral, then exploratory: the V' term takes mu
        p = ModelParams(x0=0.0, r=R1, sigma=0.2, drift=drift)
        expected = math.exp(-R1 * t) * (-R1 * float(v(x)) + p.mu * dg.delta + diffusion * dg.gamma)
        assert analytic_drift(v, p, x, t, DiscountSign.MINUS) == expected


@pytest.mark.parametrize("case", list(FULL_CASES))
def test_residual_and_analytic_drift_share_one_operator(case):
    # The full form is the Ito drift at mu = r under e^{+rt} at t = 0, bit for bit.
    r, sigma = FULL_CASES[case]
    v = _full_solution(r, sigma)
    for x in (-0.5, 0.2, 0.8):
        assert residual(v, OdeProblem(r, sigma, OdeForm.FULL), x, 1e-3) == analytic_drift(
            v, ModelParams(0.0, r, sigma), x, 0.0, DiscountSign.PLUS)


def test_analytic_drift_names_an_overflowing_diffusion():
    # 0.5*sigma^2 is inf and gamma of sin at 0 is 0: unchecked, the drift was NaN.
    with pytest.raises(ValidationError, match=r"diffusion sigma\^2/2 must be finite, got inf"):
        analytic_drift(np.sin, ModelParams(0.0, 0.0, 1e200), 0.0, 0.0)


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


@pytest.mark.parametrize("drift, t, sign", [(1.0, 0.0, DiscountSign.PLUS),
                                             (-0.5, 0.7, DiscountSign.MINUS)],
                         ids=["plus", "minus"])
def test_drift_estimate_of_a_given_drift_is_calibrated(drift, t, sign):
    # The target is the Ito drift under the mu drawn; with r in place of mu,
    # z averaged +21.1 (plus) and -12.5 (minus) over these 100 seeds.
    p = ModelParams(x0=0.0, r=0.05, sigma=0.2, drift=drift)
    z = np.array([drift_estimate(np.sin, p, 0.3, t, 1e-3, 20_000, seed, sign).z_score
                  for seed in range(100)])
    assert abs(z.mean()) <= 0.5
    assert 0.7 <= z.std(ddof=1) <= 1.2


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
    assert report.z_score is None
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


def _report(est, se):
    return DriftReport(
        x0=0.0, t=0.0, dt=1e-3, n_samples=1000,
        estimated_drift_rate=est, standard_error=se,
        analytic_drift_rate=0.0, z_score=0.0,
        sign_convention=DiscountSign.PLUS,
    )


def test_classify_examples():
    assert classify(_report(1e-4, 1e-3), 3.0).classification is DriftClass.CONSISTENT_WITH_MARTINGALE
    assert classify(_report(-1e-2, 1e-3), 3.0).classification is DriftClass.SUPERMARTINGALE_STRICT
    assert classify(_report(1e-2, 1e-3), 3.0).classification is DriftClass.VIOLATES_SUPERMARTINGALE
    # Degenerate reports classify by sign of the deterministic estimate.
    assert classify(_report(0.0, 0.0), 3.0).classification is DriftClass.CONSISTENT_WITH_MARTINGALE
    assert classify(_report(-1.0, 0.0), 3.0).classification is DriftClass.SUPERMARTINGALE_STRICT
    assert classify(_report(1e-9, 0.0), 3.0).classification is DriftClass.VIOLATES_SUPERMARTINGALE


@pytest.mark.parametrize("sign, outside", [
    (1.0, DriftClass.VIOLATES_SUPERMARTINGALE),
    (-1.0, DriftClass.SUPERMARTINGALE_STRICT),
], ids=["positive", "negative"])
def test_classify_is_one_inequality_at_its_boundary(sign, outside):
    # Consistent iff |est| <= z*SE: est = 3*SE is inside, the next float outward is not.
    se = 1e-3
    edge = sign * 3.0 * se
    assert classify(_report(edge, se), 3.0).classification is DriftClass.CONSISTENT_WITH_MARTINGALE
    beyond = math.nextafter(edge, sign * math.inf)
    assert classify(_report(beyond, se), 3.0).classification is outside
    # A standard error of 0: the smallest estimate lies outside, and its sign decides.
    assert classify(_report(sign * 5e-324, 0.0), 3.0).classification is outside
    # z*SE overflows: every finite estimate lies inside.
    huge = _report(sign * 1.7976931348623157e308, 1e308)
    assert classify(huge, 10.0).classification is DriftClass.CONSISTENT_WITH_MARTINGALE


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


def _mp_mean_abs(v, law, zeros, weight):
    """E|V(X)|*weight by 30-digit mpmath quadrature, split at the zeros of V and at the mean."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        m, s = mpmath.mpf(law.mean), mpmath.mpf(law.std)
        c1, c2 = mpmath.mpf(v.coef1.real), mpmath.mpf(v.coef2.real)
        p, q = mpmath.mpf(v.roots.root1.real), mpmath.mpf(v.roots.root2.real)
        if v.roots.case is RootCase.REPEATED_REAL:
            f = lambda x: abs((c1 + c2 * x) * mpmath.exp(p * x))
        else:
            f = lambda x: abs(c1 * mpmath.exp(p * x) + c2 * mpmath.exp(q * x))
        cuts = sorted([-mpmath.inf, m, mpmath.inf] + [mpmath.mpf(z) for z in zeros])
        return float(mpmath.quad(lambda x: f(x) * mpmath.npdf(x, m, s), cuts)) * weight


def test_integrability_is_calibrated_from_32_full_blocks():
    # 100 witnesses each at 32*8192 samples, the fewest whose standard error
    # comes from the spread of block means, against the exact E|Y|: the sine
    # mode n = 3 by its Fourier series, the repeated form (zero at x = -1) and
    # the distinct form (no zero) by quadrature. z over 300 witnesses must
    # look standard normal.
    z = []
    r = quantized_rate(3, 0.2, 1.0)
    v, p = sine_solution(1.0, r, 0.2), ModelParams(x0=0.5, r=r, sigma=0.2)
    law = exact_marginal(p, 1.0)
    cases = [(v, p, math.exp(r) * _mean_abs_sine(v.wavenumber, law.mean, law.std))]
    for name, zeros in (("repeated", [-1.0]), ("distinct", [])):
        r, sigma = FULL_CASES[name]
        v, p = _full_solution(r, sigma), ModelParams(x0=0.5, r=r, sigma=sigma)
        cases.append((v, p, _mp_mean_abs(v, exact_marginal(p, 1.0), zeros, math.exp(r))))
    for v, p, exact in cases:
        for seed in range(100):
            witness = integrability_check(v, p, 1.0, 32 * 8192, seed)
            z.append((witness.mean_abs - exact) / witness.standard_error)
    assert abs(np.mean(z)) <= 0.3
    assert 0.8 <= np.std(z, ddof=1) <= 1.2


@pytest.mark.parametrize("name", sorted(FULL_CASES))
def test_integrability_agrees_with_the_mean_over_independent_normals(name):
    # The stratified witness against the mean of |Y| over independent normals,
    # drawn by _sample_mean without the stratified fill. Independent seeds, so
    # the two standard errors add in quadrature.
    r, sigma = FULL_CASES[name]
    v = _full_solution(r, sigma)
    p = ModelParams(x0=0.5, r=r, sigma=sigma)
    stratified = integrability_check(v, p, 1.0, 1_000_000, seed=31)
    plain = verify._sample_mean(lambda x: np.abs(v(x) * math.exp(r)), exact_marginal(p, 1.0),
                                1_000_000, seed=32)
    assert stratified.standard_error ** 2 < plain[1] ** 2 / 20
    gap = stratified.mean_abs - plain[0]
    assert abs(gap) <= 4 * math.hypot(stratified.standard_error, plain[1])


def test_integrability_of_a_closed_form_does_not_depend_on_the_worker_count(monkeypatch):
    v = _full_solution(*FULL_CASES["complex"])
    p = ModelParams(x0=0.5, r=0.02, sigma=0.2)
    witnesses = []
    for workers in (1, 2, 3, 5):
        monkeypatch.setattr(model, "_usable_cpus", lambda workers=workers: workers)
        witnesses.append(integrability_check(v, p, 1.0, 5 * 8192 + 77, seed=8))
    assert all(repr(w) == repr(witnesses[0]) for w in witnesses)


def test_integrability_of_a_plain_callable_keeps_its_bits():
    # Frozen when each block's further draws followed a Neyman allocation over
    # its 32 tail strata; the rows of the stratified fill kept their bits.
    v = sine_solution(1.5, R1, 0.2)
    witness = integrability_check(lambda x: v(x), ModelParams(x0=0.1, r=R1, sigma=0.2), 0.4,
                                  3 * 8192 + 5, 13)
    assert (witness.mean_abs, witness.standard_error) == (0.8443359531799564,
                                                          0.002778909424829456)
    full = _full_solution(*FULL_CASES["complex"])
    witness = integrability_check(lambda x: full(x), ModelParams(x0=0.5, r=0.02, sigma=0.2), 1.0,
                                  100_000, 3)
    assert (witness.mean_abs, witness.standard_error) == (0.7069271376429684,
                                                          0.00040266986879886003)


def test_integrability_falls_back_to_the_plain_mean_where_the_control_mean_overflows():
    # Every profile takes the same stratified mean, so a closed form and a plain
    # callable give the same witness, bit for bit. E[V^2] is e^{754} here, for
    # p = 1.618 and s = 12, while the samples stay near e^{80}.
    v = _full_solution(*FULL_CASES["distinct"])
    p = ModelParams(x0=0.5, r=-0.02, sigma=12.0)
    witness = integrability_check(v, p, 1.0, 5_000, seed=2)
    assert witness == integrability_check(lambda x: v(x), p, 1.0, 5_000, seed=2)
    # A sine at its crest: E[V^2] = 4e308 overflows, while the samples lie
    # within 1e-5 of one another, so the witness is finite.
    v = sine_solution(2e154, R1, 0.2)
    p = ModelParams(x0=0.5 - R1 * 1e-4, r=R1, sigma=0.2)
    witness = integrability_check(v, p, 1e-4, 5_000, seed=2)
    plain = integrability_check(lambda x: v(x), p, 1e-4, 5_000, seed=2)
    assert (witness.mean_abs, witness.standard_error) == (plain.mean_abs, plain.standard_error)


def test_integrability_takes_the_plain_mean_where_the_root_is_not_a_normal_float():
    # sqrt(E[Y^2]) is 2.1e-309 here, subnormal: an amplitude of 1e-150 times a
    # weight e^{-r*t} of 3e-159. A zero profile has a witness of exactly 0.
    v = sine_solution(1e-150, R1, 0.2)
    p = ModelParams(x0=0.5, r=R1, sigma=0.2)
    t = 365.0 / R1
    witness = integrability_check(v, p, t, 5_000, seed=2, sign=DiscountSign.MINUS)
    plain = integrability_check(lambda x: v(x), p, t, 5_000, seed=2, sign=DiscountSign.MINUS)
    assert (witness.mean_abs, witness.standard_error) == (plain.mean_abs, plain.standard_error)
    zero = _full_solution(*FULL_CASES["complex"], 0.0, 0.0)
    witness = integrability_check(zero, ModelParams(x0=0.5, r=0.02, sigma=0.2), 1.0, 5_000, seed=2)
    assert (witness.mean_abs, witness.standard_error) == (0.0, 0.0)


@pytest.mark.parametrize("name, sigma", [("distinct", 0.5), ("distinct", 2.0), ("distinct", 8.0),
                                         ("distinct", 10.0), ("complex", 1.0), ("repeated", 0.25)])
def test_integrability_of_a_heavy_tailed_closed_form_is_the_plain_one(name, sigma):
    # With a the largest |Re| of the roots, a*s is 0.81 to 16.2 here. The retired
    # Taylor control took the plain mean past a*s = 0.42, since its variance
    # rested on samples too rare to draw; the stratified mean serves every
    # profile, so a heavy-tailed closed form gets the callable's witness.
    r = FULL_CASES[name][0]
    v = _full_solution(r, 0.2)
    p = ModelParams(x0=0.5, r=r, sigma=sigma)
    witness = integrability_check(v, p, 1.0, 20_000, seed=2)
    assert witness == integrability_check(lambda x: v(x), p, 1.0, 20_000, seed=2)


def test_integrability_is_calibrated_on_two_positive_exponential_profiles():
    # a*s = 0.4, where the retired Taylor control stopped: the repeated root of
    # drift_lab and the distinct pair at s = 0.4/1.618. Both profiles are positive
    # (the repeated one changes sign 7.5 s below the mean), so E|V| = E V in
    # closed form. 32*8192 samples: the standard error comes from block means.
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
            witness = integrability_check(v, p, 1.0, 32 * 8192, seed)
            z.append((witness.mean_abs - exact) / witness.standard_error)
    assert abs(np.mean(z)) <= 0.3
    assert 0.8 <= np.std(z, ddof=1) <= 1.2


def test_integrability_of_the_distinct_form_is_calibrated_over_400_seeds():
    # The distinct full form (0.5, 0.5) at r = -0.02, sigma = 0.2: both
    # coefficients are positive, so E|Y| = e^{rt} * sum c_j e^{l_j m + l_j^2 s^2/2}.
    # At 32*8192 samples the standard error is the spread of the block means,
    # which the skew of single end-stratum draws made too small: z had SD 1.148,
    # max |z| 5.13 and 2.0% of seeds beyond 3. With each end stratum averaged
    # over 64 draws: SD 1.063, max 3.64, 0.75%. With 128 further draws by a
    # Neyman allocation over the 32 tail strata: mean 0.05, SD 1.072, max 4.39,
    # 1.25% (5 seeds); over seeds 3000-10999, SD 1.034 and 0.55% beyond 3,
    # where 63 draws at each end gave SD 1.048 and 0.70%.
    r, sigma = FULL_CASES["distinct"]
    v = _full_solution(r, sigma)
    p = ModelParams(x0=0.5, r=r, sigma=sigma)
    law = exact_marginal(p, 1.0)
    exact = math.exp(r) * sum(0.5 * math.exp(k * law.mean + 0.5 * k * k * law.variance)
                              for k in (v.roots.root1.real, v.roots.root2.real))
    z = np.array([(w.mean_abs - exact) / w.standard_error
                  for w in (integrability_check(v, p, 1.0, 32 * 8192, seed)
                            for seed in range(100, 500))])
    assert abs(z.mean()) <= 0.3
    assert 0.9 <= np.std(z, ddof=1) <= 1.1


@pytest.mark.parametrize("workers", [1, 2])
def test_an_end_row_short_of_tail_draws_repeats_its_own_x(workers, monkeypatch):
    # With 128 pairs a block in place of 161, each tail stratum's range holds
    # exactly one pair per further draw, so every pair its test refuses leaves
    # the row short: it repeats its own X in place of the rest. The witness is
    # still the mean of the samples _witness_samples rebuilds, on any worker
    # count.
    monkeypatch.setattr(model, "_usable_cpus", lambda: workers)
    monkeypatch.setattr(model, "_TAIL_PAIRS", 128)
    v = _full_solution(*FULL_CASES["repeated"])
    p = ModelParams(x0=0.5, r=0.08, sigma=0.2)
    absolute = lambda x: np.abs(v(x) * math.exp(0.08))
    for n, seed, n_short in [(1000, 2, 1), (3 * 8192 + 5, 2, 8)]:
        samples, tail, short = _witness_samples(absolute, exact_marginal(p, 1.0), n, seed)
        assert short == n_short
        witness = integrability_check(v, p, 1.0, n, seed)
        _assert_moments((witness.mean_abs, witness.standard_error), samples, n, tail)


def _allocations(monkeypatch):
    """A list that collects the further draws of every stratified draw _sample_mean makes."""
    seen = []

    def spying(*args):
        seen.append(args[5][0].tolist())
        return _gaussian_blocks(*args)

    monkeypatch.setattr(verify, "_gaussian_blocks", spying)
    return seen


def test_the_allocation_depends_on_the_profile_and_its_law_alone(monkeypatch):
    # The distinct form at sigma = 0.2 holds its variance in the right tail: the
    # pilot gives stratum 8191 72 of the 128 further draws and stratum 0 none.
    # Its closed form and its callable, the closed form scaled by 2^332 and
    # 2^-300, and every sample count and seed draw with that one allocation.
    seen = _allocations(monkeypatch)
    r, sigma = FULL_CASES["distinct"]
    p = ModelParams(x0=0.5, r=r, sigma=sigma)
    v = _full_solution(r, sigma)
    profiles = [v, lambda x: v(x)] + [_full_solution(r, sigma, 0.5 * 2.0**k, 0.5 * 2.0**k)
                                      for k in (332, -300)]
    for profile in profiles:
        for n, seed in [(1000, 2), (3 * 8192 + 5, 9)]:
            integrability_check(profile, p, 1.0, n, seed)
    assert len(seen) == 8 and all(further == seen[0] for further in seen)
    assert (sum(seen[0]), seen[0][:2]) == (128, [0, 72])


@pytest.mark.parametrize("workers", [1, 3])
def test_a_non_finite_or_flat_pilot_takes_the_even_end_split(workers, monkeypatch):
    # The pilot's points of stratum 8191 reach X = 4.20, where these profiles are
    # inf or NaN: the two end strata then take 63 further draws each, as where
    # every pilot spread is 0 (a profile of 1 below 4.75). The bad samples are
    # still refused by index: above 4, a further draw of block 0's end row 734;
    # above 4.75, the own X of row 23561, in block 2.
    monkeypatch.setattr(model, "_usable_cpus", lambda: workers)
    seen = _allocations(monkeypatch)
    p = ModelParams(x0=0.0, r=0.0, sigma=1.0)
    cases = [(_inf_above_four, 7, "index 734: inf at X = "),
             (lambda x: np.where(x > 4.0, np.nan, 1.0), 7, "index 734: nan at X = "),
             (lambda x: np.exp(np.where(x > 4.75, 1000.0, 0.0)), 317, "index 23561: inf at X = ")]
    for profile, seed, refusal in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteSampleError, match=refusal):
                integrability_check(profile, p, 1.0, 200_000, seed)
    assert seen == [model._EVEN.tolist()] * 3


class _NanAboveOneAndAHalf(ExponentialSolution):
    def __call__(self, x):
        return np.where(np.asarray(x) > 1.5, np.nan, super().__call__(x))


@pytest.mark.parametrize("workers", [1, 3])
def test_integrability_names_a_non_finite_closed_form_sample_as_the_plain_path_does(
        workers, monkeypatch):
    # A block is scanned only when its mean is not finite; the closed form must
    # give the message the plain callable gives for the same profile. The first
    # NaN is at index 3538, in block 0, which the caller draws.
    monkeypatch.setattr(model, "_usable_cpus", lambda: workers)
    full = _full_solution(*FULL_CASES["complex"])
    v = _NanAboveOneAndAHalf(full.roots, full.coef1, full.coef2)
    p = ModelParams(x0=0.0, r=0.02, sigma=0.4)
    messages = []
    for profile in (v, lambda x: v(x)):
        with pytest.raises(NonFiniteSampleError,
                           match="index 3538: nan at X = ") as caught:
            integrability_check(profile, p, 1.0, 4 * 8192, seed=6)
        messages.append(str(caught.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("form", ["complex", "repeated", "distinct", "sine"])
@pytest.mark.parametrize("k", [332, -300])
def test_integrability_scales_with_the_profile_by_a_power_of_two(k, form, workers, monkeypatch):
    # Every operation of the stratified mean scales exactly by a power of two, the
    # squared deviations of |Y| included: at 2^332 they are near 1e200, at 2^-300
    # near 1e-181, both normal floats. So does the mean over 64 draws that
    # replaces each end row's sample. Seed 2 holds end rows in the 1000-sample
    # prefix and in the 5-row tail block of 3*8192 + 5; at 32*8192 + 5 the
    # standard error comes from the block means.
    monkeypatch.setattr(model, "_usable_cpus", lambda: workers)

    def witness(scale, n):
        if form == "sine":
            v, p = sine_solution(scale, R1, 0.2), ModelParams(x0=0.1, r=R1, sigma=0.2)
        else:
            r, sigma = FULL_CASES[form]
            v = _full_solution(r, sigma, 0.5 * scale, 0.5 * scale)
            p = ModelParams(x0=0.5, r=r, sigma=sigma)
        return integrability_check(v, p, 1.0, n, seed=2)

    for n in (1000, 3 * 8192 + 5, 32 * 8192 + 5):
        unit, scaled = witness(1.0, n), witness(2.0 ** k, n)
        assert (scaled.mean_abs, scaled.standard_error) == (math.ldexp(unit.mean_abs, k),
                                                            math.ldexp(unit.standard_error, k))


def test_integrability_is_unbiased_at_the_minimum_sample_count():
    # The repeated root with c1 = 0.05, whose V changes sign at x = -0.05, 3.15 s
    # below the mean: a skewed |Y|. At 1000 samples, one partial block, the
    # stratified mean is unbiased and its standard error, the independent
    # formula, overstates the spread: z had SD 1.21 and |z| up to 7.9 under the
    # Taylor control, and an SD near 0.1 here.
    v = _full_solution(0.08, 0.2, 0.05, 1.0)
    p = ModelParams(x0=0.5, r=0.08, sigma=0.2)
    exact = _mp_mean_abs(v, exact_marginal(p, 1.0), [-0.05], math.exp(0.08))
    witnesses = [integrability_check(v, p, 1.0, 1000, seed) for seed in range(4000)]
    estimates = np.array([w.mean_abs for w in witnesses])
    z = (estimates - exact) / np.array([w.standard_error for w in witnesses])
    assert abs(estimates.mean() - exact) <= 3 * estimates.std(ddof=1) / math.sqrt(4000)
    assert np.std(z, ddof=1) <= 1.2
    assert np.mean(np.abs(z) > 3) <= 0.01


def _mp_mean_abs_form(v, m, s):
    """E|V(X)|, X ~ N(m, s^2), for any closed form: 20-digit mpmath quadrature of
    the complex-exponential form, split at the mean and at the zeros of V within
    12 s of it, each bracketed on a float grid and refined by mpmath."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(20):
        c1, c2, lam1, lam2 = (mpmath.mpc(z.real, z.imag)
                              for z in (v.coef1, v.coef2, v.roots.root1, v.roots.root2))
        if v.roots.case is RootCase.REPEATED_REAL:
            value = lambda x: mpmath.re((c1 + c2 * x) * mpmath.exp(lam1 * x))
        else:
            value = lambda x: mpmath.re(c1 * mpmath.exp(lam1 * x) + c2 * mpmath.exp(lam2 * x))
        grid = np.linspace(m - 12 * s, m + 12 * s, 24_001)
        sign = np.sign(v(grid))
        cuts = [mpmath.findroot(value, (grid[i], grid[i + 1]), solver="anderson")
                for i in np.flatnonzero(sign[:-1] * sign[1:] < 0)]
        cuts = sorted([-mpmath.inf, mpmath.mpf(m), mpmath.inf] + cuts)
        return float(mpmath.quad(lambda x: abs(value(x)) * mpmath.npdf(x, m, s), cuts))


@pytest.mark.parametrize("v", [
    general_solution(characteristic_roots_full(0.02, 0.2), 0.5, 0.5),
    general_solution(characteristic_roots_full(0.02, 0.2), 0.3 - 0.4j, 0.1 + 0.2j),
    sine_solution(1.0, quantized_rate(2, 0.2, 1.0), 0.2),
    general_solution(characteristic_roots_full(0.08, 0.2), 0.5, 0.5),
    general_solution(characteristic_roots_hedged(0.0, 0.2), 0.3, 0.2),
    general_solution(characteristic_roots_full(-0.02, 0.2), 0.5, 0.5),
    general_solution(characteristic_roots_full(-0.02, 0.2), 0.5, -0.5),
], ids=["complex", "complex-complex-coefficients", "sine", "repeated", "repeated-at-zero",
        "distinct", "distinct-opposite-signs"])
@pytest.mark.parametrize("m, s", [(0.52, 0.2), (0.3, 0.9), (0.0, 1e-4)])
def test_integrability_matches_quadrature(v, m, s):
    # Every closed form, at the laws where the retired Taylor control's E[V^2]
    # was pinned to quadrature: r = 0 and t = 1 make the witness E|V(X)| with
    # X ~ N(m, s^2). 32*8192 samples, so the standard error comes from block
    # means. At m = 0, s = 1e-4 the sine and the opposite-sign pair cross zero
    # at the mean, and |V| is a folded line there. The widest standard error,
    # 0.8% of E|V|, is the repeated form's at s = 0.9, where a*s = 1.8.
    witness = integrability_check(v, ModelParams(x0=m, r=0.0, sigma=s), 1.0, 32 * 8192, seed=5)
    exact = _mp_mean_abs_form(v, m, s)
    assert abs(witness.mean_abs - exact) <= 4 * witness.standard_error
    assert 0.0 < witness.standard_error <= 1e-2 * exact


@pytest.mark.parametrize("case", ["control", "overflow", "non-finite"])
def test_integrability_draws_its_samples_once(case, monkeypatch):
    # The witness takes the blocks of one draw, also for a profile of 1e100,
    # whose Y^2 would leave the float range. A non-finite sample is located in
    # the tile that drew it, not by drawing again.
    calls = []

    def counting(*args):
        calls.append(args)
        return _gaussian_blocks(*args)

    monkeypatch.setattr(verify, "_gaussian_blocks", counting)
    full = _full_solution(*FULL_CASES["complex"])
    params = ModelParams(x0=0.5, r=0.02, sigma=0.2)
    v, p = {
        "control": (full, params),
        "overflow": (sine_solution(1e100, R1, 0.2), ModelParams(x0=0.1, r=R1, sigma=0.2)),
        "non-finite": (_inf_above_four, ModelParams(x0=0.0, r=0.0, sigma=1.0)),
    }[case]
    if case == "non-finite":
        with pytest.raises(NonFiniteSampleError, match="index 734: "):
            integrability_check(v, p, 1.0, 200_000, seed=7)
    else:
        integrability_check(v, p, 1.0, 3 * 8192, seed=2)
    assert len(calls) == 1


def test_a_non_finite_block_is_located_without_calling_the_profile_again(monkeypatch):
    # The first bad sample is read from the samples the block already holds:
    # the profile sees the 128 pilot points and the block's 1000 rows, once each.
    monkeypatch.setattr(model, "_usable_cpus", lambda: 1)
    calls = []

    def everywhere_inf(x):
        calls.append(len(x))
        return np.full_like(x, math.inf)

    with pytest.raises(NonFiniteSampleError, match=r"^non-finite sample at index 0: inf at X = "):
        integrability_check(everywhere_inf, ModelParams(x0=0.0, r=0.0, sigma=1.0), 1.0, 1000,
                            seed=0)
    assert calls == [128, 1000]


def test_integrability_of_a_law_without_spread_reports_the_one_value(monkeypatch):
    # At t = 0 or sigma = 0 every sample is the same value: the witness is one
    # evaluation at the law's mean, with a standard error of exactly 0 and no
    # draw. Drawn samples would differ by rounding (a standard error of 2.3e-18 here).
    calls = []

    def counting(*args):
        calls.append(args)
        return _gaussian_blocks(*args)

    monkeypatch.setattr(verify, "_gaussian_blocks", counting)
    full = _full_solution(*FULL_CASES["complex"])
    for v in (full, lambda x: full(x)):
        for sigma, t in ((0.2, 0.0), (0.0, 1.0)):
            p = ModelParams(x0=0.3, r=0.02, sigma=sigma)
            witness = integrability_check(v, p, t, 20_000, seed=1)
            one = abs(float(full(0.3 + 0.02 * t))) * math.exp(0.02 * t)
            assert witness.mean_abs == pytest.approx(one, rel=1e-15, abs=0)
            assert witness.standard_error == 0.0
    assert calls == []
    # An overflow at the one value is refused as a sample is, with no numpy warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteSampleError, match=r"index 0: inf at X = 4\.5$"):
            integrability_check(_inf_above_four, ModelParams(x0=4.5, r=0.0, sigma=0.0), 1.0,
                                2000, seed=0)


def test_integrability_linear_payoff():
    identity = lambda x: np.asarray(x)
    p = ModelParams(x0=100.0, r=0.05, sigma=0.2)
    t = 4.0
    witness = integrability_check(identity, p, t, 20_000, seed=12)
    expected = (100.0 + 0.05 * t) * math.exp(0.05 * t)
    assert witness.analytic_bound is None
    assert abs(witness.mean_abs - expected) <= 5 * witness.standard_error


def test_the_estimators_leave_an_array_a_callable_keeps_as_it_was():
    # A profile may return an array it keeps, such as an output buffer: the
    # estimators transform a copy of a callable's result, and give the bits of
    # the closed form it wraps.
    full = _full_solution(*FULL_CASES["complex"])
    kept = []

    def buffered(x):
        out = np.asarray(full(x))
        kept.append((out, out.copy()))
        return out

    p = ModelParams(x0=0.5, r=0.02, sigma=0.2)
    drift = lambda v: drift_estimate(v, p, 0.5, 0.0, 1e-3, 20_000, seed=4)
    witness = lambda v: integrability_check(v, p, 1.0, 20_000, seed=4)
    for estimate in (lambda v: (drift(v).estimated_drift_rate, drift(v).standard_error),
                     lambda v: (witness(v).mean_abs, witness(v).standard_error)):
        kept.clear()
        assert estimate(buffered) == estimate(full)
        assert kept and all(np.array_equal(out, was) for out, was in kept)


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
        with pytest.raises(NonFiniteSampleError, match=r"mean=inf, standard_error=nan"):
            integrability_check(lambda x: np.full_like(x, 1e308), p, 1.0, 2000, seed=0)


def _inf_above_four(x):
    # e^1000 overflows: inf where x > 4.0, after a numpy overflow a worker must silence.
    return np.exp(np.where(x > 4.0, 1000.0, 0.0))


@pytest.mark.parametrize("workers", [1, 2, 3, 5])
def test_integrability_reports_the_lowest_failing_block(workers, monkeypatch):
    # Block 2 runs on a worker thread with 3 and 5 workers and on the caller
    # with 2. Above 4.75 at seed 317, no row or further draw of blocks 0 and
    # 1 lies past the threshold: the first failure is the own X of row 23561,
    # in block 2, and block 5 fails too, at row 41515. Above 4.0 at seed 7,
    # X first occurs among the 63 further draws of block 0's end row of
    # stratum 8191, index 734, whose own X is 3.73: the refusal names that
    # row and the draw's X. There the first row above 4.0 is 17667, in block
    # 2, and later blocks fail too; the tail draws of block 0, taken after
    # the join, are still refused first.
    monkeypatch.setattr(model, "_usable_cpus", lambda: workers)
    p = ModelParams(x0=0.0, r=0.0, sigma=1.0)
    x = _stratified_rows(317, 200_000)
    assert np.flatnonzero(x > 4.75).tolist() == [23561, 41515]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteSampleError) as caught:
            integrability_check(lambda x: np.exp(np.where(x > 4.75, 1000.0, 0.0)), p, 1.0,
                                200_000, seed=317)
    assert str(caught.value) == f"non-finite sample at index 23561: inf at X = {float(x[23561])!r}"

    x = _stratified_rows(7, 200_000)
    assert x[734] < 4.0 and np.flatnonzero(x > 4.0)[0] == 17667
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteSampleError, match=r"index 734: inf at X = (\S+)$") as caught:
            integrability_check(_inf_above_four, p, 1.0, 200_000, seed=7)
    assert float(str(caught.value).rpartition(" ")[2]) > 4.0


def test_integrability_names_a_tail_draw_that_leaves_the_float_range():
    # At sigma = 1.8e308/4.2 every row of block 0 is finite, filled here
    # without its tail draws, but a further draw of an end stratum past 4.2
    # standard deviations is not: it is refused by the sampler's name.
    sigma = 1.7976931348623157e308 / 4.2
    z = np.empty(8192)
    model._fill_strata(model.SeedStreams(1).generator(0), z, np.empty(2 * 8192 + 1),
                       np.multiply(sigma, model._strata()[:3]), 0.0, sigma, np.empty(0))
    assert np.isfinite(z).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError,
                           match=r"path values x0 \+ mu\*t \+ sigma\*W\(t\) must be finite"):
            integrability_check(np.tanh, ModelParams(x0=0.0, r=0.0, sigma=sigma), 1.0, 2000, 1)


def test_drift_estimate_overflow_on_a_worker_thread_emits_no_warning(monkeypatch):
    # The overflowing samples fall in every block, so also on worker threads,
    # which do not inherit the caller's numpy errstate.
    monkeypatch.setattr(model, "_usable_cpus", lambda: 2)
    p = ModelParams(x0=0.0, r=0.0, sigma=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteSampleError, match="non-finite sample at index 726: inf"):
            drift_estimate(_inf_above_four, p, 3.7, 0.0, 1e-2, 4 * 8192, seed=7)


@pytest.mark.parametrize("n", [1000, 8192, 8193, 3 * 8192 + 5])
def test_pooled_block_moments_match_the_whole_array(n):
    a = np.random.default_rng(n).normal(3.0, 2.0, n)
    mean, se, _ = _pooled([_block_moments(a[i : i + 8192].copy()) for i in range(0, n, 8192)])
    want_se = a.std(ddof=1) / math.sqrt(n)
    assert abs(mean - a.mean()) <= 1e-10 * want_se
    assert abs(se - want_se) <= 1e-10 * want_se


def _stratified_rows(seed, n, scale=1.0, base=0.0):
    """The rows of the witness's stratified fill, its end rows' further draws left unread."""
    return np.concatenate(_gaussian_blocks(seed, n, np.array([scale]), base,
                                           lambda _, tile: tile[:, 0].copy(),
                                           (model._EVEN, lambda blocks, *_: blocks)))


def _witness_samples(absolute, law, n, seed):
    """The witness's samples, rebuilt row by row: ``(y, tail, short)``.

    ``y[i]`` is |Y| at the stratified row x_i of the sampler. ``tail`` maps
    each tail row, the row of a stratum of ``model._TAILS`` to which the
    allocation gives f > 0 further draws, in the sampler's order, to its
    sample: the mean of |Y| over x_i and f further draws of the stratum,
    summed as numpy sums them. Those are the first f x that the stratum's
    range of the block's pairs keeps, the pairs drawn from its generator
    after its fill (161 u, then 161 v), the ranges 161/128 pairs a further
    draw along the cumulative sum: by Marsaglia's method in an end stratum,
    by the fill's quadratic proposal and its exp test in an inner one. Where
    a range keeps fewer, x_i stands in for the rest, and the row counts in
    ``short``.
    """
    x = _stratified_rows(seed, n, law.std, law.mean)
    y = absolute(x)
    points = model._pilot_points()
    further = model._allocation(absolute(law.mean + law.std * points.ravel()).reshape(points.shape))
    edges = np.r_[0, np.cumsum(further)] * model._TAIL_PAIRS // further.sum()
    tables = model._strata()
    affine = np.multiply(law.std, tables[:3])
    affine[0] += law.mean
    k = np.arange(8192)
    bitrev = sum(((k >> bit) & 1) << (12 - bit) for bit in range(13))
    tail, short = {}, 0
    for b in range(-(-n // 8192)):
        gen = model.SeedStreams(seed).generator(b)
        c = model._fill_strata(gen, np.empty(8192), np.empty(2 * 8192 + 1), affine, law.mean,
                               law.std, np.empty(0))
        us, vs = gen.random(2 * model._TAIL_PAIRS).reshape(2, -1)
        for s, stratum in enumerate(model._TAILS):
            row = b * 8192 + (bitrev[stratum] - c) % 8192
            if not further[s] or row >= n:
                continue
            lo, a, slope, _, near, top = tables[:, bitrev[stratum]]
            more = []
            for u, v in zip(us[edges[s] : edges[s + 1]], vs[edges[s] : edges[s + 1]]):
                if a:
                    z = lo + u * (a + slope * u)
                    kept = v < math.exp(0.5 * (near * near - z * z) + math.log1p(2 * slope * u / a)
                                        - top)
                else:
                    z = math.sqrt(near * near - 2.0 * math.log1p(-u))
                    kept, z = v * z < abs(near), math.copysign(z, near)
                if kept and len(more) < further[s]:
                    more.append(law.mean + law.std * z)
            short += len(more) < further[s]
            more += [x[row]] * (further[s] - len(more))
            values = absolute(np.array([x[row], *more]))
            tail[row] = np.add.reduce(values) / values.size
    return y, tail, short


def _assert_moments(got, samples, n, tail={}):
    """``got`` is (mean, SE) of ``samples`` with each row of ``tail`` set to
    its value there. The SE is the spread of the full-block means from 32
    full blocks, a tail block counted by its rows, and the independent
    formula below. The mean is formed in the sampler's order, as at 32*8192
    samples the witness's SE can put 1e-10 SE below an ulp of its mean: each
    block's numpy sum over its count, moved by the change at each of its
    tail rows in the order of ``tail``, then the blocks weighted by their
    counts."""
    rows = np.fromiter(tail, dtype=np.intp, count=len(tail))
    values = np.fromiter(tail.values(), dtype=float, count=len(tail))
    starts = np.arange(0, n, 8192)
    counts = np.minimum(8192, n - starts)
    means = np.array([np.add.reduce(samples[i : i + 8192]) for i in starts]) / counts
    means += np.bincount(rows // 8192, values - samples[rows], starts.size) / counts
    samples = samples.copy()
    samples[rows] = values
    if n >= 32 * 8192:
        full = n // 8192 * 8192
        block_means = samples[:full].reshape(-1, 8192).mean(axis=1)
        want_se = math.sqrt(8192 * block_means.var(ddof=1) / n)
    else:
        want_se = samples.std(ddof=1) / math.sqrt(n)
    assert abs(got[0] - (counts * means).sum() / n) <= 1e-10 * want_se
    assert abs(got[1] - want_se) <= 1e-10 * want_se


@pytest.mark.parametrize("workers", [1, 2, 6])
def test_estimators_match_the_moments_of_their_own_samples(workers, monkeypatch):
    # The samples are drawn again through the sampler with a copying callback
    # and reduced by _assert_moments in the sampler's order: the drift
    # estimate from normal draws, the witness from the stratified fill with
    # its tail rows rebuilt by _witness_samples. The sine's allocation gives further draws to 22 of
    # the 32 tail strata. Seed 2 puts three tail rows of block 0 in a
    # 1000-sample prefix (rows 278, 789 and 790), and one of block 3 in a
    # 3*8192 + 5-row tail block (row 4 of it, while the others fall outside);
    # seed 13's tail blocks hold none, and at 32*8192 + 5 three of its tail
    # rows fall short of their draws.
    monkeypatch.setattr(model, "_usable_cpus", lambda: workers)
    v = sine_solution(1.5, R1, 0.2)
    p = ModelParams(x0=0.1, r=R1, sigma=0.2)
    x0, t, dt, n, seed = 0.3, 0.4, 1e-3, 3 * 8192 + 5, 13

    x = np.concatenate(_gaussian_blocks(seed, n, np.array([0.2 * math.sqrt(dt)]),
                                        x0 + R1 * dt, lambda _, x: x[:, 0].copy()))
    rates = (v(x) * math.exp(R1 * (t + dt)) - float(v(x0)) * math.exp(R1 * t)) / dt
    report = drift_estimate(v, p, x0, t, dt, n, seed)
    _assert_moments((report.estimated_drift_rate, report.standard_error), rates, n)

    law = exact_marginal(p, t)
    absolute = lambda x: np.abs(v(x) * math.exp(R1 * t))
    for n, seed, n_rows, n_short in [(1000, 2, 3, 0), (3 * 8192 + 5, 2, 64, 0),
                                     (3 * 8192 + 5, 13, 63, 0), (32 * 8192 + 5, 13, 672, 3)]:
        samples, tail, short = _witness_samples(absolute, law, n, seed)
        assert (len(tail), short) == (n_rows, n_short)
        witness = integrability_check(v, p, t, n, seed)
        _assert_moments((witness.mean_abs, witness.standard_error), samples, n, tail)


@pytest.mark.parametrize("workers", [1, 2])
def test_estimator_memory_does_not_grow_with_the_sample_count(workers, monkeypatch):
    # 1e6 samples would be 8 MB as one float64 array; each block is reduced where it is drawn.
    # From 1e6 to 4e6 samples, 366 more blocks, the peak grows by their results, about
    # 200 bytes each, and for the witness by what each block holds until the join: 2*161
    # tail uniforms, its shift and the X of its 32 tail rows (2.8 KB, as were 4*88 uniforms
    # and 3 floats): its tail draws are settled in runs of 64 blocks, so the arrays of that
    # pass do not grow with the sample count. Measured: 3.0 KB per block.
    monkeypatch.setattr(model, "_usable_cpus", lambda: workers)
    v = sine_solution(1.0, R1, 0.2)
    p = ModelParams(x0=0.0, r=R1, sigma=0.2)
    for estimate, per_block in [
            (lambda n: drift_estimate(v, p, 0.3, 0.0, 1e-3, n, seed=1), 512),
            (lambda n: integrability_check(v, p, 1.0, n, seed=1), 512 + 4 * 88 * 8)]:
        peaks = []
        for n in (1_000_000, 1_000_000, 4_000_000):
            tracemalloc.start()
            try:
                estimate(n)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < 2_000_000
        assert peaks[2] - peaks[1] < per_block * 366


@pytest.mark.parametrize("workers", [1, 2])
def test_an_overflowing_profile_gives_a_drift_classify_refuses(workers, monkeypatch):
    # Samples above 4.0 overflow to inf in every block, while most stay finite:
    # drift_estimate refuses the first one. classify still refuses a report
    # built by hand with a non-finite estimate or standard error.
    monkeypatch.setattr(model, "_usable_cpus", lambda: workers)
    p = ModelParams(x0=0.0, r=0.0, sigma=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteSampleError, match="non-finite sample at index 726: inf"):
            drift_estimate(_inf_above_four, p, 3.7, 0.0, 1e-2, 4 * 8192, seed=7)
        for est, se in [(math.inf, math.nan), (1.0, math.inf), (math.nan, 1.0)]:
            report = DriftReport(x0=3.7, t=0.0, dt=1e-2, n_samples=4 * 8192,
                                 estimated_drift_rate=est, standard_error=se,
                                 analytic_drift_rate=0.0, z_score=None,
                                 sign_convention=DiscountSign.PLUS)
            with pytest.raises(NonFiniteSampleError, match="non-finite drift estimate"):
                classify(report)


@pytest.mark.parametrize("params, name", [
    # The law is representable, but x0 + 1e306*Z is not: the sampler names the path values.
    (ModelParams(x0=1.79e308, r=0.0, sigma=1e306),
     r"path values x0 \+ mu\*t \+ sigma\*W\(t\) must be finite"),
    (ModelParams(x0=1.79e308, r=0.0, sigma=1.0, drift=1e308),
     r"x0 \+ mu\*t"),
], ids=["scale", "mean"])
def test_integrability_names_a_law_that_leaves_the_float_range(params, name):
    # The samples would be inf + Z: without the check the payoff would be blamed at X = inf.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=name):
            integrability_check(sine_solution(1, 0.2, 0.2), params, 1.0, 2000, 1)


@pytest.mark.parametrize("workers", [1, 2])
def test_estimators_keep_the_spread_of_a_profile_scaled_by_2_to_the_minus_1000(
        workers, monkeypatch):
    # The samples' squared deviations underflow to 0. A power-of-two rescale of the
    # samples is exact, so the estimate and its standard error scale exactly too.
    monkeypatch.setattr(model, "_usable_cpus", lambda: workers)
    tiny = 2.0 ** -1000
    p = ModelParams(x0=0.5, r=0.08, sigma=0.2)
    unit, scaled = (drift_estimate(_full_solution(0.08, 0.2, c, c), p, 0.5, 0.0, 1e-3,
                                   3 * 8192 + 5, seed=4) for c in (1.0, tiny))
    assert not scaled.degenerate
    for got, want in [(scaled.estimated_drift_rate, unit.estimated_drift_rate),
                      (scaled.standard_error, unit.standard_error)]:
        assert got == pytest.approx(tiny * want, rel=1e-12, abs=0)
    # A plain callable: the witness takes no control variate.
    unit, scaled = (integrability_check(lambda x, c=c: c * np.sin(np.pi * x), p, 1.0, 100_000,
                                        seed=4) for c in (1.0, tiny))
    assert unit.standard_error == pytest.approx(7.94e-4, rel=0.05)
    for got, want in [(scaled.mean_abs, unit.mean_abs),
                      (scaled.standard_error, unit.standard_error)]:
        assert got == pytest.approx(tiny * want, rel=1e-12, abs=0)


def test_analytic_drift_past_the_float_range_is_refused_by_name():
    # sigma^2/2 = 5e307 is finite, but times gamma = -sin(1), and e^{1.5}, it is not.
    with pytest.raises(ValidationError, match="analytic drift must be finite, got -inf"):
        analytic_drift(np.sin, ModelParams(0.0, 0.5, 1e154), 1.0, 3.0)


def test_integrability_validates_sample_count():
    v = sine_solution(1.0, R1, 0.2)
    p = ModelParams(x0=0.0, r=R1, sigma=0.2)
    with pytest.raises(ValidationError, match="n_samples"):
        integrability_check(v, p, 1.0, 10, seed=0)
