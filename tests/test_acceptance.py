"""End-to-end acceptance gate.

One test per acceptance criterion, each enforced at its stated tolerance and
runtime budget. Every test prints a single pass/fail line (shown with
``pytest -s``; captured output is replayed on failure).
"""

import json
import math
import time

import numpy as np
import pytest

from bachelier_lab import (
    DiscountSign,
    DriftClass,
    IntegralMethod,
    ModelParams,
    OdeForm,
    OdeProblem,
    TimeGrid,
    call_payoff,
    characteristic_roots_full,
    classify,
    discounted_value,
    drift_estimate,
    general_solution,
    hitting_frequency,
    hitting_probability,
    normalization_constant,
    put_payoff,
    quantized_rate,
    residual,
    simulate_paths,
    sine_solution,
)
from bachelier_lab.cli import run
from bachelier_lab.spectrum import ModeSpec

R1 = quantized_rate(1, 0.2, 1.0)

FULL_CASES = {
    "complex": (0.02, 0.2),
    "repeated": (0.08, 0.2),
    "distinct": (-0.02, 0.2),
}


def _verdict(num: int, label: str, ok: bool, detail: str, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num} ({label}): {status} [{elapsed:.2f}s] {detail}")


def test_criterion_1_quantized_rate_reproduction():
    t0 = time.perf_counter()
    ok = True
    r1 = quantized_rate(1, 0.2, 1.0)
    r2 = quantized_rate(2, 0.2, 1.0)
    ok &= abs(r1 - 0.19739209) <= 1e-7
    ok &= abs(r2 - 0.78956835) <= 1e-7
    base = r1
    for n in range(1, 21):
        rate = quantized_rate(n, 0.2, 1.0)
        ok &= abs(rate / (n * n) - base) <= 1e-12 * base  # proportional to n^2
        ok &= abs(quantized_rate(n, 0.4, 1.0) - 4.0 * rate) <= 1e-12 * rate  # sigma^2 law
        ok &= abs(quantized_rate(n, 0.2, 2.0) - rate / 4.0) <= 1e-12 * rate  # K^-2 law
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    _verdict(1, "quantized-rate reproduction", ok,
             f"r1={r1:.9f} r2={r2:.9f}, scaling laws over n<=20 at 1e-12", elapsed)
    assert ok


def test_criterion_2_boundary_condition():
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(1, 101):
        mode = ModeSpec(n=n, sigma=0.2, strike=1.0)
        amp = normalization_constant(mode.rate, mode.sigma, mode.strike).amplitude
        v = sine_solution(amp, mode.rate, mode.sigma)
        worst = max(worst, abs(float(v(mode.strike))) / amp)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 1.0
    _verdict(2, "at-the-money boundary", ok,
             f"max |V(K)|/A = {worst:.2e} over modes n<=100", elapsed)
    assert ok


def test_criterion_3_normalization():
    t0 = time.perf_counter()
    ok = True
    for strike in (0.5, 1.0, 2.0, 5.0):
        for sigma in (0.1, 0.2, 1.0):
            for n in (1, 2, 3, 7, 10):
                rate = quantized_rate(n, sigma, strike)
                res = normalization_constant(rate, sigma, strike)
                target = math.sqrt(2.0 / strike)
                ok &= abs(res.amplitude - target) <= 1e-12 * target
    rng = np.random.default_rng(314)
    worst_rel = 0.0
    for _ in range(100):
        r = rng.uniform(0.01, 1.5)
        sigma = rng.uniform(0.1, 1.0)
        strike = rng.uniform(0.5, 4.0)
        res = normalization_constant(r, sigma, strike, IntegralMethod.QUADRATURE)
        worst_rel = max(worst_rel, res.estimated_error / res.integral)
    ok &= worst_rel <= 1e-8
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    _verdict(3, "normalization", ok,
             f"ladder A=sqrt(2/K) at 1e-12; closed-form vs quadrature "
             f"worst rel diff {worst_rel:.2e} over 100 triples", elapsed)
    assert ok


def test_criterion_4_ode_residuals():
    t0 = time.perf_counter()
    ok = True
    xs = np.linspace(0.1, 0.9, 10)
    solutions = []
    for r, sigma in FULL_CASES.values():
        v = general_solution(characteristic_roots_full(r, sigma), 0.5, 0.5)
        solutions.append((v, OdeProblem(r=r, sigma=sigma, form=OdeForm.FULL)))
    solutions.append(
        (sine_solution(1.0, R1, 0.2), OdeProblem(r=R1, sigma=0.2, form=OdeForm.HEDGED))
    )
    worst_res = 0.0
    ratios = []
    for v, problem in solutions:
        worst_res = max(worst_res, max(abs(residual(v, problem, float(x), 1e-3)) for x in xs))
        coarse = [residual(v, problem, float(x), 2e-2) for x in xs]
        fine = [residual(v, problem, float(x), 1e-2) for x in xs]
        ratios.append(float(np.sqrt(np.mean(np.square(coarse)) / np.mean(np.square(fine)))))
    ok &= worst_res < 1e-6
    ok &= all(3.5 <= ratio <= 4.5 for ratio in ratios)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    _verdict(4, "ODE residuals", ok,
             f"max residual {worst_res:.2e} at h=1e-3; h-halving ratios "
             + ",".join(f"{r:.2f}" for r in ratios), elapsed)
    assert ok


def test_criterion_5_martingale_certification():
    t0 = time.perf_counter()
    ok = True
    probes = np.linspace(0.05, 0.95, 10)
    worst_z = 0.0
    for offset, (r, sigma) in enumerate(FULL_CASES.values()):
        v = general_solution(characteristic_roots_full(r, sigma), 0.5, 0.5)
        p = ModelParams(x0=0.0, r=r, sigma=sigma)
        for i, x0 in enumerate(probes):
            report = drift_estimate(v, p, float(x0), 0.0, 1e-3, 100_000,
                                    seed=1000 * (offset + 1) + i)
            verdict = classify(report, 3.0)
            ok &= verdict.classification is DriftClass.CONSISTENT_WITH_MARTINGALE
            worst_z = max(worst_z, abs(report.estimated_drift_rate / report.standard_error))
    sine = sine_solution(1.0, R1, 0.2)
    p = ModelParams(x0=0.0, r=R1, sigma=0.2)
    worst_gap_z = 0.0
    for i, x0 in enumerate(probes):
        report = drift_estimate(sine, p, float(x0), 0.0, 1e-3, 100_000, seed=5000 + i)
        gap = R1 * sine.wavenumber * math.cos(sine.wavenumber * x0)  # e^{r*0} * r * V'
        gap_z = abs(report.estimated_drift_rate - gap) / report.standard_error
        worst_gap_z = max(worst_gap_z, gap_z)
        ok &= gap_z <= 3.0
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    _verdict(5, "martingale certification", ok,
             f"full-form worst |z| = {worst_z:.2f} over 30 probes; "
             f"hedging-gap worst |z| = {worst_gap_z:.2f} over 10 probes", elapsed)
    assert ok


def test_criterion_6_path_law():
    t0 = time.perf_counter()
    ok = True
    n = 100_000
    details = []
    for seed, (x0, r, sigma, t) in enumerate(
        [(0.0, 0.0, 1.0, 1.0), (100.0, 0.05, 0.2, 4.0), (-2.0, 0.3, 2.0, 0.25)]
    ):
        p = ModelParams(x0=x0, r=r, sigma=sigma)
        paths = simulate_paths(p, TimeGrid(np.array([0.0, t])), n, seed=7000 + seed)
        x_t = paths.values[:, 1]
        mean_err = abs(x_t.mean() - (x0 + r * t))
        var_err = abs(x_t.var(ddof=1) - sigma * sigma * t)
        se_mean = sigma * math.sqrt(t) / math.sqrt(n)
        se_var = sigma * sigma * t * math.sqrt(2.0 / (n - 1))
        ok &= mean_err <= 4 * se_mean and var_err <= 4 * se_var
        details.append(f"{mean_err / se_mean:.2f}/{var_err / se_var:.2f}")
    line = simulate_paths(ModelParams(x0=1.0, r=0.4, sigma=0.0),
                          TimeGrid.regular(2.0, 5), 3, seed=0)
    expected = 1.0 + 0.4 * line.grid.times
    ok &= all(np.array_equal(line.values[i], expected) for i in range(3))
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    _verdict(6, "path law", ok,
             "mean/var deviations in SE units: " + ", ".join(details)
             + "; sigma=0 exactly linear", elapsed)
    assert ok


def test_criterion_7_first_passage_oracle():
    t0 = time.perf_counter()
    ok = True
    grid = TimeGrid.regular(1.0, 1000)  # step 1e-3
    details = []
    for seed, (r, expected) in enumerate([(0.0, 0.3173105), (1.0, 0.668102)]):
        p = ModelParams(x0=0.0, r=r, sigma=1.0)
        closed = hitting_probability(p, 1.0, 1.0)
        ok &= abs(closed - expected) <= 1e-6
        freq = hitting_frequency(p, 1.0, grid, 100_000, seed=8000 + seed)
        gap = abs(freq.frequency - closed)
        allowance = 4 * freq.standard_error + 0.01
        ok &= gap <= allowance
        details.append(f"|{freq.frequency:.4f}-{closed:.4f}|={gap:.4f}<={allowance:.4f}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    _verdict(7, "first-passage oracle", ok, "; ".join(details), elapsed)
    assert ok


def test_criterion_8_payoff_identities():
    t0 = time.perf_counter()
    ok = True
    strike = 100.0
    xs = np.linspace(50.0, 150.0, 1000)
    xs[499] = strike  # force an exactly at-the-money point into the sweep
    calls = call_payoff(xs, strike)
    puts = put_payoff(xs, strike)
    ok &= bool(np.array_equal(calls - puts, xs - strike))
    ok &= calls[499] == 0.0 and puts[499] == 0.0
    rng = np.random.default_rng(6)
    worst = 0.0
    for r, t in zip(rng.uniform(-1, 1, 1000), rng.uniform(0, 5, 1000)):
        v = 2.5
        back = discounted_value(discounted_value(v, r, t, DiscountSign.PLUS), r, t,
                                DiscountSign.MINUS)
        worst = max(worst, abs(back - v) / v)
    ok &= worst <= 1e-15
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    _verdict(8, "payoff identities", ok,
             f"complementarity exact on 1000 points; inversion worst rel {worst:.1e}",
             elapsed)
    assert ok


def test_criterion_9_cli_determinism(tmp_path, capsys):
    t0 = time.perf_counter()
    ok = True
    commands = [
        ["simulate", "--x0", "1", "--rate", "0.05", "--sigma", "0.3",
         "--t-end", "1", "--steps", "8", "--paths", "4"],
        ["hit", "--x0", "0", "--rate", "0", "--sigma", "1", "--level", "1",
         "--t", "1", "--grid-step", "0.01", "--paths", "2000"],
        ["spectrum", "--sigma", "0.2", "--strike", "1", "--n-max", "5"],
        ["solve", "--hedged", "--rate", "0.02", "--sigma", "0.2"],
        ["normalize", "--rate", "0.1", "--sigma", "0.2", "--strike", "1"],
        ["surface", "--n", "1", "--sigma", "0.2", "--strike", "1",
         "--x-points", "6", "--t-points", "3"],
        ["drift-check", "--form", "full", "--rate", "0.02", "--sigma", "0.2",
         "--x0", "0.5", "--samples", "2000"],
    ]
    for argv in commands:
        for fmt in ("csv", "json"):
            first = tmp_path / "a.out"
            second = tmp_path / "b.out"
            ok &= run(argv + ["--format", fmt, "--out", str(first)]) == 0
            ok &= run(argv + ["--format", fmt, "--out", str(second)]) == 0
            ok &= first.read_bytes() == second.read_bytes()
    # The ladder subcommand must reproduce criterion 1's numbers end to end.
    assert run(["spectrum", "--sigma", "0.2", "--strike", "1", "--n-max", "2",
                "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    rates = [row["r_n"] for row in doc["results"]]
    ok &= abs(rates[0] - 0.19739209) <= 1e-7
    ok &= abs(rates[1] - 0.78956835) <= 1e-7
    elapsed = time.perf_counter() - t0
    _verdict(9, "CLI determinism", ok,
             "byte-identical re-runs for 7 subcommands x 2 formats; "
             f"ladder via CLI: r1={rates[0]:.9f} r2={rates[1]:.9f}", elapsed)
    assert ok
