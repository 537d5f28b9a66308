"""Workloads of the bachelier-lab benchmark.

A workload is a fixed list of operations, one "pass", that the benchmark
repeats as a closed loop with a single client: the next operation starts only
when the previous one has returned and been checked. The benchmark seed picks
the order of each pass and the master seed handed to every package call; the
package only ever sees the generated arguments.

Every operation is checked against an oracle. A miss is recorded on the
operation's ``Outcome`` and counted as failed; it never aborts the run.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.special import ndtr

from bachelier_lab import cli, model, ode, spectrum, verify
from bachelier_lab.payoff import DiscountSign

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Every statistical check allows 5 standard errors. A driver session makes
# some 10^4-10^5 checks; at 4 SE about one of them would miss by chance.
Z_MAX = 5.0
CLI_TIMEOUT_S = 150
DRIFT_DT = 1e-3  # one-step horizon of every drift probe


@dataclass
class Outcome:
    """Result of one operation: time inside the package and the oracle verdict."""

    seconds: float
    ok: bool
    detail: str
    draws: int = 0
    se2: float | None = None  # squared standard error of an estimator operation
    bias: tuple[float, float] | None = None  # (oracle - estimate, its SE)
    counts: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Op:
    label: str
    kind: str  # simulate, hit, drift, integrability or cli
    run: Callable[[], Outcome]


def _timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


def _seeds(rng: np.random.Generator, n: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**63, size=n)]


# --- model: exact paths and first passage ---------------------------------


def terminal_tail(p: model.ModelParams, level: float, t: float) -> float:
    """Exact P(X(t) at or beyond level): the hitting probability on a 1-step grid."""
    z = (p.x0 + p.mu * t - level) / (p.sigma * math.sqrt(t))
    return float(ndtr(z if level > p.x0 else -z))


def _binomial_se(prob: float, n: int) -> float:
    return math.sqrt(prob * (1.0 - prob) / n)


def simulate_op(p: model.ModelParams, t: float, steps: int, n_paths: int, seed: int) -> Outcome:
    grid = model.TimeGrid.regular(t, steps)
    paths, seconds = _timed(model.simulate_paths, p, grid, n_paths, seed)
    law = model.exact_marginal(p, t)
    x_t = paths.values[:, -1]
    z_mean = (x_t.mean() - law.mean) / (law.std / math.sqrt(n_paths))
    z_var = (x_t.var(ddof=1) - law.variance) / (law.variance * math.sqrt(2.0 / (n_paths - 1)))
    ok = bool(np.isfinite(paths.values).all()) and abs(z_mean) <= Z_MAX and abs(z_var) <= Z_MAX
    return Outcome(seconds, ok, f"z_mean={z_mean:+.2f} z_var={z_var:+.2f}",
                   draws=n_paths * steps)


def hit_op(p: model.ModelParams, level: float, t: float, steps: int, n_paths: int, seed: int,
           slack: float | None = None) -> Outcome:
    """Grid first passage, bracketed by the terminal tail and the continuous law.

    On a 1-step grid the frequency estimates the terminal tail exactly. On a
    finer grid it lies between the terminal tail and the continuous-monitoring
    probability; with ``slack`` it must also be within ``4*SE + slack`` of the
    latter (acceptance criterion 7's allowance, kept at 4 SE).
    """
    grid = model.TimeGrid.regular(t, steps)
    freq, seconds = _timed(model.hitting_frequency, p, level, grid, n_paths, seed)
    f = freq.frequency
    tail = terminal_tail(p, level, t)
    se_tail = _binomial_se(tail, n_paths)
    cont = model.hitting_probability(p, level, t)
    if steps == 1:
        ok = abs(f - tail) <= Z_MAX * se_tail
    else:
        ok = tail - Z_MAX * se_tail <= f <= cont + Z_MAX * _binomial_se(cont, n_paths)
        if slack is not None:
            ok = ok and abs(f - cont) <= 4.0 * freq.standard_error + slack
    return Outcome(seconds, ok, f"freq={f:.4f} tail={tail:.4f} continuous={cont:.4f}",
                   draws=n_paths * steps, se2=freq.standard_error**2,
                   bias=(cont - f, freq.standard_error))


# --- verify: one-step drift and integrability -----------------------------


def sine_profile(n: int, sigma: float, strike: float):
    rate = spectrum.quantized_rate(n, sigma, strike)
    return rate, (lambda: ode.sine_solution(1.0, rate, sigma))


def full_profile(r: float, sigma: float):
    return lambda: ode.general_solution(ode.characteristic_roots_full(r, sigma), 0.5, 0.5)


def sine_dt_bias_z(n: int, sigma: float, strike: float, x0: float, dt: float,
                   samples: int) -> float:
    """Predicted bias of ``drift_estimate`` on sine mode n, in standard errors.

    The one-step difference quotient of Y = sin(kX)e^{rt} has the exact mean
    (e^{r dt} E[sin(kX(dt))] - sin(k x0))/dt, which misses the Ito drift
    r*k*cos(k x0) by about (k*r)^2*dt/2*sin(k x0): an O(dt) bias that is
    largest, in standard errors, where V' = 0. Moments are Gaussian and exact.
    """
    rate = spectrum.quantized_rate(n, sigma, strike)
    k = math.sqrt(rate / (0.5 * sigma * sigma))
    m, s2 = x0 + rate * dt, sigma * sigma * dt
    mean_sin = math.sin(k * m) * math.exp(-k * k * s2 / 2)
    mean_sin2 = (1.0 - math.cos(2 * k * m) * math.exp(-2 * k * k * s2)) / 2
    w = math.exp(rate * dt)
    expected = (w * mean_sin - math.sin(k * x0)) / dt
    se = w * math.sqrt(mean_sin2 - mean_sin * mean_sin) / dt / math.sqrt(samples)
    return (expected - rate * k * math.cos(k * x0)) / se


def drift_op(make_profile, r: float, sigma: float, x0: float, sign: DiscountSign,
             samples: int, seed: int, certify: bool) -> Outcome:
    """Drift estimate within 4 SE of ``analytic_drift``; full forms under e^{+rt}
    must also certify as consistent with a martingale."""
    p = model.ModelParams(x0=0.0, r=r, sigma=sigma)
    t0 = time.perf_counter()
    profile = make_profile()
    report = verify.drift_estimate(profile, p, x0, 0.0, DRIFT_DT, samples, seed, sign)
    verdict = verify.classify(report, Z_MAX)
    seconds = time.perf_counter() - t0
    z = report.z_score
    ok = math.isfinite(z) and abs(z) <= Z_MAX
    if certify:
        ok = ok and verdict.classification is verify.DriftClass.CONSISTENT_WITH_MARTINGALE
    return Outcome(seconds, ok, f"z={z:+.2f} {verdict.classification.value}",
                   draws=samples, se2=report.standard_error**2)


def integrability_op(make_profile, r: float, sigma: float, sign: DiscountSign,
                     samples: int, seed: int) -> Outcome:
    """E|Y(1)| finite, and within the analytic bound where one exists."""
    p = model.ModelParams(x0=0.5, r=r, sigma=sigma)
    profile = make_profile()
    witness, seconds = _timed(verify.integrability_check, profile, p, 1.0, samples, seed, sign)
    ok = math.isfinite(witness.mean_abs) and math.isfinite(witness.standard_error)
    if witness.analytic_bound is not None:
        ok = ok and witness.mean_abs <= witness.analytic_bound
    return Outcome(seconds, ok, f"mean_abs={witness.mean_abs:.5g} bound={witness.analytic_bound}",
                   draws=samples, se2=witness.standard_error**2)


# --- cli: fresh interpreter per command ----------------------------------

README_ARGV = [
    ["spectrum", "--sigma", "0.2", "--strike", "1", "--n-max", "3"],
    ["solve", "--hedged", "--rate", "0.02", "--sigma", "0.2"],
    ["simulate", "--x0", "100", "--rate", "0.05", "--sigma", "0.2", "--t-end", "1",
     "--steps", "250", "--paths", "100"],
    ["hit", "--x0", "0", "--rate", "0", "--sigma", "1", "--level", "1", "--t", "1",
     "--grid-step", "0.001", "--paths", "100000"],
    ["normalize", "--rate", "0.1", "--sigma", "0.2", "--strike", "1"],
    ["surface", "--n", "1", "--sigma", "0.2", "--strike", "1", "--x-points", "11",
     "--t-points", "5"],
    ["drift-check", "--form", "sine", "--rate", "0.19739208802178718", "--sigma", "0.2",
     "--x0", "0.0", "0.25", "0.5"],
]
HEAVY_ARGV = [
    ["spectrum", "--sigma", "0.2", "--strike", "1", "--n-max", "1000"],
    ["simulate", "--x0", "100", "--rate", "0.05", "--sigma", "0.2", "--t-end", "1",
     "--steps", "250", "--paths", "2000", "--format", "json"],
]
SMOKE_ARGV = [
    ["solve", "--hedged", "--rate", "0.02", "--sigma", "0.2"],
    ["surface", "--n", "1", "--sigma", "0.2", "--strike", "1", "--x-points", "11",
     "--t-points", "5"],
    ["hit", "--x0", "0", "--rate", "0", "--sigma", "1", "--level", "1", "--t", "1",
     "--grid-step", "0.01", "--paths", "2000"],
    ["spectrum", "--sigma", "0.2", "--strike", "1", "--n-max", "20"],
    ["simulate", "--x0", "100", "--rate", "0.05", "--sigma", "0.2", "--t-end", "1",
     "--steps", "25", "--paths", "20", "--format", "json"],
]
# Outputs cheap enough to regenerate in-process during set-up; the subprocess
# output of each must match byte for byte.
CHEAP_COMMANDS = {"spectrum", "solve", "normalize", "surface", "drift-check"}


def child_env() -> dict:
    """Environment for child interpreters: the checkout's sources and nothing else."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def cli_draws(argv: list[str]) -> int:
    """Gaussian draws implied by a command's arguments."""
    args = cli.build_parser().parse_args(argv)
    if args.command == "simulate":
        return args.paths * args.steps
    if args.command == "hit":
        return args.paths * max(1, round(args.t / args.grid_step))
    if args.command == "drift-check":
        return args.samples * len(args.x0) * len(args.t)
    return 0


def run_in_process(argv: list[str]) -> tuple[int, bytes, str]:
    """Exit code, stdout bytes and stderr text of ``cli.run`` on argv."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(list(argv))
    return code, out.getvalue().encode("utf-8"), err.getvalue()


def _reject_constant(token):
    raise ValueError(f"non-finite JSON constant {token}")


def parse_output(text: str, fmt: str) -> tuple[bool, list[dict]]:
    """(all numbers finite, result records) of a CLI output document."""
    if fmt == "json":
        try:
            doc = json.loads(text, parse_constant=_reject_constant)
        except ValueError:
            return False, []
        return True, doc.get("results", [])
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    header, records, finite = lines[0].split(","), [], True
    for line in lines[1:]:
        cells = line.split(",")
        for cell in cells:
            try:
                finite = finite and math.isfinite(float(cell))
            except ValueError:
                pass  # categorical column such as a root case or verdict
        records.append(dict(zip(header, cells)))
    return finite, records


def cli_op(argv: list[str], seen: dict) -> Outcome:
    """Fresh ``python -m bachelier_lab`` process: exit 0, finite numbers, and
    byte-identical output to every earlier run of the same argv."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "bachelier_lab", *argv], cwd=ROOT,
                          env=child_env(), capture_output=True, timeout=CLI_TIMEOUT_S)
    seconds = time.perf_counter() - t0
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "csv"
    stderr = proc.stderr.decode("utf-8", "replace")
    ok = proc.returncode == 0
    finite, records = parse_output(proc.stdout.decode("utf-8"), fmt) if ok else (False, [])
    ok = ok and finite
    key = tuple(argv)
    if key in seen:
        ok = ok and seen[key] == proc.stdout
    else:
        seen[key] = proc.stdout
    se = [float(r["standard_error"]) for r in records if "standard_error" in r]
    counts = {
        "bytes_out": len(proc.stdout),
        "stderr_lines": len(stderr.splitlines()),
        "exit_nonzero": int(proc.returncode != 0),
        "integration_warnings": stderr.count("IntegrationWarning"),
    }
    return Outcome(seconds, ok, f"exit={proc.returncode} bytes={len(proc.stdout)}",
                   draws=cli_draws(argv), se2=float(np.mean(np.square(se))) if se else None,
                   counts=counts)


# --- workloads ------------------------------------------------------------


class Workload:
    """A named pass of operations plus its set-up.

    ``tail_q`` is the workload's fixed tail percentile: at the seed's speed
    at least ten operations of a run lie beyond it (100 means the maximum,
    for workloads with fewer than twenty operations a run).
    """

    name: str
    tail_q: float
    reports_grid_bias = False

    def __init__(self, smoke: bool):
        self.smoke = smoke

    def setup(self, rng: np.random.Generator) -> None:
        """Warm every code path of the pass once, at smoke size."""
        for op in type(self)(smoke=True).pass_ops(rng):
            execute(op)

    def pass_ops(self, rng: np.random.Generator) -> list[Op]:
        raise NotImplementedError


class PathsWide(Workload):
    """Many short paths: the per-path substream reset dominates."""

    name, tail_q = "paths_wide", 90.0
    SIM = model.ModelParams(x0=100.0, r=0.05, sigma=0.2)
    HIT = model.ModelParams(x0=0.0, r=0.0, sigma=1.0)
    SIM_STEPS = (1, 2, 4, 8)
    HIT_STEPS = (1, 4, 8)

    def pass_ops(self, rng):
        n = 500 if self.smoke else 20_000
        seeds = _seeds(rng, len(self.SIM_STEPS) + len(self.HIT_STEPS))
        ops = [Op(f"simulate steps={k}", "simulate",
                  lambda k=k, s=s: simulate_op(self.SIM, 1.0, k, n, s))
               for k, s in zip(self.SIM_STEPS, seeds)]
        ops += [Op(f"hit steps={k}", "hit",
                   lambda k=k, s=s: hit_op(self.HIT, 1.0, 1.0, k, n, s))
                for k, s in zip(self.HIT_STEPS, seeds[len(self.SIM_STEPS):])]
        return [ops[i] for i in rng.permutation(len(ops))]


class PassageDeep(Workload):
    """Long grids at dt = 1e-3: bulk normals and the crossing scan dominate."""

    name, tail_q = "passage_deep", 90.0
    reports_grid_bias = True
    CASES = ((0.0, 1.0), (1.0, 1.0), (0.5, 0.75), (-0.5, -0.8), (0.25, 1.5))  # (rate, level)
    STEPS = 1000

    def pass_ops(self, rng):
        n = 200 if self.smoke else 6_000
        seeds = _seeds(rng, len(self.CASES))
        ops = [Op(f"hit r={r} level={level}", "hit",
                  lambda r=r, level=level, s=s: hit_op(
                      model.ModelParams(x0=0.0, r=r, sigma=1.0), level, 1.0, self.STEPS, n, s,
                      slack=0.01))
               for (r, level), s in zip(self.CASES, seeds)]
        return [ops[i] for i in rng.permutation(len(ops))]


class DriftLab(Workload):
    """One-step drift certification and integrability on ode profiles.

    Sine probes whose predicted O(dt) bias (``sine_dt_bias_z``) exceeds
    ``BIAS_Z`` standard errors miss the analytic drift through a known
    ``drift_estimate`` defect: at 1e6 samples n=1 at x0=.5 (0.7 SE), n=3 at
    x0=.25 and .75 (2.3-2.4 SE), n=2 at x0=.25 and .75 (11 SE) and n=3 at
    x0=.5 (52 SE). They are not in the timed pass, whose operations must all
    pass their oracle; ``bias_probes`` measures them in every run instead.
    """

    name, tail_q = "drift_lab", 97.0
    SIGMA, STRIKE = 0.2, 1.0
    FULL = {"complex": 0.02, "repeated": 0.08, "distinct": -0.02}
    SINE_X0 = (0.0, 0.25, 0.5, 0.75)
    BIAS_Z = 0.1

    def samples(self) -> int:
        return 10_000 if self.smoke else 1_000_000

    def _sine_probes(self, biased: bool) -> list[tuple[int, float]]:
        return [(n, x0) for n in (1, 2, 3) for x0 in self.SINE_X0
                if (abs(sine_dt_bias_z(n, self.SIGMA, self.STRIKE, x0, DRIFT_DT,
                                       self.samples())) > self.BIAS_Z) == biased]

    def bias_probes(self, rng: np.random.Generator) -> list[dict]:
        """Measured and predicted z of the sine probes that carry the O(dt) bias."""
        found, probes = [], self._sine_probes(True)
        for (n, x0), seed in zip(probes, _seeds(rng, len(probes))):
            rate, make = sine_profile(n, self.SIGMA, self.STRIKE)
            p = model.ModelParams(x0=0.0, r=rate, sigma=self.SIGMA)
            report = verify.drift_estimate(make(), p, x0, 0.0, DRIFT_DT, self.samples(), seed,
                                           DiscountSign.PLUS)
            found.append({"probe": f"sine n={n} x0={x0}", "z": report.z_score,
                          "predicted_z": sine_dt_bias_z(n, self.SIGMA, self.STRIKE, x0,
                                                        DRIFT_DT, self.samples())})
        return found

    def pass_ops(self, rng):
        samples = self.samples()
        sigma = self.SIGMA
        specs = []
        for n, x0 in self._sine_probes(False):
            rate, make = sine_profile(n, sigma, self.STRIKE)
            specs.append((f"drift sine n={n} x0={x0}", "drift",
                          lambda s, make=make, rate=rate, x0=x0: drift_op(
                              make, rate, sigma, x0, DiscountSign.PLUS, samples, s, False)))
        for n in (1, 2, 3):
            rate, make = sine_profile(n, sigma, self.STRIKE)
            for sign in DiscountSign:
                specs.append((f"integrability sine n={n} {sign.value}", "integrability",
                              lambda s, make=make, rate=rate, sign=sign: integrability_op(
                                  make, rate, sigma, sign, samples, s)))
        for case, rate in self.FULL.items():
            make = full_profile(rate, sigma)
            for sign in DiscountSign:
                specs.append((f"drift full {case} {sign.value}", "drift",
                              lambda s, make=make, rate=rate, sign=sign: drift_op(
                                  make, rate, sigma, 0.5, sign, samples, s,
                                  sign is DiscountSign.PLUS)))
            specs.append((f"integrability full {case}", "integrability",
                          lambda s, make=make, rate=rate: integrability_op(
                              make, rate, sigma, DiscountSign.PLUS, samples, s)))
        seeds = _seeds(rng, len(specs))
        ops = [Op(label, kind, lambda fn=fn, s=s: fn(s))
               for (label, kind, fn), s in zip(specs, seeds)]
        return [ops[i] for i in rng.permutation(len(ops))]


class CliCold(Workload):
    """A fresh interpreter per command: import dominates the median, hit the tail."""

    name, tail_q = "cli_cold", 100.0

    def __init__(self, smoke: bool):
        super().__init__(smoke)
        self.commands = SMOKE_ARGV if smoke else README_ARGV + HEAVY_ARGV
        self.seen: dict[tuple, bytes] = {}

    def setup(self, rng):
        # Reference outputs from cli.run in this process; the hit and large
        # simulate references come from their first subprocess run instead.
        for argv in self.commands:
            if argv[0] in CHEAP_COMMANDS:
                code, out, _ = run_in_process(argv)
                if code == 0:
                    self.seen.setdefault(tuple(argv), out)

    def pass_ops(self, rng):
        ops = [Op(" ".join(argv), "cli", lambda a=argv: cli_op(a, self.seen))
               for argv in self.commands]
        return [ops[i] for i in rng.permutation(len(ops))]


WORKLOADS = {w.name: w for w in (PathsWide, PassageDeep, DriftLab, CliCold)}


def execute(op: Op, tracer=None) -> Outcome:
    """Run one operation; an exception counts as a failed operation."""
    span = tracer.span("op", kind=op.kind) if tracer else contextlib.nullcontext({})
    t0 = time.perf_counter()
    with span as rec:
        try:
            outcome = op.run()
        except Exception as exc:  # a raising operation is a miss, not the end of the run
            outcome = Outcome(time.perf_counter() - t0, False, f"raised {exc!r}")
        if tracer:
            rec["counts"].update(outcome.counts, ok=int(outcome.ok))
    return outcome
