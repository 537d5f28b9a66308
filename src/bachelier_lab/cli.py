"""Command-line front end: one subcommand per capability, CSV or JSON out.

Outputs are deterministic for fixed argv (byte-identical re-runs) and embed
the inputs needed to regenerate them as provenance: ``# key=value`` comment
lines ahead of the CSV header, or a ``provenance`` object in JSON.

Exit codes: 0 success, 1 usage error, 2 validation or numeric error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .errors import NonFiniteSampleError, ValidationError, check
from .model import RNG_SCHEME, ModelParams, TimeGrid, hitting_frequency, hitting_probability, simulate_paths
from .ode import (
    OdeForm,
    OdeProblem,
    characteristic_roots_full,
    characteristic_roots_hedged,
    general_solution,
    sine_solution,
)
from .payoff import DiscountSign
from .spectrum import IntegralMethod, ModeSpec, RateSpectrum, normalization_constant, payoff_surface
from .verify import classify, drift_estimate

__all__ = ["run", "main", "build_parser"]


@dataclass
class _Report:
    provenance: dict
    columns: list[str] = field(default_factory=list)
    rows: list[list] = field(default_factory=list)
    payload: dict | None = None  # JSON body; defaults to records built from rows


def _number(value: float, precision: int, where: str) -> str:
    """``value`` to ``precision`` significant digits; NaN and infinity are refused."""
    if not math.isfinite(value):
        raise NonFiniteSampleError(f"{where} is {value!r}; only finite numbers are printed")
    return format(value, f".{precision}g")


def _fmt(value, precision: int, column: str) -> str:
    if value is None:  # an undefined statistic, such as the z-score of a degenerate row
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return _number(value, precision, column)
    return str(value)


def _rounded(value, precision: int, key: str = "output"):
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return float(_number(value, precision, key))
    if isinstance(value, (list, tuple)):
        return [_rounded(v, precision, key) for v in value]
    if isinstance(value, dict):
        return {k: _rounded(v, precision, k) for k, v in value.items()}
    return value


def _render_csv(report: _Report, precision: int) -> str:
    lines = [f"# {k}={v}" for k, v in report.provenance.items()]
    lines.append(",".join(report.columns))
    for row in report.rows:
        lines.append(",".join(_fmt(v, precision, c) for v, c in zip(row, report.columns)))
    return "\n".join(lines) + "\n"


def _render_json(report: _Report, precision: int) -> str:
    body = report.payload
    if body is None:
        body = {"results": [dict(zip(report.columns, row)) for row in report.rows]}
    doc = {"provenance": report.provenance, **_rounded(body, precision)}
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def _provenance(command: str, args: argparse.Namespace, keys: list[str]) -> dict:
    prov = {"command": command}
    for key in keys:
        value = getattr(args, key.replace("-", "_"))
        if isinstance(value, (DiscountSign, IntegralMethod, OdeForm)):
            value = value.value
        prov[key] = value
    prov["seed"] = args.seed
    prov["precision"] = args.precision
    prov["version"] = __version__
    prov["numpy"] = np.__version__
    prov["rng_scheme"] = RNG_SCHEME
    return prov


def _cmd_simulate(args) -> _Report:
    params = ModelParams(x0=args.x0, r=args.rate, sigma=args.sigma, drift=args.drift,
                         exploratory_drift=args.drift is not None)
    grid = TimeGrid.regular(args.t_end, args.steps)
    paths = simulate_paths(params, grid, args.paths, args.seed)
    prov = _provenance("simulate", args, ["x0", "rate", "sigma", "drift", "t-end", "steps", "paths"])
    times = grid.times.tolist()
    columns = ["t"] + [f"path_{i}" for i in range(paths.n_paths)]
    rows = [[t] + column for t, column in zip(times, paths.values.T.tolist())]
    return _Report(provenance=prov, columns=columns, rows=rows,
                   payload={"t": times, "paths": paths.values.tolist()})


def _cmd_hit(args) -> _Report:
    params = ModelParams(x0=args.x0, r=args.rate, sigma=args.sigma)
    closed = hitting_probability(params, args.level, args.t)
    check("grid-step", args.grid_step, "positive")
    n_steps = max(1, round(check("t/grid-step", args.t / args.grid_step)))
    grid = TimeGrid.regular(args.t, n_steps)
    freq = hitting_frequency(params, args.level, grid, args.paths, args.seed)
    prov = _provenance("hit", args, ["x0", "rate", "sigma", "level", "t", "grid-step", "paths"])
    columns = [
        "closed_form_probability",
        "mc_frequency",
        "n_hits",
        "n_paths",
        "standard_error",
        "abs_difference",
    ]
    row = [
        closed,
        freq.frequency,
        freq.n_hits,
        freq.n_paths,
        freq.standard_error,
        abs(freq.frequency - closed),
    ]
    return _Report(provenance=prov, columns=columns, rows=[row])


def _cmd_spectrum(args) -> _Report:
    ladder = RateSpectrum.build(args.sigma, args.strike, args.n_max)
    prov = _provenance("spectrum", args, ["sigma", "strike", "n-max"])
    rows = []
    for mode in ladder:
        norm = normalization_constant(mode.rate, mode.sigma, mode.strike)
        rows.append([mode.n, mode.rate, mode.wavenumber, norm.amplitude])
    return _Report(provenance=prov, columns=["n", "r_n", "wavenumber", "A"], rows=rows)


def _cmd_solve(args) -> _Report:
    if args.hedged:
        roots = characteristic_roots_hedged(args.rate, args.sigma)
    else:
        roots = characteristic_roots_full(args.rate, args.sigma)
    prov = _provenance("solve", args, ["rate", "sigma", "hedged"])
    columns = ["case", "root1_re", "root1_im", "root2_re", "root2_im"]
    row = [
        roots.case.value,
        roots.root1.real,
        roots.root1.imag,
        roots.root2.real,
        roots.root2.imag,
    ]
    return _Report(provenance=prov, columns=columns, rows=[row])


def _cmd_normalize(args) -> _Report:
    result = normalization_constant(args.rate, args.sigma, args.strike, args.method)
    prov = _provenance("normalize", args, ["rate", "sigma", "strike", "method"])
    columns = ["amplitude", "integral", "method", "estimated_error"]
    row = [result.amplitude, result.integral, result.method.value, result.estimated_error]
    return _Report(provenance=prov, columns=columns, rows=[row])


def _cmd_surface(args) -> _Report:
    mode = ModeSpec(n=args.n, sigma=args.sigma, strike=args.strike)
    if args.amplitude is None:
        amplitude = normalization_constant(mode.rate, mode.sigma, mode.strike).amplitude
    else:
        amplitude = args.amplitude
    x = np.linspace(0.0, mode.strike, check("x-points", args.x_points, "integer", 1))
    t = np.linspace(0.0, args.t_end, check("t-points", args.t_points, "integer", 1))
    surf = payoff_surface(mode, amplitude, x, t, args.discount_sign)
    prov = _provenance(
        "surface", args, ["n", "sigma", "strike", "x-points", "t-end", "t-points", "discount-sign"]
    )
    prov["amplitude"] = amplitude
    fmt = f".{args.precision}g"
    columns = ["x"] + [f"t={format(tv, fmt)}" for tv in surf.t]
    rows = [[float(xv)] + [float(y) for y in surf.values[i]] for i, xv in enumerate(surf.x)]
    payload = {
        "x": [float(v) for v in surf.x],
        "t": [float(v) for v in surf.t],
        "values": [[float(y) for y in row] for row in surf.values],
    }
    return _Report(provenance=prov, columns=columns, rows=rows, payload=payload)


def _cmd_drift_check(args) -> _Report:
    params = ModelParams(x0=0.0, r=args.rate, sigma=args.sigma)
    if args.form == "sine":
        profile = sine_solution(args.amplitude, args.rate, args.sigma)
    else:
        roots = characteristic_roots_full(args.rate, args.sigma)
        profile = general_solution(roots, args.coef1, args.coef2)
    prov = _provenance(
        "drift-check",
        args,
        ["form", "rate", "sigma", "dt", "samples", "z-threshold", "discount-sign"],
    )
    prov["x0"] = ",".join(repr(v) for v in args.x0)
    prov["t"] = ",".join(repr(v) for v in args.t)
    if args.form == "sine":
        prov["amplitude"] = args.amplitude
    else:
        prov["coef1"] = args.coef1
        prov["coef2"] = args.coef2
    columns = [
        "x0",
        "t",
        "dt",
        "n_samples",
        "estimated_drift_rate",
        "standard_error",
        "analytic_drift_rate",
        "z_score",
        "sign_convention",
        "degenerate",
        "classification",
    ]
    rows = []
    for x0 in args.x0:
        for t in args.t:
            report = drift_estimate(
                profile, params, x0, t, args.dt, args.samples, args.seed, args.discount_sign
            )
            verdict = classify(report, args.z_threshold)
            record = report.to_dict()
            record["classification"] = verdict.classification.value
            rows.append([record[c] for c in columns])
    return _Report(provenance=prov, columns=columns, rows=rows)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    common.add_argument("--format", choices=["csv", "json"], default="csv", help="output format")
    common.add_argument("--out", default=None, help="output path (default: stdout)")
    common.add_argument("--precision", type=int, default=15, help="significant digits (default 15)")

    parser = _Parser(prog="bachelier-lab", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("simulate", parents=[common], help="simulate exact-increment price paths")
    p.add_argument("--x0", type=float, required=True)
    p.add_argument("--rate", type=float, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--drift", type=float, default=None, help="exploratory drift (default: rate)")
    p.add_argument("--t-end", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--paths", type=int, required=True)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("hit", parents=[common], help="closed-form vs Monte Carlo first passage")
    p.add_argument("--x0", type=float, required=True)
    p.add_argument("--rate", type=float, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--level", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--grid-step", type=float, default=1e-3)
    p.add_argument("--paths", type=int, default=100_000)
    p.set_defaults(handler=_cmd_hit)

    p = sub.add_parser("spectrum", parents=[common], help="quantized rate ladder")
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--strike", type=float, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.set_defaults(handler=_cmd_spectrum)

    p = sub.add_parser("solve", parents=[common], help="characteristic roots, full or hedged")
    p.add_argument("--rate", type=float, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--hedged", action="store_true", help="solve the hedged form")
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("normalize", parents=[common], help="normalization amplitude over [0, K]")
    p.add_argument("--rate", type=float, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--strike", type=float, required=True)
    p.add_argument(
        "--method",
        type=IntegralMethod,
        choices=list(IntegralMethod),
        default=IntegralMethod.CLOSED_FORM,
    )
    p.set_defaults(handler=_cmd_normalize)

    p = sub.add_parser("surface", parents=[common], help="time-weighted mode payoff table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--strike", type=float, required=True)
    p.add_argument("--x-points", type=int, default=21)
    p.add_argument("--t-end", type=float, default=1.0)
    p.add_argument("--t-points", type=int, default=5)
    p.add_argument("--amplitude", type=float, default=None, help="default: normalized amplitude")
    p.add_argument(
        "--discount-sign",
        type=DiscountSign,
        choices=list(DiscountSign),
        default=DiscountSign.PLUS,
    )
    p.set_defaults(handler=_cmd_surface)

    p = sub.add_parser("drift-check", parents=[common], help="one-step drift estimate + verdict")
    p.add_argument("--form", choices=["full", "sine"], default="full")
    p.add_argument("--rate", type=float, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--x0", type=float, nargs="+", required=True, help="probe states")
    p.add_argument("--t", type=float, nargs="+", default=[0.0], help="probe times")
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--z-threshold", type=float, default=3.0)
    p.add_argument("--amplitude", type=float, default=1.0, help="sine form amplitude")
    p.add_argument("--coef1", type=float, default=0.5, help="full form coefficient")
    p.add_argument("--coef2", type=float, default=0.5, help="full form coefficient")
    p.add_argument(
        "--discount-sign",
        type=DiscountSign,
        choices=list(DiscountSign),
        default=DiscountSign.PLUS,
    )
    p.set_defaults(handler=_cmd_drift_check)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code is None else int(exc.code)
    try:
        # Every float option, recorded in provenance as given, must be finite.
        for key, value in vars(args).items():
            if isinstance(value, (float, list)):
                check(key.replace("_", "-"), value)
        check("precision", args.precision, "integer", 0)
        report = args.handler(args)
        render = _render_csv if args.format == "csv" else _render_json
        text = render(report, args.precision)
    except (ValidationError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))
