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
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from . import __version__
from .errors import NonFiniteSampleError, ValidationError, check
from .model import RNG_SCHEME, ModelParams, TimeGrid, hitting_frequency, hitting_probability, simulate_paths
from .ode import (
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
    columns: list[str]
    rows: list[list]
    payload: dict | None = None  # JSON body; defaults to records built from rows

    @classmethod
    def of(cls, records: list[dict]) -> "_Report":
        """One row per record, columns in the records' key order."""
        return cls(columns=list(records[0]), rows=[list(r.values()) for r in records])


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


def _render_csv(provenance: dict, report: _Report, precision: int) -> str:
    lines = [f"# {k}={v}" for k, v in provenance.items()]
    lines.append(",".join(report.columns))
    for row in report.rows:
        lines.append(",".join(_fmt(v, precision, c) for v, c in zip(row, report.columns)))
    return "\n".join(lines) + "\n"


def _render_json(provenance: dict, report: _Report, precision: int) -> str:
    body = report.payload
    if body is None:
        body = {"results": [dict(zip(report.columns, row)) for row in report.rows]}
    doc = {"provenance": provenance, **_rounded(body, precision)}
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def _provenance(args: argparse.Namespace) -> dict:
    """The command, each of its options in declared order, then seed, precision and versions."""
    prov = {"command": args.command}
    for flag in _COMMANDS[args.command][2]:
        value = getattr(args, flag[2:].replace("-", "_"))
        if isinstance(value, Enum):
            value = value.value
        elif isinstance(value, list):
            value = ",".join(repr(v) for v in value)
        prov[flag[2:]] = value
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
    times = grid.times.tolist()
    columns = ["t"] + [f"path_{i}" for i in range(paths.n_paths)]
    rows = [[t] + column for t, column in zip(times, paths.values.T.tolist())]
    return _Report(columns=columns, rows=rows, payload={"t": times, "paths": paths.values.tolist()})


def _cmd_hit(args) -> _Report:
    params = ModelParams(x0=args.x0, r=args.rate, sigma=args.sigma)
    closed = hitting_probability(params, args.level, args.t)
    check("grid-step", args.grid_step, "positive")
    n_steps = max(1, round(check("t/grid-step", args.t / args.grid_step)))
    grid = TimeGrid.regular(args.t, n_steps)
    freq = hitting_frequency(params, args.level, grid, args.paths, args.seed)
    return _Report.of([{
        "closed_form_probability": closed,
        "mc_frequency": freq.frequency,
        "n_hits": freq.n_hits,
        "n_paths": freq.n_paths,
        "standard_error": freq.standard_error,
        "abs_difference": abs(freq.frequency - closed),
    }])


def _cmd_spectrum(args) -> _Report:
    ladder = RateSpectrum.build(args.sigma, args.strike, args.n_max)
    rows = []
    for mode in ladder:
        norm = normalization_constant(mode.rate, mode.sigma, mode.strike)
        rows.append([mode.n, mode.rate, mode.wavenumber, norm.amplitude])
    return _Report(columns=["n", "r_n", "wavenumber", "A"], rows=rows)


def _cmd_solve(args) -> _Report:
    if args.hedged:
        roots = characteristic_roots_hedged(args.rate, args.sigma)
    else:
        roots = characteristic_roots_full(args.rate, args.sigma)
    return _Report.of([{
        "case": roots.case.value,
        "root1_re": roots.root1.real,
        "root1_im": roots.root1.imag,
        "root2_re": roots.root2.real,
        "root2_im": roots.root2.imag,
    }])


def _cmd_normalize(args) -> _Report:
    result = normalization_constant(args.rate, args.sigma, args.strike, args.method)
    columns = ["amplitude", "integral", "method", "estimated_error"]
    row = [result.amplitude, result.integral, args.method.value, result.estimated_error]
    return _Report(columns=columns, rows=[row])


def _cmd_surface(args) -> _Report:
    mode = ModeSpec(n=args.n, sigma=args.sigma, strike=args.strike)
    if args.amplitude is None:  # provenance records the amplitude actually used
        args.amplitude = normalization_constant(mode.rate, mode.sigma, mode.strike).amplitude
    x = np.linspace(0.0, mode.strike, check("x-points", args.x_points, "integer", 1))
    t = np.linspace(0.0, args.t_end, check("t-points", args.t_points, "integer", 1))
    surf = payoff_surface(mode, args.amplitude, x, t, args.discount_sign)
    fmt = f".{args.precision}g"
    payload = {"x": surf.x.tolist(), "t": surf.t.tolist(), "values": surf.values.tolist()}
    columns = ["x"] + [f"t={format(tv, fmt)}" for tv in payload["t"]]
    rows = [[xv] + row for xv, row in zip(payload["x"], payload["values"])]
    return _Report(columns=columns, rows=rows, payload=payload)


def _cmd_drift_check(args) -> _Report:
    params = ModelParams(x0=0.0, r=args.rate, sigma=args.sigma)
    if args.form == "sine":
        profile = sine_solution(args.amplitude, args.rate, args.sigma)
    else:
        roots = characteristic_roots_full(args.rate, args.sigma)
        profile = general_solution(roots, args.coef1, args.coef2)
    records = []
    for x0 in args.x0:
        for t in args.t:
            report = drift_estimate(
                profile, params, x0, t, args.dt, args.samples, args.seed, args.discount_sign
            )
            verdict = classify(report, args.z_threshold)
            records.append({**report.to_dict(), "classification": verdict.classification.value})
    return _Report.of(records)


_FLOAT = {"type": float, "required": True}
_INT = {"type": int, "required": True}
_SIGN = {"type": DiscountSign, "choices": list(DiscountSign), "default": DiscountSign.PLUS}

# Each subcommand once: (handler, help line, {flag: argparse keywords}). The
# parser, the dispatch in ``run`` and provenance all read this table, so the
# options a subcommand takes and the ones its output records cannot drift apart.
_COMMANDS = {
    "simulate": (_cmd_simulate, "simulate exact-increment price paths", {
        "--x0": _FLOAT,
        "--rate": _FLOAT,
        "--sigma": _FLOAT,
        "--drift": {"type": float, "help": "exploratory drift (default: rate)"},
        "--t-end": _FLOAT,
        "--steps": _INT,
        "--paths": _INT,
    }),
    "hit": (_cmd_hit, "closed-form vs Monte Carlo first passage", {
        "--x0": _FLOAT,
        "--rate": _FLOAT,
        "--sigma": _FLOAT,
        "--level": _FLOAT,
        "--t": _FLOAT,
        "--grid-step": {"type": float, "default": 1e-3},
        "--paths": {"type": int, "default": 100_000},
    }),
    "spectrum": (_cmd_spectrum, "quantized rate ladder", {
        "--sigma": _FLOAT,
        "--strike": _FLOAT,
        "--n-max": _INT,
    }),
    "solve": (_cmd_solve, "characteristic roots, full or hedged", {
        "--rate": _FLOAT,
        "--sigma": _FLOAT,
        "--hedged": {"action": "store_true", "help": "solve the hedged form"},
    }),
    "normalize": (_cmd_normalize, "normalization amplitude over [0, K]", {
        "--rate": _FLOAT,
        "--sigma": _FLOAT,
        "--strike": _FLOAT,
        "--method": {
            "type": IntegralMethod,
            "choices": list(IntegralMethod),
            "default": IntegralMethod.CLOSED_FORM,
        },
    }),
    "surface": (_cmd_surface, "time-weighted mode payoff table", {
        "--n": _INT,
        "--sigma": _FLOAT,
        "--strike": _FLOAT,
        "--x-points": {"type": int, "default": 21},
        "--t-end": {"type": float, "default": 1.0},
        "--t-points": {"type": int, "default": 5},
        "--amplitude": {"type": float, "help": "default: normalized amplitude"},
        "--discount-sign": _SIGN,
    }),
    "drift-check": (_cmd_drift_check, "one-step drift estimate + verdict", {
        "--form": {"choices": ["full", "sine"], "default": "full"},
        "--rate": _FLOAT,
        "--sigma": _FLOAT,
        "--x0": {"type": float, "nargs": "+", "required": True, "help": "probe states"},
        "--t": {"type": float, "nargs": "+", "default": [0.0], "help": "probe times"},
        "--dt": {"type": float, "default": 1e-3},
        "--samples": {"type": int, "default": 100_000},
        "--z-threshold": {"type": float, "default": 3.0},
        "--amplitude": {"type": float, "default": 1.0, "help": "sine form amplitude"},
        "--coef1": {"type": float, "default": 0.5, "help": "full form coefficient"},
        "--coef2": {"type": float, "default": 0.5, "help": "full form coefficient"},
        "--discount-sign": _SIGN,
    }),
}


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
    for name, (_, help_line, options) in _COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=help_line)
        for flag, spec in options.items():
            p.add_argument(flag, **spec)
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
        if not 0 <= args.precision <= 17:  # float64 round-trips at 17 significant digits
            raise ValidationError(f"precision must be an integer in [0, 17], got {args.precision}")
        report = _COMMANDS[args.command][0](args)
        render = _render_csv if args.format == "csv" else _render_json
        text = render(_provenance(args), report, args.precision)
    except (ValidationError, ArithmeticError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))
