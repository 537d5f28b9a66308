"""Command-line front end: one subcommand per capability, CSV or JSON out.

Each handler returns a column report: named float arrays and short lists,
and optionally a JSON body of arrays. Each float column is checked for
finiteness once, then every float is printed by ``_digits``: its
``%.{precision}g`` text, or the largest float of its sign where that text
would read as infinite.

Outputs are deterministic for fixed argv (byte-identical re-runs) and embed
the inputs needed to regenerate them as provenance: ``# key=value`` comment
lines ahead of the CSV header, or a ``provenance`` object in JSON.

Exit codes: 0 success, 1 usage error, 2 validation or numeric error, or an
``--out`` that cannot be written. Exit 2 writes nothing to stdout, and a
failed check writes nothing to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ValidationError, check
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


@dataclass
class _Report:
    """Named columns in output order, and optionally the JSON body.

    A column is a float array, or a short list of ints, strings, booleans,
    and floats beside None for an undefined statistic. ``payload`` maps JSON
    keys to float arrays; without it, JSON holds one record per row.
    """

    columns: list[tuple[str, np.ndarray | list]]  # not a dict: surface time labels can coincide
    payload: dict[str, np.ndarray] | None = None

    @classmethod
    def of(cls, records: list[dict]) -> "_Report":
        """One row per record, in the records' key order; a column of floats becomes an array."""
        columns = ((key, [r[key] for r in records]) for key in records[0])
        return cls([(key, np.array(cells) if all(isinstance(v, float) for v in cells) else cells)
                    for key, cells in columns])


def _digits(value: float, spec: str) -> str:
    """``value`` through ``spec``, or the largest float of its sign at 17 digits where that
    text reads past the float range, as the largest float does at 15 digits.

    Every printed float goes through here: CSV cells, the ``surface`` time
    labels and, parsed back, JSON numbers; so each reads as a finite number.
    No value up to 1e308 rounds past the float range, so only a larger one
    has its text parsed back.
    """
    text = spec % value
    if abs(value) <= 1e308 or math.isfinite(float(text)):
        return text
    return "%.17g" % math.copysign(sys.float_info.max, value)


def _text(column: str, value, spec: str) -> str:
    """One CSV cell of a list column; None, such as a degenerate row's z-score, is empty."""
    if isinstance(value, float):
        return _digits(check(column, value), spec)
    if isinstance(value, bool):
        return str(value).lower()
    return "" if value is None else str(value)


def _render_csv(provenance: dict, report: _Report, spec: str) -> str:
    """Each float array checked once, then every cell through ``_digits`` or ``_text``."""
    cells = [[_digits(v, spec) for v in check(name, c).tolist()] if isinstance(c, np.ndarray)
             else [_text(name, v, spec) for v in c] for name, c in report.columns]
    lines = [f"# {k}={v}" for k, v in provenance.items()]
    lines.append(",".join(name for name, _ in report.columns))
    lines.extend(",".join(row) for row in zip(*cells))
    return "\n".join(lines) + "\n"


def _json(key: str, value, spec: str) -> list:
    """A float array through ``_digits`` once, flat, as nested lists; a list's floats one by one."""
    if isinstance(value, np.ndarray):
        flat = [float(_digits(v, spec)) for v in check(key, value).ravel().tolist()]
        return np.reshape(flat, value.shape).tolist()
    return [float(_digits(check(key, v), spec)) if isinstance(v, float) else v for v in value]


def _render_json(provenance: dict, report: _Report, spec: str) -> str:
    if report.payload is None:
        columns = {name: _json(name, column, spec) for name, column in report.columns}
        body = {"results": [dict(zip(columns, row)) for row in zip(*columns.values())]}
    else:
        body = {key: _json(key, value, spec) for key, value in report.payload.items()}
    return json.dumps({"provenance": provenance, **body}, indent=2, allow_nan=False) + "\n"


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
    params = ModelParams(x0=args.x0, r=args.rate, sigma=args.sigma, drift=args.drift)
    grid = TimeGrid.regular(args.t_end, args.steps)
    paths = simulate_paths(params, grid, args.paths, args.seed)
    columns = [("t", grid.times), *((f"path_{i}", path) for i, path in enumerate(paths.values))]
    return _Report(columns, payload={"t": grid.times, "paths": paths.values})


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
    return _Report.of([
        {"n": mode.n, "r_n": mode.rate, "wavenumber": mode.wavenumber,
         "A": normalization_constant(mode.rate, mode.sigma, mode.strike).amplitude}
        for mode in RateSpectrum.build(args.sigma, args.strike, args.n_max)
    ])


def _cmd_solve(args) -> _Report:
    solve = characteristic_roots_hedged if args.hedged else characteristic_roots_full
    roots = solve(args.rate, args.sigma)
    return _Report.of([{"case": roots.case.value,
                        "root1_re": roots.root1.real, "root1_im": roots.root1.imag,
                        "root2_re": roots.root2.real, "root2_im": roots.root2.imag}])


def _cmd_normalize(args) -> _Report:
    result = normalization_constant(args.rate, args.sigma, args.strike, args.method)
    return _Report.of([{"amplitude": result.amplitude, "integral": result.integral,
                        "method": args.method.value, "estimated_error": result.estimated_error}])


def _cmd_surface(args) -> _Report:
    mode = ModeSpec(n=args.n, sigma=args.sigma, strike=args.strike)
    if args.amplitude is None:  # provenance records the amplitude actually used
        args.amplitude = normalization_constant(mode.rate, mode.sigma, mode.strike).amplitude
    n_x = check("x-points", args.x_points, "count", 1)
    n_t = check("t-points", args.t_points, "count", 1)
    check("x-points * t-points", n_x * n_t, "count")  # the table's size, not each axis
    x = np.linspace(0.0, mode.strike, n_x)
    t = np.linspace(0.0, args.t_end, n_t)
    surf = payoff_surface(mode, args.amplitude, x, t, args.discount_sign)
    spec = f"%.{args.precision}g"  # the time labels print as the cells do
    columns = [("x", surf.x), *zip((f"t={_digits(tv, spec)}" for tv in surf.t.tolist()),
                                   surf.values.T)]
    return _Report(columns, payload={"x": surf.x, "t": surf.t, "values": surf.values})


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
# Choices are the value strings, so --help lists {plus,minus}; each str enum
# member that ``type`` returns still compares equal to its value.
_SIGN = {"type": DiscountSign, "choices": [s.value for s in DiscountSign],
         "default": DiscountSign.PLUS}

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
            "choices": [m.value for m in IntegralMethod],
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
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern has no exponent, so it took ``--rate -1e-3`` for
        # two options. No option of this parser looks like a number.
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-inf(inity)?$", re.IGNORECASE)

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
        check("precision", args.precision, "integer", 0, 17)  # float64 round-trips at 17 digits
        report = _COMMANDS[args.command][0](args)
        render = _render_csv if args.format == "csv" else _render_json
        text = render(_provenance(args), report, f"%.{args.precision}g")
    except (ValidationError, ArithmeticError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    if args.out:
        try:
            Path(args.out).write_text(text, encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))
