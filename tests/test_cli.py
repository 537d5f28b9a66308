import json
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from bachelier_lab import cli
from bachelier_lab import (
    DriftReport,
    ModelParams,
    ModeSpec,
    TimeGrid,
    __version__,
    normalization_constant,
    payoff_surface,
    quantized_rate,
    simulate_paths,
)
from bachelier_lab.cli import run
from bachelier_lab.model import RNG_SCHEME

R1 = quantized_rate(1, 0.2, 1.0)


def _csv_rows(text):
    lines = [l for l in text.strip().split("\n") if not l.startswith("#")]
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def _provenance(text):
    out = {}
    for line in text.strip().split("\n"):
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            out[key] = value
    return out


def test_spectrum_reproduces_ladder(capsys):
    assert run(["spectrum", "--sigma", "0.2", "--strike", "1", "--n-max", "3"]) == 0
    header, rows = _csv_rows(capsys.readouterr().out)
    assert header == ["n", "r_n", "wavenumber", "A"]
    rates = [float(row[1]) for row in rows]
    assert rates[0] == pytest.approx(0.1973921, abs=1e-7)
    assert rates[1] == pytest.approx(0.7895684, abs=1e-7)
    assert rates[2] == pytest.approx(1.7765288, abs=1e-7)
    assert float(rows[0][2]) == pytest.approx(math.pi, rel=1e-12)
    assert float(rows[0][3]) == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_solve_hedged_unit_roots(capsys):
    assert run(["solve", "--hedged", "--rate", "0.02", "--sigma", "0.2"]) == 0
    header, rows = _csv_rows(capsys.readouterr().out)
    assert rows[0][0] == "complex_conjugate"
    root1 = complex(float(rows[0][1]), float(rows[0][2]))
    root2 = complex(float(rows[0][3]), float(rows[0][4]))
    assert root1 == pytest.approx(1j, rel=1e-12)
    assert root2 == pytest.approx(-1j, rel=1e-12)


def test_solve_full_form(capsys):
    assert run(["solve", "--rate", "0.02", "--sigma", "0.2"]) == 0
    _, rows = _csv_rows(capsys.readouterr().out)
    assert rows[0][0] == "complex_conjugate"
    assert float(rows[0][1]) == pytest.approx(-0.5, rel=1e-12)
    assert float(rows[0][2]) == pytest.approx(0.8660254037844386, rel=1e-12)


def test_simulate_sigma_zero_csv(capsys):
    code = run([
        "simulate", "--x0", "0", "--rate", "1", "--sigma", "0",
        "--t-end", "1", "--steps", "2", "--paths", "2",
    ])
    assert code == 0
    text = capsys.readouterr().out
    header, rows = _csv_rows(text)
    assert header == ["t", "path_0", "path_1"]
    assert [float(v) for v in rows[0]] == [0.0, 0.0, 0.0]
    assert [float(v) for v in rows[1]] == [0.5, 0.5, 0.5]
    assert [float(v) for v in rows[2]] == [1.0, 1.0, 1.0]
    prov = _provenance(text)
    assert prov["command"] == "simulate"
    assert prov["seed"] == "0"
    assert prov["version"] == __version__


def test_pathset_csv_round_trip(capsys):
    p = ModelParams(x0=1.0, r=0.05, sigma=0.3)
    grid = TimeGrid.regular(1.0, 4)
    paths = simulate_paths(p, grid, 3, seed=42)
    assert run(["simulate", "--x0", "1", "--rate", "0.05", "--sigma", "0.3", "--t-end", "1",
                "--steps", "4", "--paths", "3", "--seed", "42", "--precision", "17"]) == 0
    lines = [l for l in capsys.readouterr().out.strip().split("\n") if not l.startswith("#")]
    assert lines[0] == "t,path_0,path_1,path_2"
    assert len(lines) == 1 + grid.n_times
    parsed = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert np.array_equal(parsed[:, 0], grid.times)  # 17 digits round-trip exactly
    assert np.array_equal(parsed[:, 1:], paths.values.T)


def test_simulate_rejects_zero_paths_with_diagnostic(capsys):
    code = run([
        "simulate", "--x0", "0", "--rate", "0", "--sigma", "1",
        "--t-end", "1", "--steps", "2", "--paths", "0",
    ])
    assert code == 2
    assert "n_paths" in capsys.readouterr().err


_HIT = ["hit", "--x0", "0", "--rate", "0", "--sigma", "1", "--level", "1", "--paths", "100"]
_SURFACE = ["surface", "--n", "1", "--sigma", "0.2", "--strike", "1"]
_DRIFT = ["drift-check", "--rate", "0.02", "--sigma", "0.2", "--x0", "0.5", "--samples", "2000"]


@pytest.mark.parametrize(
    "argv,field",
    [
        (_HIT + ["--t", "1", "--grid-step", "0"], "grid-step"),
        (_HIT + ["--t", "1", "--grid-step", "-0.1"], "grid-step"),
        (_HIT + ["--t", "1", "--grid-step", "nan"], "grid-step"),
        (_HIT + ["--t", "nan"], "t must"),
        (_HIT + ["--t", "inf"], "t must"),
        # Overflowing samples give se=inf; no martingale verdict may be certified from it.
        (_DRIFT + ["--coef1", "1e300", "--coef2", "1e300"], "non-finite"),
        (["solve", "--hedged", "--rate", "nan", "--sigma", "0.2"], "rate"),
        (["spectrum", "--sigma", "inf", "--strike", "1", "--n-max", "3"], "sigma"),
        (_SURFACE + ["--t-end", "nan"], "t-end"),
        # The step 5e-324/3 underflows to 0, which would repeat a grid time.
        (["simulate", "--x0", "0", "--rate", "0", "--sigma", "1", "--t-end", "5e-324",
          "--steps", "3", "--paths", "2"], "t_end/n_steps"),
        (_SURFACE + ["--amplitude", "inf"], "amplitude"),
        (_SURFACE + ["--t-end", "1e10"], "time weight"),
        (_SURFACE + ["--x-points", "0"], "x-points"),
        (["normalize", "--rate", "inf", "--sigma", "0.2", "--strike", "1"], "rate"),
        (["normalize", "--rate", "0.1", "--sigma", "1e-160", "--strike", "1"], "wavenumber"),
        (["solve", "--rate", "1e300", "--sigma", "1e-200"], "diffusion sigma^2/2"),
        (["solve", "--rate", "1", "--sigma", "1e-160"], "characteristic roots"),
        (["solve", "--rate", "1e300", "--sigma", "1"], "discriminant"),
        (["simulate", "--x0", "1", "--rate", "1", "--sigma", "0", "--drift", "1e300",
          "--t-end", "1e300", "--steps", "1", "--paths", "1"], "drift line"),
        (_HIT + ["--t", "1e300", "--grid-step", "1e-300"], "t/grid-step"),
        # 10^300 steps: a finite count, yet no array can hold the grid.
        (_HIT + ["--t", "1", "--grid-step", "1e-300"], "n_steps"),
        # The sine form: the full form stops earlier, at its discriminant.
        (["drift-check", "--form", "sine", "--rate", "1e300", "--sigma", "0.2", "--x0", "0.5",
          "--samples", "2000"], "time weight"),
        # An infinite threshold would certify any sample as a martingale.
        (_DRIFT + ["--z-threshold", "inf"], "z-threshold"),
        (["simulate", "--x0", "0", "--rate", "0", "--sigma", "1", "--t-end", "1",
          "--steps", "2", "--paths", "2", "--precision", "-3"], "precision"),
        (["solve", "--rate", "0.02", "--sigma", "0.2", "--precision", "3000000000"], "precision"),
        # Finite counts past the largest float64 array: refused before any allocation or loop.
        (["simulate", "--x0", "1", "--rate", "0.05", "--sigma", "0.2", "--t-end", "1",
          "--steps", "1", "--paths", "2000000000000000000"], "n_paths"),
        (_SURFACE + ["--x-points", "2000000000000000000"], "x-points"),
        (["drift-check", "--rate", "0.05", "--sigma", "0.2", "--x0", "0.1",
          "--samples", "2000000000000000000"], "n_samples"),
        (["hit", "--x0", "0", "--rate", "0", "--sigma", "1", "--level", "1", "--t", "1",
          "--grid-step", "0.5", "--paths", "2000000000000000000"], "n_paths"),
        # Each count passes its own bound, but their product is past the largest array.
        (["simulate", "--x0", "1", "--rate", "0.05", "--sigma", "0.2", "--t-end", "1",
          "--steps", "1", "--paths", "1000000000000000000"], "n_paths * n_times"),
        (_SURFACE + ["--x-points", "4294967296", "--t-points", "4294967296"],
         "x-points * t-points"),
        # e^{1.618*3000} overflows: the profile at the probe state is refused by name.
        (["drift-check", "--form", "full", "--rate", "-0.02", "--sigma", "0.2", "--x0=3000"],
         "payoff V(x0)"),
        # sigma*sqrt(dt) is finite, but sampled increments or their running sum overflow.
        (["simulate", "--x0", "0", "--rate", "0", "--sigma", "1e308", "--t-end", "1",
          "--steps", "2", "--paths", "10"], "path values"),
        (["hit", "--x0", "0", "--rate", "0", "--sigma", "1e308", "--level", "1", "--t", "1",
          "--grid-step", "0.5", "--paths", "1000"], "path values"),
        # 2*strike^2 underflows to 0: the ladder rate's denominator, named.
        (["spectrum", "--sigma", "1e-300", "--strike", "1e-300", "--n-max", "3"], "strike"),
        (["surface", "--n", "1", "--sigma", "1e-300", "--strike", "1e-300"], "strike"),
        # r_n overflows: refused as the rate, before its e^{r_n*t} weight can warn.
        (["surface", "--n", "3", "--sigma", "1e154", "--strike", "1e-8", "--amplitude", "1"],
         "r_n must be finite"),
        # The closed form answers 1; the sampler's drift line x0 + mu*t overflows.
        (["hit", "--x0=-1e308", "--rate", "1e300", "--sigma", "1", "--level", "1e308",
          "--t", "1e10", "--grid-step", "5e9", "--paths", "10"], "drift line"),
        # A negative infinity is an option value, refused as one.
        (_HIT + ["--t", "1", "--x0", "-inf"], "x0 must"),
        # Profile and weight are finite, but their product overflows: refused without a warning.
        (_SURFACE + ["--amplitude", "1e308", "--x-points", "3", "--t-points", "2",
                     "--t-end", "100"], "surface Y(x, t)"),
    ],
    ids=["grid-step-zero", "grid-step-negative", "grid-step-nan", "t-nan", "t-inf",
         "drift-check-overflow", "solve-rate-nan", "spectrum-sigma-inf", "surface-t-end-nan",
         "simulate-step-underflow", "surface-amplitude-inf", "surface-weight-overflow",
         "surface-x-points-zero",
         "normalize-rate-inf", "normalize-wavenumber-overflow", "solve-sigma-underflow",
         "solve-root-overflow", "solve-discriminant-overflow",
         "simulate-drift-line-overflow",
         "hit-step-count-overflow", "hit-grid-too-long", "drift-check-rate-overflow",
         "drift-check-z-threshold-inf", "simulate-precision-negative", "solve-precision-too-big",
         "simulate-paths-too-many", "surface-x-points-too-many", "drift-check-samples-too-many",
         "hit-paths-too-many", "simulate-paths-times-steps-too-many",
         "surface-x-points-times-t-points-too-many", "drift-check-payoff-overflow",
         "simulate-path-overflow", "hit-path-overflow", "spectrum-strike-squared-underflow",
         "surface-strike-squared-underflow", "surface-rate-overflow",
         "hit-drift-line-past-the-float-range",
         "hit-x0-minus-inf", "surface-values-overflow"],
)
def test_invalid_numeric_inputs_exit_two_with_one_line(argv, field, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(argv) == 2
    assert [str(w.message) for w in caught] == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert field in captured.err


@pytest.mark.parametrize("exc,message", [
    (MemoryError("Unable to allocate 745. GiB for an array"),
     "Unable to allocate 745. GiB for an array"),
    (MemoryError(), "out of memory"),
], ids=["with-message", "bare"])
def test_memory_error_exits_two_with_one_line(exc, message, monkeypatch, capsys):
    def exhausted(args):
        raise exc

    _, help_line, options = cli._COMMANDS["solve"]
    monkeypatch.setitem(cli._COMMANDS, "solve", (exhausted, help_line, options))
    assert run(["solve", "--rate", "0.02", "--sigma", "0.2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


_PATHS = np.array([[1.0, 2.0], [1.0, math.inf]])
_NON_FINITE_REPORTS = {
    "column": cli._Report([("n", [1, 2]), ("rate", np.array([0.5, math.nan]))]),
    # The simulate layout: CSV prints the columns, JSON the payload of the same arrays.
    "payload": cli._Report([("t", np.array([0.0, 1.0])), *zip(["path_0", "path_1"], _PATHS)],
                           payload={"t": np.array([0.0, 1.0]), "paths": _PATHS}),
}


@pytest.mark.parametrize("case,fmt,name", [
    ("column", "csv", "rate"), ("column", "json", "rate"),
    ("payload", "csv", "path_1"), ("payload", "json", "paths"),
])
def test_non_finite_report_exits_two_and_writes_nothing(case, fmt, name, monkeypatch, capsys,
                                                        tmp_path):
    _, help_line, options = cli._COMMANDS["solve"]
    monkeypatch.setitem(cli._COMMANDS, "solve",
                        (lambda args: _NON_FINITE_REPORTS[case], help_line, options))
    existing, missing = tmp_path / "existing.out", tmp_path / "missing.out"
    existing.write_bytes(b"earlier output\n")
    argv = ["solve", "--rate", "0.02", "--sigma", "0.2", "--format", fmt]
    for out in ([], ["--out", str(existing)], ["--out", str(missing)]):
        assert run(argv + out) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {name} ") and captured.err.count("\n") == 1
    assert existing.read_bytes() == b"earlier output\n"
    assert not missing.exists()


@pytest.mark.parametrize("precision", [0, 4, 16, 17])
def test_printed_numbers_are_library_values_at_the_precision(precision, capsys):
    # The reference is format() of the library's own arrays, not the renderer's code.
    def text(v):
        return format(v, f".{precision}g")

    def number(v):
        return float(text(v))

    digits = ["--precision", str(precision)]
    grid = TimeGrid.regular(1.0, 4)
    paths = simulate_paths(ModelParams(x0=1.0, r=0.05, sigma=0.3), grid, 3, seed=42).values
    argv = ["simulate", "--x0", "1", "--rate", "0.05", "--sigma", "0.3", "--t-end", "1",
            "--steps", "4", "--paths", "3", "--seed", "42"] + digits
    assert run(argv) == 0
    _, rows = _csv_rows(capsys.readouterr().out)
    assert rows == [[text(t), *map(text, col)] for t, col in zip(grid.times.tolist(),
                                                               paths.T.tolist())]
    assert run(argv + ["--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["t"] == [number(t) for t in grid.times.tolist()]
    assert doc["paths"] == [[number(v) for v in path] for path in paths.tolist()]

    mode = ModeSpec(n=2, sigma=0.2, strike=1.0)
    amplitude = normalization_constant(mode.rate, 0.2, 1.0).amplitude
    surf = payoff_surface(mode, amplitude, np.linspace(0.0, 1.0, 7), np.linspace(0.0, 1.0, 3))
    argv = ["surface", "--n", "2", "--sigma", "0.2", "--strike", "1", "--x-points", "7",
            "--t-points", "3"] + digits
    assert run(argv) == 0
    header, rows = _csv_rows(capsys.readouterr().out)
    assert header == ["x", *(f"t={text(t)}" for t in surf.t.tolist())]
    assert rows == [[text(x), *map(text, row)] for x, row in zip(surf.x.tolist(),
                                                               surf.values.tolist())]
    assert run(argv + ["--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["x"] == [number(x) for x in surf.x.tolist()]
    assert doc["t"] == [number(t) for t in surf.t.tolist()]
    assert doc["values"] == [[number(v) for v in row] for row in surf.values.tolist()]


_SCIPY_PROBE = """
import contextlib, io, json, sys
import bachelier_lab
from bachelier_lab.cli import run
def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
loaded = [scipy_loaded()]
for argv in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(argv.split()) == 0
    loaded.append(scipy_loaded())
print(json.dumps(loaded))
"""


def test_no_command_loads_scipy():
    # The runtime needs numpy alone; scipy is a test-only dependency.
    argvs = [
        "solve --rate 0.02 --sigma 0.2",
        "spectrum --sigma 0.2 --strike 1 --n-max 3",
        "surface --n 1 --sigma 0.2 --strike 1",
        "simulate --x0 1 --rate 0.05 --sigma 0.3 --t-end 1 --steps 4 --paths 3",
        "drift-check --rate 0.02 --sigma 0.2 --x0 0.5 --samples 2000",
        "normalize --rate 0.1 --sigma 0.2 --strike 1",
        "hit --x0 0 --rate 0 --sigma 1 --level 1 --t 1 --grid-step 0.1 --paths 100",
        "normalize --rate 0.1 --sigma 0.2 --strike 1 --method quadrature",
    ]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    probe = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, *argvs], env=env,
                           capture_output=True, text=True, check=True)
    # After the import, then after each argv in turn.
    assert json.loads(probe.stdout) == [[]] * 9


@pytest.mark.parametrize("argv", [
    ["spectrum", "--sigma", "0.2", "--strike", "1", "--n-max", "1000"],
    *(["normalize", "--rate", repr(quantized_rate(n, 0.2, 1.0)), "--sigma", "0.2", "--strike", "1",
       "--method", "quadrature"] for n in (512, 768)),
], ids=["spectrum-n-max-1000", "quadrature-mode-512", "quadrature-mode-768"])
def test_exit_zero_emits_no_warning(argv, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv, probability", [
    # 2*mu*d/sigma^2 overflows; the drift carries every path past the level at once.
    (["--x0=-0.5", "--rate=1.08e296", "--sigma=0.5", "--level=1.89e16", "--t", "1"], 1.0),
    # sigma^2 underflows to 0; the drift line reaches the level exactly at t.
    (["--x0", "0", "--rate", "1", "--sigma", "1e-170", "--level", "1", "--t", "1"], 0.5),
    # sigma*sqrt(t) underflows to 0; the level is out of reach in so short a time.
    (["--x0", "0", "--rate", "1", "--sigma", "1e-200", "--level", "1", "--t", "1e-300"], 0.0),
], ids=["hit-reflection-exponent-overflow", "hit-sigma-squared-underflow",
        "hit-sigma-sqrt-t-underflow"])
def test_hit_closed_form_at_the_ends_of_its_domain(argv, probability, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["hit", *argv, "--grid-step", "0.5", "--paths", "2", "--format", "json"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["results"][0]["closed_form_probability"] == probability


@pytest.mark.parametrize("argv, option, value", [
    (["solve", "--rate", "-1e-3", "--sigma", "0.2"], "rate", -1e-3),
    (["solve", "--rate", "-0.001", "--sigma", "0.2"], "rate", -1e-3),
    (["drift-check", "--rate", "0.02", "--sigma", "0.2", "--x0", "0", "-2E+5"], "x0", [0.0, -2e5]),
    (["hit", "--x0", "-1e-3", "--rate", "0.05", "--sigma", "0.3", "--level", "1", "--t", "1"],
     "x0", -1e-3),
    (["hit", "--x0", "-inf", "--rate", "0.05", "--sigma", "0.3", "--level", "1", "--t", "1"],
     "x0", -math.inf),
    (["simulate", "--x0", "0", "--rate", "0", "--sigma", "1", "--t-end", "1", "--steps", "1",
      "--paths", "1", "--seed", "-1"], "seed", -1),
], ids=["exponent", "decimal", "nargs-exponent", "hit-exponent", "minus-inf", "negative-int"])
def test_negative_numbers_are_option_values(argv, option, value):
    # argparse's own pattern (-1, -.5, -0.5) has no exponent, and reads "-1e-3" as an option.
    assert getattr(cli.build_parser().parse_args(argv), option) == value


def test_usage_errors_exit_one(capsys):
    assert run(["no-such-command"]) == 1
    assert run(["solve", "--rate", "0.1"]) == 1  # missing --sigma
    assert run(["spectrum", "--sigma", "0.2", "--strike", "1", "--n-max", "2",
                "--bogus-flag"]) == 1
    assert run([]) == 1
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert run(["spectrum", "--help"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("command,listed", [
    ("surface", "--discount-sign {plus,minus}"),
    ("drift-check", "--discount-sign {plus,minus}"),
    ("normalize", "--method {closed_form,quadrature}"),
])
def test_help_lists_enum_choices_as_accepted_values(command, listed, capsys):
    assert run([command, "--help"]) == 0
    assert listed in capsys.readouterr().out


def test_quadrature_past_its_panel_cap_exits_two(capsys):
    # a = sqrt(r/D) = sqrt(1e10/0.02), so ceil(a*K/pi) = 225080 panels.
    argv = ["normalize", "--rate", "1e10", "--sigma", "0.2", "--strike", "1",
            "--method", "quadrature"]
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and "225080 panels" in err
    assert run(argv[:-2]) == 0  # the closed form has no cap


def test_normalize_json_record(capsys):
    code = run([
        "normalize", "--rate", "0.1", "--sigma", "0.2", "--strike", "1",
        "--format", "json",
    ])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["provenance"]["command"] == "normalize"
    assert doc["provenance"]["version"] == __version__
    record = doc["results"][0]
    assert record["amplitude"] == pytest.approx(1.281848866227063, rel=1e-12)
    assert record["integral"] == pytest.approx(0.6085921591756197, rel=1e-12)
    assert record["method"] == "closed_form"


def test_normalize_small_rate_is_finite(capsys):
    assert run(["normalize", "--rate", "1e-30", "--sigma", "0.2", "--strike", "1"]) == 0
    _, rows = _csv_rows(capsys.readouterr().out)
    assert math.isfinite(float(rows[0][0])) and float(rows[0][1]) > 0


def _reject_constant(token):
    raise ValueError(f"non-finite JSON constant {token}")


def test_degenerate_drift_row_has_no_z_score(capsys):
    # coef1 = coef2 = 0 gives V = 0: every sample agrees, se = 0 and z is undefined.
    argv = ["drift-check", "--rate", "0.02", "--sigma", "0.2", "--x0", "0.5",
            "--samples", "2000", "--coef1", "0", "--coef2", "0"]
    assert run(argv + ["--format", "json"]) == 0
    record = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)["results"][0]
    assert record["degenerate"] is True and record["z_score"] is None
    assert run(argv) == 0
    header, rows = _csv_rows(capsys.readouterr().out)
    assert rows[0][header.index("z_score")] == ""


def test_drift_check_columns_are_the_report_fields(capsys):
    columns = [f.name for f in fields(DriftReport)] + ["classification"]
    argv = ["drift-check", "--rate", "0.02", "--sigma", "0.2", "--x0", "0.25", "0.5",
            "--samples", "2000"]
    assert run(argv) == 0
    header, _ = _csv_rows(capsys.readouterr().out)
    assert header == columns
    assert run(argv + ["--format", "json"]) == 0
    records = json.loads(capsys.readouterr().out)["results"]
    assert len(records) == 2 and all(list(record) == columns for record in records)


def test_hit_report_fields(capsys):
    code = run([
        "hit", "--x0", "0", "--rate", "0", "--sigma", "1", "--level", "1",
        "--t", "1", "--grid-step", "0.01", "--paths", "2000", "--format", "json",
    ])
    assert code == 0
    record = json.loads(capsys.readouterr().out)["results"][0]
    assert record["closed_form_probability"] == pytest.approx(0.3173105078629141, rel=1e-10)
    assert record["n_paths"] == 2000
    assert 0.0 <= record["mc_frequency"] <= 1.0
    assert record["n_hits"] == round(record["mc_frequency"] * 2000)


def test_drift_check_one_row_per_probe(capsys):
    code = run([
        "drift-check", "--form", "sine", "--rate", repr(R1), "--sigma", "0.2",
        "--x0", "0.25", "0.5", "--t", "0.0", "0.5", "--samples", "2000",
    ])
    assert code == 0
    header, rows = _csv_rows(capsys.readouterr().out)
    assert header[-1] == "classification"
    assert len(rows) == 4  # 2 states x 2 times
    assert {row[-1] for row in rows} <= {
        "consistent_with_martingale",
        "supermartingale_strict",
        "violates_supermartingale",
    }


def test_surface_json_shape(capsys):
    code = run([
        "surface", "--n", "1", "--sigma", "0.2", "--strike", "1",
        "--x-points", "5", "--t-points", "3", "--format", "json",
    ])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["x"]) == 5 and len(doc["t"]) == 3
    assert len(doc["values"]) == 5 and len(doc["values"][0]) == 3
    assert doc["values"][0] == [0.0, 0.0, 0.0]  # profile vanishes at x (= 0)
    assert doc["provenance"]["discount-sign"] == "plus"


def test_precision_flag_controls_digits(capsys):
    run(["spectrum", "--sigma", "0.2", "--strike", "1", "--n-max", "1",
         "--precision", "3"])
    _, rows = _csv_rows(capsys.readouterr().out)
    assert rows[0][1] == "0.197"


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--x0", "1", "--rate", "0.05", "--sigma", "0.3",
         "--t-end", "1", "--steps", "4", "--paths", "3"],
        ["hit", "--x0", "0", "--rate", "0", "--sigma", "1", "--level", "1",
         "--t", "1", "--grid-step", "0.01", "--paths", "2000"],
        ["spectrum", "--sigma", "0.2", "--strike", "1", "--n-max", "5"],
        ["solve", "--rate", "0.18", "--sigma", "0.2"],
        ["normalize", "--rate", "0.1", "--sigma", "0.2", "--strike", "1"],
        ["surface", "--n", "2", "--sigma", "0.2", "--strike", "1",
         "--x-points", "7", "--t-points", "3"],
        ["drift-check", "--form", "full", "--rate", "0.02", "--sigma", "0.2",
         "--x0", "0.5", "--samples", "2000"],
    ],
    ids=["simulate", "hit", "spectrum", "solve", "normalize", "surface", "drift-check"],
)
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_reruns_are_byte_identical(tmp_path, argv, fmt):
    out1 = tmp_path / "first.out"
    out2 = tmp_path / "second.out"
    assert run(argv + ["--format", fmt, "--out", str(out1)]) == 0
    assert run(argv + ["--format", fmt, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("target", ["missing-dir/x.csv", "."], ids=["missing-parent", "directory"])
def test_unwritable_out_exits_two_with_one_line(tmp_path, target, capsys):
    out = tmp_path / target
    assert run(["solve", "--rate", "0.02", "--sigma", "0.2", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {out}: ")
    assert captured.err.count("\n") == 1


def test_output_file_matches_stdout(tmp_path, capsys):
    argv = ["spectrum", "--sigma", "0.2", "--strike", "1", "--n-max", "2"]
    assert run(argv) == 0
    stdout_text = capsys.readouterr().out
    out = tmp_path / "ladder.csv"
    assert run(argv + ["--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == stdout_text


_PROVENANCE_CASES = {
    "simulate": (["simulate", "--x0", "1", "--rate", "0.05", "--sigma", "0.3", "--t-end", "1",
                  "--steps", "4", "--paths", "3"], {"drift": "None", "t-end": "1.0"}),
    "hit": (["hit", "--x0", "0.5", "--rate", "0.1", "--sigma", "0.7", "--level", "1.5", "--t", "2",
             "--grid-step", "0.05", "--paths", "1500"],
            {"x0": "0.5", "rate": "0.1", "sigma": "0.7", "level": "1.5", "t": "2.0",
             "grid-step": "0.05", "paths": "1500"}),
    "spectrum": (["spectrum", "--sigma", "0.2", "--strike", "1", "--n-max", "2"], {"n-max": "2"}),
    "solve": (["solve", "--hedged", "--rate", "0.02", "--sigma", "0.2"], {"hedged": "True"}),
    "normalize": (["normalize", "--rate", "0.1", "--sigma", "0.2", "--strike", "1"],
                  {"method": "closed_form"}),
    # Without --amplitude the surface records the normalized amplitude it used.
    "surface": (["surface", "--n", "1", "--sigma", "0.2", "--strike", "1", "--x-points", "3"],
                {"amplitude": str(normalization_constant(R1, 0.2, 1.0).amplitude),
                 "discount-sign": "plus"}),
    # The sine form still records the full form's coefficients.
    "drift-check": (["drift-check", "--form", "sine", "--rate", repr(R1), "--sigma", "0.2",
                     "--x0", "0.25", "0.5", "--samples", "2000"],
                    {"x0": "0.25,0.5", "t": "0.0", "amplitude": "1.0", "coef1": "0.5",
                     "coef2": "0.5"}),
}
_COMMON_OPTIONS = {"--seed", "--format", "--out", "--precision"}


@pytest.mark.parametrize("command", list(_PROVENANCE_CASES))
def test_provenance_contains_all_regeneration_inputs(command, capsys):
    argv, expected = _PROVENANCE_CASES[command]
    assert run([command, "--help"]) == 0
    flags = re.findall(r"^  (--[a-z0-9-]+)", capsys.readouterr().out, re.MULTILINE)
    options = [flag[2:] for flag in flags if flag not in _COMMON_OPTIONS]
    assert run(argv + ["--seed", "42"]) == 0
    prov = _provenance(capsys.readouterr().out)
    assert list(prov) == ["command", *options, "seed", "precision", "version", "numpy",
                          "rng_scheme"]
    assert prov["command"] == command
    assert prov["seed"] == "42"
    assert prov["numpy"] == np.__version__
    assert prov["rng_scheme"] == RNG_SCHEME
    assert {key: prov[key] for key in expected} == expected
    assert run(argv + ["--seed", "42", "--format", "json"]) == 0
    assert list(json.loads(capsys.readouterr().out)["provenance"]) == list(prov)
