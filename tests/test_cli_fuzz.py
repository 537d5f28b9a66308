"""Property-based fuzzing of every subcommand through ``cli.run``, in process.

Contract: the exit code is 0, 1 or 2, no exception escapes and no Python
warning is emitted; exit 0 prints only finite numbers (JSON parses
strictly); exit 2 prints nothing on stdout and one ``error: `` line on
stderr. Each example starts from ordinary values and replaces up to three
float options by wild ones. Counts stay small so that no example allocates
large arrays.
"""

import contextlib
import io
import json
import math
import warnings

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bachelier_lab.cli import run

SPECIAL = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
           1e-300, -1e-300, 1e300, -1e300]
WILD = st.one_of(st.sampled_from(SPECIAL), st.floats())
ORDINARY = st.floats(0.05, 2.0)
COUNTS = st.integers(-1, 20)
SIGNS = st.sampled_from(["plus", "minus"])
COMMON = {
    "seed": st.sampled_from([0, 7, 20240917, -1, 1 << 64]),
    "format": st.sampled_from(["csv", "json"]),
    "precision": st.integers(-1, 20),
}
FUZZ = settings(derandomize=True, deadline=None, database=None, max_examples=100)


def _draw_argv(data, command, floats, others):
    """argv with ordinary ``floats``, up to three of them replaced by wild values."""
    wild = data.draw(st.sets(st.sampled_from(sorted(floats)), max_size=3), label="wild")
    options = {k: data.draw(WILD if k in wild else s, label=k) for k, s in floats.items()}
    options.update({k: data.draw(s, label=k) for k, s in {**others, **COMMON}.items()})
    argv = [command]
    for key, value in options.items():
        if isinstance(value, bool):
            argv += [f"--{key}"] if value else []
        elif value is not None:  # separate tokens, as in the README: "--x0 -1e-300"
            argv += [f"--{key}", repr(value) if isinstance(value, float) else str(value)]
    return argv


def _reject_constant(token):
    raise ValueError(f"non-finite JSON constant {token}")


def _finite_numbers(doc):
    if isinstance(doc, float):
        return math.isfinite(doc)
    if isinstance(doc, list):
        return all(_finite_numbers(v) for v in doc)
    if isinstance(doc, dict):
        return all(_finite_numbers(v) for v in doc.values())
    return True


def _csv_finite(text):
    for line in text.splitlines():
        cells = [line.partition("=")[2]] if line.startswith("# ") else line.split(",")
        for cell in cells:
            try:
                if not math.isfinite(float(cell)):
                    return False
            except ValueError:
                pass  # a name, a category or an empty (undefined) cell
    return True


def _check_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = run(argv)
    assert [str(w.message) for w in caught] == []
    assert code in (0, 1, 2)
    if code == 0:
        if argv[argv.index("--format") + 1] == "json":
            doc = json.loads(out.getvalue(), parse_constant=_reject_constant)
            assert _finite_numbers(doc)
        else:
            assert _csv_finite(out.getvalue())
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


@FUZZ
@given(st.data())
def test_fuzz_simulate(data):
    _check_contract(_draw_argv(data, "simulate", {
        "x0": ORDINARY, "rate": ORDINARY, "sigma": ORDINARY,
        "drift": st.one_of(st.none(), ORDINARY), "t-end": ORDINARY,
    }, {"steps": COUNTS, "paths": COUNTS}))


@FUZZ
@given(st.data())
def test_fuzz_hit(data):
    argv = _draw_argv(data, "hit", {
        "x0": ORDINARY, "rate": ORDINARY, "sigma": ORDINARY, "level": ORDINARY,
        "t": ORDINARY, "grid-step": st.floats(1e-3, 0.5),
    }, {"paths": COUNTS})
    options = dict(zip(argv[1::2], argv[2::2]))
    with contextlib.suppress(ZeroDivisionError):
        assume(not float(options["--t"]) / float(options["--grid-step"]) > 1000)  # <= 1000 steps
    _check_contract(argv)


@FUZZ
@given(st.data())
def test_fuzz_spectrum(data):
    _check_contract(_draw_argv(data, "spectrum", {"sigma": ORDINARY, "strike": ORDINARY},
                               {"n-max": COUNTS}))


@FUZZ
@given(st.data())
def test_fuzz_solve(data):
    _check_contract(_draw_argv(data, "solve", {"rate": ORDINARY, "sigma": ORDINARY},
                               {"hedged": st.booleans()}))


@FUZZ
@given(st.data())
def test_fuzz_normalize(data):
    _check_contract(_draw_argv(data, "normalize", {
        "rate": ORDINARY, "sigma": ORDINARY, "strike": ORDINARY,
    }, {"method": st.sampled_from(["closed_form", "quadrature"])}))


@FUZZ
@given(st.data())
def test_fuzz_surface(data):
    _check_contract(_draw_argv(data, "surface", {
        "sigma": ORDINARY, "strike": ORDINARY, "t-end": ORDINARY,
        "amplitude": st.one_of(st.none(), ORDINARY),
    }, {"n": COUNTS, "x-points": COUNTS, "t-points": COUNTS, "discount-sign": SIGNS}))


@FUZZ
@given(st.data())
def test_fuzz_drift_check(data):
    _check_contract(_draw_argv(data, "drift-check", {
        "rate": ORDINARY, "sigma": ORDINARY, "x0": ORDINARY, "t": ORDINARY,
        "dt": st.floats(1e-4, 1e-2), "z-threshold": ORDINARY, "amplitude": ORDINARY,
        "coef1": ORDINARY, "coef2": ORDINARY,
    }, {"form": st.sampled_from(["full", "sine"]), "samples": st.sampled_from([1000, 2000, 999, 0]),
        "discount-sign": SIGNS}))
