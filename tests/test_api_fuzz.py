"""Property-based fuzzing of the public functions that take floats, called directly.

Contract: a call returns only finite numbers, or raises ``ValidationError``
or ``NonFiniteSampleError``; no other exception escapes and no warning is
emitted. Every float argument is drawn from wild values (inf, NaN, signed
zeros, subnormals, values near the float range), an ordinary value in
[0.05, 2], so that calls also get past their input checks, or any float.
The Monte Carlo functions run at their smallest sizes (1000 samples, 50
paths, 1 to 4 steps), and their sigma, t and dt are also drawn from 0, tiny
and ordinary values, so that laws without spread and steps near the float
range's bottom are reached. ``drift_estimate``'s report is classified too.
Every ``ModelParams`` draws its drift as None, so mu = r, or as a wild
value, which makes it exploratory: the laws, the first-passage oracle, both
samplers, both estimators and ``analytic_drift`` are also reached with mu != r.
Profiles are ``np.sin``: closed forms pass an overflow through as numpy
does (see ``ExponentialSolution.__call__``), and sit outside this contract.
"""

import dataclasses
import enum
import math
import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from bachelier_lab import (
    DiscountSign,
    IntegralMethod,
    ModelParams,
    ModeSpec,
    NonFiniteSampleError,
    OdeForm,
    OdeProblem,
    TimeGrid,
    ValidationError,
    analytic_drift,
    boundary_residual,
    call_payoff,
    characteristic_roots_full,
    characteristic_roots_hedged,
    classify,
    delta_gamma,
    discounted_value,
    drift_estimate,
    exact_marginal,
    first_hitting_time,
    hitting_frequency,
    hitting_probability,
    integrability_check,
    mode_index,
    moneyness,
    normalization_constant,
    payoff_surface,
    put_payoff,
    quantized_rate,
    residual,
    simulate_paths,
)

SPECIAL = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300,
           1e-8, 0.5, -1.0, 1e154, 1e300, -1e300, 1.79e308, -1.79e308]
WILD = st.one_of(st.floats(0.05, 2.0), st.sampled_from(SPECIAL), st.floats())  # a third ordinary
ARRAYS = st.lists(WILD, min_size=1, max_size=4).map(np.array)
MODES = st.one_of(st.integers(-1, 20), st.integers(1, 1 << 62))
SIGNS = st.sampled_from(list(DiscountSign))
SMALL = st.one_of(st.sampled_from([0.0, 1e-3, 1e-2, 5e-324, 1e-300, 0.2]), WILD)  # sigma, t, dt
SEEDS = st.integers(0, 3)
FUZZ = settings(derandomize=True, deadline=None, database=None, max_examples=200)


def _params(d, sigma=WILD):
    return ModelParams(x0=d.draw(WILD), r=d.draw(WILD), sigma=d.draw(sigma),
                       drift=d.draw(st.none() | WILD))


def _mc_params(d):
    return _params(d, SMALL)


def _grid(d):
    return TimeGrid.regular(d.draw(SMALL), d.draw(st.integers(1, 4)))


def _drift_and_verdict(*args):
    report = drift_estimate(*args)
    return report, classify(report)


def _path_and_grid(d):
    path = d.draw(ARRAYS)
    steps = max(1, len(path) - 1 + d.draw(st.sampled_from([0, 0, 0, 1])))  # some shapes differ
    return path, TimeGrid.regular(1.0, steps)


# Each case draws its arguments and returns (function, arguments).
CASES = {
    "call_payoff": lambda d: (call_payoff, (d.draw(st.one_of(WILD, ARRAYS)), d.draw(WILD))),
    "put_payoff": lambda d: (put_payoff, (d.draw(st.one_of(WILD, ARRAYS)), d.draw(WILD))),
    "discounted_value": lambda d: (discounted_value, (
        d.draw(st.one_of(WILD, ARRAYS)), d.draw(WILD), d.draw(WILD), d.draw(SIGNS))),
    "moneyness": lambda d: (moneyness, (d.draw(WILD), d.draw(WILD), d.draw(WILD))),
    "first_hitting_time": lambda d: (first_hitting_time, (*_path_and_grid(d), d.draw(WILD))),
    "exact_marginal": lambda d: (exact_marginal, (_params(d), d.draw(WILD))),
    "hitting_probability": lambda d: (hitting_probability,
                                      (_params(d), d.draw(WILD), d.draw(WILD))),
    "characteristic_roots_full": lambda d: (characteristic_roots_full,
                                            (d.draw(WILD), d.draw(WILD))),
    "characteristic_roots_hedged": lambda d: (characteristic_roots_hedged,
                                              (d.draw(WILD), d.draw(WILD))),
    "delta_gamma": lambda d: (delta_gamma, (np.sin, d.draw(WILD), d.draw(WILD))),
    "residual": lambda d: (residual, (
        np.sin, OdeProblem(d.draw(WILD), d.draw(WILD), d.draw(st.sampled_from(list(OdeForm)))),
        d.draw(WILD), d.draw(WILD))),
    "analytic_drift": lambda d: (analytic_drift, (
        np.sin, _params(d), d.draw(WILD), d.draw(WILD), d.draw(SIGNS))),
    "quantized_rate": lambda d: (quantized_rate, (d.draw(MODES), d.draw(WILD), d.draw(WILD))),
    "mode_index": lambda d: (mode_index, (d.draw(WILD), d.draw(WILD), d.draw(WILD), d.draw(WILD))),
    "boundary_residual": lambda d: (boundary_residual, (d.draw(MODES), d.draw(WILD), d.draw(WILD))),
    "normalization_constant": lambda d: (normalization_constant, (
        d.draw(WILD), d.draw(WILD), d.draw(WILD), d.draw(st.sampled_from(list(IntegralMethod))))),
    "payoff_surface": lambda d: (payoff_surface, (
        ModeSpec(d.draw(MODES), d.draw(WILD), d.draw(WILD)), d.draw(WILD),
        d.draw(st.one_of(WILD, ARRAYS)), d.draw(ARRAYS), d.draw(SIGNS))),
    "drift_estimate": lambda d: (_drift_and_verdict, (
        np.sin, _mc_params(d), d.draw(WILD), d.draw(SMALL), d.draw(SMALL), 1000,
        d.draw(SEEDS), d.draw(SIGNS))),
    "integrability_check": lambda d: (integrability_check, (
        np.sin, _mc_params(d), d.draw(SMALL), 1000, d.draw(SEEDS), d.draw(SIGNS))),
    "hitting_frequency": lambda d: (hitting_frequency, (
        _mc_params(d), d.draw(WILD), _grid(d), 50, d.draw(SEEDS))),
    "simulate_paths": lambda d: (simulate_paths, (_mc_params(d), _grid(d), 50, d.draw(SEEDS))),
}


def _finite(result) -> bool:
    """Whether every number in a result (scalar, array, tuple or dataclass) is finite."""
    if dataclasses.is_dataclass(result):
        return all(_finite(getattr(result, f.name)) for f in dataclasses.fields(result))
    if isinstance(result, tuple):
        return all(map(_finite, result))
    if result is None or isinstance(result, (enum.Enum, int)):  # a mode index may pass 2^63
        return True
    return bool(np.isfinite(result).all())


@pytest.mark.parametrize("name", sorted(CASES))
@FUZZ
@given(data=st.data())
def test_public_function_returns_finite_numbers_or_refuses_by_name(name, data):
    try:
        fn, args = CASES[name](data)  # a refused dataclass argument counts as a refusal
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = fn(*args)
    except (ValidationError, NonFiniteSampleError):
        return
    assert _finite(result), result
