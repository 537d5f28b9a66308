import math

import numpy as np
import pytest

from bachelier_lab.errors import MAX_COUNT, ValidationError, check


def _limits(bounds):
    """``least``, or ``(least, most)``, as the positional arguments of ``check``."""
    return bounds if isinstance(bounds, tuple) else (bounds,)


@pytest.mark.parametrize(
    "value,domain,least",
    [
        (-1.5, "finite", 0),
        (1 + 2j, "finite", 0),
        (5e-324, "positive", 0),
        (0.0, "nonnegative", 0),
        (np.array([0.0, 2.0]), "nonnegative", 0),
        (1e-2, "positive", (0, 1e-2)),  # the upper bound is inclusive
        (np.array([-3.0, 2.0]), "finite", (0, 2.0)),
        (2.2250738585072014e-308, "normal", 0),  # the smallest normal float
        (np.array([1e300, 1e-300]), "normal", 0),
    ],
)
def test_check_returns_values_inside_the_domain(value, domain, least):
    assert check("x", value, domain, *_limits(least)) is value


@pytest.mark.parametrize("value,least", [(3, 3), (np.int64(0), 0), (4.0, 1), (np.float64(2.0), 2),
                                         (MAX_COUNT - 1, 1), (17, (0, 17)), (17.0, (17, 17))])
def test_check_returns_integral_counts_as_int(value, least):
    for domain in ("integer", "count"):
        got = check("x", value, domain, *_limits(least))
        assert type(got) is int and got == value


def test_only_counts_have_a_ceiling():
    assert check("n", MAX_COUNT, "integer") == MAX_COUNT  # mode indices keep their domain


@pytest.mark.parametrize(
    "value,domain,least,shown",
    [
        (math.nan, "finite", 0, "must be finite, got nan"),
        (complex(1, math.inf), "finite", 0, "got (1+infj)"),
        (math.inf, "positive", 0, "must be finite and > 0, got inf"),
        (0.0, "positive", 0, "got 0.0"),
        (-0.5, "nonnegative", 0, "must be finite and >= 0, got -0.5"),
        (np.array([0.0, 1.0, -2.0]), "nonnegative", 0, "got -2.0 at index 2"),
        (2.5, "integer", 0, "must be an integer >= 0, got 2.5"),
        (math.inf, "integer", 0, "got inf"),
        (math.nan, "integer", 0, "got nan"),
        ("3", "integer", 0, "got '3'"),
        (0, "integer", 1, "must be an integer >= 1, got 0"),
        (0, "count", 1, "must be an integer >= 1, got 0"),
        (MAX_COUNT, "count", 1, f"must be < {MAX_COUNT}"),
        (2e18, "count", 1, f"must be < {MAX_COUNT}"),
        (18, "integer", (0, 17), "must be an integer in [0, 17], got 18"),
        (-1, "count", (0, 17), "must be an integer in [0, 17], got -1"),
        (2.5, "integer", (0, 1 << 64), "got 2.5"),
        (math.nan, "integer", (0, 1 << 64), "got nan"),
        ("7", "integer", (0, 1 << 64), "got '7'"),
        (0.02, "positive", (0, 1e-2), "must be finite and > 0 and <= 0.01, got 0.02"),
        (math.nan, "positive", (0, 1e-2), "got nan"),
        (np.array([1.0, 3.0]), "finite", (0, 2.0), "must be finite and <= 2.0, got 3.0 at index 1"),
        (2.225073858507201e-308, "normal", 0,
         "must be finite and >= 2.2250738585072014e-308, got 2.225073858507201e-308"),
        (0.0, "normal", 0, "got 0.0"),
        (math.inf, "normal", 0, "got inf"),
        (-1.0, "normal", 0, "got -1.0"),
    ],
)
def test_check_names_the_field_and_the_domain(value, domain, least, shown):
    with pytest.raises(ValidationError, match="^x ") as info:
        check("x", value, domain, *_limits(least))
    assert shown in str(info.value)
