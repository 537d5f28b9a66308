"""Exception types shared across the package, and the one input-domain check."""

import numbers
import sys

import numpy as np


class ValidationError(ValueError):
    """An input violates a documented precondition; the message names the field."""


class NonFiniteSampleError(ArithmeticError):
    """A Monte Carlo sample produced NaN or infinity; the message locates it."""


MAX_COUNT = np.iinfo(np.intp).max // 8  # the most float64 values one array can hold
_DOMAINS = {
    "finite": ("finite", lambda v: True),
    "positive": ("finite and > 0", lambda v: v > 0),
    "nonnegative": ("finite and >= 0", lambda v: v >= 0),
    "normal": (f"finite and >= {sys.float_info.min!r}", lambda v: v >= sys.float_info.min),
}


def check(name: str, value, domain: str = "finite", least: int = 0, most: float | None = None):
    """Return ``value`` if it lies in ``domain``; otherwise raise a ValidationError naming ``name``.

    Domains: ``"finite"``, ``"positive"`` (finite and > 0), ``"nonnegative"``
    (finite and >= 0), ``"normal"`` (finite and at least the smallest normal
    float, so no digit was lost to underflow), elementwise for arrays, with
    complex values allowed under ``"finite"``; ``"integer"``, an integer
    >= ``least``, returned as an ``int`` (an integral float such as 4.0 is
    accepted, 2.5 or ``'7'`` is not); and ``"count"``, an integer that sizes
    an array or a loop, so also below ``MAX_COUNT``. ``most``, when given, is
    an inclusive upper bound in any real domain.
    """
    if domain in ("integer", "count"):
        integral = isinstance(value, numbers.Integral) or (
            isinstance(value, float) and value.is_integer())
        if not (integral and value >= least and (most is None or value <= most)):
            span = f">= {least}" if most is None else f"in [{least}, {most}]"
            raise ValidationError(f"{name} must be an integer {span}, got {value!r}")
        if domain == "count" and value >= MAX_COUNT:
            raise ValidationError(f"{name} must be < {MAX_COUNT}: no float64 array is longer")
        return int(value)
    want, inside = _DOMAINS[domain]
    v = np.asarray(value)
    good = np.isfinite(v) & inside(v)
    if most is not None:
        want = f"{want} and <= {most!r}"
        good &= v <= most
    if good.all():
        return value
    if v.ndim == 0:
        got = repr(value)
    else:
        i = int(np.flatnonzero(~good)[0])
        got = f"{v.flat[i].item()!r} at index {i}"
    raise ValidationError(f"{name} must be {want}, got {got}")
