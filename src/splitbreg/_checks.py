"""Argument checks shared by every layer of the package; imports nothing of it."""

import numbers

import numpy as np


def _check_whole(key, value, low=1):
    """``value`` as an int; raises a ValueError naming ``key`` unless it is an
    integer >= ``low`` (1 or 0). A bool fails, and so does a float, even a
    whole one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        sign = "positive" if low else "nonnegative"
        raise ValueError(f"{key} must be {sign} and whole, not {value!r}")
    return int(value)


def _check_choice(key, value, choices):
    """Raise a ValueError naming ``key``, the bad ``value`` and the ``choices``
    unless ``value`` is one of them. A bool, Python's or numpy's, is never a
    choice, even where one equals 1 or 0."""
    if isinstance(value, (bool, np.bool_)) or value not in tuple(choices):
        raise ValueError(f"{key} {value!r} is not one of {', '.join(map(str, choices))}")


def _is_real(value):
    """Whether ``value`` is a real number: numpy's real scalars are; a bool, a
    string, None and a complex number are not."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _real(key, value):
    """``value`` as a float; raises a ValueError naming ``key`` unless it is a
    real number (_is_real). NaN and infinities pass."""
    if not _is_real(value):
        raise ValueError(f"{key} must be a real number, not {value!r}")
    return float(value)


def _nonnegative(key, value):
    """``value`` as a float; raises a ValueError naming ``key`` unless it is a
    real number >= 0. A bool fails, and so does NaN; +inf passes."""
    value = _real(key, value)
    if not value >= 0:
        raise ValueError(f"{key} must be nonnegative")
    return value
