"""Argument checks shared by every layer of the package; imports nothing of it."""

import numbers


def _check_whole(key, value, low=1):
    """Raise a ValueError naming ``key`` unless ``value`` is an integer >= ``low``
    (1 or 0). A bool fails, and so does a float, even a whole one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        sign = "positive" if low else "nonnegative"
        raise ValueError(f"{key} must be {sign} and whole, not {value!r}")


def _nonnegative(key, value):
    """``value`` as a float; raises a ValueError naming ``key`` unless it is a
    real number >= 0. A bool fails, and so does NaN; +inf passes."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{key} must be a real number, not {value!r}")
    if not value >= 0:
        raise ValueError(f"{key} must be nonnegative")
    return float(value)
