"""Argument checks: the one home of the rules that values handed to the package
must meet, one helper per value class. It imports nothing of the package.

Every helper raises a ValueError that names the argument (``key``) and, where
there is one to show, the bad value or its shape. The classes are:

- whole number (_check_whole): an integer >= 1 or >= 0; a bool fails, and so
  does a float, even a whole one;
- choice (_check_choice): one of a fixed set; a bool never is;
- real number (_real): a real scalar (a bool, a string, None and a complex
  number are not); finite unless the caller judges non-finite data itself;
- nonnegative (_nonnegative) and positive (_positive): real numbers >= 0 and
  > 0; NaN fails;
- distinct names (_check_distinct);
- vector (_vector): one-dimensional, of length n where one is given, real
  entries (a bool fails, also inside a list of floats), and all finite where
  asked (fenchel_gap, bregman_distance);
- integers (_integers) and index array (_check_indices): one-dimensional,
  integers only (a bool, a float or a string fails, also inside a list of
  ints), and for indices nonnegative, below n where one is given.

Infinity: a number must be finite, except where +inf means "no bound": a ball
radius (``NormBall``, ``project_l1_ball``, run_pd's ``delta``) and
operator_norm's ``tol``, which pass ``bound=True``; a stopping tolerance, the
one positive number; and a box bound, a vector entry. A weight, a simplex
total, a noise size and a scale have no such reading: an infinite one would
come back only as NaN (inf * 0) or as a linesearch bracket that never closes.
"""

import math
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


def _real(key, value, finite=True):
    """``value`` as a float; raises a ValueError naming ``key`` unless it is a
    real number (numpy's real scalars are; a bool, a string, None and a
    complex number are not) and, unless ``finite`` is False, finite. A set's
    offset passes False: the set names its own non-finite data."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{key} must be a real number, not {value!r}")
    value = float(value)
    if finite and not math.isfinite(value):
        raise ValueError(f"{key} must be finite, not {value!r}")
    return value


def _nonnegative(key, value, bound=False):
    """``value`` as a float; raises a ValueError naming ``key`` unless it is a
    real number >= 0 and finite; NaN fails. With ``bound`` (a radius), +inf
    passes: no bound."""
    value = _real(key, value, finite=False)
    if not (value >= 0 and (bound or value < math.inf)):
        raise ValueError(f"{key} must be nonnegative" + ("" if bound else " and finite"))
    return value


def _positive(key, value):
    """``value`` as a float; raises a ValueError naming ``key`` unless it is a
    real number > 0; NaN fails. +inf passes: the positive numbers the package
    takes are tolerances, where +inf is no bound."""
    value = _real(key, value, finite=False)
    if not value > 0:
        raise ValueError(f"{key} must be positive, not {value!r}")
    return value


def _check_distinct(key, names):
    """Raise a ValueError naming ``key`` when ``names`` lists a name twice."""
    if len(set(names)) != len(names):
        raise ValueError(f"{key} must be distinct, not {list(names)!r}")


def _vector(key, value, n=None, finite=False):
    """``value`` as a float array; raises a ValueError naming ``key`` and the
    shape unless it is one-dimensional and, where ``n`` is given, of length n,
    naming ``key`` when it holds a bool (a bool array, or a bool inside a
    list), and naming ``key`` unless it is all finite where ``finite`` is
    asked for. A valid float64 array costs np.asarray, an identity test and a
    compare or two: the matrix-free products and the objectives run it on
    every call."""
    v = np.asarray(value, dtype=float)
    # a float64 array comes back as is; other input is read entry by entry,
    # since np.asarray turns the bools of a list into numbers
    if v is not value and any(type(e) in (bool, np.bool_) for e in np.asarray(value, object).flat):
        raise ValueError(f"{key} must hold real numbers, not bools")
    if v.ndim != 1 or (n is not None and v.size != n):
        length = "" if n is None else f" of length {n}"
        raise ValueError(f"{key} must be a vector{length}, not of shape {v.shape}")
    if finite and not np.all(np.isfinite(v)):
        raise ValueError(f"{key} must be finite")
    return v


def _integers(key, value):
    """``value`` as a one-dimensional int array, a copy; raises a ValueError
    naming ``key`` and the first bad entry unless every entry is an integer
    (a bool, a float, even a whole one, and a string fail, also inside a list
    of ints, whose bools numpy would turn into ints), and naming its shape
    unless it is one-dimensional."""
    if isinstance(value, np.ndarray) and value.dtype.kind in "iu":
        ints = value.astype(int)
    else:
        for v in np.asarray(value, dtype=object).ravel().tolist():
            if isinstance(v, bool) or not isinstance(v, numbers.Integral):
                raise ValueError(f"{key} must hold integers, not {v!r}")
        ints = np.asarray(value, dtype=int)
    if ints.ndim != 1:
        raise ValueError(f"{key} must be a vector, not of shape {ints.shape}")
    return ints


def _check_indices(key, value, n=None):
    """``value`` as an int array (_integers); raises a ValueError naming
    ``key`` unless every index lies in range(n) or, where no n is given, is
    nonnegative: a negative index would count from the end of whatever it
    meets."""
    idx = _integers(key, value)
    if n is None:
        if idx.size and idx.min() < 0:
            raise ValueError(f"{key} must be nonnegative")
    elif (outside := idx[(idx < 0) | (idx >= n)]).size:
        raise ValueError(f"{key} {outside[0]} out of range")
    return idx
