"""Argument checks: the one home of the rules that values handed to the package
must meet, one helper per value class, and of the two errors of array data:
DimensionMismatch, for a vector or matrix of the wrong shape or length, and
NonFiniteData, for data that holds a NaN or an infinity. It imports nothing
of the package.

Every helper raises a ValueError that names the argument (``key``) and, where
there is one to show, the bad value or its shape; a vector, index array or
matrix of the wrong shape raises DimensionMismatch, and a vector that must be
finite and is not NonFiniteData, both ValueErrors. The classes are:

- whole number (_check_whole): an integer >= 1 or >= 0; a bool fails, and so
  does a float, even a whole one;
- choice (_check_choice): one of a fixed set; a bool never is;
- real number (_real): a real scalar (a bool, a string, None and a complex
  number are not); finite unless the caller judges non-finite data itself;
- nonnegative (_nonnegative) and positive (_positive): real numbers >= 0 and
  > 0; NaN fails;
- distinct names (_check_distinct);
- names list (_check_names): a list or tuple of names (never one string),
  each one of a fixed set (_check_choice) and none twice (_check_distinct);
- real entries (_reals): an array or nested list of real numbers; a bool, a
  string, None and a complex number fail, also inside a list of floats or as
  the dtype of an array, before anything is converted (vectors, matrices,
  SparseOperator's stored entries, run's residual tolerances);
- vector (_vector): one-dimensional, of length n where one is given, real
  entries (_reals), and all finite where asked (run's x0_star, run_pd's b,
  fenchel_gap, bregman_distance, the ray projector's angles and offsets);
- matrix (_matrix): two-dimensional with real entries (_reals) (DenseMatrix's
  a, SparseOperator's dense mat);
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


class NonFiniteData(ValueError):
    """Data is NaN or infinite, so nothing computed from it can be trusted: a
    vector that must be finite (_vector), a constraint's data (a normal, an
    offset, a residual) or a linesearch's (x_star, the direction, beta, g')."""


class DimensionMismatch(ValueError):
    """A vector or a set does not fit the vectors it meets: a vector or index
    array is not one-dimensional or not of the length asked for (_vector,
    _integers), a matrix is not two-dimensional (_matrix), a set's data (a
    normal, bounds, a center, cone indices) does not fit the objective's
    coordinates or an operator's outputs, a linesearch's direction or x_star
    is not of the objective's length, or, in a run, an operator does not act
    on the objective's coordinates or a residual tolerance array has the
    wrong length."""


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


def _check_names(key, item, names, choices):
    """``names`` as a tuple; raises a ValueError naming ``key`` and the value
    when it is not a list or tuple (one string is named as a string), naming
    ``item``, the bad entry and the ``choices`` (_check_choice) for an entry
    that is not one of them, and naming ``key`` when it lists a name twice
    (_check_distinct). An empty list passes: what it means is the caller's
    to say."""
    if not isinstance(names, (list, tuple)):
        what = "the string " if isinstance(names, str) else ""
        raise ValueError(f"{key} must be a list of names, not {what}{names!r}")
    for name in names:
        _check_choice(item, name, choices)
    _check_distinct(key, names)
    return tuple(names)


def _reals(key, value):
    """``value`` as a float array; raises a ValueError naming ``key`` when an
    entry is not a real number: a bool (a bool array, or a bool inside a
    list), a string, None or a complex number (a complex array included). An
    int or float array costs a dtype test and np.asarray, which hands a
    float64 one back as is (the matrix-free products and the objectives run
    this on every call)."""
    # any other input is read entry by entry before it is converted, since
    # np.asarray turns the bools of a list into numbers, its strings into the
    # numbers they spell (or an unnamed error) and None into NaN, and drops
    # the imaginary part of a complex array with a warning
    if not (isinstance(value, np.ndarray) and value.dtype.kind in "fiu"):
        for e in np.asarray(value, object).flat:
            if isinstance(e, np.ndarray):  # a 0-d array inside a list
                e = e[()]
            if isinstance(e, (bool, np.bool_)):
                raise ValueError(f"{key} must hold real numbers, not bools")
            if not isinstance(e, numbers.Real):
                raise ValueError(f"{key} must hold real numbers, not {e!r}")
    return np.asarray(value, dtype=float)


def _vector(key, value, n=None, finite=False):
    """``value`` as a float array of real entries (_reals); raises
    DimensionMismatch naming ``key`` and the shape unless it is
    one-dimensional and, where ``n`` is given, of length n, and NonFiniteData
    naming ``key`` unless it is all finite where ``finite`` is asked for."""
    v = _reals(key, value)
    if v.ndim != 1 or (n is not None and v.size != n):
        length = "" if n is None else f" of length {n}"
        raise DimensionMismatch(f"{key} must be a vector{length}, not of shape {v.shape}")
    if finite and not np.all(np.isfinite(v)):
        raise NonFiniteData(f"{key} must be finite")
    return v


def _matrix(key, value):
    """``value`` as a float array of real entries (_reals); raises
    DimensionMismatch naming ``key`` and the shape unless it is two-dimensional."""
    a = _reals(key, value)
    if a.ndim != 2:
        raise DimensionMismatch(f"{key} must be a 2-d array, not of shape {a.shape}")
    return a


def _integers(key, value):
    """``value`` as a one-dimensional int array, a copy; raises a ValueError
    naming ``key`` and the first bad entry unless every entry is an integer
    (a bool, a float, even a whole one, and a string fail, also inside a list
    of ints, whose bools numpy would turn into ints), and DimensionMismatch
    naming its shape unless it is one-dimensional."""
    if isinstance(value, np.ndarray) and value.dtype.kind in "iu":
        ints = value.astype(int)
    else:
        for v in np.asarray(value, dtype=object).ravel().tolist():
            if isinstance(v, bool) or not isinstance(v, numbers.Integral):
                raise ValueError(f"{key} must hold integers, not {v!r}")
        ints = np.asarray(value, dtype=int)
    if ints.ndim != 1:
        raise DimensionMismatch(f"{key} must be a vector, not of shape {ints.shape}")
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
