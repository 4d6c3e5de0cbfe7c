"""Independent reference computations used by the tests.

Everything here is brute force on purpose: subset enumeration for the KKT
systems of the small projection problems, grid refinement for convex
one-dimensional minimization, and exact rational arithmetic for the l1
linesearch. None of it shares code paths with the package.
"""

import itertools
from fractions import Fraction

import numpy as np


def simplex_oracle(y, total=1.0):
    """Projection onto {z >= 0, sum z = total} by trying every support set.

    For a fixed support S the KKT system gives z_S = y_S - theta with
    theta = (sum(y_S) - total) / |S|; the candidate is valid when z_S >= 0 and
    y_j - theta <= 0 off the support. Feasible candidates all describe the same
    point; the distance argmin is returned as a safety net.
    """
    y = np.asarray(y, dtype=float)
    n = y.size
    best, best_d = None, np.inf
    for r in range(1, n + 1):
        for s in itertools.combinations(range(n), r):
            s = list(s)
            theta = (y[s].sum() - total) / len(s)
            z = np.zeros(n)
            z[s] = y[s] - theta
            if np.any(z[s] < -1e-12):
                continue
            off = np.setdiff1d(np.arange(n), s)
            if off.size and np.any(y[off] - theta > 1e-12):
                continue
            d = np.linalg.norm(z - y)
            if d < best_d:
                best, best_d = z, d
    assert best is not None
    return best


def l1_ball_oracle(y, radius):
    """Projection onto {||z||_1 <= radius} by KKT subset enumeration.

    Interior points project to themselves. Otherwise the solution is
    z_i = sign(y_i) (|y_i| - theta)_+ for the multiplier theta >= 0 determined
    by a support set S: theta = (sum_S |y_i| - radius) / |S|, valid when
    |y_i| > theta on S and |y_j| <= theta off S.
    """
    y = np.asarray(y, dtype=float)
    if np.abs(y).sum() <= radius:
        return y.copy()
    a = np.abs(y)
    n = y.size
    best, best_d = None, np.inf
    for r in range(1, n + 1):
        for s in itertools.combinations(range(n), r):
            s = list(s)
            theta = (a[s].sum() - radius) / len(s)
            if theta < -1e-12:
                continue
            if np.any(a[s] - theta < -1e-12):
                continue
            off = np.setdiff1d(np.arange(n), s)
            if off.size and np.any(a[off] > theta + 1e-12):
                continue
            z = np.sign(y) * np.maximum(a - theta, 0.0)
            d = np.linalg.norm(z - y)
            if d < best_d:
                best, best_d = z, d
    assert best is not None
    return best


def grid_minimize(func, lo, hi, resolution=1e-5, points=2001, vectorized=False):
    """Minimize a convex scalar function down to a grid of the given spacing.

    Expands the bracket until the sampled argmin is interior (convexity puts
    the true minimizer within one step of the sampled argmin), then zooms.
    Returns (t_best, f_best). With ``vectorized`` the function is called once
    per grid with the whole array of points.
    """

    def evaluate(ts):
        if vectorized:
            return np.asarray(func(ts), dtype=float)
        return np.array([func(t) for t in ts])

    lo, hi = float(lo), float(hi)
    for _ in range(200):
        ts = np.linspace(lo, hi, 5)
        vals = evaluate(ts)
        i = int(np.argmin(vals))
        if 0 < i < 4:
            break
        span = hi - lo
        if i == 0:
            lo -= 2.0 * span
        else:
            hi += 2.0 * span
    else:
        raise RuntimeError("bracket expansion failed")
    while True:
        ts = np.linspace(lo, hi, points)
        vals = evaluate(ts)
        i = int(np.argmin(vals))
        step = ts[1] - ts[0]
        if step <= resolution:
            return float(ts[i]), float(vals[i])
        lo = ts[max(i - 2, 0)]
        hi = ts[min(i + 2, points - 1)]


def fd_directional(func, x, d, h=1e-6):
    """Central finite difference of a scalar function along d."""
    return (func(x + h * d) - func(x - h * d)) / (2.0 * h)


def l1_linesearch_oracle(x_star, a, beta, weights, nonneg=False, gp0=None, x=None):
    """The smallest-|t| minimizer of g(t) = f*(x_star - t a) + t beta, over
    t >= 0 with ``nonneg``, for f = sum_j w_j |x_j| + x_j^2 / 2 with finite
    weights, as an exact Fraction (every float converts exactly).

    g'(t) = g'(0) + sum_j a_j (s_j - S_w(x*_j - t a_j)) with S_w the soft
    shrinkage and s the shrinkage at t = 0, or ``x`` when given; g'(0) is
    ``gp0`` when given, else beta - <a, s>. g' is continuous, nondecreasing
    and linear between the kinks (x*_j -+ w_j) / a_j, so the root nearest 0
    is found by evaluating g' exactly at the kinks in order of |t| and
    interpolating on the piece where its sign changes: the left end of a flat
    stretch, and the answer 0 when g'(0) = 0 or a halfspace clamps it."""
    xs, av, ws = ([Fraction(float(v)) for v in vec] for vec in (x_star, a, weights))

    def shrink(v, w):
        return max(abs(v) - w, Fraction(0)) * (1 if v > 0 else -1)

    s0 = [shrink(v, w) for v, w in zip(xs, ws)]
    if x is not None:
        s0 = [Fraction(float(v)) for v in x]
    if gp0 is None:
        g0 = Fraction(float(beta)) - sum(aj * sj for aj, sj in zip(av, s0))
    else:
        g0 = Fraction(float(gp0))

    def gp(t):
        return g0 + sum(
            aj * (sj - shrink(v - t * aj, w)) for v, aj, w, sj in zip(xs, av, ws, s0) if aj
        )

    if g0 == 0 or (nonneg and g0 > 0):
        return Fraction(0)
    sign = 1 if g0 < 0 else -1  # the root lies at sign * t for t > 0
    kinks = sorted(
        {sign * (v + e * w) / aj for v, aj, w in zip(xs, av, ws) if aj for e in (-1, 1)}
    )
    ends = [Fraction(0)] + [k for k in kinks if k > 0]
    values = [sign * gp(sign * e) for e in ends]
    for i in range(1, len(ends)):
        if values[i] >= 0:
            left, right = ends[i - 1], ends[i]
            t = left - values[i - 1] * (right - left) / (values[i] - values[i - 1])
            return sign * t
    # past the last kink g' is linear: one more point on that line gives it
    last = ends[-1]
    slope = sign * gp(sign * (last + 1)) - values[-1]
    return sign * (last - values[-1] / slope)


def _fractions(vec):
    return [Fraction(float(v)) for v in vec]


def _shrink(v, w):
    """S_w(v) = sign(v) max(|v| - w, 0) on Fractions."""
    return max(abs(v) - w, Fraction(0)) * (1 if v > 0 else -1)


def simplex_threshold_oracle(y, total=1.0):
    """The exact theta with sum_j max(y_j - theta, 0) = total, as a Fraction,
    so that the projection onto {z >= 0, sum z = total} is max(y - theta, 0).

    The sum is continuous and strictly decreasing in theta while positive, so
    theta is found by trying each k = 1..n: with the k largest entries
    positive, theta = (their sum - total) / k, valid when it leaves exactly
    those k above it (ties at theta count as not above). For total = 0 every
    theta >= max(y) gives z = 0; the oracle returns max(y)."""
    ys, total = sorted(_fractions(y), reverse=True), Fraction(float(total))
    if total == 0:
        return ys[0]
    head = Fraction(0)
    for k, v in enumerate(ys, start=1):
        head += v
        theta = (head - total) / k
        if v > theta and (k == len(ys) or ys[k] <= theta):
            return theta
    raise AssertionError("no threshold found")


def l1_ball_threshold_oracle(y, radius):
    """The exact theta >= 0 with z = sign(y) max(|y| - theta, 0) the projection
    onto {||z||_1 <= radius}, as a Fraction: 0 for a point inside the ball,
    else the simplex threshold of |y| with total ``radius``."""
    a = [abs(v) for v in _fractions(y)]
    if sum(a) <= Fraction(float(radius)):
        return Fraction(0)
    return simplex_threshold_oracle([float(v) for v in a], radius)


def box_bregman_oracle(x_star, weights, lower, upper):
    """The Bregman projection of the pair (S_w(x_star), x_star) onto the box
    lower <= z <= upper, which holds 0, for f = sum_j w_j |z_j| + z_j^2 / 2, as
    exact (z, z_star) lists of Fractions; a bound of None is infinite.

    z minimizes f(z) - <x_star, z> over the box, coordinate by coordinate:
    the clipped shrinkage. The subgradient z_star is x_star where the
    shrinkage is inside the box, bound +- w at a nonzero bound, and 0 where
    z sits on a zero bound that x_star lies beyond."""
    z, z_star = [], []
    for v, w, lo, hi in zip(_fractions(x_star), _fractions(weights), lower, upper):
        lo = None if lo is None else Fraction(float(lo))
        hi = None if hi is None else Fraction(float(hi))
        s = _shrink(v, w)
        zj = s if hi is None or s <= hi else hi
        zj = zj if lo is None or zj >= lo else lo
        if zj == 0 and ((lo == 0 and v < 0) or (hi == 0 and v > 0)):
            zsj = Fraction(0)
        elif zj != s:
            zsj = zj + w if zj == hi else zj - w
        else:
            zsj = v
        z.append(zj)
        z_star.append(zsj)
    return z, z_star


def nonneg_cone_as_box(n, indices):
    """The bounds (lower, upper) of {z in R^n : z_j >= 0 for j in indices} as
    a box for box_bregman_oracle and bregman_pair_is_optimal: [0, inf) on
    the cone's coordinates, no bound elsewhere (None is infinite). The cone's
    Bregman closed form is the box's on these bounds."""
    inside = np.zeros(n, dtype=bool)
    inside[indices] = True
    return [0.0 if i else None for i in inside], [None] * n


def bregman_pair_is_optimal(x_star, weights, lower, upper, z, z_star):
    """Whether (z, z_star) is the Bregman projection of (S_w(x_star), x_star)
    onto the box, checked exactly: the pair is consistent (z = S_w(z_star),
    i.e. z_star is a subgradient of f at z), z lies in the box, and
    x_star - z_star lies in the box's normal cone at z (>= 0 at an upper
    bound, <= 0 at a lower one, 0 strictly inside). A bound of None is
    infinite."""
    rows = zip(_fractions(x_star), _fractions(weights), lower, upper)
    for (v, w, lo, hi), zj, zsj in zip(rows, _fractions(z), _fractions(z_star)):
        lo = None if lo is None else Fraction(float(lo))
        hi = None if hi is None else Fraction(float(hi))
        if _shrink(zsj, w) != zj:
            return False
        if (lo is not None and zj < lo) or (hi is not None and zj > hi):
            return False
        gap = v - zsj
        if (gap > 0 and zj != hi) or (gap < 0 and zj != lo):
            return False
    return True
