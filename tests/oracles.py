"""Independent reference computations used by the tests.

Everything here is brute force on purpose: subset enumeration for the KKT
systems of the small projection problems, and grid refinement for convex
one-dimensional minimization. None of it shares code paths with the package.
"""

import itertools

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
