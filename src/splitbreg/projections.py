"""Orthogonal and Bregman projections onto the solver's constraint sets.

The orthogonal projectors are what the separating-halfspace construction needs
for "difficult" constraints; the Bregman projectors update a primal-dual pair
for the "simple" ones. Every Bregman projector returns a new consistent pair
(primal point plus admissible subgradient). Sets are immutable after
construction: what they precompute there (a normal's length and support)
stays valid for their lifetime.
"""

import bisect
import math

import numpy as np
from scipy.optimize import brentq

from .linops import as_operator
from .objectives import PrimalDualPair, pair_from_dual, soft_shrink


class FeasiblePoint(ValueError):
    """A separating halfspace was requested at a point that is feasible: its
    range-space residual is exactly zero."""


class ZeroNormal(ValueError):
    """Hyperplane or halfspace with an all-zero normal vector."""


class NonFiniteData(ValueError):
    """A constraint's data (a normal, an offset, a residual) is NaN or
    infinite, so no step taken from it can be trusted."""


class ZeroDirection(ValueError):
    """A linesearch direction is identically zero."""


class BoxWithoutZero(ValueError):
    """The Bregman box projection needs a box containing the origin."""


class NoConvergence(RuntimeError):
    """An iterative inner solve hit its cap before reaching its tolerance."""


# ---------------------------------------------------------------------------
# target sets and orthogonal projections
# ---------------------------------------------------------------------------


class RangeSet:
    """A closed convex set with an orthogonal projector."""

    def project(self, y):
        raise NotImplementedError

    def distance(self, y):
        """Euclidean distance from y to the set."""
        y = np.asarray(y, dtype=float)
        return float(np.linalg.norm(y - self.project(y)))

    def contains(self, y, tol=1e-12):
        return self.distance(y) <= tol


class Point(RangeSet):
    """The singleton {b}."""

    def __init__(self, b):
        self.b = np.atleast_1d(np.asarray(b, dtype=float))

    def project(self, y):
        return self.b.copy()

    def distance(self, y):
        return float(np.linalg.norm(np.asarray(y, dtype=float) - self.b))


class NormBall(RangeSet):
    """{y : ||y - center||_p <= radius} for p in {1, 2, inf}."""

    def __init__(self, center, radius, p=2):
        if not radius >= 0:
            raise ValueError("radius must be nonnegative")
        if p not in (1, 2, np.inf):
            raise ValueError("p must be 1, 2 or inf")
        self.center = np.atleast_1d(np.asarray(center, dtype=float))
        self.radius = float(radius)
        self.p = p

    def project(self, y):
        v = np.asarray(y, dtype=float) - self.center
        if self.p == 2:
            nv = np.linalg.norm(v)
            if nv > self.radius:
                v = v * (self.radius / nv)
        elif self.p == np.inf:
            v = np.clip(v, -self.radius, self.radius)
        else:
            v = project_l1_ball(v, self.radius)
        return self.center + v


class Box(RangeSet):
    """{y : lower <= y <= upper} componentwise."""

    def __init__(self, lower, upper):
        self.lower = np.atleast_1d(np.asarray(lower, dtype=float))
        self.upper = np.atleast_1d(np.asarray(upper, dtype=float))
        if not np.all(self.lower <= self.upper):
            raise ValueError("lower bound exceeds upper bound")

    def project(self, y):
        return np.clip(np.asarray(y, dtype=float), self.lower, self.upper)


class NonnegCone(RangeSet):
    """{y : y_j >= 0 for j in indices}; all coordinates when indices is None.

    ``self.indices`` is what indexes the cone's coordinates: an int array, or
    ``slice(None)`` for all of them. Negative indices are rejected: they would
    count from the end of whatever vector the cone meets."""

    def __init__(self, indices=None):
        self.indices = slice(None) if indices is None else np.asarray(indices, dtype=int)
        if indices is not None and not np.all(self.indices >= 0):
            raise ValueError("cone indices must be nonnegative")

    def project(self, y):
        y = np.array(y, dtype=float, copy=True)
        y[self.indices] = np.maximum(y[self.indices], 0.0)
        return y


class _LinearSet(RangeSet):
    """{y : <a, y> = beta}, or {y : <a, y> <= beta} when ``one_sided``: the one
    body of Hyperplane and Halfspace. The normal's length ``norm`` and the
    read-only boolean mask ``support`` of its nonzeros are built here, once."""

    one_sided = False

    def __init__(self, normal, offset):
        self.normal = np.atleast_1d(np.asarray(normal, dtype=float))
        self.norm_sq = float(np.dot(self.normal, self.normal))
        if self.norm_sq == 0.0:
            raise ZeroNormal(f"{type(self).__name__.lower()} normal is zero")
        self.offset = float(offset)
        if not (math.isfinite(self.norm_sq) and math.isfinite(self.offset)):
            raise NonFiniteData(f"{type(self).__name__.lower()} normal or offset is not finite")
        self.norm = math.sqrt(self.norm_sq)
        self.support = self.normal != 0.0
        self.support.flags.writeable = False

    def project(self, y):
        y = np.asarray(y, dtype=float)
        excess = np.dot(self.normal, y) - self.offset
        if self.one_sided and excess <= 0.0:
            return y.copy()
        return y - (excess / self.norm_sq) * self.normal

    def distance(self, y):
        excess = np.dot(self.normal, np.asarray(y, dtype=float)) - self.offset
        return (max(0.0, excess) if self.one_sided else abs(excess)) / self.norm


class Hyperplane(_LinearSet):
    """{y : <a, y> = beta}."""


class Halfspace(_LinearSet):
    """{y : <a, y> <= beta}."""

    one_sided = True


class AffineSubspace(RangeSet):
    """{y : A y = b} for a full-row-rank A (dense at the scales used here)."""

    def __init__(self, op, b):
        self.op = as_operator(op)
        self.b = np.atleast_1d(np.asarray(b, dtype=float))
        if self.b.shape[0] != self.op.shape[0]:
            raise ValueError("right-hand side does not match the operator")

    def project(self, y):
        y = np.asarray(y, dtype=float)
        a = self.op.to_dense()
        gram = a @ a.T
        w = np.linalg.solve(gram, a @ y - self.b)
        return y - a.T @ w


# ---------------------------------------------------------------------------
# simplex and l1-ball projections
# ---------------------------------------------------------------------------


def project_simplex(y, total=1.0):
    """Euclidean projection onto {z : z >= 0, sum(z) = total}, O(n log n).

    Sort-and-threshold: the largest k with u_k - (cumsum_k - total)/k > 0 fixes
    the active support, and the common shift follows from the sum constraint.
    """
    if not total >= 0:
        raise ValueError("total must be nonnegative")
    y = np.asarray(y, dtype=float)
    if total == 0.0:
        return np.zeros_like(y)
    u = np.sort(y)[::-1]
    css = np.cumsum(u) - total
    ks = np.arange(1, y.size + 1)
    k = ks[u - css / ks > 0][-1]
    theta = css[k - 1] / k
    return np.maximum(y - theta, 0.0)


def project_l1_ball(y, radius):
    """Euclidean projection onto {z : ||z||_1 <= radius}.

    Interior points are returned unchanged; otherwise project |y| onto the
    simplex of size ``radius`` and restore the signs.
    """
    if not radius >= 0:
        raise ValueError("radius must be nonnegative")
    y = np.asarray(y, dtype=float)
    a = np.abs(y)
    if a.sum() <= radius:
        return y.copy()
    return np.sign(y) * project_simplex(a, radius)


# ---------------------------------------------------------------------------
# separating halfspaces for difficult constraints
# ---------------------------------------------------------------------------


def separating_halfspace(op, target, x):
    """Halfspace {z : <normal, z> <= offset} separating x from
    {z : A z in target} when x is infeasible; returns (normal, offset, w_norm).

    The normal is A^T w with w = A x - P_target(A x), the offset is
    <A^T w, x> - ||w||^2 and w_norm = ||w||; every feasible point lies inside,
    x lies strictly outside. Raises FeasiblePoint only when w is exactly zero:
    any nonzero residual, however small, gets its halfspace, so how close is
    close enough is left to the caller's tolerance alone. Raises NonFiniteData
    when ||w|| is NaN or infinite (non-finite A, target or x).
    """
    x = np.asarray(x, dtype=float)
    y = op.apply(x)
    w = y - target.project(y)
    w_norm = float(np.linalg.norm(w))
    if w_norm == 0.0:
        raise FeasiblePoint("point satisfies the constraint exactly")
    if not math.isfinite(w_norm):
        raise NonFiniteData(f"constraint residual norm is {w_norm}")
    normal = op.apply_adjoint(w)
    offset = float(np.dot(normal, x)) - w_norm * w_norm
    return normal, offset, w_norm


# ---------------------------------------------------------------------------
# exact linesearch for hyperplane / halfspace Bregman projections
# ---------------------------------------------------------------------------


def _shrink_linesearch(x_star, a, beta, weights, supp, nonneg, gp0=None):
    """Exact minimizer of g(t) = f*(x_star - t a) + t beta when f is a sum of
    coordinatewise ``w_j |x_j| + x_j^2 / 2`` terms.

    g'(t) = beta - <a, S_w(x_star - t a)> is piecewise linear and
    nondecreasing, with kinks where some x*_j - t a_j crosses +-w_j. After
    mirroring to g(-t) when g'(0) > 0, the root lies at t > 0: sort the
    positive kinks once, bisect them for the first one where g' >= 0 (g' built
    from scratch on the piece to its left), and return that piece's zero
    clamped to the piece, i.e. the left endpoint on flat stretches; past the
    last kink the piece runs to infinity. All g' values are relative to g'(0),
    so callers that know g'(0) exactly (the solver knows it equals -||w||^2)
    keep full precision even when beta and the intercepts cancel almost
    completely. ``supp`` is the boolean mask of a's nonzeros; ``gp0``
    overrides the computed g'(0).
    """
    u = x_star[supp]
    wv = weights[supp]
    s0 = soft_shrink(u, wv)
    if gp0 is None:
        gp0 = beta - float(np.dot(a[supp], s0))
    if gp0 == 0.0 or (nonneg and gp0 >= 0.0):
        return 0.0
    sign = 1.0 if gp0 < 0.0 else -1.0
    av = sign * a[supp]
    gp0 = sign * float(gp0)

    # where u_j - t a_j crosses +w_j or -w_j; coordinates with w_j = 0 keep
    # their slope contribution for all t and have no kinks
    kw = wv > 0.0
    kinks = np.concatenate(((u[kw] - wv[kw]) / av[kw], (u[kw] + wv[kw]) / av[kw]))
    ends = np.concatenate(([0.0], np.sort(kinks[kinks > 0.0]), [np.inf]))
    free = ~kw

    def piece(i):
        # slope, intercept change and g'(ends[i + 1]) on (ends[i], ends[i + 1]);
        # a coordinate with w_j = 0 stays active where it crosses 0, and on the
        # last piece (midpoint inf) every coordinate is active. Unchanged
        # coordinates contribute exact zeros, so no large dot products cancel
        shifted = u - (0.5 * (ends[i] + ends[i + 1])) * av
        pos = shifted > wv
        act = pos | (shifted < -wv) | free
        r = np.where(pos, u - wv, np.where(act, u + wv, 0.0))
        a_act = av[act]
        s, delta = float(np.dot(a_act, a_act)), float(np.dot(av, s0 - r))
        return s, delta, gp0 + delta + s * ends[i + 1]

    # the last piece always has g' >= 0 at its infinite end: bisect the others
    i = bisect.bisect_left(range(ends.size - 2), True, key=lambda i: piece(i)[2] >= 0.0)
    s, delta, gp = piece(i)
    if gp == 0.0:
        return sign * ends[i + 1]
    if s == 0.0:
        return sign * ends[i]
    return sign * min(max(-(gp0 + delta) / s, ends[i]), ends[i + 1])


def _finite_weights(weights, idx):
    """Whether the shrink weights are finite on ``idx``."""
    return bool(np.all(np.isfinite(weights[idx])))


def exact_linesearch(obj, x_star, a, beta, nonneg=False, gp0=None):
    """Exact minimizer of g(t) = f*(x_star - t a) + t beta.

    Uses the piecewise-linear kink walk whenever the objective exposes finite
    per-coordinate shrink weights on the support of ``a``, and a bracketed root
    find on the monotone derivative otherwise. With ``nonneg`` the minimization
    is over t >= 0 (halfspace targets); otherwise over all of R. ``gp0``
    supplies an exactly-known g'(0) (see _shrink_linesearch).
    """
    x_star = np.asarray(x_star, dtype=float)
    a = np.asarray(a, dtype=float)
    a_sq = float(np.dot(a, a))
    if a_sq == 0.0:
        raise ZeroDirection("linesearch direction is zero")
    weights = obj.shrink_weights()
    supp = a != 0.0
    if _finite_weights(weights, supp):
        return _shrink_linesearch(x_star, a, beta, weights, supp, nonneg, gp0=gp0)

    def gp(t):
        return beta - float(np.dot(a, obj.grad_conjugate(x_star - t * a)))

    g0 = gp(0.0) if gp0 is None else float(gp0)
    if g0 == 0.0 or (nonneg and g0 >= 0.0):
        return 0.0
    # |g'| grows at most like ||a||^2 / alpha, so the root is at least this far out
    first = obj.alpha * abs(g0) / a_sq
    if g0 < 0.0:
        lo, hi = 0.0, first
        for _ in range(200):
            if gp(hi) >= 0.0:
                break
            lo, hi = hi, 2.0 * hi
        else:
            raise NoConvergence("linesearch bracket expansion failed")
    else:
        lo, hi = -first, 0.0
        for _ in range(200):
            if gp(lo) <= 0.0:
                break
            lo, hi = 2.0 * lo, lo
        else:
            raise NoConvergence("linesearch bracket expansion failed")
    return float(brentq(gp, lo, hi, maxiter=200))


# ---------------------------------------------------------------------------
# Bregman projections
# ---------------------------------------------------------------------------

# stopping rule of the affine projector's dual gradient descent
AFFINE_GRAD_TOL = 1e-10
AFFINE_MAX_ITER = 10000


def _project_halfspace(obj, pair, target, weights):
    """Exact-linesearch projection onto a Hyperplane, or onto a one-sided
    Halfspace (identity on interior points, otherwise a step t >= 0).

    Where ``weights`` are finite on the normal's support only those primal
    coordinates are recomputed; the others keep their value."""
    a, beta, supp = target.normal, target.offset, target.support
    if target.one_sided and float(np.dot(a, pair.x)) <= beta:
        return pair
    t = exact_linesearch(obj, pair.x_star, a, beta, nonneg=target.one_sided)
    if t == 0.0:
        return pair
    z_star = pair.x_star - t * a
    if not _finite_weights(weights, supp):
        return pair_from_dual(obj, z_star)
    z = pair.x.copy()
    z[supp] = soft_shrink(z_star[supp], weights[supp])
    return PrimalDualPair(z, z_star)


def _project_nonneg(pair, weights, idx):
    """Closed form for objectives that are coordinatewise "w_j |x_j| + x_j^2/2"
    on idx: the admissible subgradient clamps the dual to the nonnegative
    orthant there and the primal is its shrinkage."""
    z_star = pair.x_star.copy()
    z_star[idx] = np.maximum(z_star[idx], 0.0)
    z = pair.x.copy()
    z[idx] = soft_shrink(z_star[idx], weights[idx])
    return PrimalDualPair(z, z_star)


def _project_box(pair, weights, lower, upper):
    """Closed form for coordinatewise l1 + squared objectives and a box
    containing the origin (bregman_projector checks that once).

    The primal is the clipped shrinkage; the admissible subgradient keeps the
    dual value inside the box, shifts by +-w at active bounds, and is zeroed on
    coordinates pinned to a zero bound from outside.
    """
    lower = np.broadcast_to(lower, pair.x_star.shape)
    upper = np.broadcast_to(upper, pair.x_star.shape)
    s = soft_shrink(pair.x_star, weights)
    z = np.clip(s, lower, upper)
    z_star = np.where(s > upper, upper + weights, np.where(s < lower, lower - weights, pair.x_star))
    pinned = (z == 0.0) & (
        ((lower == 0.0) & (pair.x_star < 0.0)) | ((upper == 0.0) & (pair.x_star > 0.0))
    )
    z_star = np.where(pinned, 0.0, z_star)
    return PrimalDualPair(z, z_star)


def _project_affine(obj, pair, target):
    """Gradient descent on the dual w -> f*(x_star - A^T w) + <w, b> with the
    1/Lipschitz step alpha / ||A||^2. Raises NoConvergence when the gradient
    norm has not reached AFFINE_GRAD_TOL within AFFINE_MAX_ITER sweeps."""
    op = target.op
    step = obj.alpha / op.norm_estimate() ** 2
    w = np.zeros(op.shape[0])
    for _ in range(AFFINE_MAX_ITER):
        z_star = pair.x_star - op.apply_adjoint(w)
        grad = target.b - op.apply(obj.grad_conjugate(z_star))
        if np.linalg.norm(grad) <= AFFINE_GRAD_TOL:
            return pair_from_dual(obj, z_star)
        w = w - step * grad
    raise NoConvergence("affine Bregman projection hit its iteration cap")


def _project_orthogonal(pair, target):
    z = target.project(pair.x)
    return PrimalDualPair(z, z.copy())


def bregman_projector(obj, target):
    """The Bregman projector onto ``target`` under ``obj``, as a function of the
    pair: the one dispatch table behind bregman_project (see there for the
    supported pairings, tried in order). The objective's shrink weights are
    read here, once per call; raises TypeError for an unsupported pairing and
    BoxWithoutZero for a box the closed form cannot take."""
    if isinstance(target, AffineSubspace):
        return lambda pair: _project_affine(obj, pair, target)
    weights = obj.shrink_weights()
    if not np.any(weights):
        return lambda pair: _project_orthogonal(pair, target)
    if isinstance(target, _LinearSet):
        return lambda pair: _project_halfspace(obj, pair, target, weights)
    if isinstance(target, NonnegCone):
        if _finite_weights(weights, target.indices):
            return lambda pair: _project_nonneg(pair, weights, target.indices)
    elif isinstance(target, Box) and _finite_weights(weights, slice(None)):
        if np.any(target.lower > 0.0) or np.any(target.upper < 0.0):
            raise BoxWithoutZero("box must contain the origin componentwise")
        return lambda pair: _project_box(pair, weights, target.lower, target.upper)
    raise TypeError(
        f"no Bregman projector for {type(target).__name__} under {type(obj).__name__}"
    )


def bregman_project(obj, pair, target):
    """Bregman projection of a pair onto a simple constraint set; returns the
    updated consistent pair.

    Supported pairings of set and objective structure, tried in this order,
    where the structure is the objective's per-coordinate shrink weights w (f
    is a sum of ``w_j |x_j| + x_j^2 / 2`` terms where w_j is finite):

    ================  ===================================  =========================
    set               objective                            method
    ================  ===================================  =========================
    AffineSubspace    any                                  dual gradient descent
    any other set     w all zero (f = ||x||^2 / 2)         orthogonal projection
    Hyperplane        any                                  exact linesearch
    Halfspace         any                                  identity inside, else
                                                           exact linesearch (t >= 0)
    NonnegCone        w finite on the cone's indices       closed form
    Box with 0 in it  w finite everywhere                  closed form
    ================  ===================================  =========================

    For a purely quadratic objective the Bregman projection is the orthogonal
    one, which is how Kaczmarz and Landweber arise as special cases.
    AffineSubspace keeps the descent even then: its orthogonal projector needs
    A of full row rank, the descent does not. Every other pairing raises
    TypeError; a box without the origin raises BoxWithoutZero.
    """
    return bregman_projector(obj, target)(pair)
