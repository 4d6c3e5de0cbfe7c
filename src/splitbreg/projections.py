"""Orthogonal and Bregman projections onto the solver's constraint sets.

The orthogonal projectors are what the separating-halfspace construction needs
for "difficult" constraints; the Bregman projectors update a primal-dual pair
for the "simple" ones. Every Bregman projector returns a new consistent pair
(primal point plus admissible subgradient).
"""

import bisect

import numpy as np
from scipy.optimize import brentq

from .linops import as_operator
from .objectives import PrimalDualPair, pair_from_dual, soft_shrink


class FeasiblePoint(ValueError):
    """A separating halfspace was requested at a point that is already feasible.

    ``w_norm`` is the norm of the residual that was found within tolerance.
    """

    def __init__(self, message, w_norm):
        super().__init__(message)
        self.w_norm = w_norm


class ZeroNormal(ValueError):
    """Hyperplane or halfspace with an all-zero normal vector."""


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
        if radius < 0:
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
        if np.any(self.lower > self.upper):
            raise ValueError("lower bound exceeds upper bound")

    def project(self, y):
        return np.clip(np.asarray(y, dtype=float), self.lower, self.upper)


class NonnegCone(RangeSet):
    """{y : y_j >= 0 for j in indices}; all coordinates when indices is None."""

    def __init__(self, indices=None):
        self.indices = None if indices is None else np.asarray(indices, dtype=int)

    def project(self, y):
        y = np.array(y, dtype=float, copy=True)
        if self.indices is None:
            np.maximum(y, 0.0, out=y)
        else:
            y[self.indices] = np.maximum(y[self.indices], 0.0)
        return y


class Hyperplane(RangeSet):
    """{y : <a, y> = beta}."""

    def __init__(self, normal, offset):
        self.normal = np.atleast_1d(np.asarray(normal, dtype=float))
        self.norm_sq = float(np.dot(self.normal, self.normal))
        if self.norm_sq == 0.0:
            raise ZeroNormal("hyperplane normal is zero")
        self.offset = float(offset)

    def project(self, y):
        y = np.asarray(y, dtype=float)
        return y - ((np.dot(self.normal, y) - self.offset) / self.norm_sq) * self.normal

    def distance(self, y):
        y = np.asarray(y, dtype=float)
        return abs(np.dot(self.normal, y) - self.offset) / np.sqrt(self.norm_sq)


class Halfspace(RangeSet):
    """{y : <a, y> <= beta}."""

    def __init__(self, normal, offset):
        self.normal = np.atleast_1d(np.asarray(normal, dtype=float))
        self.norm_sq = float(np.dot(self.normal, self.normal))
        if self.norm_sq == 0.0:
            raise ZeroNormal("halfspace normal is zero")
        self.offset = float(offset)

    def project(self, y):
        y = np.asarray(y, dtype=float)
        excess = np.dot(self.normal, y) - self.offset
        if excess <= 0.0:
            return y.copy()
        return y - (excess / self.norm_sq) * self.normal

    def distance(self, y):
        y = np.asarray(y, dtype=float)
        return max(0.0, np.dot(self.normal, y) - self.offset) / np.sqrt(self.norm_sq)


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
    if total < 0:
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
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    y = np.asarray(y, dtype=float)
    a = np.abs(y)
    if a.sum() <= radius:
        return y.copy()
    return np.sign(y) * project_simplex(a, radius)


# ---------------------------------------------------------------------------
# separating halfspaces for difficult constraints
# ---------------------------------------------------------------------------


class SeparatingHalfspace:
    """A halfspace H = {x : <normal, x> <= offset} separating a point from a
    constraint preimage, with the norm of the range-space residual that
    induced it."""

    __slots__ = ("normal", "offset", "w_norm")

    def __init__(self, normal, offset, w_norm):
        self.normal = normal
        self.offset = float(offset)
        self.w_norm = float(w_norm)


def separating_halfspace(op, target, x, tol=1e-12):
    """Halfspace separating x from {z : A z in target} when x is infeasible.

    The normal is A^T w with w = A x - P_target(A x) and the offset is
    <A^T w, x> - ||w||^2; every feasible point lies inside, x lies strictly
    outside. Raises FeasiblePoint, carrying ||w||, when
    ||w|| <= tol * (1 + ||A x||).
    """
    x = np.asarray(x, dtype=float)
    y = op.apply(x)
    w = y - target.project(y)
    w_norm = float(np.linalg.norm(w))
    if w_norm <= tol * (1.0 + float(np.linalg.norm(y))):
        raise FeasiblePoint("point already satisfies the constraint to tolerance", w_norm)
    normal = op.apply_adjoint(w)
    offset = float(np.dot(normal, x)) - w_norm * w_norm
    return SeparatingHalfspace(normal, offset, w_norm)


# ---------------------------------------------------------------------------
# exact linesearch for hyperplane / halfspace Bregman projections
# ---------------------------------------------------------------------------


def _shrink_linesearch(x_star, a, beta, weights, nonneg, gp0=None):
    """Exact minimizer of g(t) = f*(x_star - t a) + t beta when f is a sum of
    coordinatewise ``w_j |x_j| + x_j^2 / 2`` terms.

    g'(t) = beta - <a, S_w(x_star - t a)> is piecewise linear and
    nondecreasing, with kinks where some x*_j - t a_j crosses +-w_j. After
    mirroring to g(-t) when g'(0) > 0, the root lies at t > 0: sort the
    positive kinks once, bisect them for the first one where g' >= 0 (g' built
    from scratch on the piece to its left), and return that piece's zero
    clamped to the piece, i.e. the left endpoint on flat stretches. All g'
    values are relative to g'(0), so callers that know g'(0) exactly (the
    solver knows it equals -||w||^2) keep full precision even when beta and
    the intercepts cancel almost completely. ``gp0`` overrides the computed
    g'(0).
    """
    supp = np.nonzero(a)[0]
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

    def coeffs(pos, neg):
        # exact slope of g' on the active set, and the intercept change
        # against t = 0; unchanged coordinates contribute exact zeros, so
        # no large dot products cancel
        r = np.where(pos, u - wv, np.where(neg, u + wv, 0.0))
        act = av[pos | neg]
        return float(np.dot(act, act)), float(np.dot(av, s0 - r))

    # where u_j - t a_j crosses +w_j or -w_j; coordinates with w_j = 0 keep
    # their slope contribution for all t and have no kinks
    kw = wv > 0.0
    kinks = np.concatenate(((u[kw] - wv[kw]) / av[kw], (u[kw] + wv[kw]) / av[kw]))
    ends = np.concatenate(([0.0], np.sort(kinks[kinks > 0.0])))

    def piece(i):
        # slope, intercept change and g'(ends[i + 1]) on (ends[i], ends[i + 1]);
        # a coordinate with w_j = 0 stays active where it crosses 0
        shifted = u - (0.5 * (ends[i] + ends[i + 1])) * av
        pos = shifted > wv
        s, delta = coeffs(pos, (shifted < -wv) | (~kw & ~pos))
        return s, delta, gp0 + delta + s * ends[i + 1]

    i = bisect.bisect_left(range(ends.size - 1), True, key=lambda i: piece(i)[2] >= 0.0)
    if i == ends.size - 1:
        # past the last kink every supported coordinate is active: positively
        # when its value grows with t (a_j < 0), negatively otherwise
        s, delta = coeffs(av < 0, av > 0)
        return sign * max(-(gp0 + delta) / s, ends[-1])
    s, delta, gp = piece(i)
    if gp == 0.0:
        return sign * ends[i + 1]
    if s == 0.0:
        return sign * ends[i]
    return sign * min(max(-(gp0 + delta) / s, ends[i]), ends[i + 1])


def _finite_weights(obj, idx):
    """The objective's shrink weights when they are finite on ``idx``, else None."""
    weights = obj.shrink_weights()
    if weights is not None and np.all(np.isfinite(weights[idx])):
        return weights
    return None


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
    weights = _finite_weights(obj, a != 0.0)
    if weights is not None:
        return _shrink_linesearch(x_star, a, beta, weights, nonneg, gp0=gp0)

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


def bregman_project_hyperplane(obj, pair, normal, offset):
    """Bregman projection of a pair onto {x : <a, x> = beta} (exact linesearch,
    step over all of R). Returns the updated consistent pair."""
    normal = np.asarray(normal, dtype=float)
    if not np.any(normal):
        raise ZeroNormal("hyperplane normal is zero")
    t = exact_linesearch(obj, pair.x_star, normal, float(offset), nonneg=False)
    if t == 0.0:
        return pair
    return _shifted_pair(obj, pair, t, normal)


def bregman_project_halfspace(obj, pair, normal, offset):
    """Bregman projection onto {x : <a, x> <= beta}; identity on interior points,
    otherwise equal to the hyperplane projection (the step stays positive)."""
    normal = np.asarray(normal, dtype=float)
    if not np.any(normal):
        raise ZeroNormal("halfspace normal is zero")
    if float(np.dot(normal, pair.x)) <= float(offset):
        return pair
    t = exact_linesearch(obj, pair.x_star, normal, float(offset), nonneg=True)
    if t == 0.0:
        return pair
    return _shifted_pair(obj, pair, t, normal)


def _shifted_pair(obj, pair, t, direction):
    """Pair at the dual point x_star - t * direction, touching only the primal
    coordinates that can change (coordinate-separable coordinates off the
    direction's support keep their value)."""
    z_star = pair.x_star - t * direction
    supp = np.nonzero(direction)[0]
    weights = _finite_weights(obj, supp)
    if weights is None:
        return pair_from_dual(obj, z_star)
    z = pair.x.copy()
    z[supp] = soft_shrink(z_star[supp], weights[supp])
    return PrimalDualPair(z, z_star)


def bregman_project_nonneg(obj, pair, indices=None):
    """Bregman projection onto {x : x_j >= 0 on indices}; see bregman_project."""
    return bregman_projector(obj, NonnegCone(indices))(pair)


def bregman_project_box(obj, pair, lower, upper):
    """Bregman projection onto {x : lower <= x <= upper}; see bregman_project."""
    return bregman_projector(obj, Box(lower, upper))(pair)


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
    containing the origin.

    The primal is the clipped shrinkage; the admissible subgradient keeps the
    dual value inside the box, shifts by +-w at active bounds, and is zeroed on
    coordinates pinned to a zero bound from outside.
    """
    lower = np.broadcast_to(np.asarray(lower, dtype=float), pair.x_star.shape)
    upper = np.broadcast_to(np.asarray(upper, dtype=float), pair.x_star.shape)
    if np.any(lower > 0.0) or np.any(upper < 0.0):
        raise BoxWithoutZero("box must contain the origin componentwise")
    s = soft_shrink(pair.x_star, weights)
    z = np.clip(s, lower, upper)
    z_star = np.where(s > upper, upper + weights, np.where(s < lower, lower - weights, pair.x_star))
    pinned = (z == 0.0) & (
        ((lower == 0.0) & (pair.x_star < 0.0)) | ((upper == 0.0) & (pair.x_star > 0.0))
    )
    z_star = np.where(pinned, 0.0, z_star)
    return PrimalDualPair(z, z_star)


def bregman_project_affine(obj, pair, op, b, grad_tol=1e-10, max_iter=10000):
    """Bregman projection onto {x : A x = b} by gradient descent on the dual
    w -> f*(x_star - A^T w) + <w, b> with the 1/Lipschitz step alpha / ||A||^2.

    Raises NoConvergence when the gradient norm has not reached ``grad_tol``
    within ``max_iter`` sweeps.
    """
    b = np.asarray(b, dtype=float)
    step = obj.alpha / op.norm_estimate() ** 2
    w = np.zeros(op.shape[0])
    z_star = pair.x_star
    for _ in range(max_iter):
        z_star = pair.x_star - op.apply_adjoint(w)
        grad = b - op.apply(obj.grad_conjugate(z_star))
        if np.linalg.norm(grad) <= grad_tol:
            return pair_from_dual(obj, z_star)
        w = w - step * grad
    raise NoConvergence("affine Bregman projection hit its iteration cap")


def bregman_projector(obj, target):
    """The Bregman projector onto ``target`` under ``obj``, as a function of the
    pair: the one dispatch table behind bregman_project (see there for the
    supported pairings). The objective's structure is checked here, once per
    call; raises TypeError for an unsupported pairing."""
    if isinstance(target, Hyperplane):
        return lambda pair: bregman_project_hyperplane(obj, pair, target.normal, target.offset)
    if isinstance(target, Halfspace):
        return lambda pair: bregman_project_halfspace(obj, pair, target.normal, target.offset)
    if isinstance(target, AffineSubspace):
        return lambda pair: bregman_project_affine(obj, pair, target.op, target.b)
    if isinstance(target, NonnegCone):
        idx = slice(None) if target.indices is None else target.indices
        weights = _finite_weights(obj, idx)
        if weights is not None:
            return lambda pair: _project_nonneg(pair, weights, idx)
    elif isinstance(target, Box):
        weights = _finite_weights(obj, slice(None))
        if weights is not None:
            return lambda pair: _project_box(pair, weights, target.lower, target.upper)
    else:
        weights = obj.shrink_weights()
        if weights is not None and not np.any(weights):

            def project_orthogonal(pair):
                z = target.project(pair.x)
                return PrimalDualPair(z, z.copy())

            return project_orthogonal
    raise TypeError(
        f"no Bregman projector for {type(target).__name__} under {type(obj).__name__}"
    )


def bregman_project(obj, pair, target):
    """Bregman projection of a pair onto a simple constraint set.

    Supported pairings of set and objective structure, where the structure is
    the objective's per-coordinate shrink weights w (f is a sum of
    ``w_j |x_j| + x_j^2 / 2`` terms where w_j is finite):

    ================  ===================================  =========================
    set               objective                            method
    ================  ===================================  =========================
    Hyperplane        any                                  exact linesearch
    Halfspace         any                                  identity inside, else
                                                           exact linesearch (t >= 0)
    AffineSubspace    any                                  dual gradient descent
    NonnegCone        w finite on the cone's indices       closed form
    Box with 0 in it  w finite everywhere                  closed form
    any other set     w all zero (purely quadratic f)      orthogonal projection
    ================  ===================================  =========================

    The last row holds because for a purely quadratic objective the Bregman
    projection coincides with the orthogonal one. Every other pairing raises
    TypeError; a box without the origin raises BoxWithoutZero.
    """
    return bregman_projector(obj, target)(pair)
