"""Orthogonal and Bregman projections onto the solver's constraint sets.

The orthogonal projectors are what the separating-halfspace construction needs
for "difficult" constraints; the Bregman projectors update a primal-dual pair
for the "simple" ones. Every Bregman projector returns a new consistent pair
(primal point plus admissible subgradient). A set's data is fixed at
construction: what it precomputes there (a normal's length and support) stays
valid for its lifetime. One attribute is written later: ``bregman_projector``
keeps the projector it last built in the set's ``_bregman``, keyed by the
objective's identity. It stays while perfbench's tracer hooks
``bregman_project(obj, pair, target)`` by name: that call carries no
projector, so the set has to keep it.
"""

import bisect
import math

import numpy as np

from ._checks import _nonnegative
from .objectives import PrimalDualPair, pair_from_dual, soft_shrink


class FeasiblePoint(ValueError):
    """A separating halfspace was requested at a point that is feasible: its
    range-space residual is exactly zero."""


class ZeroNormal(ValueError):
    """Hyperplane or halfspace with an all-zero normal vector."""


class NonFiniteData(ValueError):
    """A constraint's data (a normal, an offset, a residual) or a linesearch's
    (x_star, the direction, beta) is NaN or infinite, so no step taken from it
    can be trusted."""


class ZeroDirection(ValueError):
    """A linesearch direction is identically zero."""


class BoxWithoutZero(ValueError):
    """The Bregman box projection needs a box containing the origin."""


class NoConvergence(RuntimeError):
    """The root-finding linesearch could not bracket its root within its cap."""


def _vector(key, value):
    """``value`` as a one-dimensional float array (a scalar has length 1);
    raises a ValueError naming ``key`` when it has more dimensions."""
    v = np.atleast_1d(np.asarray(value, dtype=float))
    if v.ndim != 1:
        raise ValueError(f"{key} must be one-dimensional, not of shape {v.shape}")
    return v


def _nonzeros(v):
    """What indexes the nonzeros of v: ``slice(None)`` when v has no zeros and
    ``slice(a, b)`` when they are the one run v[a:b], so that gathers through
    it are views, else a read-only boolean mask."""
    mask = v != 0.0
    nz = np.flatnonzero(mask)
    if nz.size == mask.size:
        return slice(None)
    if nz.size and nz[-1] - nz[0] + 1 == nz.size:
        return slice(int(nz[0]), int(nz[-1]) + 1)
    mask.flags.writeable = False
    return mask


# ---------------------------------------------------------------------------
# target sets and orthogonal projections
# ---------------------------------------------------------------------------


class RangeSet:
    """A closed convex set with an orthogonal projector."""

    # (objective, Bregman projector) last built by bregman_projector
    _bregman = (None, None)

    def __getstate__(self):
        # the kept projector is a closure, which cannot be pickled; a copy
        # builds its own
        return {k: v for k, v in self.__dict__.items() if k != "_bregman"}

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
        self.b = _vector("b", b)

    def project(self, y):
        return self.b.copy()


class NormBall(RangeSet):
    """{y : ||y - center||_p <= radius} for p in {1, 2, inf}."""

    def __init__(self, center, radius, p=2):
        self.radius = _nonnegative("radius", radius)
        if p not in (1, 2, np.inf):
            raise ValueError("p must be 1, 2 or inf")
        self.center = _vector("center", center)
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
        self.lower, self.upper = _vector("lower", lower), _vector("upper", upper)
        sizes = self.lower.size, self.upper.size
        if sizes[0] != sizes[1] and 1 not in sizes:
            raise ValueError(f"lower and upper must have equal sizes or size 1, not {sizes}")
        if not np.all(self.lower <= self.upper):
            raise ValueError("lower bound exceeds upper bound")

    def project(self, y):
        return np.clip(np.asarray(y, dtype=float), self.lower, self.upper)


class NonnegCone(RangeSet):
    """{y : y_j >= 0 for j in indices}; all coordinates when indices is None.

    ``self.indices`` is what indexes the cone's coordinates: ``slice(None)``
    for all of them, ``slice(a, b)`` for indices a, a + 1, ..., b - 1 given in
    that order (gathers through it are views), else an int array. Negative
    indices are rejected: they would count from the end of whatever vector
    the cone meets."""

    def __init__(self, indices=None):
        if indices is None:
            self.indices = slice(None)
            return
        idx = np.asarray(indices)
        if idx.size and idx.dtype.kind not in "iu":
            raise ValueError(f"cone indices must be integers, not {idx.dtype}")
        idx = idx.astype(int)
        if not np.all(idx >= 0):
            raise ValueError("cone indices must be nonnegative")
        if idx.ndim == 1 and idx.size and np.all(np.diff(idx) == 1):
            idx = slice(int(idx[0]), int(idx[-1]) + 1)
        self.indices = idx

    def project(self, y):
        y = np.array(y, dtype=float, copy=True)
        y[self.indices] = np.maximum(y[self.indices], 0.0)
        return y


class _LinearSet(RangeSet):
    """{y : <a, y> = beta}, or {y : <a, y> <= beta} when ``one_sided``: the one
    body of Hyperplane and Halfspace. The normal's length ``norm`` and the index
    ``support`` of its nonzeros are built here, once: ``slice(None)`` for a
    normal without zeros, ``slice(a, b)`` when its nonzeros are one run, else
    a read-only boolean mask."""

    one_sided = False

    def __init__(self, normal, offset):
        self.normal = _vector("normal", normal)
        self.norm_sq = float(np.dot(self.normal, self.normal))
        if self.norm_sq == 0.0:
            raise ZeroNormal(f"{type(self).__name__.lower()} normal is zero")
        self.offset = float(offset)
        if not (math.isfinite(self.norm_sq) and math.isfinite(self.offset)):
            raise NonFiniteData(f"{type(self).__name__.lower()} normal or offset is not finite")
        self.norm = math.sqrt(self.norm_sq)
        self.support = _nonzeros(self.normal)

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


def data_fits(target, n):
    """Whether the data of a set fits vectors of length n: a normal or a point
    of length n, box bounds and a ball center of length n or 1 (which
    broadcasts), cone indices below n (a slice's stop at most n). Sets of other
    types fit any length."""
    if isinstance(target, _LinearSet):
        return target.normal.size == n
    if isinstance(target, Point):
        return target.b.size == n
    if isinstance(target, NormBall):
        return target.center.size in (1, n)
    if isinstance(target, Box):
        return {target.lower.size, target.upper.size} <= {1, n}
    if isinstance(target, NonnegCone):
        idx = target.indices
        if isinstance(idx, slice):
            return idx.stop is None or idx.stop <= n
        return bool(np.all(idx < n))
    return True


# ---------------------------------------------------------------------------
# simplex and l1-ball projections
# ---------------------------------------------------------------------------


def project_simplex(y, total=1.0):
    """Euclidean projection onto {z : z >= 0, sum(z) = total}, O(n log n).

    Sort-and-threshold: the largest k with u_k - (cumsum_k - total)/k > 0 fixes
    the active support, and the common shift follows from the sum constraint.
    Raises NonFiniteData when y holds a NaN or an infinity or its sum overflows.
    """
    total = _nonnegative("total", total)
    y = np.asarray(y, dtype=float)
    if total == 0.0:
        return np.zeros_like(y)
    u = np.sort(y)[::-1]
    css = np.cumsum(u) - total
    if not math.isfinite(css[-1]):
        raise NonFiniteData(f"simplex projection input sums to {css[-1] + total}")
    ks = np.arange(1, y.size + 1)
    k = ks[u - css / ks > 0][-1]
    theta = css[k - 1] / k
    return np.maximum(y - theta, 0.0)


def project_l1_ball(y, radius):
    """Euclidean projection onto {z : ||z||_1 <= radius}.

    Interior points are returned unchanged; otherwise project |y| onto the
    simplex of size ``radius`` and restore the signs. Raises NonFiniteData
    when y holds a NaN or an infinity or the sum of |y| overflows.
    """
    radius = _nonnegative("radius", radius)
    y = np.asarray(y, dtype=float)
    a = np.abs(y)
    total = a.sum()
    if not math.isfinite(total):
        raise NonFiniteData(f"l1-ball projection input has sum of |y| = {total}")
    if total <= radius:
        return y.copy()
    return np.sign(y) * project_simplex(a, radius)


# ---------------------------------------------------------------------------
# separating halfspaces for difficult constraints
# ---------------------------------------------------------------------------


def separating_halfspace(op, x, w, w_norm):
    """Halfspace {z : <normal, z> <= offset} separating x from
    {z : A z in target} when x is infeasible; returns (normal, offset).

    ``w`` is the range-space residual A x - P_target(A x) and ``w_norm`` its
    norm, which the caller supplies (the solver computes both once per iterate
    and shares them with the violation check). The normal is A^T w and the
    offset is <A^T w, x> - ||w||^2; every feasible point lies inside, x lies
    strictly outside. Raises FeasiblePoint only when w is exactly zero: any
    nonzero residual, however small, gets its halfspace, so how close is close
    enough is left to the caller's tolerance alone. Raises NonFiniteData when
    ||w|| is NaN or infinite (non-finite A, target or x).
    """
    if w_norm == 0.0:
        raise FeasiblePoint("point satisfies the constraint exactly")
    if not math.isfinite(w_norm):
        raise NonFiniteData(f"constraint residual norm is {w_norm}")
    normal = op.apply_adjoint(w)
    offset = float(np.dot(normal, np.asarray(x, dtype=float))) - w_norm * w_norm
    return normal, offset


# ---------------------------------------------------------------------------
# exact linesearch for hyperplane / halfspace Bregman projections
# ---------------------------------------------------------------------------


# The prefix-sum guess sorts only this many of the nearest positive kinks; a
# root past these is bisected over all of them. Measured on the perfbench
# sparse-kaczmarz rows (m=200, n=1000): over seed 0, items 0-2 (1200 steps) the
# number of kinks before the root was 0 in 59% of the steps, at most 10 in
# 99.8% and never above 13; over all 60 items of seeds 0 and 7 (about 24,500
# steps each) it never exceeded 14 and 20.
_NEAR_KINKS = 33


def _locate_root_piece(ends, jumps, gp0, slope):
    """Index i of the piece (ends[i], ends[i + 1]) on which a nondecreasing,
    continuous, piecewise-linear g' first reaches 0, in a few array passes.

    g' is ``gp0 < 0`` at ends[0] = 0, its slope is ``slope`` on the first
    piece and jumps by ``jumps[k]`` at the kink ends[k + 1]; the last end is
    inf. Prefix sums of the jumps and of jump * kink give g' at every kink at
    once, g'(e_k) = gp0 + e_k (slope + C1_k) - C2_k with inclusive sums C1
    and C2, so the answer is ``ends.size - 2`` when g' < 0 at every kink. The
    rounding of these sums can misplace a root that sits at or near a kink,
    so the answer is a guess for the caller to confirm.
    """
    e = ends[1:-1]
    c1 = np.cumsum(jumps)
    c2 = np.cumsum(jumps * e)
    hit = e * (slope + c1) - c2 >= -gp0
    k = int(hit.argmax())
    return k if hit[k] else e.size


def _shrink_linesearch(plan, x_star, beta, nonneg, gp0=None, x=None):
    """Exact minimizer of g(t) = f*(x_star - t a) + t beta when f is a sum of
    coordinatewise ``w_j |x_j| + x_j^2 / 2`` terms, for the direction a and
    the finite weights w of ``plan``.

    g'(t) = beta - <a, S_w(x_star - t a)> is piecewise linear and
    nondecreasing, with kinks where some x*_j - t a_j crosses +-w_j. After
    mirroring to g(-t) when g'(0) > 0, the root lies at t > 0, and:

    - first piece: g' built from scratch on (0, first positive kink) gives the
      answer when it is >= 0 at the kink, and the piece's slope otherwise;
    - locate: the _NEAR_KINKS nearest positive kinks are sorted, and prefix
      sums over them give g' at each (_locate_root_piece); when g' < 0 at all
      of them and more kinks lie beyond, go straight to the fall back;
    - confirm: g' built from scratch on the guessed piece is >= 0 at its
      right end (trivially so on the last piece, which runs to infinity), and
      on the piece to its left it is < 0;
    - fall back: only when the confirmation fails or the root lies past the
      near kinks, sort all the kinks and bisect them with the from-scratch g'.

    When no weight on the support is positive there is no kink: g' is one
    line of slope ``plan.line_slope``, whose zero is taken in closed form
    (the value the steps above give, bit for bit).

    The answer is that piece's zero clamped to the piece, i.e. the left endpoint
    on flat stretches, computed from scratch. All g' values are relative to
    g'(0), so callers that know g'(0) exactly (the solver knows it equals
    -||w||^2) keep full precision even when beta and the intercepts cancel
    almost completely. ``gp0`` overrides the computed g'(0) and ``x``, the
    primal grad f*(x_star), supplies the shrinkage of x_star. Raises
    NonFiniteData when g'(0) is NaN or infinite.
    """
    a, wv, free, kinked = plan.a, plan.w, plan.free, plan.kinked
    u = x_star[plan.supp]
    s0 = soft_shrink(u, wv) if x is None else x[plan.supp]
    if gp0 is None:
        gp0 = beta - float(np.dot(a, s0))
    if not math.isfinite(gp0):
        raise NonFiniteData(f"linesearch derivative at 0 is {gp0}")
    if gp0 == 0.0 or (nonneg and gp0 >= 0.0):
        return 0.0
    sign = 1.0 if gp0 < 0.0 else -1.0
    gp0 = sign * float(gp0)
    if plan.line_slope is not None:
        # no kinks: the one piece below is all of t > 0, its slope is
        # line_slope and its intercept change is +-0, so this is its answer
        s = plan.line_slope
        return sign * (max(-gp0 / s, 0.0) if s != 0.0 else 0.0)
    av = a if sign > 0.0 else -a

    # u_j - t a_j crosses +w_j at t = lo_j / a_j and -w_j at t = hi_j / a_j;
    # coordinates with w_j = 0 keep their slope contribution for all t and
    # have no kinks
    lo, hi = u - wv, u + wv
    ak = av[kinked]
    kinks = np.concatenate((lo[kinked] / ak, hi[kinked] / ak))
    ahead = np.flatnonzero(kinks > 0.0)

    def piece(left, right):
        # slope, intercept change and g'(right) on (left, right); a
        # coordinate with w_j = 0 stays active where it crosses 0, and on the
        # last piece (midpoint inf) every coordinate is active. Unchanged
        # coordinates contribute exact zeros, so no large dot products cancel
        shifted = u - (0.5 * (left + right)) * av
        pos = shifted > wv
        act = np.abs(shifted) > wv
        if free is not None:
            act |= free
        r = np.where(pos, lo, np.where(act, hi, 0.0))
        a_act = av[act]
        s, delta = float(np.dot(a_act, a_act)), float(np.dot(av, s0 - r))
        return s, delta, gp0 + delta + s * right

    def ends_of(idx):
        # the sorted kinks idx between 0 and inf, and their slope jumps:
        # -a_j |a_j| where a coordinate leaves the active set at lo_j / a_j,
        # +a_j |a_j| where it re-enters at hi_j / a_j
        order = idx[np.argsort(kinks[idx])]
        aj = ak[order % ak.size]
        jumps = aj * np.abs(aj)
        jumps[order < ak.size] *= -1.0
        return np.concatenate(([0.0], kinks[order], [np.inf])), jumps

    left, right = 0.0, kinks[ahead].min() if ahead.size else np.inf
    s, delta, gp = piece(left, right)
    if gp < 0.0:  # past the first kink (g'(inf) is never < 0)
        near = ahead
        if ahead.size > _NEAR_KINKS:
            near = ahead[np.argpartition(kinks[ahead], _NEAR_KINKS - 1)[:_NEAR_KINKS]]
        ends, jumps = ends_of(near)
        i = _locate_root_piece(ends, jumps, gp0, s)
        if i == near.size < ahead.size:
            i = 0  # past the near kinks, more beyond: bisect them all below
        # confirm from scratch: g' >= 0 at the piece's right end (the last
        # piece runs to inf) and < 0 at its left end (known at the first kink)
        last = ends.size - 2
        if i > 0:
            s, delta, gp = piece(ends[i], ends[i + 1])
        if i == 0 or (i < last and gp < 0.0) or (i > 1 and piece(ends[i - 1], ends[i])[2] >= 0.0):
            ends = ends_of(ahead)[0]
            i = bisect.bisect_left(
                range(ends.size - 2), True, key=lambda j: piece(ends[j], ends[j + 1])[2] >= 0.0
            )
            s, delta, gp = piece(ends[i], ends[i + 1])
        left, right = ends[i], ends[i + 1]
    if gp == 0.0:
        return sign * right
    if s == 0.0:
        return sign * left
    return sign * min(max(-(gp0 + delta) / s, left), right)


def _finite_weights(weights, idx):
    """Whether the shrink weights are finite on ``idx``."""
    return bool(np.all(np.isfinite(weights[idx])))


class _LinesearchPlan:
    """What a linesearch along a fixed direction a under fixed shrink weights
    needs besides x_star and beta, built once: the index ``supp`` of a's
    nonzeros (as _nonzeros gives it), ``a`` and the weights ``w`` on it, the
    index ``kinked`` of the support coordinates with w_j > 0, the mask
    ``free`` of those with w_j = 0 (None when there are none), ``a_sq`` = a.a
    (a set's ``norm_sq``, the same float), whether the weights are ``finite``
    on the support, and ``line_slope``: when every weight on the support is
    zero, g' has no kink and this is its one slope, a.a summed over the
    support; None otherwise. For a normal whose nonzeros are one run it holds
    views only."""

    __slots__ = ("supp", "a", "w", "kinked", "free", "a_sq", "finite", "line_slope")

    def __init__(self, a, weights, supp, a_sq):
        self.supp = supp
        self.a, self.w = a[supp], weights[supp]
        self.kinked = _nonzeros(self.w)  # shrink weights are nonnegative
        free = self.w == 0.0
        self.free = free if free.any() else None
        self.a_sq = a_sq
        self.finite = _finite_weights(weights, supp)
        self.line_slope = None if np.any(self.w) else float(np.dot(self.a, self.a))


def exact_linesearch(obj, x_star, a, beta, nonneg=False, gp0=None, x=None, plan=None):
    """Exact minimizer of g(t) = f*(x_star - t a) + t beta.

    Uses the piecewise-linear kink walk whenever the objective exposes finite
    per-coordinate shrink weights on the support of ``a``, and a bracketed root
    find on the monotone derivative otherwise. With ``nonneg`` the minimization
    is over t >= 0 (halfspace targets); otherwise over all of R. ``gp0``
    supplies an exactly-known g'(0) and ``x`` the primal grad f*(x_star) that
    a caller holding a consistent pair already has (see _shrink_linesearch).
    ``plan`` is the _LinesearchPlan of ``a`` under ``obj`` when the caller
    keeps one (bregman_projector does, per hyperplane); without it the plan is
    built here. Raises ZeroDirection for a zero ``a`` and NonFiniteData when
    x_star, a or beta holds a NaN or an infinity: a plan's ``a`` is taken as
    checked, and the others are judged by g'(0) and by the step, not by a pass
    over x_star.
    """
    x_star = np.asarray(x_star, dtype=float)
    if plan is None:
        a = np.asarray(a, dtype=float)
        plan = _LinesearchPlan(a, obj.shrink_weights(), _nonzeros(a), float(np.dot(a, a)))
        if plan.a_sq == 0.0:
            raise ZeroDirection("linesearch direction is zero")
        if not math.isfinite(plan.a_sq):
            raise NonFiniteData("linesearch direction is not finite or its square overflows")
    if plan.finite:
        t = _shrink_linesearch(plan, x_star, beta, nonneg, gp0=gp0, x=x)
        if not math.isfinite(t):
            raise NonFiniteData(f"linesearch step is {t}")
        return t

    def gp(t):
        return beta - float(np.dot(a, obj.grad_conjugate(x_star - t * a)))

    g0 = gp(0.0) if gp0 is None else float(gp0)
    if not math.isfinite(g0):
        raise NonFiniteData(f"linesearch derivative at 0 is {g0}")
    if g0 == 0.0 or (nonneg and g0 >= 0.0):
        return 0.0
    # mirrored to g(sign * s), the root lies at s > 0, where sign g'(sign s)
    # starts below 0 and |g'| grows at most like ||a||^2 / alpha; + 0.0 keeps a
    # mirrored bracket end at 0 from turning into -0.0
    sign = 1.0 if g0 < 0.0 else -1.0
    lo, hi = 0.0, obj.alpha * abs(g0) / plan.a_sq
    for _ in range(200):
        if sign * gp(sign * hi) >= 0.0:
            break
        lo, hi = hi, 2.0 * hi
    else:
        raise NoConvergence("linesearch bracket expansion failed")
    from scipy.optimize import brentq  # deferred: only this fallback needs a root finder

    return float(brentq(gp, *sorted((sign * lo + 0.0, sign * hi)), maxiter=200))


# ---------------------------------------------------------------------------
# Bregman projections
# ---------------------------------------------------------------------------

def _project_halfspace(obj, pair, target, plan):
    """Exact-linesearch projection onto a Hyperplane, or onto a one-sided
    Halfspace (identity on interior points, otherwise a step t >= 0), with the
    normal's linesearch ``plan``.

    The step x* - t a changes x* only on the normal's support; off it x* keeps
    every bit, -0.0 included, which x* - t * 0.0 would turn into +0.0 for
    t < 0. Where the weights are finite on the support only those primal
    coordinates are recomputed; the others keep their value."""
    a, beta = target.normal, target.offset
    if target.one_sided and float(np.dot(a, pair.x)) <= beta:
        return pair
    t = exact_linesearch(obj, pair.x_star, a, beta, nonneg=target.one_sided, x=pair.x, plan=plan)
    if t == 0.0:
        return pair
    z_star = pair.x_star.copy()
    z_star[plan.supp] = pair.x_star[plan.supp] - t * plan.a
    if not plan.finite:
        return pair_from_dual(obj, z_star)
    z = pair.x.copy()
    z[plan.supp] = soft_shrink(z_star[plan.supp], plan.w)
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

    The admissible subgradient keeps the dual value inside the box, shifts by
    +-w at active bounds, and is zeroed on coordinates pinned to a zero bound
    from outside. The primal is its shrinkage: the clipped shrinkage up to a
    rounding at active bounds, so that the pair is consistent bit for bit.
    """
    lower = np.broadcast_to(lower, pair.x_star.shape)
    upper = np.broadcast_to(upper, pair.x_star.shape)
    s = soft_shrink(pair.x_star, weights)
    z_star = np.where(s > upper, upper + weights, np.where(s < lower, lower - weights, pair.x_star))
    pinned = (np.clip(s, lower, upper) == 0.0) & (
        ((lower == 0.0) & (pair.x_star < 0.0)) | ((upper == 0.0) & (pair.x_star > 0.0))
    )
    z_star = np.where(pinned, 0.0, z_star)
    return PrimalDualPair(soft_shrink(z_star, weights), z_star)


def _project_orthogonal(pair, target):
    z = target.project(pair.x)
    return PrimalDualPair(z, z.copy())


def bregman_projector(obj, target):
    """The Bregman projector onto ``target`` under ``obj``, as a function of the
    pair: the one dispatch table behind bregman_project (see there for the
    supported pairings, tried in order). Raises TypeError for an unsupported
    pairing and BoxWithoutZero for a box the closed form cannot take.

    The set keeps the projector it last built, keyed by the identity of the
    objective, so a run dispatches once per simple constraint (sets and shrink
    weights never change after construction)."""
    owner, projector = target._bregman
    if owner is not obj:
        projector = _build_projector(obj, target)
        target._bregman = (obj, projector)
    return projector


def _build_projector(obj, target):
    """bregman_projector's dispatch. The objective's shrink weights are read
    here, once, and every verdict on them is taken here too."""
    weights = obj.shrink_weights()
    if not np.any(weights):
        return lambda pair: _project_orthogonal(pair, target)
    if isinstance(target, _LinearSet):
        plan = _LinesearchPlan(target.normal, weights, target.support, target.norm_sq)
        return lambda pair: _project_halfspace(obj, pair, target, plan)
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
    any set           w all zero (f = ||x||^2 / 2)         orthogonal projection
    Hyperplane        any                                  exact linesearch
    Halfspace         any                                  identity inside, else
                                                           exact linesearch (t >= 0)
    NonnegCone        w finite on the cone's indices       closed form
    Box with 0 in it  w finite everywhere                  closed form
    ================  ===================================  =========================

    For a purely quadratic objective the Bregman projection is the orthogonal
    one, which is how Kaczmarz and Landweber arise as special cases. Every
    other pairing raises TypeError; a box without the origin raises
    BoxWithoutZero.
    """
    return bregman_projector(obj, target)(pair)
