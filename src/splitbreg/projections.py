"""Orthogonal and Bregman projections onto the solver's constraint sets.

The orthogonal projectors are what the separating-halfspace construction needs
for "difficult" constraints; the Bregman projectors update a primal-dual pair
for the "simple" ones. Every step of a run, simple or difficult, writes its
new pair through one writer, ``_moved``, by one rule: x* changes only on the
step's support (every other bit kept, -0.0 included) and x = grad f*(x*) is
recomputed on the objective parts that support meets (``_footprint``, taken
once per constraint), so each pair is consistent by construction. A set's
data is fixed at construction: what it precomputes there (a normal's length
and support) stays valid for its lifetime. One attribute is written later:
``bregman_projector``, the one projector dispatch, keeps the projector it
last built (a partial of one of the ``_project_*`` forms) in the set's
``_bregman``, keyed by the objective's identity. It stays while perfbench's
tracer hooks ``bregman_project(obj, pair, target)`` by name: that call
carries no projector, so the set has to keep it. The kept projector holds
the objective and what its route derived once (a linesearch plan, a box's
dual bounds, the objective parts its support meets), never the set, which
hands in its own data at each call: no set is part of a reference cycle, so
a finished solve is freed, its matrix with it, by reference counting. A loop
of 12 ``sparse_kaczmarz`` solves on fresh 400x4000 matrices (12.2 MB each),
each in a function call, peaks 19.5 MB above its start.

This module builds on ``objectives``, never the other way. Every support it
stores (a normal's ``support``, a cone's ``indices``, a plan's ``supp`` and
``kinked``) follows the one index rule there, ``objectives._index``, and
the one restriction of shrink weights to a support is
``_WeightVerdicts.on``. The index rule, the verdicts and the simplex and
l1-ball projections live in ``objectives`` and NonFiniteData and
DimensionMismatch in ``_checks``; all of them also resolve under this
module's name.
"""

import bisect
import functools
import math

import numpy as np

from ._checks import DimensionMismatch, NonFiniteData, _check_choice, _check_indices, _nonnegative
from ._checks import _real, _vector
from .objectives import ALL, PrimalDualPair, _index, _nonzeros, project_l1_ball, soft_shrink
from .objectives import _WeightVerdicts, project_simplex  # resolve under this name too


class FeasiblePoint(ValueError):
    """A separating halfspace was requested at a point that is feasible: its
    range-space residual is exactly zero."""


class ZeroNormal(ValueError):
    """Hyperplane or halfspace with an all-zero normal vector."""


class ZeroDirection(ValueError):
    """A linesearch direction is identically zero."""


class BoxWithoutZero(ValueError):
    """The Bregman box projection needs a box containing the origin."""


class NoConvergence(RuntimeError):
    """The root-finding linesearch could not bracket its root within its cap."""


# ---------------------------------------------------------------------------
# target sets and orthogonal projections
# ---------------------------------------------------------------------------


class RangeSet:
    """A closed convex set with an orthogonal projector."""

    # (objective, Bregman projector) last built by bregman_projector
    _bregman = (None, None)

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
    """{y : ||y - center||_p <= radius} for p in ORDERS. ``gap`` is the
    one feasibility gap of the package's noisy runs and of run_pd."""

    ORDERS = (1, 2, np.inf)

    def __init__(self, center, radius, p=2):
        self.radius = _nonnegative("radius", radius, bound=True)
        _check_choice("p", p, self.ORDERS)
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

    def gap(self, y):
        """||y - center||_p - radius: <= 0 inside the ball, -radius at the
        center."""
        return float(np.linalg.norm(y - self.center, self.p)) - self.radius


class Box(RangeSet):
    """{y : lower <= y <= upper} componentwise, with bounds of y's length or
    of length 1 (which broadcasts). ``indices`` indexes the coordinates the
    bounds hold on: all of them for a Box, the cone's for a NonnegCone."""

    indices = ALL

    def __init__(self, lower, upper):
        self.lower, self.upper = _vector("lower", lower), _vector("upper", upper)
        sizes = self.lower.size, self.upper.size
        if sizes[0] != sizes[1] and 1 not in sizes:
            raise ValueError(f"lower and upper must have equal sizes or size 1, not {sizes}")
        if not np.all(self.lower <= self.upper):
            raise ValueError("lower bound exceeds upper bound")

    def project(self, y):
        v = np.array(y, dtype=float, copy=True)
        v[self.indices] = np.minimum(np.maximum(v[self.indices], self.lower), self.upper)
        return v


class NonnegCone(Box):
    """{y : y_j >= 0 for j in indices}; all coordinates when indices is None:
    the box [0, inf) on those coordinates.

    ``self.indices`` indexes the cone's coordinates: ``ALL`` for all
    of them, else the given indices by the index rule (_index). Negative
    indices are rejected: they would count from the end of whatever vector
    the cone meets."""

    def __init__(self, indices=None):
        super().__init__([0.0], [np.inf])
        if indices is not None:
            self.indices = _index(_check_indices("cone indices", indices))


class _LinearSet(RangeSet):
    """{y : <a, y> = beta}, or {y : <a, y> <= beta} when ``one_sided``: the one
    body of Hyperplane and Halfspace. The normal's length ``norm`` and the index
    ``support`` of its nonzeros (_nonzeros, by the index rule) are built here,
    once. A normal whose square overflows raises NonFiniteData, as a NaN or
    an infinity in it does."""

    one_sided = False

    def __init__(self, normal, offset):
        self.normal = _vector("normal", normal)
        self.norm_sq = float(np.vdot(self.normal, self.normal))  # vdot: no overflow warning
        if self.norm_sq == 0.0:
            raise ZeroNormal(f"{type(self).__name__.lower()} normal is zero")
        self.offset = _real("offset", offset, finite=False)
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
    broadcasts), a box's indices below n (a slice's stop at most n). Other
    RangeSets (a subclass of none of these) fit any length."""
    if isinstance(target, _LinearSet):
        return target.normal.size == n
    if isinstance(target, Point):
        return target.b.size == n
    if isinstance(target, NormBall):
        return target.center.size in (1, n)
    if isinstance(target, Box):
        idx = target.indices
        if isinstance(idx, slice):
            inside = idx.stop is None or idx.stop <= n
        else:
            inside = bool(np.all(idx < n))
        return inside and {target.lower.size, target.upper.size} <= {1, n}
    return True


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


# The kink walk crosses at most this many kinks before it hands the step to the
# full sort and bisection. Measured on the perfbench sparse-kaczmarz rows
# (m=200, n=1000): over seed 0, items 0-2 (1200 steps) the number of kinks
# before the root was 0 in 59% of the steps, at most 10 in 99.8% and never
# above 13; over all 60 items of seeds 0 and 7 (about 24,500 steps each) it
# never exceeded 14 and 20.
_WALK_CAP = 32


def _walk_kinks(first, on, u, w, a, gp, s):
    """The ends [0, k_1, ..., k_c+1] of the pieces up to the one on which g'
    reaches 0, crossing kinks in order with one argmin and an O(1) update
    each; None past _WALK_CAP crossings. ``first`` holds each kinked
    coordinate's next kink (inf for none) and ``on`` whether it leaves the
    active set there; u, w and a are its x*_j, w_j and (mirrored) a_j, gp < 0
    is g' at the first kink and s the slope before it. A leaving coordinate
    re-enters at (u_j + copysign(w_j, a_j)) / a_j. g' is a running sum, so the
    last piece is a guess to confirm; both arrays are changed."""
    j = int(first.argmin())
    ends = [0.0, float(first[j])]
    for _ in range(_WALK_CAP):
        aj = float(a[j])
        if on[j]:
            on[j] = False
            s -= aj * aj
            first[j] = (float(u[j]) + math.copysign(float(w[j]), aj)) / aj
        else:
            s += aj * aj
            first[j] = math.inf
        j = int(first.argmin())
        k = float(first[j])
        gp += s * (k - ends[-1])
        ends.append(k)
        if gp >= 0.0 or k == math.inf:
            return ends
    return None


def _shrink_linesearch(plan, u, s0, gp0, sign):
    """Exact minimizer of g(t) = f*(x_star - t a) + t beta when f is a sum of
    coordinatewise ``w_j |x_j| + x_j^2 / 2`` terms, for the direction a and
    the finite weights w of ``plan``: the kink-walk engine of
    exact_linesearch, which is its one entry. That entry checks x_star and
    g'(0), takes the t = 0 decision and mirrors the problem to g(sign t), so
    here the root lies at t > 0; ``u`` is x_star on a's support, ``s0`` its
    shrinkage there and ``gp0`` = sign g'(0) < 0. The answer is sign t.

    g'(t) = beta - <a, S_w(x_star - t a)> is piecewise linear and
    nondecreasing, with kinks where some x*_j - t a_j crosses +-w_j, and:

    - first piece, from the pair: on (0, first kink) the active coordinates
      are the support of s0 and the zero-weight ones, so the slope s is a.a
      over them, the intercept change a sum of exact zeros and
      g' = g'(0) + s t, in the from-scratch piece's bits. The first kink is
      the least next kink, (u_j + copysign(w_j, a_j)) / a_j, or the leaving
      one for an active coordinate moving toward [-w_j, w_j];
    - walk: past the first kink, cross the kinks in order (_walk_kinks), a
      kink at 0 (a tie |x*_j| = w_j) like any other;
    - confirm: g' built from scratch on the guessed piece is >= 0 at its
      right end (trivially so on the last piece, which runs to infinity), and
      on the piece to its left it is < 0 at the guess's left end, or exactly
      0 there with a positive slope, which makes that kink the root;
    - fall back: when the confirmation fails or the walk passes _WALK_CAP
      kinks, sort all the kinks and bisect them with the from-scratch g'.

    When no weight on the support is positive there is no kink: g' is one
    line of slope ``plan.line_slope``, whose zero is taken in closed form
    (the value the steps above give, bit for bit).

    The answer is that piece's zero clamped to the piece, i.e. the left endpoint
    on flat stretches. All g' values are relative to g'(0), so callers that
    know g'(0) exactly (the solver knows it equals -||w||^2) keep full
    precision even when beta and the intercepts cancel almost completely.
    """
    a, wv, free, kinked = plan.a, plan.verdicts.w, plan.verdicts.free, plan.verdicts.kinked
    if plan.line_slope is not None:
        # no kinks: the one piece below is all of t > 0, its slope is
        # line_slope and its intercept change is +-0, so this is its answer
        s = plan.line_slope
        return sign * (max(-gp0 / s, 0.0) if s != 0.0 else 0.0)
    av = a if sign > 0.0 else -a

    def piece(left, right):
        # slope, intercept change and g'(right) on (left, right); a
        # coordinate with w_j = 0 stays active where it crosses 0, and on the
        # last piece (midpoint inf) every coordinate is active. Unchanged
        # coordinates contribute exact zeros, so no large dot products cancel
        lo, hi = u - wv, u + wv
        shifted = u - (0.5 * (left + right)) * av
        pos = shifted > wv
        act = np.abs(shifted) > wv
        if free is not None:
            act |= free
        r = np.where(pos, lo, np.where(act, hi, 0.0))
        a_act = av[act]
        s, delta = float(np.dot(a_act, a_act)), float(np.dot(av, s0 - r))
        return s, delta, gp0 + delta + s * right

    nz = s0 != 0.0
    uk, wk, ak, on = u[kinked], wv[kinked], av[kinked], nz[kinked]
    idx = on.nonzero()[0]
    a_act = ak[idx] if free is None else av[nz | free]
    s = float(np.dot(a_act, a_act))
    cw = np.copysign(wk, ak)
    first = (uk + cw) / ak
    near = (uk[idx] - cw[idx]) / ak[idx]
    near[near < 0.0] = np.inf
    first[idx] = near
    left, right = 0.0, float(first[first.argmin()]) if first.size else math.inf
    delta, gp = 0.0, gp0 + s * right
    if gp < 0.0:  # past the first kink (g'(inf) is never < 0)
        ends = _walk_kinks(first, on, uk, wk, ak, gp, s)
        if ends is not None:
            left, right = ends[-2], ends[-1]
            s, delta, gp = piece(left, right)
        # confirm from scratch: g' >= 0 at the piece's right end (the last
        # piece runs to inf) and < 0 at its left end (known at the first kink)
        found = ends is not None and (right == math.inf or gp >= 0.0)
        if found and len(ends) > 3:
            below = piece(ends[-3], left)
            if below[2] == 0.0 and below[0] > 0.0:
                # g' rises to exactly 0 at the kink: the root is the kink
                # itself (a zero slope would be a flat stretch that starts
                # further left)
                left, right = ends[-3], left
                s, delta, gp = below
            else:
                found = below[2] < 0.0
        if not found:
            kinks = np.concatenate(((uk - wk) / ak, (uk + wk) / ak))
            ends = np.concatenate(([0.0], np.sort(kinks[kinks > 0.0]), [np.inf]))
            i = bisect.bisect_left(
                range(ends.size - 2), True, key=lambda j: piece(ends[j], ends[j + 1])[2] >= 0.0
            )
            left, right = ends[i], ends[i + 1]
            s, delta, gp = piece(left, right)
    if gp == 0.0:
        return sign * right
    if s == 0.0:
        return sign * left
    return sign * min(max(-(gp0 + delta) / s, left), right)


class _LinesearchPlan:
    """What a linesearch along a fixed direction a under fixed shrink weights
    needs besides x_star and beta, built once: a's ``shape``, which x_star
    must have, the index ``supp`` of a's nonzeros (_nonzeros, by the index
    rule), ``a`` on it, the ``verdicts`` on the weights there
    (``_WeightVerdicts.on(supp)``: the weights ``w``, the index ``kinked`` of
    those > 0, the flags ``free`` of the zero ones, whether all are
    ``finite``), ``a_sq`` = a.a (a set's ``norm_sq``, the same float) and
    ``line_slope``: when every weight on the support is zero, g' has no kink
    and this is its one slope, a.a summed over the support; None otherwise.
    For a normal whose nonzeros are one run it holds views only. Raises
    ZeroDirection when a_sq is 0 and NonFiniteData when it is not finite."""

    __slots__ = ("shape", "supp", "a", "verdicts", "a_sq", "line_slope")

    def __init__(self, a, verdicts, supp, a_sq):
        if a_sq == 0.0:
            raise ZeroDirection("linesearch direction is zero")
        if not math.isfinite(a_sq):
            raise NonFiniteData("linesearch direction is not finite or its square overflows")
        self.shape, self.supp, self.a, self.a_sq = a.shape, supp, a[supp], a_sq
        self.verdicts = verdicts.on(supp)
        self.line_slope = None if self.verdicts.any else float(np.dot(self.a, self.a))


def _slope(obj, x_star, a, beta, t):
    """g'(t) = beta - <a, grad f*(x_star - t a)>, the derivative of the
    linesearch objective g(t) = f*(x_star - t a) + t beta, from grad f*: the
    one evaluation the root find and solver's Inexact doubling share; np.vdot,
    unlike np.dot, does not warn when it overflows."""
    return beta - float(np.vdot(a, obj.grad_conjugate(x_star - t * a)))


def exact_linesearch(obj, x_star, a, beta, nonneg=False, gp0=None, x=None, plan=None):
    """Exact minimizer of g(t) = f*(x_star - t a) + t beta.

    The one entry of two engines: the piecewise-linear kink walk
    (_shrink_linesearch) whenever the objective exposes finite
    per-coordinate shrink weights on the support of ``a``, and a bracketed
    root find on the monotone derivative otherwise. With ``nonneg`` the
    minimization is over t >= 0 (halfspace targets); otherwise over all of
    R. ``gp0`` supplies an exactly-known g'(0) and ``x`` the primal grad
    f*(x_star) that a caller holding a consistent pair already has.
    ``plan`` is the _LinesearchPlan of ``a`` under ``obj`` when the caller
    has one (bregman_projector keeps one per hyperplane); without it the plan
    is built here, on the objective's weight verdicts.

    Once for both engines, it checks beta and all of x_star, takes g'(0)
    (``gp0``, else the engine's own: beta - <a, S_w(x_star)> on the support
    for the walk, from grad f* for the root find) and checks it, returns 0
    when g'(0) = 0 or, with ``nonneg``, g'(0) >= 0, and mirrors the problem
    to g(sign t) so that the engine finds a root at t > 0. Raises
    ZeroDirection for a zero ``a``, DimensionMismatch when x_star or ``a`` is
    not a vector of the objective's length and NonFiniteData when x_star, a,
    beta, g'(0), a g' of the root find's bracket or the step holds a NaN or
    an infinity (a plan's ``a`` is taken as checked).
    """
    if not math.isfinite(beta):
        raise NonFiniteData(f"linesearch beta is {beta}")
    if plan is None:
        a, shape = np.asarray(a, dtype=float), obj._verdicts.w.shape
        if a.shape != shape:
            raise DimensionMismatch(f"linesearch direction has shape {a.shape}, not {shape}")
        plan = _LinesearchPlan(a, obj._verdicts, _nonzeros(a), float(np.vdot(a, a)))
    x_star = np.asarray(x_star, dtype=float)
    if x_star.shape != plan.shape:
        raise DimensionMismatch(f"linesearch x_star has shape {x_star.shape}, not {plan.shape}")
    # x*.x* shows a NaN or an inf, or it overflows and the exact test decides
    # (np.vdot, unlike np.dot, does not warn when it overflows)
    if not math.isfinite(np.vdot(x_star, x_star)) and not np.all(np.isfinite(x_star)):
        raise NonFiniteData("linesearch x_star is not finite")

    if plan.verdicts.finite:
        u = x_star[plan.supp]
        s0 = soft_shrink(u, plan.verdicts.w) if x is None else x[plan.supp]
        gp0 = beta - float(np.vdot(plan.a, s0)) if gp0 is None else gp0
    else:  # the root find's g'
        gp = functools.partial(_slope, obj, x_star, a, beta)
        gp0 = gp(0.0) if gp0 is None else gp0
    gp0 = float(gp0)
    if not math.isfinite(gp0):
        raise NonFiniteData(f"linesearch derivative at 0 is {gp0}")
    if gp0 == 0.0 or (nonneg and gp0 >= 0.0):
        return 0.0
    # mirrored to g(sign * t), the root lies at t > 0, where sign g'(sign t)
    # starts below 0
    sign = 1.0 if gp0 < 0.0 else -1.0
    gp0 *= sign
    if plan.verdicts.finite:
        t = _shrink_linesearch(plan, u, s0, gp0, sign)
        if not math.isfinite(t):
            raise NonFiniteData(f"linesearch step is {t}")
        return t
    # |g'| grows at most like ||a||^2 / alpha; + 0.0 keeps a mirrored bracket
    # end at 0 from turning into -0.0
    lo, hi = 0.0, obj.alpha * -gp0 / plan.a_sq
    for _ in range(200):
        if not math.isfinite(g := gp(sign * hi)):
            raise NonFiniteData(f"linesearch derivative at {sign * hi} is {g}")
        if sign * g >= 0.0:
            break
        lo, hi = hi, 2.0 * hi
    else:
        raise NoConvergence("linesearch bracket expansion failed")
    from scipy.optimize import brentq  # deferred: only this fallback needs a root finder

    return float(brentq(gp, *sorted((sign * lo + 0.0, sign * hi)), maxiter=200))


# ---------------------------------------------------------------------------
# Bregman projections
# ---------------------------------------------------------------------------

def _footprint(obj, supp):
    """The (slice, part) pairs of the parts of a product objective ``obj``
    that the index ``supp`` meets; None when it meets every part or when
    ``obj`` has no parts. The parts are read through attributes, so wrappers
    that forward them count as what they wrap. Taken once per constraint."""
    if (slices := getattr(obj, "slices", None)) is None:  # a ProductObjective's blocks
        return None
    on = np.zeros(obj.dimension, dtype=bool)
    on[supp] = True
    met = [(s, part) for s, part in zip(slices, obj.parts) if on[s].any()]
    return None if len(met) == len(slices) else met


def _moved(obj, parts, pair, supp, values):
    """The one pair writer of every step. x* takes ``values`` on the index
    ``supp`` and keeps every other bit, -0.0 included; ``values`` is the
    whole new x* when ``supp`` is ``ALL``. x is then grad f*(x*) on
    each (slice, part) of ``parts`` (from _footprint), or on all of x when
    ``parts`` is None. Off those parts x* has not changed, so x keeps bits
    that were grad f*'s already: the new pair is consistent by construction
    whenever the old one was."""
    x_star = values if supp is ALL else pair.x_star.copy()
    if x_star is not values:
        x_star[supp] = values
    if parts is None:
        return PrimalDualPair(obj.grad_conjugate(x_star), x_star)
    x = pair.x.copy()
    for s, part in parts:
        x[s] = part.grad_conjugate(x_star[s])
    return PrimalDualPair(x, x_star)


def _project_halfspace(obj, parts, plan, target, pair):
    """Exact-linesearch projection onto a Hyperplane, or onto a one-sided
    Halfspace (a step t >= 0, which is 0 on interior points, where
    g'(0) = beta - <a, x> >= 0), with the normal's linesearch ``plan``: x*
    moves to x* - t a on the normal's support."""
    t = exact_linesearch(
        obj, pair.x_star, target.normal, target.offset, nonneg=target.one_sided, x=pair.x, plan=plan
    )
    if t == 0.0:
        return pair
    return _moved(obj, parts, pair, plan.supp, pair.x_star[plan.supp] - t * plan.a)


def _project_box(obj, parts, lower, upper, target, pair):
    """Closed form for objectives that are coordinatewise "w_j |x_j| + x_j^2/2"
    on a box's ``indices`` idx, and a box that holds the origin
    (bregman_projector checks that once).

    The admissible subgradient is x* clipped on idx to the dual bounds
    ``lower`` and ``upper``, taken once: lower - w where the box's lower bound
    is below 0, else 0, and upper + w where its upper bound is above 0, else
    0. So x* moves to bound -+ w when its shrinkage passes a nonzero bound and
    to 0 when it lies beyond a zero bound (a -0.0 there reads +0.0, as
    np.maximum gives it). The primal is grad f* of the clipped x*, as _moved
    writes every pair: the clipped shrinkage up to a rounding at active
    bounds.
    """
    idx = target.indices
    v = np.maximum(pair.x_star[idx], lower)
    np.minimum(v, upper, out=v)
    return _moved(obj, parts, pair, idx, v)


def _project_orthogonal(obj, parts, target, pair):
    """Under f = ||x||^2 / 2 (every shrink weight zero) the projection of x:
    x* = P(x), and x = grad f*(P(x))."""
    return _moved(obj, parts, pair, ALL, target.project(pair.x))


def bregman_projector(obj, target):
    """The Bregman projector onto ``target`` under ``obj``, as a function of the
    set and the pair, ``projector(target, pair)``: a partial of one of the
    ``_project_*`` forms, picked here, on the objective's weight verdicts, by
    the one dispatch table behind bregman_project (see there for the
    supported pairings, tried in order).
    Raises DimensionMismatch for a set whose data does not fit the
    objective's length, TypeError for an unsupported pairing and
    BoxWithoutZero for a box the closed form cannot take. Each form moves x*
    on the support of its step (the whole vector, a normal's ``support`` or a
    box's ``indices``) and recomputes x on the objective parts that support
    meets (_footprint), both through _moved.

    The set keeps the projector it last built, keyed by the identity of the
    objective, so a run dispatches once per simple constraint (sets and shrink
    weights never change after construction). The projector holds the
    objective and what its route derived once (a hyperplane's linesearch
    plan, a box's dual bounds, the objective parts the support meets), never
    the set: the set reads its own normal, offset, sidedness, indices or
    orthogonal projection at each call, so it forms no reference cycle and a
    finished solve is freed by reference counting."""
    owner, projector = target._bregman
    if owner is obj:
        return projector
    if not data_fits(target, obj.dimension):
        raise DimensionMismatch(f"{type(target).__name__} does not fit length {obj.dimension}")
    verdicts = obj._verdicts
    if not verdicts.any:
        supp, form, data = ALL, _project_orthogonal, ()
    elif isinstance(target, _LinearSet):
        plan = _LinesearchPlan(target.normal, verdicts, target.support, target.norm_sq)
        supp, form, data = target.support, _project_halfspace, (plan,)
    elif isinstance(target, Box) and (on := verdicts.on(target.indices)).finite:
        lower, upper = target.lower, target.upper
        if np.any(lower > 0.0) or np.any(upper < 0.0):
            raise BoxWithoutZero("box must contain the origin componentwise")
        lower = np.where(lower < 0.0, lower - on.w, 0.0)
        upper = np.where(upper > 0.0, upper + on.w, 0.0)
        supp, form, data = target.indices, _project_box, (lower, upper)
    else:
        raise TypeError(
            f"no Bregman projector for {type(target).__name__} under {type(obj).__name__}"
        )
    projector = functools.partial(form, obj, _footprint(obj, supp), *data)
    target._bregman = (obj, projector)
    return projector


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
    Box with 0 in it  w finite on the box's indices        closed form: x*
                                                           clipped to dual bounds
    ================  ===================================  =========================

    For a purely quadratic objective the Bregman projection is the orthogonal
    one, which is how Kaczmarz and Landweber arise as special cases. Every
    other pairing raises TypeError; a box without the origin raises
    BoxWithoutZero. A NonnegCone is the Box [0, inf) on its indices. A pair
    whose x or x_star is not a vector of the objective's dimension raises
    DimensionMismatch.
    """
    n = (obj.dimension,)
    if pair.x.shape != n or pair.x_star.shape != n:
        name = "x" if pair.x.shape != n else "x_star"
        raise DimensionMismatch(f"pair.{name} must be a vector of length {n[0]}, "
                                f"not of shape {getattr(pair, name).shape}")
    return bregman_projector(obj, target)(target, pair)
