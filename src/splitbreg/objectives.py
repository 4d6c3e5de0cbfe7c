"""Strongly convex objectives with computable conjugates, and the numeric
primitives beneath the projections.

Every objective here is of the form "nonsmooth part + squared 2-norm / 2", which
makes the convex conjugate smooth with a Lipschitz gradient and makes the
gradient of the conjugate a proximal map. The solver only ever talks to an
objective through ``value``, ``conjugate`` and ``grad_conjugate``, plus the
per-coordinate shrink weights that enable closed-form linesearches.
Objectives are immutable after construction: what they precompute there (shrink
weights, group labels) stays valid for their lifetime.

This is the lowest numeric module: it imports nothing of the package but
``_checks``, and ``projections`` builds on it. It owns the one index rule of
every support a step acts on (``_index``), with ``ALL``, the one object that
stands for all coordinates, the verdicts on shrink weights
(``_WeightVerdicts``, with ``on``, the one restriction of weights to a
support) and the simplex and l1-ball projections that ``GroupedMax`` and the
norm balls share.
"""

import functools
import math
import operator

import numpy as np

from ._checks import NonFiniteData, _check_indices, _check_whole, _nonnegative, _vector


class InvalidSubgradient(ValueError):
    """The supplied dual vector is not a subgradient at the supplied point."""


def soft_shrink(x, lam):
    """Componentwise soft shrinkage ``sign(x) * max(|x| - lam, 0)``.

    ``lam`` may be a scalar or a per-coordinate array of nonnegative weights.
    """
    x = np.asarray(x, dtype=float)
    out = np.maximum(np.abs(x) - lam, 0.0)
    out *= np.sign(x)
    return out


def project_simplex(y, total=1.0):
    """Euclidean projection onto {z : z >= 0, sum(z) = total}, O(n log n).

    Sort-and-threshold: the largest k with u_k - (cumsum_k - total)/k > 0 fixes
    the active support, and the common shift follows from the sum constraint.
    Raises NonFiniteData when y holds a NaN or an infinity or its sum overflows,
    and a ValueError for an empty y with a positive total (an empty set).
    """
    total = _nonnegative("total", total)
    y = _vector("y", y)
    if total == 0.0:
        return np.zeros_like(y)
    if not y.size:
        raise ValueError(f"an empty vector has no point on the simplex of total {total}")
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
    radius = _nonnegative("radius", radius, bound=True)
    y = _vector("y", y)
    a = np.abs(y)
    total = a.sum()
    if not math.isfinite(total):
        raise NonFiniteData(f"l1-ball projection input has sum of |y| = {total}")
    if total <= radius:
        return y.copy()
    return np.sign(y) * project_simplex(a, radius)


# all coordinates: the index _index gives for every position and Box gives
# for all of its coordinates. Readers test it by identity; an equal
# slice(None) from elsewhere takes their general path, with the same bits
ALL = slice(None)


def _index(positions, n=None):
    """The one index rule of every support a step acts on (a normal's
    nonzeros, a cone's indices, the kinked weights, the columns a difficult
    step reaches). What indexes the int array ``positions`` is

    - ``ALL`` when ``n`` is given and there are n positions (given
      with n, positions are increasing and below n, as np.flatnonzero gives
      them, so n of them are all of range(n));
    - ``slice(a, b)`` when they are a, a + 1, ..., b - 1 in that order;
    - else ``positions`` itself, made read-only.

    Gathers through a slice are views; gathers through the array keep its
    order and its repeats."""
    if positions.size == n:
        return ALL
    if positions.size and np.all(np.diff(positions) == 1):
        return slice(int(positions[0]), int(positions[-1]) + 1)
    positions.flags.writeable = False
    return positions


def _nonzeros(v):
    """The index (_index) of the nonzeros of v: one np.flatnonzero of the
    mask v != 0 (faster than of v itself), and a step test on its result
    only when v has zeros."""
    return _index(np.flatnonzero(v != 0.0), v.size)


class _WeightVerdicts:
    """The verdicts a linesearch plan and a Bregman projector take on shrink
    weights ``w``: the index ``kinked`` of the nonzero ones (_nonzeros), the
    flags ``free`` of the zero ones (None when there are none), whether all
    are ``finite`` and whether ``any`` is nonzero. An objective takes them on
    all its weights at first use (``Objective._verdicts``), and ``on`` takes
    them on a support."""

    __slots__ = ("w", "kinked", "free", "finite", "any")

    def __init__(self, w):
        self.w, self.kinked = w, _nonzeros(w)  # shrink weights are nonnegative
        free = w == 0.0
        self.free = free if free.any() else None
        self.finite, self.any = bool(np.all(np.isfinite(w))), bool(np.any(w))

    def on(self, supp):
        """The verdicts on the weights at the index ``supp`` (_index): these
        very verdicts for ``ALL``, else those of w[supp]. The one
        restriction of weights to a support."""
        return self if supp is ALL else _WeightVerdicts(self.w[supp])


class Objective:
    """A strongly convex function f with explicit conjugate machinery.

    Attributes
    ----------
    alpha : float
        Modulus of strong convexity; grad_conjugate is (1/alpha)-Lipschitz.
    dimension : int
        Length of the primal (and dual) vectors.

    The verdicts on the shrink weights that linesearch plans and Bregman
    projectors read are taken once, at first use (``_verdicts``).
    """

    alpha = 1.0
    dimension = 0
    _weights = None  # an objective with shrink weights builds them once

    def value(self, x):
        raise NotImplementedError

    def conjugate(self, x_star):
        # The supremum in f* is attained at grad f*(x_star), so evaluate there.
        z = self.grad_conjugate(x_star)
        return float(np.dot(x_star, z) - self.value(z))

    def grad_conjugate(self, x_star):
        raise NotImplementedError

    def shrink_weights(self):
        """Per-coordinate l1 weight w_j where f splits into ``w_j |x_j| + x_j^2 / 2``
        terms, NaN on coordinates without that structure (all NaN here). Finite
        weights pick the kink-walk linesearch over the root-finding fallback
        and the closed-form Bregman projectors; all-zero weights mean
        f = ||x||^2 / 2, whose Bregman projections are the orthogonal ones.
        Objectives with such weights build them once, at construction, and
        return that same read-only array on every call."""
        if self._weights is None:
            return np.full(self.dimension, np.nan)
        return self._weights

    @functools.cached_property
    def _verdicts(self):
        """_WeightVerdicts on ``self.shrink_weights()``: a wrapper that
        inherits this class takes its own through its own
        ``shrink_weights``."""
        return _WeightVerdicts(self.shrink_weights())


class SquaredNorm(Objective):
    """f(x) = ||x||_2^2 / 2. Self-conjugate; grad f* is the identity."""

    def __init__(self, dimension):
        self.dimension = _check_whole("dimension", dimension, low=0)
        self._weights = np.zeros(self.dimension)
        self._weights.flags.writeable = False

    def value(self, x):
        x = _vector("x", x, self.dimension)
        return float(0.5 * np.dot(x, x))

    def grad_conjugate(self, x_star):
        return _vector("x_star", x_star, self.dimension).copy()


class ElasticNet(Objective):
    """f(x) = lam * ||x||_1 + ||x||_2^2 / 2 with lam >= 0.

    grad f* is soft shrinkage by lam and f*(x*) = ||soft_shrink(x*, lam)||^2 / 2.
    """

    def __init__(self, lam, dimension):
        self.lam = _nonnegative("lam", lam)
        self.dimension = _check_whole("dimension", dimension, low=0)
        self._weights = np.full(self.dimension, self.lam)
        self._weights.flags.writeable = False

    def value(self, x):
        x = _vector("x", x, self.dimension)
        return float(self.lam * np.abs(x).sum() + 0.5 * np.dot(x, x))

    def grad_conjugate(self, x_star):
        x_star = _vector("x_star", x_star, self.dimension)
        return soft_shrink(x_star, self.lam)


def _partition_labels(groups):
    """The group label of every coordinate. ``groups`` is a 2-d array with one
    group per row, or a list of index arrays; either way the groups must
    partition range(d), where d is the total group size."""
    if not len(groups):
        raise ValueError("need at least one group")
    if isinstance(groups, np.ndarray) and groups.ndim == 2:
        sizes = np.full(groups.shape[0], groups.shape[1])
        groups = [groups.ravel()]  # one pass over the rows laid end to end
    else:
        sizes = np.array([np.size(g) for g in groups], dtype=int)
    d = int(sizes.sum())
    idx = np.concatenate([_check_indices("group index", g, d) for g in groups])
    if np.any(sizes == 0):
        raise ValueError("empty group")
    labels = np.full(d, -1, dtype=int)
    labels[idx] = np.repeat(np.arange(sizes.size), sizes)
    # d indices in range leave a coordinate unlabelled only when another one
    # is listed twice
    if np.any(labels == -1):
        raise ValueError("groups overlap")
    return labels


class GroupElasticNet(Objective):
    """f(x) = lam * sum_g ||x_g||_2 + ||x||_2^2 / 2 over a partition of groups.

    grad f* applies blockwise shrinkage max(1 - lam/||z_g||, 0) * z_g, which for
    size-2 groups is exactly the isotropic total-variation proximal map used by
    the tomography experiment. ``groups`` is a 2-d array with one group per
    row (as Grad2D.pair_groups returns) or a list of index arrays. Over the
    strided groups of Grad2D.pair_groups the group norms and the shrinkage
    read the groups through a reshape, without a gather.
    """

    def __init__(self, lam, groups):
        self.lam = _nonnegative("lam", lam)
        self.labels = _partition_labels(groups)
        self.dimension = self.labels.size
        self.n_groups = int(self.labels.max()) + 1  # no group is empty
        # the strided layout of Grad2D.pair_groups, labels[j] = j mod G: group
        # g is column g of the (d/G, G) reshape
        d, g = self.dimension, self.n_groups
        self._strided = d % g == 0 and np.array_equal(self.labels, np.arange(d) % g)

    def _group_norms(self, v):
        vv = v * v
        if self._strided:
            # bincount's sums in bincount's order: v_g^2, then v_{G+g}^2, ...
            sq = functools.reduce(operator.add, vv.reshape(-1, self.n_groups))
        else:
            sq = np.bincount(self.labels, weights=vv, minlength=self.n_groups)
        return np.sqrt(sq)

    def value(self, x):
        x = _vector("x", x, self.dimension)
        return float(self.lam * self._group_norms(x).sum() + 0.5 * np.dot(x, x))

    def grad_conjugate(self, x_star):
        x_star = _vector("x_star", x_star, self.dimension)
        norms = self._group_norms(x_star)
        scale = np.zeros(self.n_groups)
        nz = norms > 0.0
        scale[nz] = np.maximum(1.0 - self.lam / norms[nz], 0.0)
        if self._strided:
            return (x_star.reshape(-1, self.n_groups) * scale).ravel()
        return x_star * scale[self.labels]


class GroupedMax(Objective):
    """f(x) = lam * sum_l |G_l| * max_{j in G_l} |x_j| + ||x||_2^2 / 2.

    The group weight is the group size. grad f* subtracts, blockwise, the
    projection onto the l1 ball of radius lam * |G_l| (Moreau decomposition of
    the weighted max-norm proximal map).
    """

    def __init__(self, lam, groups):
        self.lam = _nonnegative("lam", lam)
        groups = list(groups)
        self.dimension = _partition_labels(groups).size
        self.groups = [np.asarray(g, dtype=int) for g in groups]  # checked integers

    def value(self, x):
        x = _vector("x", x, self.dimension)
        total = sum(g.size * np.abs(x[g]).max() for g in self.groups)
        return float(self.lam * total + 0.5 * np.dot(x, x))

    def grad_conjugate(self, x_star):
        x_star = _vector("x_star", x_star, self.dimension)
        out = np.empty_like(x_star)
        for g in self.groups:
            block = x_star[g]
            out[g] = block - project_l1_ball(block, self.lam * g.size)
        return out


class ProductObjective(Objective):
    """Separable sum of objectives over consecutive coordinate blocks."""

    def __init__(self, parts):
        self.parts = list(parts)
        if not self.parts:
            raise ValueError("need at least one part")
        offsets = np.cumsum([0] + [p.dimension for p in self.parts])
        self.slices = [slice(int(a), int(b)) for a, b in zip(offsets[:-1], offsets[1:])]
        self.dimension = int(offsets[-1])
        self.alpha = float(min(p.alpha for p in self.parts))
        self._weights = np.concatenate([p.shrink_weights() for p in self.parts])
        self._weights.flags.writeable = False

    def value(self, x):
        x = _vector("x", x, self.dimension)
        return float(sum(p.value(x[s]) for p, s in zip(self.parts, self.slices)))

    def grad_conjugate(self, x_star):
        x_star = _vector("x_star", x_star, self.dimension)
        out = np.empty_like(x_star)
        for p, s in zip(self.parts, self.slices):
            out[s] = p.grad_conjugate(x_star[s])
        return out


class PrimalDualPair:
    """A primal point together with an admissible subgradient.

    The pairs the package builds are consistent by construction,
    ``x == grad_conjugate(x_star)`` bit for bit (equivalently ``x_star`` is a
    subgradient of the objective at ``x``): pair_from_dual builds the start
    pair and every step writes its new pair through one writer
    (``projections._moved``), which recomputes x from the new x_star on every
    objective part where x_star changed. The class itself holds the arrays
    it is handed.
    """

    __slots__ = ("x", "x_star")

    def __init__(self, x, x_star):
        self.x = np.asarray(x, dtype=float)
        self.x_star = np.asarray(x_star, dtype=float)

    def __repr__(self):
        return f"PrimalDualPair(x={self.x!r}, x_star={self.x_star!r})"


def pair_from_dual(obj, x_star):
    """Build a consistent pair from a dual vector: x = grad f*(x_star), which
    checks x_star as the objective's vector."""
    return PrimalDualPair(obj.grad_conjugate(x_star), x_star)


def fenchel_gap(obj, x_star, x):
    """Fenchel-Young gap f*(x*) - <x*, x> + f(x).

    Nonnegative for every pair; zero exactly when x_star is a subgradient of the
    objective at x (equivalently x = grad f*(x_star)). Both vectors must be
    finite and of the objective's dimension: DimensionMismatch or
    NonFiniteData names the one that is not.
    """
    x = _vector("x", x, obj.dimension, finite=True)
    x_star = _vector("x_star", x_star, obj.dimension, finite=True)
    return float(obj.conjugate(x_star) - np.dot(x_star, x) + obj.value(x))


def bregman_distance(obj, x, x_star, y):
    """Bregman distance f(y) - f(x) - <x_star, y - x> for an admissible pair.

    Raises InvalidSubgradient when the Fenchel-Young gap of (x, x_star) exceeds
    1e-8 * (1 + |f(x)|); with an admissible pair the result is nonnegative and
    bounded below by alpha/2 * ||x - y||^2. The vectors are checked as in
    fenchel_gap.
    """
    x = _vector("x", x, obj.dimension, finite=True)
    y = _vector("y", y, obj.dimension, finite=True)
    fx = obj.value(x)
    gap = fenchel_gap(obj, x_star, x)
    if abs(gap) > 1e-8 * (1.0 + abs(fx)):
        raise InvalidSubgradient(
            f"dual vector is not a subgradient at x (Fenchel-Young gap {gap:.3e})"
        )
    return float(obj.value(y) - fx - np.dot(x_star, y - x))
