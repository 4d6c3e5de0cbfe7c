import bisect
import contextlib
import math
import pickle
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from splitbreg.objectives import (
    ElasticNet,
    GroupElasticNet,
    GroupedMax,
    ProductObjective,
    SquaredNorm,
    bregman_distance,
    fenchel_gap,
    pair_from_dual,
    soft_shrink,
)
from splitbreg.projections import (
    Box,
    BoxWithoutZero,
    FeasiblePoint,
    Halfspace,
    Hyperplane,
    NonFiniteData,
    NonnegCone,
    NormBall,
    Point,
    ZeroDirection,
    ZeroNormal,
    bregman_project,
    bregman_projector,
    data_fits,
    exact_linesearch,
    project_l1_ball,
    project_simplex,
    separating_halfspace,
)
from splitbreg import projections
from splitbreg.linops import DenseMatrix
from splitbreg.solver import Custom, Difficult, RandomUniform, preset, run

from oracles import grid_minimize, l1_ball_oracle, simplex_oracle


# ---------------------------------------------------------------------------
# simplex and l1 ball
# ---------------------------------------------------------------------------


def test_simplex_basic():
    np.testing.assert_allclose(project_simplex(np.array([2.0, 0.0]), 1.0), [1.0, 0.0])


def test_simplex_zero_total():
    np.testing.assert_allclose(project_simplex(np.array([3.0, -1.0]), 0.0), [0.0, 0.0])
    with pytest.raises(ValueError):
        project_simplex(np.array([1.0]), -1.0)


def test_simplex_matches_oracle():
    rng = np.random.default_rng(10)
    for _ in range(100):
        n = rng.integers(1, 11)
        y = rng.standard_normal(n) * 3.0
        total = float(rng.uniform(0.1, 4.0))
        z = project_simplex(y, total)
        assert abs(z.sum() - total) <= 1e-10
        assert np.all(z >= 0.0)
        np.testing.assert_allclose(z, simplex_oracle(y, total), atol=1e-8)


def test_l1_ball_basic():
    np.testing.assert_allclose(project_l1_ball(np.array([2.0, -1.0]), 1.0), [1.0, 0.0])


def test_l1_ball_interior_unchanged():
    y = np.array([0.2, -0.3])
    np.testing.assert_allclose(project_l1_ball(y, 1.0), y)


def test_l1_ball_matches_oracle():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = rng.integers(1, 11)
        y = rng.standard_normal(n) * 2.0
        radius = float(rng.uniform(0.1, 3.0))
        z = project_l1_ball(y, radius)
        assert np.abs(z).sum() <= radius + 1e-10
        np.testing.assert_allclose(z, l1_ball_oracle(y, radius), atol=1e-8)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_l1_ball_and_simplex_name_non_finite_input(bad):
    with pytest.raises(NonFiniteData):
        NormBall(np.zeros(2), 1.0, 1).project(np.array([bad, 1.0]))
    with np.errstate(over="ignore"), pytest.raises(NonFiniteData):
        project_l1_ball(np.array([1e308, 1e308]), 1.0)  # |y| sums to inf
    with pytest.raises(NonFiniteData):
        project_simplex(np.array([bad, 1.0]), 1.0)


# ---------------------------------------------------------------------------
# target sets
# ---------------------------------------------------------------------------


def test_point_set():
    s = Point(np.array([1.0, 2.0]))
    np.testing.assert_allclose(s.project(np.zeros(2)), [1.0, 2.0])
    assert s.distance(np.array([1.0, 0.0])) == pytest.approx(2.0)
    assert s.contains(np.array([1.0, 2.0]))


def test_norm_ball_two():
    ball = NormBall(np.zeros(2), 2.5, 2)
    z = ball.project(np.array([3.0, 4.0]))
    np.testing.assert_allclose(z, [1.5, 2.0])
    assert ball.distance(np.array([3.0, 4.0])) == pytest.approx(2.5)
    assert ball.contains(np.array([1.0, 1.0]))


def test_norm_ball_inf_and_one():
    ball = NormBall(np.zeros(2), 1.0, np.inf)
    np.testing.assert_allclose(ball.project(np.array([3.0, -0.5])), [1.0, -0.5])
    ball1 = NormBall(np.zeros(2), 1.0, 1)
    np.testing.assert_allclose(ball1.project(np.array([2.0, -1.0])), [1.0, 0.0])


def test_norm_ball_centered():
    ball = NormBall(np.array([1.0, 1.0]), 1.0, 2)
    np.testing.assert_allclose(ball.project(np.array([3.0, 1.0])), [2.0, 1.0])


def test_norm_ball_validation():
    with pytest.raises(ValueError):
        NormBall(np.zeros(2), -1.0, 2)
    with pytest.raises(ValueError):
        NormBall(np.zeros(2), 1.0, 3)


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: NormBall(np.zeros(2), np.nan, 2), "radius must be nonnegative"),
        (lambda: NormBall(np.zeros(2), np.nan, 1), "radius must be nonnegative"),
        (lambda: NormBall(np.zeros(2), np.nan, np.inf), "radius must be nonnegative"),
        (lambda: Box(np.array([np.nan]), np.array([1.0])), "lower bound exceeds upper bound"),
        (lambda: Box(np.array([0.0]), np.array([np.nan])), "lower bound exceeds upper bound"),
        (lambda: NonnegCone([-1]), "cone indices must be nonnegative"),
        (lambda: project_simplex(np.ones(3), np.nan), "total must be nonnegative"),
        (lambda: project_l1_ball(np.ones(3), np.nan), "radius must be nonnegative"),
        (lambda: ElasticNet(np.nan, 3), "lam must be nonnegative"),
        (lambda: GroupElasticNet(np.nan, [[0, 1]]), "lam must be nonnegative"),
        (lambda: GroupedMax(np.nan, [[0, 1]]), "lam must be nonnegative"),
        (lambda: ProductObjective([]), "need at least one part"),
        (lambda: Custom([]), "order must be nonempty"),
        (lambda: Custom([1.5, 0]), "order must hold integers, not 1.5"),
        (lambda: Custom([True, 0]), "order must hold integers, not True"),
        (lambda: Custom(["1", 0]), "order must hold integers, not '1'"),
        (lambda: RandomUniform(-1), "seed must be nonnegative and whole, not -1"),
        (lambda: RandomUniform(1.5), "seed must be nonnegative and whole, not 1.5"),
        (lambda: RandomUniform(True), "seed must be nonnegative and whole, not True"),
        (lambda: Point(np.ones((2, 2))), "b must be one-dimensional, not of shape (2, 2)"),
        (
            lambda: NormBall(np.ones((2, 2)), 1.0),
            "center must be one-dimensional, not of shape (2, 2)",
        ),
        (
            lambda: Box(-np.ones((2, 2)), np.ones((2, 2))),
            "lower must be one-dimensional, not of shape (2, 2)",
        ),
        (
            lambda: Box(np.zeros(2), np.ones((1, 2))),
            "upper must be one-dimensional, not of shape (1, 2)",
        ),
        (
            lambda: Box(np.zeros(2), np.ones(3)),
            "lower and upper must have equal sizes or size 1, not (2, 3)",
        ),
        (
            lambda: Hyperplane(np.ones((2, 3)), 1.0),
            "normal must be one-dimensional, not of shape (2, 3)",
        ),
        (
            lambda: Halfspace(np.ones((3, 1)), 1.0),
            "normal must be one-dimensional, not of shape (3, 1)",
        ),
        (
            lambda: NonnegCone(np.array([True, False, True])),
            "cone indices must be integers, not bool",
        ),
        (lambda: NonnegCone([1.7, 0.2]), "cone indices must be integers, not float64"),
        (lambda: NormBall(np.zeros(2), "1"), "radius must be a real number, not '1'"),
        (lambda: NormBall(np.zeros(2), True), "radius must be a real number, not True"),
        (lambda: ElasticNet(True, 2), "lam must be a real number, not True"),
        (lambda: project_simplex(np.ones(3), None), "total must be a real number, not None"),
    ],
    ids=[
        "ball-2", "ball-1", "ball-inf", "box-lower", "box-upper", "cone-negative-index",
        "simplex", "l1-ball", "elastic-net", "group-elastic-net", "grouped-max", "no-parts",
        "empty-order", "fractional-order", "bool-order", "string-order", "negative-seed",
        "fractional-seed", "bool-seed", "matrix-point", "matrix-center", "matrix-bounds",
        "matrix-upper", "unequal-bounds", "matrix-normal", "column-normal", "bool-cone-indices",
        "float-cone-indices", "string-radius", "bool-radius", "bool-lam", "none-total",
    ],
)
def test_malformed_set_data_is_rejected(build, message):
    # NaN fails every positive assertion; a negative index would count from the
    # end; a float, bool or string seed, order entry, cone index, radius or
    # weight would be cast silently or fail unnamed; data of more than one
    # dimension or bounds of two sizes would fail in numpy's broadcasting
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_infinite_set_data_is_accepted():
    np.testing.assert_array_equal(NormBall(np.zeros(2), np.inf, 2).project([3.0, 4.0]), [3.0, 4.0])
    box = Box(np.array([-np.inf, 0.0]), np.array([np.inf, np.inf]))
    np.testing.assert_array_equal(box.project([-5.0, -1.0]), [-5.0, 0.0])
    assert ElasticNet(np.inf, 2).shrink_weights()[0] == np.inf


def test_box_and_cone():
    box = Box(np.array([-1.0, 0.0]), np.array([1.0, 2.0]))
    np.testing.assert_allclose(box.project(np.array([5.0, -3.0])), [1.0, 0.0])
    with pytest.raises(ValueError):
        Box(np.array([1.0]), np.array([0.0]))
    cone = NonnegCone()
    np.testing.assert_allclose(cone.project(np.array([-1.0, 2.0])), [0.0, 2.0])
    part = NonnegCone(np.array([0]))
    np.testing.assert_allclose(part.project(np.array([-1.0, -2.0])), [0.0, -2.0])
    # integer lists and arrays of any integer type, and no index at all
    spread = NonnegCone([0, 2])
    np.testing.assert_array_equal(spread.project([-1.0, -2.0, -3.0]), [0.0, -2.0, 0.0])
    assert NonnegCone(np.array([1, 2], dtype=np.uint8)).indices == slice(1, 3)
    np.testing.assert_array_equal(NonnegCone([]).project([-1.0]), [-1.0])
    # radii and weights given as numpy scalars
    assert NormBall(np.zeros(2), np.float32(0.5)).radius == 0.5
    assert ElasticNet(np.int64(2), 2).lam == 2.0


def test_hyperplane_and_halfspace():
    h = Hyperplane(np.array([1.0, 0.0]), 2.0)
    np.testing.assert_allclose(h.project(np.zeros(2)), [2.0, 0.0])
    assert h.distance(np.zeros(2)) == pytest.approx(2.0)
    hs = Halfspace(np.array([1.0, 0.0]), 2.0)
    np.testing.assert_allclose(hs.project(np.zeros(2)), [0.0, 0.0])
    np.testing.assert_allclose(hs.project(np.array([5.0, 1.0])), [2.0, 1.0])
    with pytest.raises(ZeroNormal):
        Hyperplane(np.zeros(2), 1.0)
    with pytest.raises(ZeroNormal):
        Halfspace(np.zeros(2), 1.0)


def test_linear_sets_build_their_fixed_data_once():
    h = Hyperplane(np.array([3.0, 0.0, -4.0]), 1.0)
    assert h.norm == 5.0
    np.testing.assert_array_equal(h.support, [True, False, True])
    with pytest.raises(ValueError):
        h.support[1] = True
    # a normal without zeros is read through views, not boolean-indexed copies
    assert Hyperplane(np.array([3.0, -4.0]), 1.0).support == slice(None)
    # the two sets differ only in the one-sided clamp
    hs = Halfspace(h.normal, h.offset)
    assert (Hyperplane.one_sided, Halfspace.one_sided) == (False, True)
    assert h.distance([1.0, 0.0, 0.0]) == hs.distance([1.0, 0.0, 0.0]) == 0.4
    assert (h.distance([-1.0, 0.0, 0.0]), hs.distance([-1.0, 0.0, 0.0])) == (0.8, 0.0)


# ---------------------------------------------------------------------------
# separating halfspaces
# ---------------------------------------------------------------------------


def _halfspace_at(op, target, x):
    """separating_halfspace at x from the residual the solver keeps, plus ||w||."""
    w, w_norm = Difficult(op, target).residual(x)
    return separating_halfspace(op, x, w, w_norm) + (w_norm,)


def test_separating_halfspace_point_target():
    op = DenseMatrix(np.array([[1.0]]))
    x = np.array([2.0])
    normal, offset, w_norm = _halfspace_at(op, Point(np.array([0.0])), x)
    np.testing.assert_allclose(normal, [2.0])
    assert offset == pytest.approx(0.0)
    assert w_norm == pytest.approx(2.0)


def test_separating_halfspace_ball_target():
    op = DenseMatrix(np.array([[1.0]]))
    ball = NormBall(np.array([0.0]), 1.0, np.inf)
    x = np.array([3.0])
    normal, offset, _ = _halfspace_at(op, ball, x)
    np.testing.assert_allclose(normal, [2.0])
    assert offset == pytest.approx(2.0)


def test_separating_halfspace_feasible_raises():
    op = DenseMatrix(np.array([[1.0, 0.0]]))
    x = np.array([1.0, 5.0])
    with pytest.raises(FeasiblePoint):
        _halfspace_at(op, Point(np.array([1.0])), x)


def test_separating_halfspace_separates():
    rng = np.random.default_rng(13)
    for _ in range(50):
        m, n = 3, 6
        a = rng.standard_normal((m, n))
        op = DenseMatrix(a)
        target = NormBall(rng.standard_normal(m), 0.5, 2)
        x = rng.standard_normal(n) * 3.0
        y = op.apply(x)
        if target.contains(y, tol=1e-9):
            continue
        normal, offset, w_norm = _halfspace_at(op, target, x)
        # the violating point is strictly outside its own halfspace
        assert np.dot(normal, x) - offset == pytest.approx(w_norm**2)
        # any point with A z in the target is inside
        for _ in range(10):
            yq = target.project(rng.standard_normal(m) * 2.0)
            z = np.linalg.lstsq(a, yq, rcond=None)[0]
            z += rng.standard_normal(n) @ (np.eye(n) - np.linalg.pinv(a) @ a)
            assert np.dot(normal, z) <= offset + 1e-8


# ---------------------------------------------------------------------------
# exact linesearch
# ---------------------------------------------------------------------------


def _g(obj, x_star, a, beta):
    def g(t):
        return obj.conjugate(x_star - t * a) + t * beta

    return g


def test_linesearch_elastic_net_example():
    obj = ElasticNet(1.0, 1)
    t = exact_linesearch(obj, np.array([2.0]), np.array([1.0]), 0.5)
    assert t == pytest.approx(0.5)


def test_linesearch_squared_norm_closed_form():
    rng = np.random.default_rng(14)
    obj = SquaredNorm(6)
    for _ in range(50):
        x_star = rng.standard_normal(6)
        a = rng.standard_normal(6)
        beta = float(rng.standard_normal())
        t = exact_linesearch(obj, x_star, a, beta)
        want = (np.dot(a, x_star) - beta) / np.dot(a, a)
        assert t == pytest.approx(want, abs=1e-12)


def test_linesearch_zero_direction():
    with pytest.raises(ZeroDirection):
        exact_linesearch(ElasticNet(1.0, 2), np.zeros(2), np.zeros(2), 0.0)


def test_linesearch_nonneg_clamps():
    obj = ElasticNet(1.0, 1)
    # g'(0) = beta - a * S(x*) = 2 - 1 > 0: constrained minimum at t = 0
    t = exact_linesearch(obj, np.array([2.0]), np.array([1.0]), 2.0, nonneg=True)
    assert t == 0.0
    t_free = exact_linesearch(obj, np.array([2.0]), np.array([1.0]), 2.0)
    assert t_free < 0.0


def test_linesearch_product_routes_by_support():
    # direction supported on the coordinatewise block uses the kink walk and
    # leaves the group block of the projected pair untouched
    obj = ProductObjective([ElasticNet(1.0, 2), GroupElasticNet(1.0, [np.array([0, 1])])])
    x_star = np.array([2.0, -1.0, 0.5, 0.5])
    a = np.array([1.0, 0.5, 0.0, 0.0])
    beta = 0.2
    t = exact_linesearch(obj, x_star, a, beta)
    g = _g(obj, x_star, a, beta)
    _, g_min = grid_minimize(g, t - 1.0, t + 1.0)
    assert g(t) <= g_min + 1e-8
    pair = pair_from_dual(obj, x_star)
    out = bregman_project(obj, pair, Hyperplane(a, beta))
    assert np.dot(a, out.x) == pytest.approx(beta, abs=1e-10)
    np.testing.assert_allclose(out.x[2:], pair.x[2:])
    np.testing.assert_allclose(out.x_star[2:], pair.x_star[2:])


@st.composite
def _linesearch_cases(draw):
    # half-integer data put kinks at ties and at exact zero crossings
    n = draw(st.integers(1, 6))

    def halves(lo, hi):
        return np.array(draw(st.lists(st.integers(lo, hi), min_size=n, max_size=n))) / 2.0

    x_star, a = halves(-8, 8), halves(-4, 4)
    assume(np.any(a))
    form = draw(st.sampled_from(["elastic", "product", "product+group", "group"]))
    weights = halves(0, 4)  # zero weights included
    if form in ("elastic", "group"):
        weights[:] = weights[0]
    beta = draw(st.integers(-12, 12)) / 2.0
    return x_star, a, weights, beta, draw(st.booleans()), form


@settings(max_examples=300, deadline=None)
@given(case=_linesearch_cases())
# a flat zero stretch of g' on [1, 5]: the endpoint nearest 0 is the answer
@example(case=(np.array([3.0]), np.array([1.0]), np.array([2.0]), 0.0, False, "elastic"))
# a zero-weight coordinate crossing 0 exactly at the midpoint of a piece
@example(
    case=(np.array([3.0, 3.0]), np.array([-1.0, -1.0]), np.array([2.0, 0.0]), 0.0, False, "product")
)
def test_linesearch_optimality_property(case):
    x_star, a, weights, beta, nonneg, form = case
    if form == "elastic":
        obj = ElasticNet(weights[0], a.size)
    elif form == "group":
        # blocks of two: no shrink weights anywhere, so the root find runs
        obj = GroupElasticNet(weights[0], np.array_split(np.arange(a.size), (a.size + 1) // 2))
    else:
        parts = [ElasticNet(w, 1) for w in weights]
        if form == "product+group":
            # the group block has no shrink weights; the direction is zero there
            parts.append(GroupElasticNet(1.0, [np.array([0, 1])]))
            x_star, a = np.append(x_star, [1.5, -2.0]), np.append(a, [0.0, 0.0])
        obj = ProductObjective(parts)

    def gp(t):
        return beta - float(np.dot(a, obj.grad_conjugate(x_star - t * a)))

    t = exact_linesearch(obj, x_star, a, beta, nonneg=nonneg)
    tol = 1e-9 * (1.0 + abs(beta) + np.abs(a) @ (np.abs(x_star) + np.abs(a) * abs(t)))
    if nonneg:
        assert t >= 0.0
    if nonneg and t == 0.0:
        assert gp(0.0) >= -tol
    else:
        assert abs(gp(t)) <= tol
    # g' is nondecreasing and changes slope only at kinks, so a flat zero
    # stretch starts at a kink: none strictly between 0 and t may be a root
    supp = a != 0.0
    u, w, av = x_star[supp], obj.shrink_weights()[supp], a[supp]
    kinks = np.concatenate([(u - w) / av, (u + w) / av])
    inside = (kinks * np.sign(t) > 0.0) & (np.abs(kinks) < abs(t) * (1.0 - 1e-9))
    for k in kinks[inside]:
        assert np.sign(t) * gp(k) < -tol


def _plan(a, weights):
    return projections._LinesearchPlan(
        a, weights, projections._nonzeros(a), float(np.dot(a, a))
    )


@contextlib.contextmanager
def _forced_bisection():
    """Make the prefix-sum locate guess one piece off (cyclically), so that
    every linesearch with positive kinks must reject its guess and bisect.
    Yields the counts of guesses and of bisections."""
    counts = {"guesses": 0, "bisections": 0}
    locate = projections._locate_root_piece

    def wrong(ends, *args):
        counts["guesses"] += 1
        return (locate(ends, *args) + 1) % (ends.size - 1)

    def bisect_left(*args, **kwargs):
        counts["bisections"] += 1
        return bisect.bisect_left(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(projections, "_locate_root_piece", wrong)
        mp.setattr(projections, "bisect", SimpleNamespace(bisect_left=bisect_left))
        yield counts


@settings(max_examples=300, deadline=None)
@given(case=_linesearch_cases(), gp0=st.none() | st.integers(-12, 12).map(lambda v: v / 2.0))
@example(case=(np.array([3.0]), np.array([1.0]), np.array([2.0]), 0.0, False, "elastic"), gp0=None)
@example(
    case=(np.array([3.0, 3.0]), np.array([-1.0, -1.0]), np.array([2.0, 0.0]), 0.0, False, "product"),
    gp0=None,
)
@example(
    case=(np.array([1.0, -1.0, 2.0]), np.array([1.0, -1.0, 2.0]), np.ones(3), 0.5, True, "elastic"),
    gp0=-2.0,
)
def test_located_root_matches_bisection(case, gp0):
    # the located and confirmed piece gives the bisected answer bit for bit;
    # a wrong guess is always caught by the from-scratch confirmation
    x_star, a, weights, beta, nonneg, _ = case
    args = (_plan(a, weights), x_star, beta, nonneg)
    t = projections._shrink_linesearch(*args, gp0=gp0)
    with _forced_bisection() as counts:
        t_bisected = projections._shrink_linesearch(*args, gp0=gp0)
    assert np.float64(t).tobytes() == np.float64(t_bisected).tobytes()
    assert counts["bisections"] == counts["guesses"] <= 1
    # the primal a consistent pair holds stands in for the shrinkage of x_star
    t_from_x = projections._shrink_linesearch(*args, gp0=gp0, x=soft_shrink(x_star, weights))
    assert np.float64(t_from_x).tobytes() == np.float64(t).tobytes()


def _two_sided_fallback(obj, x_star, a, beta, nonneg, gp0):
    # the root find exact_linesearch's fallback replaced: one bracket loop per
    # sign of g'(0), kept as the bitwise reference for the mirrored loop
    def gp(t):
        return beta - float(np.dot(a, obj.grad_conjugate(x_star - t * a)))

    g0 = gp(0.0) if gp0 is None else float(gp0)
    if g0 == 0.0 or (nonneg and g0 >= 0.0):
        return 0.0
    first = obj.alpha * abs(g0) / float(np.dot(a, a))
    if g0 < 0.0:
        lo, hi = 0.0, first
        while gp(hi) < 0.0:
            lo, hi = hi, 2.0 * hi
    else:
        lo, hi = -first, 0.0
        while gp(lo) > 0.0:
            lo, hi = 2.0 * lo, lo
    return float(brentq(gp, lo, hi, maxiter=200))


def test_fallback_linesearch_matches_the_two_sided_reference_bitwise():
    rng = np.random.default_rng(20261018)
    signs = set()
    for case in range(3000):
        g, size = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        groups = np.arange(g * size).reshape(g, size)
        lam = float(rng.choice([0.0, 0.3, 1.0, 2.5]))
        obj = (
            GroupElasticNet(lam, groups),
            GroupedMax(lam, groups),
            ProductObjective([ElasticNet(lam, 2), GroupElasticNet(lam, groups)]),
        )[case % 3]
        x_star = rng.standard_normal(obj.dimension) * rng.choice([0.5, 2.0, 5.0])
        a = rng.standard_normal(obj.dimension) * (rng.random(obj.dimension) < 0.8)
        if not np.any(a[-g * size:]):
            a[-1] = 1.0  # touch a coordinate without shrink weights
        beta = float(rng.standard_normal() * 3.0)
        nonneg = bool(rng.random() < 0.3)
        g0 = beta - float(np.dot(a, obj.grad_conjugate(x_star)))
        gp0 = g0 if rng.random() < 0.3 else None
        signs.add((g0 > 0.0, nonneg, gp0 is None))
        want = _two_sided_fallback(obj, x_star, a, beta, nonneg, gp0)
        got = exact_linesearch(obj, x_star, a, beta, nonneg=nonneg, gp0=gp0)
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), case
    assert len(signs) == 8  # both signs of g'(0), with and without nonneg and gp0


def test_fallback_linesearch_mirrors_its_bracket_exactly():
    # g'(0) is exactly 0 while the supplied g'(0) is positive: the root find
    # stops at the bracket end t = 0, which the mirror hands back as +0.0
    obj = GroupElasticNet(1.0, [np.array([0, 1])])
    t = exact_linesearch(obj, np.array([0.5, 0.0]), np.array([1.0, 0.0]), 0.0, gp0=1.0)
    assert t == 0.0 and math.copysign(1.0, t) == 1.0


def test_linesearch_without_positive_kinks_does_no_locate_work(monkeypatch):
    monkeypatch.setattr(projections, "_locate_root_piece", None)  # a call would raise
    # zero weights on the support of a: no kinks at all, g' is linear
    a, x_star, beta = np.array([1.0, -2.0, 0.0, 0.5]), np.array([0.5, 1.0, 3.0, -1.0]), 0.25
    weights = np.array([0.0, 0.0, 1.0, 0.0])
    t = projections._shrink_linesearch(_plan(a, weights), x_star, beta, False)
    assert t == pytest.approx((a @ x_star - beta) / (a @ a))
    # kinks at t = -4 and t = -2 only, behind the root at t = 1 of g'(t) = t - 1
    one = np.ones(1)
    t = projections._shrink_linesearch(_plan(one, one), -3.0 * one, -3.0, False)
    assert t == 1.0


def test_sparse_kaczmarz_solve_is_bitwise_equal_through_the_fallback():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((8, 20))
    x_true = np.zeros(20)
    x_true[[2, 11]] = [1.0, -0.5]
    b = a @ x_true
    res = run(preset("sparse_kaczmarz", a, b, lam=1.0, max_iterations=300))
    with _forced_bisection() as counts:
        forced = run(preset("sparse_kaczmarz", a, b, lam=1.0, max_iterations=300))
    assert counts["bisections"] == counts["guesses"] > 0
    assert res.iterations == forced.iterations
    assert res.x.tobytes() == forced.x.tobytes()
    assert res.pair.x_star.tobytes() == forced.pair.x_star.tobytes()


def test_partially_sorted_sparse_kaczmarz_solve_is_bitwise_equal_through_the_fallback():
    # rows of 200 coordinates give each step far more positive kinks than the
    # nearest few the locate step sorts; every wrong guess is caught
    rng = np.random.default_rng(4)
    a = rng.standard_normal((30, 200))
    x_true = np.zeros(200)
    x_true[[7, 50, 120, 181]] = [1.0, -0.8, 0.6, 0.9]
    cfg = dict(lam=5.0, max_iterations=240, residual_tolerance=1e-18)
    res = run(preset("sparse_kaczmarz", a, a @ x_true, **cfg))
    with _forced_bisection() as counts:
        forced = run(preset("sparse_kaczmarz", a, a @ x_true, **cfg))
    assert counts["guesses"] > 0 and counts["bisections"] > 0
    assert res.iterations == forced.iterations == 240
    assert res.x.tobytes() == forced.x.tobytes()
    assert res.pair.x_star.tobytes() == forced.pair.x_star.tobytes()


def _full_sort_locate(ends, jumps, gp0, slope):
    # _locate_root_piece before the partial sort: ``slope`` is g''s slope past
    # the last kink
    e = ends[1:-1]
    c1 = np.cumsum(jumps)
    c2 = np.cumsum(jumps * e)
    hit = e * (slope - c1[-1] + c1) - c2 >= -gp0
    k = int(hit.argmax())
    return k if hit[k] else e.size


def _full_sort_linesearch(x_star, a, beta, weights, nonneg, gp0=None, x=None):
    # _shrink_linesearch before the linesearch plan and the partial sort: it
    # sorts every positive kink on every call; kept as the bitwise reference
    supp = a != 0.0
    u = x_star[supp]
    wv = weights[supp]
    s0 = soft_shrink(u, wv) if x is None else x[supp]
    if gp0 is None:
        gp0 = beta - float(np.dot(a[supp], s0))
    if gp0 == 0.0 or (nonneg and gp0 >= 0.0):
        return 0.0
    sign = 1.0 if gp0 < 0.0 else -1.0
    av = sign * a[supp]
    gp0 = sign * float(gp0)
    lo, hi = u - wv, u + wv
    kw = wv != 0.0
    free = wv == 0.0
    ak = av[kw]
    kinks = np.concatenate((lo[kw] / ak, hi[kw] / ak))
    ahead = np.flatnonzero(kinks > 0.0)
    order = ahead[np.argsort(kinks[ahead])]
    ends = np.concatenate(([0.0], kinks[order], [np.inf]))

    def piece(i):
        shifted = u - (0.5 * (ends[i] + ends[i + 1])) * av
        pos = shifted > wv
        act = pos | (shifted < -wv) | free
        r = np.where(pos, lo, np.where(act, hi, 0.0))
        a_act = av[act]
        s, delta = float(np.dot(a_act, a_act)), float(np.dot(av, s0 - r))
        return s, delta, gp0 + delta + s * ends[i + 1]

    last = ends.size - 2
    i = 0
    if last:
        jump = ak * np.abs(ak)
        jumps = np.concatenate((-jump, jump))[order]
        i = _full_sort_locate(ends, jumps, gp0, float(np.dot(av, av)))
    s, delta, gp = piece(i)
    if (i < last and gp < 0.0) or (i > 0 and piece(i - 1)[2] >= 0.0):
        i = bisect.bisect_left(range(last), True, key=lambda j: piece(j)[2] >= 0.0)
        s, delta, gp = piece(i)
    if gp == 0.0:
        return sign * ends[i + 1]
    if s == 0.0:
        return sign * ends[i]
    return sign * min(max(-(gp0 + delta) / s, ends[i]), ends[i + 1])


def test_planned_linesearch_matches_the_full_sort_reference_bitwise():
    rng = np.random.default_rng(20261019)
    seen, locates, locate = set(), [], projections._locate_root_piece

    def counted(*args):
        locates.append(args)
        return locate(*args)

    for case in range(600):
        n = int(rng.integers(200, 400))
        a = rng.standard_normal(n)
        if case % 3 == 1:
            a *= rng.random(n) < 0.6  # a masked support
        lam = float(rng.choice([0.1, 0.5, 2.0]))
        weights = np.full(n, lam)
        if case % 2:
            weights *= rng.random(n) < 0.8  # zero-weight coordinates
        x_star = rng.standard_normal(n) * rng.choice([0.5, 2.0])
        s0 = soft_shrink(x_star, weights)
        # the root moves from before the first kink to far past the nearest
        # ones as |beta - <a, S(x_star)>| grows
        beta = float(a @ s0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-4.0, 2.5))
        nonneg = bool(rng.random() < 0.3)
        gp0 = beta - float(a @ s0) if rng.random() < 0.3 else None
        x = s0 if rng.random() < 0.5 else None
        want = _full_sort_linesearch(x_star, a, beta, weights, nonneg, gp0=gp0, x=x)
        args = (_plan(a, weights), x_star, beta, nonneg)
        locates.clear()
        with pytest.MonkeyPatch.context() as mp:  # one locate: a far root is bisected
            mp.setattr(projections, "_locate_root_piece", counted)
            got = projections._shrink_linesearch(*args, gp0=gp0, x=x)
        assert len(locates) <= 1, case
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), case
        with _forced_bisection():  # the fallback bisects every kink, not the nearest
            forced = projections._shrink_linesearch(*args, gp0=gp0, x=x)
        assert np.float64(forced).tobytes() == np.float64(want).tobytes(), case
        # the number of kinks between 0 and the root
        supp = (a != 0.0) & (weights > 0.0)
        u, w, av = x_star[supp], weights[supp], a[supp]
        kinks = np.concatenate(((u - w) / av, (u + w) / av)) * np.sign(got)
        before = int(np.count_nonzero((kinks > 0.0) & (kinks < abs(got))))
        seen.add((got > 0.0, nonneg, before == 0, before > projections._NEAR_KINKS))
    # both signs, with and without nonneg, roots before the first kink and past
    # the partially sorted ones
    assert {(True, False, True, False), (False, False, True, False)} <= seen
    assert {(True, False, False, True), (False, False, False, True)} <= seen
    assert {(True, True, True, False), (True, True, False, True)} <= seen


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["x_star", "a", "beta"])
@pytest.mark.parametrize(
    "obj", [ElasticNet(0.5, 3), GroupElasticNet(0.5, [np.array([0, 1, 2])])], ids=["l1", "group"]
)
def test_linesearch_rejects_non_finite_data(obj, where, bad):
    x_star, a, beta = np.array([1.0, -2.0, 0.5]), np.array([1.0, 0.5, -1.0]), 0.3
    if where == "x_star":
        x_star[1] = bad
    elif where == "a":
        a[1] = bad
    else:
        beta = bad
    with pytest.raises(NonFiniteData):
        exact_linesearch(obj, x_star, a, beta)
    if where == "x_star":
        # a hyperplane step, whose normal was checked when the set was built
        with pytest.raises(NonFiniteData):
            bregman_project(obj, pair_from_dual(obj, x_star), Hyperplane(a, beta))


# ---------------------------------------------------------------------------
# Bregman projections
# ---------------------------------------------------------------------------


def test_bregman_hyperplane_example():
    obj = ElasticNet(1.0, 1)
    pair = pair_from_dual(obj, np.array([2.0]))
    out = bregman_project(obj, pair, Hyperplane(np.array([1.0]), 0.5))
    np.testing.assert_allclose(out.x_star, [1.5])
    np.testing.assert_allclose(out.x, [0.5])


def test_bregman_hyperplane_squared_norm_is_orthogonal():
    obj = SquaredNorm(2)
    pair = pair_from_dual(obj, np.zeros(2))
    out = bregman_project(obj, pair, Hyperplane(np.array([1.0, 0.0]), 2.0))
    np.testing.assert_allclose(out.x, [2.0, 0.0])


@pytest.mark.parametrize(
    "normal, beta", [([1.0, 1.0, 0.0, 0.0], 5.0), ([1.0, 1.0, -0.0, 0.0], -5.0)], ids=["t<0", "t>0"]
)
def test_bregman_hyperplane_keeps_x_star_off_the_support(normal, beta):
    # x* - t * (+-0.0) would turn the -0.0 at coordinate 2 into +0.0 while x
    # keeps -0.0 there, and the pair would stop being x = grad f*(x*)
    obj = ProductObjective([SquaredNorm(2), GroupElasticNet(0.5, [[0, 1]])])
    pair = pair_from_dual(obj, np.array([1.0, 1.0, -0.0, 0.3]))
    out = bregman_project(obj, pair, Hyperplane(np.array(normal), beta))
    assert np.dot(normal, out.x) == pytest.approx(beta)
    assert out.x_star[2:].tobytes() == pair.x_star[2:].tobytes()
    assert out.x.tobytes() == obj.grad_conjugate(out.x_star).tobytes()


def test_bregman_hyperplane_minimality():
    rng = np.random.default_rng(18)
    for _ in range(50):
        n = rng.integers(2, 7)
        obj = ElasticNet(float(rng.uniform(0.0, 1.5)), n)
        pair = pair_from_dual(obj, rng.standard_normal(n) * 2.0)
        a = rng.standard_normal(n)
        beta = float(rng.standard_normal())
        out = bregman_project(obj, pair, Hyperplane(a, beta))
        assert np.dot(a, out.x) == pytest.approx(beta, abs=1e-9)
        assert fenchel_gap(obj, out.x_star, out.x) <= 1e-10
        d_star = bregman_distance(obj, pair.x, pair.x_star, out.x)
        h = Hyperplane(a, beta)
        for _ in range(10):
            y = h.project(rng.standard_normal(n) * 2.0)
            assert d_star <= bregman_distance(obj, pair.x, pair.x_star, y) + 1e-9


def test_bregman_halfspace_inside_is_identity():
    obj = ElasticNet(1.0, 2)
    pair = pair_from_dual(obj, np.array([2.0, 0.0]))
    out = bregman_project(obj, pair, Halfspace(np.array([1.0, 0.0]), 5.0))
    assert out is pair


def test_bregman_halfspace_outside_matches_hyperplane():
    rng = np.random.default_rng(19)
    for _ in range(50):
        n = rng.integers(2, 6)
        obj = ElasticNet(0.5, n)
        pair = pair_from_dual(obj, rng.standard_normal(n) * 3.0)
        a = rng.standard_normal(n)
        beta = float(np.dot(a, pair.x)) - abs(rng.standard_normal()) - 0.1
        out = bregman_project(obj, pair, Halfspace(a, beta))
        hp = bregman_project(obj, pair, Hyperplane(a, beta))
        np.testing.assert_allclose(out.x_star, hp.x_star, atol=1e-12)


def test_bregman_nonneg_example():
    obj = ElasticNet(1.0, 3)
    pair = pair_from_dual(obj, np.array([2.0, -3.0, 0.5]))
    out = bregman_project(obj, pair, NonnegCone())
    np.testing.assert_allclose(out.x, [1.0, 0.0, 0.0])
    np.testing.assert_allclose(out.x_star, [2.0, 0.0, 0.5])


def test_bregman_nonneg_minimality_and_partial_indices():
    rng = np.random.default_rng(20)
    obj = ElasticNet(0.7, 4)
    idx = np.array([0, 2])
    for _ in range(50):
        pair = pair_from_dual(obj, rng.standard_normal(4) * 2.0)
        out = bregman_project(obj, pair, NonnegCone(idx))
        assert np.all(out.x[idx] >= 0.0)
        np.testing.assert_allclose(out.x[[1, 3]], pair.x[[1, 3]])
        assert fenchel_gap(obj, out.x_star, out.x) <= 1e-10
        d_star = bregman_distance(obj, pair.x, pair.x_star, out.x)
        for _ in range(10):
            y = rng.standard_normal(4)
            y[idx] = np.abs(y[idx])
            assert d_star <= bregman_distance(obj, pair.x, pair.x_star, y) + 1e-9


def test_bregman_box_examples():
    obj = ElasticNet(1.0, 1)
    pair = pair_from_dual(obj, np.array([3.0]))
    out = bregman_project(obj, pair, Box(np.array([0.0]), np.array([1.0])))
    np.testing.assert_allclose(out.x, [1.0])
    np.testing.assert_allclose(out.x_star, [2.0])

    pair = pair_from_dual(obj, np.array([0.5]))
    out = bregman_project(obj, pair, Box(np.array([-1.0]), np.array([1.0])))
    np.testing.assert_allclose(out.x, [0.0])
    np.testing.assert_allclose(out.x_star, [0.5])

    pair = pair_from_dual(obj, np.array([-4.0]))
    out = bregman_project(obj, pair, Box(np.array([0.0]), np.array([1.0])))
    np.testing.assert_allclose(out.x, [0.0])
    np.testing.assert_allclose(out.x_star, [0.0])


def test_bregman_box_pair_is_consistent_at_active_bounds():
    # at an active bound x* = bound +- w, and the shrinkage of that x* is the
    # bound only up to a rounding: the primal must be that shrinkage, so the
    # pair stays bitwise consistent for the steps that read x from it
    obj = ElasticNet(0.3, 4)
    box = Box(np.full(4, -0.1), np.full(4, 0.1))
    out = bregman_project(obj, pair_from_dual(obj, np.array([5.0, -5.0, 0.2, 3.0])), box)
    np.testing.assert_array_equal(out.x, obj.grad_conjugate(out.x_star))
    assert box.distance(out.x) <= 1e-12


def test_bregman_box_requires_zero():
    obj = ElasticNet(1.0, 1)
    pair = pair_from_dual(obj, np.array([3.0]))
    with pytest.raises(BoxWithoutZero):
        bregman_project(obj, pair, Box(np.array([1.0]), np.array([2.0])))


def test_bregman_box_minimality():
    rng = np.random.default_rng(21)
    obj = ElasticNet(0.6, 3)
    lower = np.array([-1.0, 0.0, -2.0])
    upper = np.array([0.5, 1.0, 0.0])
    box = Box(lower, upper)
    for _ in range(50):
        pair = pair_from_dual(obj, rng.standard_normal(3) * 3.0)
        out = bregman_project(obj, pair, Box(lower, upper))
        assert np.all(out.x >= lower - 1e-12) and np.all(out.x <= upper + 1e-12)
        assert fenchel_gap(obj, out.x_star, out.x) <= 1e-10
        d_star = bregman_distance(obj, pair.x, pair.x_star, out.x)
        for _ in range(10):
            y = box.project(rng.standard_normal(3) * 2.0)
            assert d_star <= bregman_distance(obj, pair.x, pair.x_star, y) + 1e-9


def test_bregman_dispatch_pure_quadratic_reduces_to_orthogonal():
    rng = np.random.default_rng(23)
    obj = SquaredNorm(3)
    ball = NormBall(np.array([1.0, 0.0, 0.0]), 0.5, 2)
    for _ in range(20):
        pair = pair_from_dual(obj, rng.standard_normal(3) * 2.0)
        out = bregman_project(obj, pair, ball)
        np.testing.assert_allclose(out.x, ball.project(pair.x), atol=1e-10)
        np.testing.assert_allclose(out.x, out.x_star)


def test_bregman_dispatch_rejects_unsupported():
    obj = ElasticNet(1.0, 2)
    pair = pair_from_dual(obj, np.zeros(2))
    with pytest.raises(TypeError):
        bregman_project(obj, pair, NormBall(np.zeros(2), 1.0, 2))


def test_has_bregman_projector():
    def has_bregman_projector(obj, target):
        try:
            bregman_projector(obj, target)
        except TypeError:
            return False
        return True

    en = ElasticNet(1.0, 2)
    sq = SquaredNorm(2)
    assert has_bregman_projector(en, Hyperplane(np.array([1.0, 0.0]), 0.0))
    assert has_bregman_projector(en, NonnegCone())
    assert has_bregman_projector(en, Box(np.array([0.0, 0.0]), np.array([1.0, 1.0])))
    assert not has_bregman_projector(en, NormBall(np.zeros(2), 1.0, 2))
    assert has_bregman_projector(sq, NormBall(np.zeros(2), 1.0, 2))
    prod = ProductObjective([ElasticNet(1.0, 1), GroupElasticNet(1.0, [np.array([0])])])
    assert has_bregman_projector(prod, NonnegCone(np.array([0])))
    assert not has_bregman_projector(prod, NonnegCone(np.array([1])))
    assert not has_bregman_projector(prod, NonnegCone())


def test_bregman_projector_is_kept_per_set_and_objective():
    en, sq = ElasticNet(1.0, 2), SquaredNorm(2)
    plane = Hyperplane(np.array([1.0, 2.0]), 1.0)
    assert bregman_projector(en, plane) is bregman_projector(en, plane)
    # another objective rebuilds it: every result equals a fresh set's
    for obj in (sq, en, sq):
        pair = pair_from_dual(obj, np.array([3.0, 1.0]))
        out = bregman_project(obj, pair, plane)
        ref = bregman_project(obj, pair, Hyperplane(plane.normal, plane.offset))
        assert out.x.tobytes() == ref.x.tobytes()
        assert out.x_star.tobytes() == ref.x_star.tobytes()
    # a set that keeps a projector still pickles; the copy builds its own
    pair = pair_from_dual(en, np.array([3.0, 1.0]))
    copy = pickle.loads(pickle.dumps(plane))
    out, ref = bregman_project(en, pair, copy), bregman_project(en, pair, plane)
    assert out.x.tobytes() == ref.x.tobytes()


def test_variational_inequality_of_projections():
    # <z_star - x_star, y - z> >= 0 for every feasible y certifies minimality
    rng = np.random.default_rng(24)
    en = ElasticNet(0.9, 3)
    a = np.array([1.0, -2.0, 0.5])
    # a normal reaching a group block, whose NaN weights take the root-finding
    # linesearch
    mixed = ProductObjective([en, GroupElasticNet(1.0, [np.array([0, 1])])])
    cases = [
        ("hyperplane", en, Hyperplane(a, 0.7)),
        ("halfspace", en, Halfspace(a, -0.5)),
        ("hyperplane+group", mixed, Hyperplane(np.append(a, [1.5, -1.0]), 0.7)),
    ]
    for name, obj, target in cases:
        n = obj.dimension
        for _ in range(30):
            pair = pair_from_dual(obj, rng.standard_normal(n) * 2.0)
            out = bregman_project(obj, pair, target)
            for _ in range(10):
                y = target.project(rng.standard_normal(n) * 3.0)
                lhs = np.dot(out.x_star - pair.x_star, y - out.x)
                assert lhs >= -1e-9, name


@st.composite
def _projection_cases(draw):
    # half-integer data put the dual on kinks and on set boundaries
    n = draw(st.integers(1, 5))

    def halves(lo, hi, size=n):
        return np.array(draw(st.lists(st.integers(lo, hi), min_size=size, max_size=size))) / 2.0

    kind = draw(st.sampled_from(["hyperplane", "halfspace", "nonneg", "box"]))
    form = draw(st.sampled_from(["squared", "elastic", "product", "product+group"]))
    lam = draw(st.sampled_from([0.0, 0.5, 1.0, 2.5]))
    x_star = halves(-8, 8)
    if kind in ("hyperplane", "halfspace"):
        a = halves(-4, 4)
        assume(np.any(a))
        beta = draw(st.integers(-12, 12)) / 2.0
        target = (Hyperplane if kind == "hyperplane" else Halfspace)(a, beta)
    elif kind == "nonneg" and draw(st.booleans()):
        # the whole space: the closed form needs finite weights everywhere
        form = form.replace("+group", "")
        target = NonnegCone()
    elif kind == "nonneg":
        target = NonnegCone(np.nonzero(draw(st.lists(st.booleans(), min_size=n, max_size=n)))[0])
    else:
        # the box closed form needs finite weights everywhere: no group block
        form = form.replace("+group", "")
        target = Box(halves(-6, 0), halves(0, 6))
    if form == "squared":
        obj = SquaredNorm(n)
    elif form == "elastic":
        obj = ElasticNet(lam, n)
    else:
        weights = halves(0, 4) if lam > 0.0 else np.zeros(n)
        parts = [ElasticNet(w, 1) for w in weights]
        if form == "product+group":
            # a group block without shrink weights, off the set's support or
            # reached by a normal, whose linesearch then finds a root
            parts.append(GroupElasticNet(1.0, [np.array([0, 1])]))
            x_star = np.append(x_star, [1.5, -2.0])
            if kind != "nonneg":
                block = halves(-4, 4, size=2) if draw(st.booleans()) else np.zeros(2)
                target = type(target)(np.append(target.normal, block), target.offset)
        obj = ProductObjective(parts)
    return obj, pair_from_dual(obj, x_star), target


@settings(max_examples=200, deadline=None)
@given(case=_projection_cases())
def test_bregman_project_property(case):
    obj, pair, target = case
    out = bregman_project(obj, pair, target)
    scale = 1.0 + float(np.abs(out.x) @ (1.0 + np.abs(out.x_star)))
    assert target.distance(out.x) <= 1e-9 * scale
    assert abs(fenchel_gap(obj, out.x_star, out.x)) <= 1e-9 * scale
    assert np.array_equal(out.x, obj.grad_conjugate(out.x_star))
    group = isinstance(obj, ProductObjective) and isinstance(obj.parts[-1], GroupElasticNet)
    if group and not np.any(getattr(target, "normal", np.zeros(2))[-2:]):
        np.testing.assert_array_equal(out.x[-2:], pair.x[-2:])
        np.testing.assert_array_equal(out.x_star[-2:], pair.x_star[-2:])
    if not np.any(obj.shrink_weights()):
        np.testing.assert_array_equal(out.x, target.project(pair.x))


# ---------------------------------------------------------------------------
# kink-free linesearches and contiguous index sets
# ---------------------------------------------------------------------------


@st.composite
def _kink_free_cases(draw):
    # a direction supported where the weights are zero: the squared-norm
    # block of a product with an elastic net
    n = draw(st.integers(1, 6))
    ints = st.integers(-8, 8)
    a = np.array(draw(st.lists(ints, min_size=n, max_size=n))) / 2.0
    assume(np.any(a))
    x_star = np.array(draw(st.lists(ints, min_size=n + 2, max_size=n + 2))) / 4.0
    x_star[draw(st.integers(0, n + 1))] = draw(st.sampled_from([0.0, -0.0]))
    beta = draw(st.floats(-10.0, 10.0))
    return x_star, np.append(a, [0.0, 0.0]), beta, draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(case=_kink_free_cases())
def test_kink_free_linesearch_is_the_kink_walk_in_closed_form(case):
    x_star, a, beta, nonneg = case
    obj = ProductObjective([SquaredNorm(a.size - 2), ElasticNet(1.0, 2)])
    weights = obj.shrink_weights()
    plan = _plan(a, weights)
    assert plan.line_slope is not None
    t = exact_linesearch(obj, x_star, a, beta, nonneg=nonneg, plan=plan)
    # g' = 0 at t within rounding, unless a halfspace clamps t to 0
    gp = beta - float(np.dot(a, obj.grad_conjugate(x_star - t * a)))
    tol = 1e-12 * (1.0 + abs(beta) + np.abs(a) @ (np.abs(x_star) + np.abs(a) * abs(t)))
    if nonneg:
        assert t >= 0.0
    if nonneg and t == 0.0:
        assert gp >= -tol
    else:
        assert abs(gp) <= tol
    # the kink walk on the same plan returns the same bits
    walk = _plan(a, weights)
    walk.line_slope = None
    pair = pair_from_dual(obj, x_star)
    for x in (None, pair.x):
        t_walk = projections._shrink_linesearch(walk, x_star, beta, nonneg, x=x)
        t_closed = projections._shrink_linesearch(plan, x_star, beta, nonneg, x=x)
        assert np.float64(t_closed).tobytes() == np.float64(t_walk).tobytes()


def test_weighted_supports_keep_the_kink_walk():
    a = np.array([1.0, 2.0, 0.0])
    assert _plan(a, np.array([0.0, 0.5, 0.0])).line_slope is None
    assert _plan(a, np.array([0.0, np.nan, 0.0])).line_slope is None
    assert _plan(a, np.array([0.0, 0.0, 3.0])).line_slope == 5.0


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([0.0, -0.0, 1.0, -2.5]), min_size=1, max_size=12))
def test_nonzeros_index_is_a_slice_for_one_run(values):
    v = np.array(values)
    idx = projections._nonzeros(v)
    nz = np.flatnonzero(v)
    if nz.size == v.size:
        assert idx == slice(None)
    elif nz.size and nz[-1] - nz[0] + 1 == nz.size:
        assert idx == slice(int(nz[0]), int(nz[-1]) + 1)
    else:
        assert idx.dtype == bool and not idx.flags.writeable
        np.testing.assert_array_equal(idx, v != 0.0)
    mask = np.zeros(v.size, dtype=bool)
    mask[idx] = True
    np.testing.assert_array_equal(mask, v != 0.0)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 6),
    st.integers(1, 6),
    st.lists(st.sampled_from([0.0, -0.0, 1.5, -1.5, -3.0]), min_size=12, max_size=12),
)
def test_nonneg_cone_slices_act_like_their_index_arrays(start, length, values):
    y = np.array(values)
    run = np.arange(start, start + length)
    cone = NonnegCone(run)
    assert cone.indices == slice(start, start + length)
    # the same indices in reverse order, one of them twice, stay an index array
    reference = NonnegCone(np.append(run[::-1], start))
    assert isinstance(reference.indices, np.ndarray)
    assert cone.project(y).tobytes() == reference.project(y).tobytes()
    assert cone.distance(y) == reference.distance(y)
    obj = ElasticNet(0.5, y.size)
    pair = pair_from_dual(obj, y)
    via_slice = bregman_project(obj, pair, cone)
    via_array = bregman_project(obj, pair, reference)
    assert via_slice.x.tobytes() == via_array.x.tobytes()
    assert via_slice.x_star.tobytes() == via_array.x_star.tobytes()


def test_data_fits_bounds_a_slice_by_its_stop():
    cone = NonnegCone(np.arange(2, 5))
    assert cone.indices == slice(2, 5)
    assert data_fits(cone, 5) and data_fits(cone, 9)
    assert not data_fits(cone, 4)
    assert data_fits(NonnegCone(), 1)
    assert not data_fits(NonnegCone([4, 2]), 4)
    plane = Hyperplane(np.array([0.0, 1.0, 2.0, 0.0]), 1.0)
    assert plane.support == slice(1, 3)
    assert data_fits(plane, 4) and not data_fits(plane, 3)
