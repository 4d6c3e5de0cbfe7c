import bisect
import contextlib
import copy
import itertools
import math
import pickle
import re
import warnings
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from splitbreg.objectives import (
    ALL,
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
from splitbreg._checks import _vector
from splitbreg.linops import DenseMatrix
from splitbreg.solver import Custom, Difficult, RandomUniform, preset, run

from oracles import (
    box_bregman_oracle,
    bregman_pair_is_optimal,
    grid_minimize,
    l1_ball_oracle,
    l1_ball_threshold_oracle,
    l1_linesearch_oracle,
    nonneg_cone_as_box,
    simplex_oracle,
    simplex_threshold_oracle,
)


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


# the error the simplex and l1-ball projections meet against their exact
# thresholds on small dyadic data, relative to the input's scale: max|y| plus
# the total or radius
_THRESHOLD_REL_EPS = 1e-15


@st.composite
def _dyadic_vectors(draw):
    # n <= 8 quarter-integers from a short range, so entries repeat and the
    # threshold often equals one of them
    n = draw(st.integers(1, 8))
    return np.array(draw(st.lists(st.integers(-8, 8), min_size=n, max_size=n))) / 4.0


def _assert_near(z, exact, scale):
    # |z_j - exact_j| <= _THRESHOLD_REL_EPS * scale for every j
    bound = Fraction(_THRESHOLD_REL_EPS) * Fraction(float(scale))
    for zj, ej in zip(z, exact):
        assert abs(Fraction(float(zj)) - ej) <= bound, (zj, ej)


@settings(max_examples=200, deadline=None)
@given(y=_dyadic_vectors(), total=st.integers(0, 16).map(lambda v: v / 4.0))
def test_simplex_projection_meets_the_exact_threshold(y, total):
    theta = simplex_threshold_oracle(y, total)
    exact = [max(Fraction(float(v)) - theta, Fraction(0)) for v in y]
    assert sum(exact) == Fraction(total)
    z = project_simplex(y, total)
    assert np.all(z >= 0.0)
    _assert_near(z, exact, np.abs(y).max() + total)


@settings(max_examples=200, deadline=None)
@given(y=_dyadic_vectors(), radius=st.integers(0, 16).map(lambda v: v / 4.0))
def test_l1_ball_projection_meets_the_exact_threshold(y, radius):
    theta = l1_ball_threshold_oracle(y, radius)
    assert theta >= 0
    exact = [max(abs(v) - theta, Fraction(0)) * (1 if v > 0 else -1) for v in map(Fraction, y)]
    assert sum(map(abs, exact)) <= Fraction(radius)
    _assert_near(project_l1_ball(y, radius), exact, np.abs(y).max() + radius)


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


_GAP_ENTRIES = st.floats(-1e6, 1e6, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(
    pairs=st.lists(st.tuples(_GAP_ENTRIES, _GAP_ENTRIES), min_size=1, max_size=8),
    radius=st.floats(0.0, 1e6),
    p=st.sampled_from([1, 2, np.inf]),
)
def test_norm_ball_gap_is_the_p_norm_distance_less_the_radius(pairs, radius, p):
    y, center = np.array(pairs).T
    ball = NormBall(center, radius, p)
    # bit for bit, -0.0 included: hex tells the zeros apart
    assert ball.gap(y).hex() == (float(np.linalg.norm(y - center, p)) - radius).hex()
    assert ball.gap(center) == -radius
    outside = center.copy()
    outside[0] += 2.0 * radius + 1.0
    assert ball.gap(outside) > 0.0


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
        (lambda: project_simplex(np.ones(3), np.nan), "total must be nonnegative and finite"),
        (lambda: project_l1_ball(np.ones(3), np.nan), "radius must be nonnegative"),
        (lambda: ElasticNet(np.nan, 3), "lam must be nonnegative and finite"),
        (lambda: GroupElasticNet(np.nan, [[0, 1]]), "lam must be nonnegative and finite"),
        (lambda: GroupedMax(np.nan, [[0, 1]]), "lam must be nonnegative and finite"),
        (lambda: ProductObjective([]), "need at least one part"),
        (lambda: Custom([]), "order must be nonempty"),
        (lambda: Custom([1.5, 0]), "order must hold integers, not 1.5"),
        (lambda: Custom([True, 0]), "order must hold integers, not True"),
        (lambda: Custom(["1", 0]), "order must hold integers, not '1'"),
        (lambda: RandomUniform(-1), "seed must be nonnegative and whole, not -1"),
        (lambda: RandomUniform(1.5), "seed must be nonnegative and whole, not 1.5"),
        (lambda: RandomUniform(True), "seed must be nonnegative and whole, not True"),
        (lambda: Point(np.ones((2, 2))), "b must be a vector, not of shape (2, 2)"),
        (
            lambda: NormBall(np.ones((2, 2)), 1.0),
            "center must be a vector, not of shape (2, 2)",
        ),
        (
            lambda: Box(-np.ones((2, 2)), np.ones((2, 2))),
            "lower must be a vector, not of shape (2, 2)",
        ),
        (
            lambda: Box(np.zeros(2), np.ones((1, 2))),
            "upper must be a vector, not of shape (1, 2)",
        ),
        (
            lambda: Box(np.zeros(2), np.ones(3)),
            "lower and upper must have equal sizes or size 1, not (2, 3)",
        ),
        (
            lambda: Hyperplane(np.ones((2, 3)), 1.0),
            "normal must be a vector, not of shape (2, 3)",
        ),
        (
            lambda: Halfspace(np.ones((3, 1)), 1.0),
            "normal must be a vector, not of shape (3, 1)",
        ),
        (
            lambda: NonnegCone(np.array([True, False, True])),
            "cone indices must hold integers, not True",
        ),
        (lambda: NonnegCone([1.7, 0.2]), "cone indices must hold integers, not 1.7"),
        (lambda: NormBall(np.zeros(2), "1"), "radius must be a real number, not '1'"),
        (lambda: NormBall(np.zeros(2), True), "radius must be a real number, not True"),
        (lambda: ElasticNet(True, 2), "lam must be a real number, not True"),
        (lambda: project_simplex(np.ones(3), None), "total must be a real number, not None"),
        (lambda: Hyperplane([1.0, 2.0], "1"), "offset must be a real number, not '1'"),
        (lambda: Halfspace([1.0, 2.0], True), "offset must be a real number, not True"),
        (lambda: Hyperplane([1.0, 2.0], None), "offset must be a real number, not None"),
        (lambda: Hyperplane([1.0, 2.0], 1 + 2j), "offset must be a real number, not (1+2j)"),
        (lambda: Point(["1", "0"]), "b must hold real numbers, not '1'"),
        (lambda: Hyperplane(["1", "2"], 1.0), "normal must hold real numbers, not '1'"),
        (lambda: _vector("b", [None, 1.0]), "b must hold real numbers, not None"),
        (lambda: Point(["x", 1.0]), "b must hold real numbers, not 'x'"),
        (lambda: Point([1 + 0j]), "b must hold real numbers, not (1+0j)"),
        (lambda: Point(np.array([1 + 1j])), "b must hold real numbers, not (1+1j)"),
    ],
    ids=[
        "ball-2", "ball-1", "ball-inf", "box-lower", "box-upper", "cone-negative-index",
        "simplex", "l1-ball", "elastic-net", "group-elastic-net", "grouped-max", "no-parts",
        "empty-order", "fractional-order", "bool-order", "string-order", "negative-seed",
        "fractional-seed", "bool-seed", "matrix-point", "matrix-center", "matrix-bounds",
        "matrix-upper", "unequal-bounds", "matrix-normal", "column-normal", "bool-cone-indices",
        "float-cone-indices", "string-radius", "bool-radius", "bool-lam", "none-total",
        "string-offset", "bool-offset", "none-offset", "complex-offset", "string-point",
        "string-normal", "none-in-vector", "unreadable-string-point", "complex-point",
        "complex-array-point",
    ],
)
def test_malformed_set_data_is_rejected(build, message):
    # NaN fails every positive assertion; a negative index would count from the
    # end; a float, bool or string seed, order entry, cone index, radius or
    # weight, and a non-real offset, would be cast silently or fail unnamed,
    # and so would a string or None inside a vector (numpy reads them as the
    # number spelled and NaN), and so would a string numpy cannot read or a
    # complex number, in a list or as an array's dtype, whose conversion fails
    # unnamed or drops the imaginary part with a warning;
    # data of more than one dimension or bounds of two sizes would fail in
    # numpy's broadcasting
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_numpy_scalar_offsets_are_accepted():
    # a row preset's b[i] and any numpy integer or float scalar are real numbers
    b = np.array([1.5, -2.0])
    assert Hyperplane([1.0, 2.0], b[0]).offset == 1.5
    assert Halfspace([1.0, 2.0], np.int64(-3)).offset == -3.0
    assert type(Hyperplane([1.0, 2.0], np.float32(0.5)).offset) is float


def test_infinite_set_data_is_accepted():
    np.testing.assert_array_equal(NormBall(np.zeros(2), np.inf, 2).project([3.0, 4.0]), [3.0, 4.0])
    box = Box(np.array([-np.inf, 0.0]), np.array([np.inf, np.inf]))
    np.testing.assert_array_equal(box.project([-5.0, -1.0]), [-5.0, 0.0])
    # a weight has no "no bound" reading: an infinite one is rejected
    with pytest.raises(ValueError, match="^lam must be nonnegative and finite$"):
        ElasticNet(np.inf, 2)


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


def test_a_normal_whose_square_overflows_is_named_without_a_warning():
    # every entry is finite but a.a is not: np.dot would warn before the check
    a = np.array([1e155, 2e155, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteData, match="^hyperplane normal or offset is not finite$"):
            Hyperplane(a, 1.0)
        with pytest.raises(NonFiniteData, match="square overflows"):
            exact_linesearch(ElasticNet(1.0, 3), np.zeros(3), a, 1.0)
        rows = 1e160 * np.random.default_rng(0).standard_normal((3, 4))
        with pytest.raises(NonFiniteData, match="^hyperplane normal or offset is not finite$"):
            preset("sparse_kaczmarz", rows, np.ones(3), lam=1.0)


def test_linear_sets_build_their_fixed_data_once():
    h = Hyperplane(np.array([3.0, 0.0, -4.0]), 1.0)
    assert h.norm == 5.0
    assert h.support.dtype.kind == "i"
    np.testing.assert_array_equal(h.support, [0, 2])
    with pytest.raises(ValueError):
        h.support[1] = 1
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
    # a plan as exact_linesearch and the projectors build it, on the verdicts
    # taken on all the weights
    verdicts = projections._WeightVerdicts(weights)
    return projections._LinesearchPlan(a, verdicts, projections._nonzeros(a), float(np.dot(a, a)))


def _linesearch(plan, x_star, beta, nonneg, gp0=None, x=None):
    # the kink walk through its one entry, on a ready plan
    return exact_linesearch(None, x_star, None, beta, nonneg, gp0=gp0, x=x, plan=plan)


@contextlib.contextmanager
def _counted_bisections():
    """Count the fallback's bisections; yields the counts."""
    counts = {"bisections": 0}

    def bisect_left(*args, **kwargs):
        counts["bisections"] += 1
        return bisect.bisect_left(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(projections, "bisect", SimpleNamespace(bisect_left=bisect_left))
        yield counts


def test_a_typical_row_solve_never_bisects():
    # sparse Kaczmarz on gaussian rows: the walk and its confirmation settle
    # every linesearch, so the sort-and-bisect fallback never runs
    rng = np.random.default_rng(3)
    a = rng.standard_normal((40, 200))
    x = np.zeros(200)
    x[rng.choice(200, 4, replace=False)] = rng.standard_normal(4)
    cfg = preset(
        "sparse_kaczmarz", a, a @ x, lam=10.0 * np.abs(x).max(),
        max_iterations=5000, residual_tolerance=1e-6,
    )
    with _counted_bisections() as counts:
        res = run(cfg)
    assert res.termination == "tolerance"
    assert counts["bisections"] == 0


@contextlib.contextmanager
def _forced_bisection():
    """Make the kink walk guess the first piece, on which g' is known to stay
    below 0, so that every linesearch that walks must reject its guess and
    bisect. Yields the counts of guesses and of bisections."""
    walk = projections._walk_kinks

    with _counted_bisections() as counts, pytest.MonkeyPatch.context() as mp:
        counts["guesses"] = 0

        def wrong(*args):
            counts["guesses"] += 1
            ends = walk(*args)
            return None if ends is None else ends[:2]

        mp.setattr(projections, "_walk_kinks", wrong)
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
    # a wrong guess is always caught by the from-scratch confirmation, and
    # nothing is bisected without a guess, a kink at 0 (a tie |x*_j| = w_j)
    # included
    x_star, a, weights, beta, nonneg, _ = case
    args = (_plan(a, weights), x_star, beta, nonneg)
    t = _linesearch(*args, gp0=gp0)
    with _forced_bisection() as counts:
        t_bisected = _linesearch(*args, gp0=gp0)
    assert np.float64(t).tobytes() == np.float64(t_bisected).tobytes()
    assert counts["bisections"] == counts["guesses"] <= 1
    # the primal a consistent pair holds stands in for the shrinkage of x_star
    t_from_x = _linesearch(*args, gp0=gp0, x=soft_shrink(x_star, weights))
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
    monkeypatch.setattr(projections, "_walk_kinks", None)  # a call would raise
    # zero weights on the support of a: no kinks at all, g' is linear
    a, x_star, beta = np.array([1.0, -2.0, 0.0, 0.5]), np.array([0.5, 1.0, 3.0, -1.0]), 0.25
    weights = np.array([0.0, 0.0, 1.0, 0.0])
    t = _linesearch(_plan(a, weights), x_star, beta, False)
    assert t == pytest.approx((a @ x_star - beta) / (a @ a))
    # kinks at t = -4 and t = -2 only, behind the root at t = 1 of g'(t) = t - 1
    one = np.ones(1)
    t = _linesearch(_plan(one, one), -3.0 * one, -3.0, False)
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
    # few the walk crosses; every wrong guess is caught
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
    # the prefix-sum locate step the kink walk replaced, as it was before its
    # partial sort: ``slope`` is g''s slope past the last kink
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
    seen, walks, walk = set(), [], projections._walk_kinks

    def counted(*args):
        walks.append(args)
        return walk(*args)

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
        walks.clear()
        with pytest.MonkeyPatch.context() as mp:  # one walk: a far root is bisected
            mp.setattr(projections, "_walk_kinks", counted)
            got = _linesearch(*args, gp0=gp0, x=x)
        assert len(walks) <= 1, case
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), case
        with _forced_bisection():  # the fallback bisects every kink
            forced = _linesearch(*args, gp0=gp0, x=x)
        assert np.float64(forced).tobytes() == np.float64(want).tobytes(), case
        # the number of kinks between 0 and the root
        supp = (a != 0.0) & (weights > 0.0)
        u, w, av = x_star[supp], weights[supp], a[supp]
        kinks = np.concatenate(((u - w) / av, (u + w) / av)) * np.sign(got)
        before = int(np.count_nonzero((kinks > 0.0) & (kinks < abs(got))))
        seen.add((got > 0.0, nonneg, before == 0, before > projections._WALK_CAP))
    # both signs, with and without nonneg, roots before the first kink and past
    # the walk's cap
    assert {(True, False, True, False), (False, False, True, False)} <= seen
    assert {(True, False, False, True), (False, False, False, True)} <= seen
    assert {(True, True, True, False), (True, True, False, True)} <= seen


# (x_star, a, weights, beta, nonneg) at the edges of the first piece and of
# the kink walk
_PAST_THE_CAP = projections._WALK_CAP + 8  # more kinks before the root than the walk crosses
_EDGE_CASES = {
    # |x*_j| = w_j: coordinate 0 moves into [-1, 1] and coordinate 1 out of it,
    # then the other way round (g'(0) of the other sign); the root lies past
    # the first kink
    "ties": (np.array([1.0, -1.0, 0.5]), np.array([1.0, 1.0, 0.5]), np.ones(3), -4.0, False),
    "mirrored-ties": (
        np.array([1.0, -1.0, 0.5]), np.array([1.0, 1.0, 0.5]), np.ones(3), 4.0, False
    ),
    # g' = t - 1 on (0, 1) and 0 on [1, 1.5]: the root is the kink at 1
    "root-at-a-kink": (np.array([2.0, 0.5]), np.array([1.0, 1.0]), np.ones(2), 0.0, False),
    # a flat zero stretch that starts at a kink: the answer is 0.5, not 1
    "flat-from-a-kink": (np.array([1.0, 1.0]), np.array([1.0, 1.5]), np.full(2, 0.5), 0.0, False),
    # the root sits on the second kink, which the walk's running sums read as
    # just below 0
    "root-on-a-walked-kink": (
        np.array([0.0, 0.0, 0.5, -2.5]),
        np.array([0.0, 0.5, 1.0, 1.5]),
        np.array([0.0, 0.0, 0.0, 0.5]),
        3.0,
        False,
    ),
    # x = 0: the first piece has slope 0
    "x-zero": (np.array([0.25, -0.5]), np.array([1.0, 2.0]), np.ones(2), 3.0, False),
    # -0.0 in x_star, on zero weights and on a positive one
    "negative-zeros": (
        np.array([-0.0, 0.5, -0.0, -0.0]),
        np.array([1.0, -1.0, 0.5, 2.0]),
        np.array([0.0, 0.5, 0.0, 1.0]),
        1.0,
        False,
    ),
    # a mask support with zero weights on it
    "mask-support": (
        np.array([0.5, 3.0, -1.5, 2.0, -0.25]),
        np.array([1.0, 0.0, -2.0, 0.0, 0.5]),
        np.array([1.0, 1.0, 0.0, 1.0, 0.5]),
        -1.0,
        False,
    ),
    "nonneg": (np.array([1.0, -2.0, 0.5]), np.array([1.0, -1.0, 2.0]), np.ones(3), -0.5, True),
    # every coordinate enters before the root, at distinct kinks
    "past-the-cap": (
        np.zeros(_PAST_THE_CAP),
        1.0 + np.arange(_PAST_THE_CAP) / _PAST_THE_CAP,
        np.ones(_PAST_THE_CAP),
        -1000.0,
        False,
    ),
}


def test_walked_linesearch_matches_the_full_sort_reference_at_the_edges():
    walks = []
    walk = projections._walk_kinks

    def spy(*args):
        walks.append(walk(*args))
        return walks[-1]

    answers = {}
    for name, (x_star, a, weights, beta, nonneg) in _EDGE_CASES.items():
        s0 = soft_shrink(x_star, weights)
        for gp0, x in itertools.product((None, beta - float(a @ s0)), (None, s0)):
            want = _full_sort_linesearch(x_star, a, beta, weights, nonneg, gp0=gp0, x=x)
            args = (_plan(a, weights), x_star, beta, nonneg)
            walks.clear()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(projections, "_walk_kinks", spy)
                got = _linesearch(*args, gp0=gp0, x=x)
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), name
            with _forced_bisection():
                forced = _linesearch(*args, gp0=gp0, x=x)
            assert np.float64(forced).tobytes() == np.float64(want).tobytes(), name
            answers[name] = got
            if name == "past-the-cap":
                assert walks == [None]  # the walk stops at its cap
            if name.endswith("ties"):
                assert len(walks) == 1  # a kink at 0 is walked like any other
    assert answers["root-at-a-kink"] == 1.0
    assert answers["flat-from-a-kink"] == 0.5
    assert np.float64(answers["root-on-a-walked-kink"]).tobytes() == np.float64(-2.0).tobytes()
    assert answers["nonneg"] >= 0.0


def test_a_root_walked_exactly_onto_a_kink_is_taken_without_bisection():
    # the walk's running sums read g' at the second kink as just below 0 and
    # guess the piece after it; from scratch g' is exactly 0 there, on a
    # rising piece, so that kink is the root: the fallback's bits, unbisected
    obj = ProductObjective([SquaredNorm(3), ElasticNet(0.5, 1)])
    x_star, a, weights, beta, _ = _EDGE_CASES["root-on-a-walked-kink"]
    assert np.array_equal(obj._verdicts.w, weights)
    with _counted_bisections() as counts:
        t = exact_linesearch(obj, x_star, a, beta)
    assert counts["bisections"] == 0
    with _forced_bisection() as counts:
        forced = exact_linesearch(obj, x_star, a, beta)
    assert counts["bisections"] == 1
    assert np.float64(t).tobytes() == np.float64(forced).tobytes() == np.float64(-2.0).tobytes()


@st.composite
def _tie_rich_cases(draw):
    # quarter-integer data with weights among a few values, so that x*_j often
    # equals +-w_j (a kink at 0), kinks coincide and roots land on them; zero
    # entries of a give mask supports and -0.0 entries of x_star signed zeros
    n = draw(st.integers(1, 8))
    quarters = st.integers(-12, 12).map(lambda v: v / 4.0)
    levels = st.sampled_from([0.0, 0.25, 0.5, 1.0])
    weights = np.array(draw(st.lists(levels, min_size=n, max_size=n)))
    a = np.array(draw(st.lists(st.integers(-8, 8), min_size=n, max_size=n))) / 4.0
    assume(np.any(a))
    x_star = np.array(draw(st.lists(quarters, min_size=n, max_size=n)))
    for j in range(n):
        x_star[j] = draw(st.sampled_from([x_star[j], weights[j], -weights[j], -0.0]))
    return x_star, a, weights, draw(quarters) * 2.0, draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(case=_tie_rich_cases(), with_gp0=st.booleans(), with_x=st.booleans())
def test_walked_linesearch_matches_the_full_sort_reference_bitwise(case, with_gp0, with_x):
    x_star, a, weights, beta, nonneg = case
    s0 = soft_shrink(x_star, weights)
    gp0 = beta - float(a @ s0) if with_gp0 else None
    x = s0 if with_x else None
    want = _full_sort_linesearch(x_star, a, beta, weights, nonneg, gp0=gp0, x=x)
    got = _linesearch(_plan(a, weights), x_star, beta, nonneg, gp0=gp0, x=x)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_benchmark_shaped_sparse_kaczmarz_solve_matches_the_full_sort_reference():
    # the sparse-kaczmarz benchmark's instance shape (200 dense rows of 1000,
    # 5 planted entries in [0.5, 1], lam = 10 max|x|) solved as it is, and
    # with every row linesearch taken by the full-sort reference
    rng = np.random.default_rng([0, 0])
    a = rng.standard_normal((200, 1000))
    x_true = np.zeros(1000)
    x_true[rng.choice(1000, size=5, replace=False)] = rng.choice([-1.0, 1.0], 5) * rng.uniform(
        0.5, 1.0, 5
    )
    b = a @ x_true
    lam = 10.0 * float(np.abs(x_true).max())

    def solve():
        tol = 1e-6 * float(np.linalg.norm(b))
        return run(preset("sparse_kaczmarz", a, b, lam=lam, residual_tolerance=tol))

    def reference(plan, u, s0, gp0, sign):
        return _full_sort_linesearch(u, plan.a, 0.0, plan.verdicts.w, False, sign * gp0, s0)

    res = solve()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(projections, "_shrink_linesearch", reference)
        ref = solve()

    def columns(result):
        h = result.records
        return [c.tobytes() for c in (h.constraint_index, h.step_size, h.w_norm, h.boundaries,
                                      h.violations)]

    assert res.termination == ref.termination == "tolerance"
    assert columns(res) == columns(ref)
    assert res.x.tobytes() == ref.x.tobytes()
    assert res.pair.x_star.tobytes() == ref.pair.x_star.tobytes()


# the relative error the l1 linesearch meets against exact arithmetic on
# small dyadic data
_ORACLE_REL_EPS = 1e-12


@st.composite
def _dyadic_cases(draw):
    # n <= 8, about 20% zero weights, mixed weights through a product of
    # one-coordinate elastic nets, and about 30% halfspaces
    n = draw(st.integers(1, 8))
    quarters = st.integers(-12, 12).map(lambda v: v / 4.0)
    a = np.array(draw(st.lists(quarters, min_size=n, max_size=n)))
    assume(np.any(a))
    x_star = np.array(draw(st.lists(quarters, min_size=n, max_size=n)))
    levels = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])
    weights = np.array(draw(st.lists(levels, min_size=n, max_size=n)))
    if draw(st.booleans()):
        obj = ProductObjective([ElasticNet(w, 1) for w in weights])
    else:
        weights[:] = weights[0]
        obj = ElasticNet(weights[0], n)
    nonneg = draw(st.integers(0, 9)) < 3
    return obj, x_star, a, weights, draw(quarters) * 2.0, nonneg


@settings(max_examples=300, deadline=None)
@given(
    case=_dyadic_cases(),
    with_plan=st.booleans(),
    with_gp0=st.booleans(),
    with_x=st.booleans(),
)
@example(  # a flat zero stretch on [0.5, 1] that starts at a kink
    case=(ElasticNet(0.5, 2), np.ones(2), np.array([1.0, 1.5]), np.full(2, 0.5), 0.0, False),
    with_plan=True,
    with_gp0=False,
    with_x=False,
)
def test_l1_linesearch_matches_the_exact_oracle(case, with_plan, with_gp0, with_x):
    obj, x_star, a, weights, beta, nonneg = case
    s0 = soft_shrink(x_star, weights)
    gp0 = beta - float(a @ s0) if with_gp0 else None
    x = s0 if with_x else None
    plan = _plan(a, weights) if with_plan else None
    t = exact_linesearch(obj, x_star, a, beta, nonneg=nonneg, gp0=gp0, x=x, plan=plan)
    exact = l1_linesearch_oracle(x_star, a, beta, weights, nonneg=nonneg, gp0=gp0, x=x)
    assert abs(Fraction(t) - exact) <= Fraction(_ORACLE_REL_EPS) * abs(exact), (t, exact)


@settings(max_examples=200, deadline=None)
@given(
    case=_tie_rich_cases(),
    with_plan=st.booleans(),
    with_gp0=st.booleans(),
    with_x=st.booleans(),
)
@example(case=_EDGE_CASES["ties"], with_plan=False, with_gp0=False, with_x=False)
@example(case=_EDGE_CASES["mirrored-ties"], with_plan=True, with_gp0=True, with_x=True)
def test_tie_rich_linesearch_meets_the_oracle_and_the_full_sort_reference(
    case, with_plan, with_gp0, with_x
):
    # ties |x*_j| = w_j moving into [-w_j, w_j] and out of it (a kink at 0,
    # which is walked like any other), -0.0 entries,
    # zero weights and halfspaces, through the public entry point
    x_star, a, weights, beta, nonneg = case
    obj = ProductObjective([ElasticNet(w, 1) for w in weights])
    s0 = soft_shrink(x_star, weights)
    gp0 = beta - float(a @ s0) if with_gp0 else None
    x = s0 if with_x else None
    plan = _plan(a, weights) if with_plan else None
    t = exact_linesearch(obj, x_star, a, beta, nonneg=nonneg, gp0=gp0, x=x, plan=plan)
    exact = l1_linesearch_oracle(x_star, a, beta, weights, nonneg=nonneg, gp0=gp0, x=x)
    assert abs(Fraction(t) - exact) <= Fraction(_ORACLE_REL_EPS) * abs(exact), (t, exact)
    want = _full_sort_linesearch(x_star, a, beta, weights, nonneg, gp0=gp0, x=x)
    assert np.float64(t).tobytes() == np.float64(want).tobytes()


# the relative error the l1 linesearch meets against exact arithmetic when an
# active a_j^2 underflows or is subnormal: the slope keeps only a few bits
_SUBNORMAL_SLOPE_REL_EPS = 1e-9


@pytest.mark.parametrize(
    "obj, x_star, a",
    [
        (ElasticNet(100.0, 2), [-200.0, 200.0], [-1e-160, -1e-170]),
        (ElasticNet(10.0, 3), [-5.0, 15.0, 20.0], [1e-200, -1e-160, 1e-170]),
    ],
    ids=["kink-1e162", "kink-5e160"],
)
def test_kink_walk_returns_the_left_end_of_a_flat_stretch(obj, x_star, a):
    # the active slopes a_j^2 are subnormal or 0.0, so the walk's last piece
    # reads as flat (s == 0) and its answer is that piece's left end, a kink
    x_star, a = np.array(x_star), np.array(a)
    t = exact_linesearch(obj, x_star, a, 0.0)
    exact = l1_linesearch_oracle(x_star, a, 0.0, obj.shrink_weights())
    assert abs(Fraction(t) - exact) <= Fraction(_SUBNORMAL_SLOPE_REL_EPS) * abs(exact), (t, exact)
    assert t in ((x_star - obj.lam) / a).tolist() + ((x_star + obj.lam) / a).tolist()


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("with_plan", [False, True], ids=["no-plan", "plan"])
@pytest.mark.parametrize("handed", ["x", "gp0"])
@pytest.mark.parametrize("a1", [-0.5, 0.0], ids=["on-the-support", "off-the-support"])
def test_linesearch_names_a_non_finite_x_star_beside_a_handed_in_x_or_gp0(
    bad, with_plan, handed, a1
):
    # x (or g'(0)) taken from x_star before a NaN or an inf was written into
    # it: neither shows the bad entry, which must still be named, on a's
    # support or off it, where the walk never reads x_star but the step keeps it
    obj = ElasticNet(0.7, 4)
    x_star, a, beta = np.array([1.5, -0.3, 2.0, -1.0]), np.array([1.0, a1, 0.25, 2.0]), 0.3
    x = soft_shrink(x_star, 0.7)
    kwargs = {"x": x} if handed == "x" else {"gp0": beta - float(a @ x)}
    x_star[1] = bad
    plan = _plan(a, obj.shrink_weights()) if with_plan else None
    with pytest.raises(NonFiniteData, match="x_star is not finite"):
        exact_linesearch(obj, x_star, a, beta, plan=plan, **kwargs)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("with_x", [False, True], ids=["gp0", "gp0-and-x"])
def test_linesearch_names_a_non_finite_beta_beside_a_handed_in_gp0(bad, with_x):
    # a handed-in g'(0) leaves beta unread on the kink walk
    obj, x_star, a = ElasticNet(0.7, 3), np.array([1.5, -0.3, 2.0]), np.array([1.0, -0.5, 0.25])
    x = soft_shrink(x_star, 0.7) if with_x else None
    with pytest.raises(NonFiniteData, match="beta"):
        exact_linesearch(obj, x_star, a, bad, gp0=-1.0, x=x)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("handed", ["neither", "gp0", "x", "gp0-and-x"])
@pytest.mark.parametrize("a1", [0.5, 0.0], ids=["on-the-support", "off-the-support"])
def test_root_finding_linesearch_names_a_non_finite_x_star(bad, handed, a1):
    # group weights are not finite, so the root find, not the kink walk, runs;
    # off a's support the bad entry still spoils its group's norm. It is named
    # before any evaluation can warn, whatever is handed in
    obj = GroupElasticNet(0.5, [[0, 1, 2]])
    x_star, a, beta = np.array([1.0, -2.0, 0.5]), np.array([1.0, a1, -1.0]), 0.3
    x = obj.grad_conjugate(x_star)
    gp0 = beta - float(a @ x) if handed.startswith("gp0") else None
    x = x if handed.endswith("x") else None
    x_star[1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteData, match="x_star is not finite"):
            exact_linesearch(obj, x_star, a, beta, gp0=gp0, x=x)


def test_halfspace_step_names_a_non_finite_pair_that_reads_as_interior():
    # <a, x> = -inf <= beta would read as inside the halfspace
    obj = ElasticNet(0.7, 3)
    pair = pair_from_dual(obj, np.array([-np.inf, 0.5, 1.0]))
    with pytest.raises(NonFiniteData, match="x_star is not finite"):
        bregman_project(obj, pair, Halfspace(np.array([1.0, 1.0, 0.0]), 0.0))


def test_linesearch_names_an_overflowing_derivative_at_0_without_a_warning():
    # a.x* overflows to inf: named as such, not raised as the dot's warning
    with pytest.raises(NonFiniteData, match="^linesearch derivative at 0 is -inf$"):
        exact_linesearch(ElasticNet(0.0, 2), [1e160, 1e160], [1e150, 1e150], 0.0)


def test_linesearch_names_a_step_that_overflows():
    # g'(0) = -1e200 along a = 1e-160: the root, 1e360, is past the largest float
    with pytest.raises(NonFiniteData, match="^linesearch step is inf$"):
        exact_linesearch(ElasticNet(1.0, 1), [0.0], [1e-160], -1e200)


class _NanBeyond(SquaredNorm):
    """||x||^2 / 2 with a grad f* that reads NaN where |x*_j| > 1e3 and no
    shrink weights, so the root find runs."""

    def shrink_weights(self):
        return np.full(self.dimension, np.nan)

    def grad_conjugate(self, x_star):
        x_star = super().grad_conjugate(x_star)
        return np.where(np.abs(x_star) > 1e3, np.nan, x_star)


def test_root_finding_linesearch_names_a_nan_derivative_in_its_bracket():
    # g'(0) = -5001 is finite; the first bracket end, t = 5001, reads NaN
    with pytest.raises(NonFiniteData, match="^linesearch derivative at 5001.0 is nan$"):
        exact_linesearch(_NanBeyond(2), [1.0, 1.0], [1.0, 0.0], -5000.0)


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


# the error the Box and NonnegCone Bregman closed forms meet against exact
# arithmetic on small dyadic data, relative to each exact coordinate
_CLOSED_FORM_REL_EPS = 1e-15


@st.composite
def _dyadic_closed_form_cases(draw):
    # per-coordinate weights among a few levels (zero included) and x_star
    # often at a tie: +-w_j (shrinkage at 0), bound +- w_j (shrinkage on the
    # bound) or -0.0; bounds that are 0, finite or infinite
    n = draw(st.integers(1, 6))

    def column(*levels):
        return np.array(draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n)))

    weights = column(0.0, 0.25, 0.5, 1.0)
    lower, upper = column(-np.inf, -1.0, -0.5, 0.0), column(0.0, 0.5, 1.0, np.inf)
    x_star = np.empty(n)
    for j in range(n):
        w, ties = weights[j], [weights[j], -weights[j], -0.0]
        ties += [b + e * w for b, e in ((lower[j], -1), (upper[j], 1)) if math.isfinite(b)]
        x_star[j] = draw(st.sampled_from(ties) | st.integers(-12, 12).map(lambda v: v / 4.0))
    return x_star, weights, lower, upper


def _assert_matches_exactly(got, exact):
    # within _CLOSED_FORM_REL_EPS of each exact coordinate (so an exact 0 is 0)
    for g, e in zip(got, exact):
        assert abs(Fraction(float(g)) - e) <= Fraction(_CLOSED_FORM_REL_EPS) * abs(e), (got, exact)


def _finite_or_none(bounds):
    return [float(b) if math.isfinite(b) else None for b in bounds]


@settings(max_examples=150, deadline=None)
@given(case=_dyadic_closed_form_cases())
@example(  # x_star beyond a zero upper bound, and inside the box at a zero lower one
    case=(np.array([3.0, -0.5]), np.ones(2), np.array([-1.0, 0.0]), np.array([0.0, 1.0]))
)
def test_bregman_box_matches_the_exact_oracle(case):
    x_star, weights, lower, upper = case
    obj = ProductObjective([ElasticNet(w, 1) for w in weights])
    out = bregman_project(obj, pair_from_dual(obj, x_star), Box(lower, upper))
    bounds = _finite_or_none(lower), _finite_or_none(upper)
    z, z_star = box_bregman_oracle(x_star, weights, *bounds)
    assert bregman_pair_is_optimal(x_star, weights, *bounds, z, z_star)
    assert bregman_pair_is_optimal(x_star, weights, *bounds, out.x, out.x_star)
    _assert_matches_exactly(out.x, z)
    _assert_matches_exactly(out.x_star, z_star)


@settings(max_examples=150, deadline=None)
@given(case=_dyadic_closed_form_cases(), data=st.data())
def test_bregman_nonneg_cone_matches_the_exact_oracle(case, data):
    x_star, weights, _, _ = case
    n = x_star.size
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    indices = data.draw(st.sampled_from([None, np.flatnonzero(mask)]))
    obj = ProductObjective([ElasticNet(w, 1) for w in weights])
    out = bregman_project(obj, pair_from_dual(obj, x_star), NonnegCone(indices))
    bounds = nonneg_cone_as_box(n, slice(None) if indices is None else indices)
    z, z_star = box_bregman_oracle(x_star, weights, *bounds)
    assert bregman_pair_is_optimal(x_star, weights, *bounds, z, z_star)
    assert bregman_pair_is_optimal(x_star, weights, *bounds, out.x, out.x_star)
    _assert_matches_exactly(out.x, z)
    _assert_matches_exactly(out.x_star, z_star)


def test_nonneg_cone_bregman_step_is_the_box_step_bit_for_bit():
    # the cone is the box [0, inf) on its indices, no bound elsewhere: the
    # same x and x* bytes, -0.0 entries of x* included (both read +0.0 on
    # the indices)
    rng = np.random.default_rng(29)
    for k in range(300):
        n = int(rng.integers(1, 9))
        weights = rng.choice([0.0, 0.3, 1.1], n) * rng.random(n)
        obj = ProductObjective([ElasticNet(w, 1) for w in weights])
        x_star = rng.standard_normal(n) * 2.0
        x_star[rng.random(n) < 0.3] = -0.0
        mask = rng.random(n) < 0.6 if k % 2 else np.ones(n, dtype=bool)
        cone = NonnegCone(np.flatnonzero(mask) if k % 2 else None)
        box = Box(np.where(mask, 0.0, -np.inf), np.full(n, np.inf))
        pair = pair_from_dual(obj, x_star)
        got, want = bregman_project(obj, pair, cone), bregman_project(obj, pair, box)
        assert got.x.tobytes() == want.x.tobytes(), (x_star, mask)
        assert got.x_star.tobytes() == want.x_star.tobytes(), (x_star, mask)
        assert cone.project(x_star).tobytes() == box.project(x_star).tobytes()


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
        t_walk = _linesearch(walk, x_star, beta, nonneg, x=x)
        t_closed = _linesearch(plan, x_star, beta, nonneg, x=x)
        assert np.float64(t_closed).tobytes() == np.float64(t_walk).tobytes()


def test_weighted_supports_keep_the_kink_walk():
    a = np.array([1.0, 2.0, 0.0])
    assert _plan(a, np.array([0.0, 0.5, 0.0])).line_slope is None
    assert _plan(a, np.array([0.0, np.nan, 0.0])).line_slope is None
    assert _plan(a, np.array([0.0, 0.0, 3.0])).line_slope == 5.0


def test_all_coordinates_is_one_object_and_an_equal_slice_keeps_the_bits():
    obj = ElasticNet(0.5, 3)
    plane = Hyperplane(np.array([1.0, -2.0, 0.5]), 1.0)
    assert plane.support is ALL and Box([-1.0], [1.0]).indices is ALL
    assert NonnegCone().indices is ALL and obj._verdicts.on(ALL) is obj._verdicts
    # a deep copy holds an equal slice(None), which takes the general path
    copied = copy.deepcopy(plane)
    assert copied.support == ALL and copied.support is not ALL
    pair = pair_from_dual(obj, np.array([1.5, -0.0, 3.0]))
    want, got = (bregman_project(obj, pair, target) for target in (plane, copied))
    assert got.x.tobytes() == want.x.tobytes()
    assert got.x_star.tobytes() == want.x_star.tobytes()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([0.0, -0.0, 1.0, -2.5]), min_size=1, max_size=12))
def test_nonzeros_index_is_a_slice_for_one_run(values):
    v = np.array(values)
    idx = projections._nonzeros(v)
    nz = np.flatnonzero(v)
    if nz.size == v.size:
        assert idx is ALL
    elif nz.size and nz[-1] - nz[0] + 1 == nz.size:
        assert idx == slice(int(nz[0]), int(nz[-1]) + 1)
    else:
        assert idx.dtype.kind == "i" and not idx.flags.writeable
        np.testing.assert_array_equal(idx, nz)
    mask = np.zeros(v.size, dtype=bool)
    mask[idx] = True
    np.testing.assert_array_equal(mask, v != 0.0)
    # a cone on the same positions takes its index by the same rule, where
    # all of them, with no length to compare, are the run 0..n-1
    cone = NonnegCone(nz)
    assert type(cone.indices) is type(idx)
    if isinstance(idx, slice):
        assert cone.indices == (slice(0, v.size) if idx == slice(None) else idx)
    else:
        np.testing.assert_array_equal(cone.indices, idx)
        assert not cone.indices.flags.writeable


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
