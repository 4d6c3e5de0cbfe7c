import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from splitbreg.objectives import (
    ElasticNet,
    GroupElasticNet,
    GroupedMax,
    ProductObjective,
    SquaredNorm,
    bregman_distance,
    fenchel_gap,
    pair_from_dual,
)
from splitbreg.projections import (
    AffineSubspace,
    Box,
    BoxWithoutZero,
    FeasiblePoint,
    Halfspace,
    Hyperplane,
    NonnegCone,
    NormBall,
    Point,
    ZeroDirection,
    ZeroNormal,
    bregman_project,
    bregman_projector,
    exact_linesearch,
    project_l1_ball,
    project_simplex,
    separating_halfspace,
)
from splitbreg.linops import DenseMatrix

from oracles import affine_elasticnet_oracle, grid_minimize, l1_ball_oracle, simplex_oracle


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
    "build",
    [
        lambda: NormBall(np.zeros(2), np.nan, 2),
        lambda: NormBall(np.zeros(2), np.nan, 1),
        lambda: NormBall(np.zeros(2), np.nan, np.inf),
        lambda: Box(np.array([np.nan]), np.array([1.0])),
        lambda: Box(np.array([0.0]), np.array([np.nan])),
        lambda: NonnegCone([-1]),
        lambda: project_simplex(np.ones(3), np.nan),
        lambda: project_l1_ball(np.ones(3), np.nan),
        lambda: ElasticNet(np.nan, 3),
        lambda: GroupElasticNet(np.nan, [[0, 1]]),
        lambda: GroupedMax(np.nan, [[0, 1]]),
    ],
    ids=[
        "ball-2", "ball-1", "ball-inf", "box-lower", "box-upper", "cone-negative-index",
        "simplex", "l1-ball", "elastic-net", "group-elastic-net", "grouped-max",
    ],
)
def test_malformed_set_data_is_rejected(build):
    # NaN fails every positive assertion; a negative index would count from the end
    with pytest.raises(ValueError):
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
    # the two sets differ only in the one-sided clamp
    hs = Halfspace(h.normal, h.offset)
    assert (Hyperplane.one_sided, Halfspace.one_sided) == (False, True)
    assert h.distance([1.0, 0.0, 0.0]) == hs.distance([1.0, 0.0, 0.0]) == 0.4
    assert (h.distance([-1.0, 0.0, 0.0]), hs.distance([-1.0, 0.0, 0.0])) == (0.8, 0.0)


def test_affine_subspace_projection():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((2, 5))
    b = rng.standard_normal(2)
    s = AffineSubspace(a, b)
    y = rng.standard_normal(5)
    z = s.project(y)
    np.testing.assert_allclose(a @ z, b, atol=1e-10)
    # residual is orthogonal to the null space, i.e. lies in the row space
    _, sv, vt = np.linalg.svd(a)
    null = vt[2:]
    np.testing.assert_allclose(null @ (y - z), 0.0, atol=1e-10)
    np.testing.assert_allclose(s.project(z), z, atol=1e-10)


# ---------------------------------------------------------------------------
# separating halfspaces
# ---------------------------------------------------------------------------


def test_separating_halfspace_point_target():
    op = DenseMatrix(np.array([[1.0]]))
    normal, offset, w_norm = separating_halfspace(op, Point(np.array([0.0])), np.array([2.0]))
    np.testing.assert_allclose(normal, [2.0])
    assert offset == pytest.approx(0.0)
    assert w_norm == pytest.approx(2.0)


def test_separating_halfspace_ball_target():
    op = DenseMatrix(np.array([[1.0]]))
    ball = NormBall(np.array([0.0]), 1.0, np.inf)
    normal, offset, _ = separating_halfspace(op, ball, np.array([3.0]))
    np.testing.assert_allclose(normal, [2.0])
    assert offset == pytest.approx(2.0)


def test_separating_halfspace_feasible_raises():
    op = DenseMatrix(np.array([[1.0, 0.0]]))
    with pytest.raises(FeasiblePoint):
        separating_halfspace(op, Point(np.array([1.0])), np.array([1.0, 5.0]))


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
        normal, offset, w_norm = separating_halfspace(op, target, x)
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


def test_bregman_affine_matches_oracle():
    rng = np.random.default_rng(22)
    for _ in range(25):
        a = rng.standard_normal((2, 4))
        b = rng.standard_normal(2)
        obj = ElasticNet(0.5, 4)
        pair = pair_from_dual(obj, rng.standard_normal(4))
        out = bregman_project(obj, pair, AffineSubspace(DenseMatrix(a), b))
        np.testing.assert_allclose(a @ out.x, b, atol=1e-8)
        want = affine_elasticnet_oracle(pair.x_star, a, b, 0.5)
        np.testing.assert_allclose(out.x, want, atol=1e-7)


def test_bregman_affine_squared_norm_is_orthogonal():
    obj = SquaredNorm(2)
    pair = pair_from_dual(obj, np.zeros(2))
    target = AffineSubspace(DenseMatrix(np.array([[1.0, 0.0]])), np.array([2.0]))
    out = bregman_project(obj, pair, target)
    np.testing.assert_allclose(out.x, [2.0, 0.0], atol=1e-9)


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


def test_variational_inequality_of_projections():
    # <z_star - x_star, y - z> >= 0 for every feasible y certifies minimality
    rng = np.random.default_rng(24)
    obj = ElasticNet(0.9, 3)
    cases = []
    a = np.array([1.0, -2.0, 0.5])
    cases.append(("hyperplane", Hyperplane(a, 0.7)))
    cases.append(("halfspace", Halfspace(a, -0.5)))
    for name, target in cases:
        for _ in range(30):
            pair = pair_from_dual(obj, rng.standard_normal(3) * 2.0)
            out = bregman_project(obj, pair, target)
            for _ in range(10):
                y = target.project(rng.standard_normal(3) * 3.0)
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
            # a group block without shrink weights, off the set's support
            parts.append(GroupElasticNet(1.0, [np.array([0, 1])]))
            x_star = np.append(x_star, [1.5, -2.0])
            if kind != "nonneg":
                target = type(target)(np.append(target.normal, [0.0, 0.0]), target.offset)
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
    if isinstance(obj, ProductObjective) and isinstance(obj.parts[-1], GroupElasticNet):
        np.testing.assert_array_equal(out.x[-2:], pair.x[-2:])
        np.testing.assert_array_equal(out.x_star[-2:], pair.x_star[-2:])
    if not np.any(obj.shrink_weights()):
        np.testing.assert_array_equal(out.x, target.project(pair.x))
