import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitbreg.linops import Grad2D
from splitbreg.objectives import (
    ElasticNet,
    GroupElasticNet,
    GroupedMax,
    InvalidSubgradient,
    ProductObjective,
    SquaredNorm,
    bregman_distance,
    fenchel_gap,
    pair_from_dual,
    soft_shrink,
)

from oracles import fd_directional, grid_minimize


def test_soft_shrink_basic():
    out = soft_shrink(np.array([2.0, -0.5, -3.0]), 1.0)
    np.testing.assert_allclose(out, [1.0, 0.0, -2.0])


def test_soft_shrink_vector_weights():
    out = soft_shrink(np.array([2.0, -2.0, 0.3]), np.array([0.5, 3.0, 0.0]))
    np.testing.assert_allclose(out, [1.5, 0.0, 0.3])


def test_squared_norm_values():
    f = SquaredNorm(2)
    assert f.value(np.array([3.0, 4.0])) == 12.5
    assert f.conjugate(np.array([3.0, 4.0])) == 12.5
    np.testing.assert_allclose(f.grad_conjugate(np.array([1.0, -2.0])), [1.0, -2.0])


def test_elastic_net_grad_conjugate():
    f = ElasticNet(1.0, 2)
    np.testing.assert_allclose(f.grad_conjugate(np.array([2.0, -0.5])), [1.0, 0.0])


def test_elastic_net_conjugate_value():
    f = ElasticNet(1.0, 2)
    assert f.conjugate(np.array([3.0, -3.0])) == pytest.approx(4.0)


def test_elastic_net_zero_lam_matches_squared_norm():
    f = ElasticNet(0.0, 3)
    q = SquaredNorm(3)
    rng = np.random.default_rng(0)
    for _ in range(20):
        v = rng.standard_normal(3)
        assert f.value(v) == pytest.approx(q.value(v))
        assert f.conjugate(v) == pytest.approx(q.conjugate(v))
        np.testing.assert_allclose(f.grad_conjugate(v), q.grad_conjugate(v))


def test_elastic_net_rejects_negative_lam():
    with pytest.raises(ValueError):
        ElasticNet(-0.1, 2)


def test_group_elastic_net_grad_single_group():
    f = GroupElasticNet(1.0, [np.array([0, 1])])
    np.testing.assert_allclose(f.grad_conjugate(np.array([3.0, 4.0])), [2.4, 3.2])


def test_group_elastic_net_grad_matches_prox_grid():
    # grad f* is the prox of lam * ||.||_2 blockwise; the prox is a radial
    # shrink, so a scalar grid on the scale factor is an exact oracle
    rng = np.random.default_rng(1)
    f = GroupElasticNet(0.7, [np.array([0, 1, 2])])
    for _ in range(25):
        z = rng.standard_normal(3) * 3.0
        nz = np.linalg.norm(z)

        def radial(s):
            return 0.7 * abs(s) * nz + 0.5 * (s - 1.0) ** 2 * nz * nz

        s_best, _ = grid_minimize(radial, 0.0, 1.0, resolution=1e-9)
        np.testing.assert_allclose(f.grad_conjugate(z), s_best * z, atol=1e-7)


def test_group_elastic_net_small_block_vanishes():
    f = GroupElasticNet(5.0, [np.array([0, 1])])
    np.testing.assert_allclose(f.grad_conjugate(np.array([3.0, 4.0])), [0.0, 0.0])


def test_grouped_max_size_one_group():
    f = GroupedMax(1.0, [np.array([0])])
    np.testing.assert_allclose(f.grad_conjugate(np.array([3.0])), [2.0])


def test_grouped_max_moreau_identity():
    from splitbreg.projections import project_l1_ball

    rng = np.random.default_rng(2)
    groups = [np.array([0, 1, 2]), np.array([3, 4])]
    f = GroupedMax(0.8, groups)
    for _ in range(50):
        z = rng.standard_normal(5) * 4.0
        g = f.grad_conjugate(z)
        for idx in groups:
            ball = project_l1_ball(z[idx], 0.8 * idx.size)
            np.testing.assert_allclose(g[idx] + ball, z[idx], atol=1e-10)


def test_grouped_max_value():
    f = GroupedMax(2.0, [np.array([0, 1]), np.array([2])])
    x = np.array([1.0, -3.0, 2.0])
    # 2 * (2 * 3 + 1 * 2) + 0.5 * 14
    assert f.value(x) == pytest.approx(23.0)


def test_partition_validation():
    with pytest.raises(ValueError, match="groups overlap"):
        GroupElasticNet(1.0, [np.array([0, 1]), np.array([1, 2])])
    with pytest.raises(ValueError, match="out of range"):
        GroupElasticNet(1.0, [np.array([0]), np.array([2])])  # gap
    with pytest.raises(ValueError, match="out of range"):
        GroupedMax(1.0, [np.array([-1]), np.array([1])])
    with pytest.raises(ValueError, match="empty group"):
        GroupElasticNet(1.0, [np.array([0]), np.array([], dtype=int)])
    with pytest.raises(ValueError, match="groups overlap"):
        GroupedMax(1.0, [np.array([1, 1])])
    # one group per row of a 2-d array
    with pytest.raises(ValueError, match="groups overlap"):
        GroupElasticNet(1.0, np.array([[0, 1], [1, 2], [3, 4]]))
    with pytest.raises(ValueError, match="out of range"):
        GroupElasticNet(1.0, np.array([[0, 1], [2, 4]]))
    with pytest.raises(ValueError, match="out of range"):
        GroupedMax(1.0, np.array([[-1, 0]]))
    with pytest.raises(ValueError, match="empty group"):
        GroupElasticNet(1.0, np.zeros((2, 0), dtype=int))
    # a valid 2-d partition is labelled like its list of rows
    groups = np.array([[3, 0], [1, 5], [4, 2]])
    f = GroupElasticNet(1.0, groups)
    g = GroupElasticNet(1.0, list(groups))
    np.testing.assert_array_equal(f.labels, g.labels)
    np.testing.assert_array_equal(f.labels, [0, 1, 2, 0, 2, 1])
    assert (f.n_groups, f.dimension) == (g.n_groups, g.dimension) == (3, 6)
    assert not hasattr(f, "groups")
    z = np.array([1.0, -2.0, 0.5, 3.0, -1.0, 2.5])
    np.testing.assert_array_equal(f.grad_conjugate(z), g.grad_conjugate(z))
    h, k = GroupedMax(0.8, groups), GroupedMax(0.8, list(groups))
    np.testing.assert_array_equal(h.grad_conjugate(z), k.grad_conjugate(z))


def test_partition_of_many_pair_groups():
    # the pixel pairs of a 64 x 64 total-variation term, as a list and as rows
    hw = 64 * 64
    groups = [np.array([i, hw + i]) for i in range(hw)]
    for form in (groups, Grad2D(64, 64).pair_groups()):
        f = GroupElasticNet(0.7, form)
        assert f.n_groups == hw
        np.testing.assert_array_equal(f.labels, np.tile(np.arange(hw), 2))


def test_product_objective_blockwise_consistency():
    rng = np.random.default_rng(3)
    parts = [SquaredNorm(3), ElasticNet(0.5, 2), GroupElasticNet(1.2, [np.array([0, 1])])]
    prod = ProductObjective(parts)
    assert prod.dimension == 7
    for _ in range(20):
        v = rng.standard_normal(7)
        blocks = [v[0:3], v[3:5], v[5:7]]
        want = sum(p.value(b) for p, b in zip(parts, blocks))
        assert prod.value(v) == pytest.approx(want)
        want = sum(p.conjugate(b) for p, b in zip(parts, blocks))
        assert prod.conjugate(v) == pytest.approx(want)
        want = np.concatenate([p.grad_conjugate(b) for p, b in zip(parts, blocks)])
        np.testing.assert_allclose(prod.grad_conjugate(v), want)


def test_product_shrink_weights_mixed():
    prod = ProductObjective([ElasticNet(2.0, 2), GroupElasticNet(1.0, [np.array([0, 1])])])
    w = prod.shrink_weights()
    np.testing.assert_allclose(w[:2], [2.0, 2.0])
    assert np.all(np.isnan(w[2:]))


def test_shrink_weights_per_type():
    assert np.all(SquaredNorm(3).shrink_weights() == 0.0)
    np.testing.assert_allclose(ElasticNet(1.5, 2).shrink_weights(), [1.5, 1.5])
    assert np.all(np.isnan(GroupElasticNet(1.0, [np.array([0])]).shrink_weights()))
    assert np.all(np.isnan(GroupedMax(1.0, [np.array([0])]).shrink_weights()))


@pytest.mark.parametrize(
    "obj",
    [
        SquaredNorm(3),
        ElasticNet(1.5, 2),
        ProductObjective([ElasticNet(2.0, 2), GroupElasticNet(1.0, [np.array([0, 1])])]),
    ],
    ids=["squared", "elastic", "product"],
)
def test_shrink_weights_built_once_and_read_only(obj):
    w = obj.shrink_weights()
    assert obj.shrink_weights() is w
    with pytest.raises(ValueError):
        w[0] = 5.0


def test_fenchel_gap_values():
    assert fenchel_gap(SquaredNorm(1), np.array([1.0]), np.array([0.0])) == pytest.approx(0.5)
    assert fenchel_gap(ElasticNet(1.0, 1), np.array([2.0]), np.array([0.0])) == pytest.approx(0.5)


def test_fenchel_gap_nonnegative_and_zero_on_pairs():
    rng = np.random.default_rng(4)
    objs = [
        SquaredNorm(4),
        ElasticNet(0.8, 4),
        GroupElasticNet(0.6, [np.array([0, 1]), np.array([2, 3])]),
        GroupedMax(0.5, [np.array([0, 1, 2]), np.array([3])]),
    ]
    for obj in objs:
        for _ in range(50):
            x_star = rng.standard_normal(4) * 2.0
            x = rng.standard_normal(4)
            assert fenchel_gap(obj, x_star, x) >= -1e-12
            pair = pair_from_dual(obj, x_star)
            assert abs(fenchel_gap(obj, pair.x_star, pair.x)) <= 1e-10


def test_bregman_distance_values():
    x = np.array([1.0, 0.0])
    assert bregman_distance(SquaredNorm(2), x, x, np.zeros(2)) == pytest.approx(0.5)
    f = ElasticNet(1.0, 1)
    assert bregman_distance(f, np.zeros(1), np.zeros(1), np.array([1.0])) == pytest.approx(1.5)


def test_bregman_distance_rejects_bad_subgradient():
    f = ElasticNet(1.0, 1)
    with pytest.raises(InvalidSubgradient):
        bregman_distance(f, np.array([1.0]), np.array([5.0]), np.zeros(1))


def test_bregman_distance_strong_convexity():
    rng = np.random.default_rng(5)
    objs = [
        SquaredNorm(4),
        ElasticNet(1.1, 4),
        GroupElasticNet(0.9, [np.array([0, 1]), np.array([2, 3])]),
        GroupedMax(0.7, [np.array([0, 1, 2, 3])]),
    ]
    for obj in objs:
        for _ in range(50):
            pair = pair_from_dual(obj, rng.standard_normal(4) * 3.0)
            y = rng.standard_normal(4) * 2.0
            d = bregman_distance(obj, pair.x, pair.x_star, y)
            lower = 0.5 * obj.alpha * np.linalg.norm(pair.x - y) ** 2
            assert d >= lower - 1e-10


def test_grad_conjugate_lipschitz():
    # grad f* is (1/alpha)-Lipschitz for an alpha-strongly-convex f
    rng = np.random.default_rng(6)
    objs = [
        SquaredNorm(5),
        ElasticNet(0.9, 5),
        GroupElasticNet(1.3, [np.array([0, 1, 2]), np.array([3, 4])]),
        GroupedMax(0.4, [np.array([0, 1]), np.array([2, 3, 4])]),
    ]
    for obj in objs:
        for _ in range(50):
            u = rng.standard_normal(5) * 3.0
            v = rng.standard_normal(5) * 3.0
            lhs = np.linalg.norm(obj.grad_conjugate(u) - obj.grad_conjugate(v))
            assert lhs <= np.linalg.norm(u - v) / obj.alpha + 1e-12


def test_conjugate_finite_difference():
    rng = np.random.default_rng(7)
    objs = [
        SquaredNorm(6),
        ElasticNet(0.8, 6),
        GroupElasticNet(0.7, [np.array([0, 1, 2]), np.array([3, 4, 5])]),
        GroupedMax(0.5, [np.array([0, 1]), np.array([2, 3, 4, 5])]),
        ProductObjective([SquaredNorm(2), ElasticNet(1.0, 4)]),
    ]
    for obj in objs:
        for _ in range(20):
            x_star = rng.standard_normal(6) * 2.0
            d = rng.standard_normal(6)
            d /= np.linalg.norm(d)
            fd = fd_directional(obj.conjugate, x_star, d)
            an = float(np.dot(obj.grad_conjugate(x_star), d))
            assert fd == pytest.approx(an, rel=1e-5, abs=1e-7)


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        ElasticNet(1.0, 3).value(np.zeros(4))
    with pytest.raises(ValueError):
        SquaredNorm(3).grad_conjugate(np.zeros(2))


def _bincount_group_elastic_net(f, v):
    """(value, grad_conjugate) of a GroupElasticNet by its labels and bincount:
    the formulas the strided layout replaces."""
    norms = np.sqrt(np.bincount(f.labels, weights=v * v, minlength=f.n_groups))
    scale = np.zeros(f.n_groups)
    nz = norms > 0.0
    scale[nz] = np.maximum(1.0 - f.lam / norms[nz], 0.0)
    return float(f.lam * norms.sum() + 0.5 * np.dot(v, v)), v * scale[f.labels]


@st.composite
def _strided_cases(draw):
    n_groups, size = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = rng.standard_normal(n_groups * size) * 10.0 ** rng.uniform(-3, 3)
    # signed zeros, and whole groups of them
    v[rng.random(v.size) < 0.3] = draw(st.sampled_from([0.0, -0.0]))
    zero_groups = draw(st.lists(st.integers(0, n_groups - 1), max_size=n_groups))
    for g in zero_groups:
        v[g::n_groups] = draw(st.sampled_from([0.0, -0.0]))
    lam = draw(st.sampled_from([0.0]) | st.floats(0.0, 1e3))
    return v, n_groups, size, lam


@settings(max_examples=300, deadline=None)
@given(case=_strided_cases())
def test_strided_groups_match_the_bincount_path_bitwise(case):
    # Grad2D.pair_groups' layout: group g holds g, G + g, 2G + g, ...
    v, n_groups, size, lam = case
    f = GroupElasticNet(lam, np.arange(n_groups * size).reshape(size, n_groups).T)
    assert f._strided
    value, grad = _bincount_group_elastic_net(f, v)
    assert np.float64(f.value(v)).tobytes() == np.float64(value).tobytes()
    assert f.grad_conjugate(v).tobytes() == grad.tobytes()


def test_only_the_strided_layout_skips_bincount():
    assert GroupElasticNet(1.0, Grad2D(3, 4).pair_groups())._strided
    assert GroupElasticNet(1.0, [np.array([0, 2]), np.array([1, 3])])._strided
    # consecutive pairs, a permuted layout and groups of unequal sizes
    for groups in ([[0, 1], [2, 3]], [[1, 2], [0, 3]], [[0, 2, 4], [1, 3]]):
        f = GroupElasticNet(0.5, [np.array(g) for g in groups])
        assert not f._strided
        v = np.linspace(-2.0, 2.0, f.dimension)
        assert f.grad_conjugate(v).tobytes() == _bincount_group_elastic_net(f, v)[1].tobytes()
