"""Tests for the primal-dual reference solver."""

import numpy as np
import pytest

from splitbreg.comparator import (
    PDConfig,
    prox_f,
    prox_g,
    run_pd,
)
from splitbreg.linops import Grad2D, ScaledIdentity, ZeroOperator
from splitbreg.objectives import ElasticNet, GroupedMax, GroupElasticNet, SquaredNorm
from splitbreg.projections import (
    DimensionMismatch,
    NonFiniteData,
    NormBall,
    Point,
    project_simplex,
)
from splitbreg.solver import Exact, preset, run


def test_prox_f_scalar_value():
    # shrink 3 by tau*lam = 1, then divide by 1 + tau = 2
    assert prox_f(np.array([3.0]), 1.0, 1.0)[0] == pytest.approx(1.0)


def test_prox_f_optimality_condition():
    # x minimizes tau * (lam |x| + x^2 / 2) + (x - z)^2 / 2, so on the support
    # x + tau * (lam * sign(x) + x) = z, and off it |z| <= tau * lam.
    rng = np.random.default_rng(0)
    for _ in range(50):
        z = rng.standard_normal(8) * 3
        tau = float(rng.uniform(0.1, 2.0))
        lam = float(rng.uniform(0.1, 2.0))
        x = prox_f(z, tau, lam)
        on = x != 0
        np.testing.assert_allclose(
            x[on] * (1 + tau) + tau * lam * np.sign(x[on]), z[on], atol=1e-12
        )
        assert np.all(np.abs(z[~on]) <= tau * lam + 1e-12)


def test_prox_g_point_case():
    y = np.array([1.0, -2.0, 0.5])
    b = np.array([0.5, 0.5, 0.5])
    np.testing.assert_allclose(prox_g(y, 2.0, Point(b)), y - 2.0 * b)


def test_prox_g_minimizes_its_objective():
    # prox_g(y) should beat nearby points on sigma * G(u) + ||u - y||^2 / 2
    # where G(u) = delta * ||u||_q + <b, u> with q conjugate to p.
    rng = np.random.default_rng(1)
    for p, q in ((2, 2.0), (np.inf, 1.0), (1, np.inf)):
        for _ in range(20):
            m = 4
            y = rng.standard_normal(m) * 2
            b = rng.standard_normal(m)
            delta = float(rng.uniform(0.1, 1.0))
            sigma = float(rng.uniform(0.2, 2.0))

            def val(u):
                return sigma * (delta * np.linalg.norm(u, q) + np.dot(b, u)) + 0.5 * np.dot(
                    u - y, u - y
                )

            u_hat = prox_g(y, sigma, NormBall(b, delta, p))
            best = val(u_hat)
            for _ in range(40):
                assert best <= val(u_hat + rng.standard_normal(m) * 0.1) + 1e-10


def test_record_every_semantics():
    a = np.eye(2)
    b = np.array([1.0, 2.0])

    def columns(res):
        # the three columns hold one entry per recorded iteration each
        assert len(res.k) == len(res.objective_value) == len(res.feasibility_gap)
        return res.k

    full = run_pd(PDConfig(lam=0.1, op=a, b=b, max_iterations=10))
    assert columns(full) == list(range(10))

    coarse = run_pd(PDConfig(lam=0.1, op=a, b=b, max_iterations=10, record_every=3))
    assert columns(coarse) == [2, 5, 8, 9]

    final_only = run_pd(PDConfig(lam=0.1, op=a, b=b, max_iterations=10, record_every=0))
    assert columns(final_only) == [9]

    empty = run_pd(PDConfig(lam=0.1, op=a, b=b, max_iterations=0))
    assert (empty.k, empty.objective_value, empty.feasibility_gap) == ([], [], [])
    np.testing.assert_array_equal(empty.x, np.zeros(2))


def test_pd_solves_symmetric_equality_instance():
    # min ||x||_1 + ||x||_2^2 / 2 over x1 + x2 = 2 has the symmetric
    # solution (1, 1).
    a = np.array([[1.0, 1.0]])
    b = np.array([2.0])
    res = run_pd(PDConfig(lam=1.0, op=a, b=b, max_iterations=5000, record_every=0))
    np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-6)
    assert res.feasibility_gap[-1] == pytest.approx(0.0, abs=1e-6)


def test_pd_matches_split_solver_on_random_instance():
    # Both methods minimize the same strongly convex objective over Ax = b,
    # so they must agree at the unique optimum.
    rng = np.random.default_rng(7)
    a = rng.standard_normal((5, 10))
    b = rng.standard_normal(5)
    lam = 0.3

    pd = run_pd(PDConfig(lam=lam, op=a, b=b, max_iterations=30000, record_every=0))

    cfg = preset("linearized_bregman", a, b, lam=lam, step_rule=Exact())
    cfg.max_iterations = 30000
    cfg.residual_tolerance = 1e-12
    sp = run(cfg)

    np.testing.assert_allclose(pd.x, sp.x, atol=1e-5)
    obj = ElasticNet(lam, 10)
    assert obj.value(pd.x) == pytest.approx(obj.value(sp.x), rel=1e-6)


def test_pd_noise_ball_relaxes_the_solution():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((6, 6)) + 3 * np.eye(6)
    b = rng.standard_normal(6) * 2
    lam = 0.5
    tight = run_pd(PDConfig(lam=lam, op=a, b=b, max_iterations=20000, record_every=0))
    for p in (1, 2, np.inf):
        loose = run_pd(
            PDConfig(
                lam=lam,
                op=a,
                b=b,
                delta=0.5,
                noise_norm=p,
                max_iterations=20000,
                record_every=0,
            )
        )
        # feasible up to solver accuracy, and no worse than the delta = 0 point
        assert loose.feasibility_gap[-1] <= 1e-6
        obj = ElasticNet(lam, 6)
        assert obj.value(loose.x) <= obj.value(tight.x) + 1e-8


def _pd(**fields):
    return run_pd(PDConfig(**{"lam": 0.1, "op": np.eye(2), "b": np.ones(2), **fields}))


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: _pd(lam=np.nan), ValueError, "^lam must be nonnegative"),
        (lambda: _pd(lam=-1.0), ValueError, "^lam must be nonnegative"),
        (lambda: _pd(delta=np.nan), ValueError, "^delta must be nonnegative"),
        (lambda: _pd(b=np.array([1.0, np.nan])), NonFiniteData, "^b must be finite$"),
        (
            lambda: _pd(b=np.ones(3)),
            DimensionMismatch,
            r"^b must be a vector of length 2, not of shape \(3,\)$",
        ),
        (lambda: _pd(max_iterations=-1), ValueError, "^max_iterations must be nonnegative"),
        (lambda: _pd(record_every=-1), ValueError, "^record_every must be nonnegative"),
        (lambda: _pd(noise_norm=3), ValueError, "^noise_norm 3 is not one of 1, 2, inf$"),
        (lambda: project_simplex(np.zeros(0), 1.0), ValueError, "^an empty vector has no point"),
        (lambda: GroupElasticNet(1.0, []), ValueError, "^need at least one group"),
        (lambda: GroupedMax(1.0, []), ValueError, "^need at least one group"),
        # a bool is never a choice, though True == 1
        (lambda: _pd(noise_norm=True), ValueError, "^noise_norm True is not one of 1, 2, inf$"),
        (lambda: _pd(noise_norm=np.True_), ValueError, r"^noise_norm (np\.)?True_? is not one of"),
        (lambda: NormBall(np.zeros(3), 1.0, True), ValueError, "^p True is not one of 1, 2, inf$"),
        # sizes are whole and nonnegative: never truncated, never taken negative
        (lambda: ElasticNet(0.5, 2.7), ValueError, "^dimension must be nonnegative and whole"),
        (lambda: SquaredNorm(True), ValueError, "^dimension must be nonnegative and whole"),
        (lambda: SquaredNorm(-2), ValueError, "^dimension must be nonnegative and whole"),
        (lambda: ScaledIdentity(2.5), ValueError, "^n must be nonnegative and whole"),
        (lambda: ZeroOperator(-1, 3), ValueError, "^m must be nonnegative and whole"),
        (lambda: ZeroOperator(3, 1.0), ValueError, "^n must be nonnegative and whole"),
        (lambda: Grad2D(-2, 3), ValueError, "^height must be nonnegative and whole"),
        (lambda: Grad2D(3, 0), ValueError, "^width must be positive and whole"),
        # the data is read entry by entry: no bool, string or None is a number
        (lambda: _pd(b=[True, False]), ValueError, "^b must hold real numbers, not bools$"),
        (lambda: _pd(b=["1", "0"]), ValueError, "^b must hold real numbers, not '1'$"),
    ],
    ids=[
        "pd-nan-lam", "pd-negative-lam", "pd-nan-delta", "pd-nan-b", "pd-short-b",
        "pd-negative-budget", "pd-negative-record-every", "pd-noise-norm-at-delta-0",
        "empty-simplex", "group-elastic-net-without-groups", "grouped-max-without-groups",
        "pd-bool-noise-norm", "pd-numpy-bool-noise-norm", "ball-bool-p",
        "elastic-net-fractional-size", "squared-norm-bool-size", "squared-norm-negative-size",
        "identity-fractional-size", "zero-operator-negative-rows", "zero-operator-float-columns",
        "gradient-negative-height", "gradient-zero-width", "pd-bool-b", "pd-string-b",
    ],
)
def test_degenerate_inputs_raise_named_errors(call, error, match):
    with pytest.raises(error, match=match):
        call()
