import copy
import csv
from dataclasses import replace
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitbreg.experiments import InstanceSpec, generate_instance
from splitbreg.linops import BlockRow, DenseMatrix, ZeroOperator
from splitbreg.objectives import (
    ElasticNet,
    GroupElasticNet,
    Objective,
    ProductObjective,
    SquaredNorm,
    bregman_distance,
    pair_from_dual,
    soft_shrink,
)
from splitbreg.projections import (
    Box,
    BoxWithoutZero,
    Halfspace,
    Hyperplane,
    NonFiniteData,
    NonnegCone,
    NormBall,
    Point,
    ZeroDirection,
    bregman_project,
    exact_linesearch,
)
from splitbreg import projections, solver
from splitbreg.solver import (
    CSV_COLUMNS,
    AllZeroRows,
    Constant,
    Custom,
    Cyclic,
    Difficult,
    DimensionMismatch,
    Dynamic,
    Exact,
    InconsistentZeroRow,
    Inexact,
    MissingLambda,
    RandomUniform,
    Simple,
    SolverConfig,
    history_to_csv,
    preset,
    run,
)


def _equality_config(a, b, objective, rule, **kwargs):
    return SolverConfig(
        objective=objective,
        constraints=[Difficult(DenseMatrix(a), Point(b))],
        step_rule=rule,
        **kwargs,
    )


def _difficult_step(cfg, pair):
    """The step that run takes on the one difficult constraint of ``cfg``."""
    obj, (c,) = cfg.objective, cfg.constraints
    return solver._difficult_step(obj, c, cfg.step_rule, *solver._reach(obj, c.op), pair)


# ---------------------------------------------------------------------------
# controls
# ---------------------------------------------------------------------------


def test_cyclic_control():
    assert list(islice(Cyclic().indices(3), 7)) == [0, 1, 2, 0, 1, 2, 0]


def test_random_uniform_control_deterministic():
    seq1 = list(islice(RandomUniform(seed=42).indices(5), 50))
    seq2 = list(islice(RandomUniform(seed=42).indices(5), 50))
    assert seq1 == seq2
    assert set(seq1) <= set(range(5))
    assert len(set(seq1)) > 1


@pytest.mark.parametrize("n", [1, 3, 1000])
def test_random_uniform_stream_follows_the_block_rule(n):
    # step k reads entry k % 1024 of the 1024 draws seeded with (seed, k // 1024)
    def index(k):
        return int(np.random.default_rng((7, k // 1024)).integers(n, size=1024)[k % 1024])

    stream = list(islice(RandomUniform(seed=7).indices(n), 3 * 1024))
    assert stream == [index(k) for k in range(3 * 1024)]
    assert all(type(i) is int for i in stream)


def test_random_uniform_stream_depends_on_n():
    # n is part of the key: the same seed draws other indices for another n
    assert list(islice(RandomUniform(seed=7).indices(3), 50)) != list(
        islice(RandomUniform(seed=7).indices(9), 50)
    )


def test_custom_control_cycles():
    assert list(islice(Custom([2, 0, 1]).indices(3), 6)) == [2, 0, 1, 2, 0, 1]


def test_controls_have_no_index_method():
    for control in (Cyclic(), RandomUniform(0), Custom([0])):
        assert not hasattr(control, "index")


@pytest.mark.parametrize(
    "control", [Cyclic(), RandomUniform(3), Custom([2, 0, 0, 1])], ids=["cyclic", "random", "custom"]
)
def test_run_follows_its_control(control):
    a = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, -1.0], [3.0, 0.0, 1.0]])
    b = a @ np.array([1.0, -2.0, 0.5])
    cfg = preset("kaczmarz", a, b, control=control, max_iterations=5000)
    before = copy.deepcopy(vars(control))
    result = run(cfg)
    assert result.termination == "tolerance"
    got = [r.constraint_index for r in result.records]
    assert got == list(islice(control.indices(3), len(got)))
    assert vars(control) == before


# ---------------------------------------------------------------------------
# classical presets
# ---------------------------------------------------------------------------


def test_landweber_scalar_step():
    cfg = preset("landweber", np.array([[1.0]]), np.array([2.0]), max_iterations=1)
    res = run(cfg)
    np.testing.assert_allclose(res.x, [2.0])
    assert res.records[0].step_size == pytest.approx(1.0)


def test_kaczmarz_single_row():
    cfg = preset("kaczmarz", np.array([[1.0, 0.0]]), np.array([2.0]), max_iterations=1)
    res = run(cfg)
    np.testing.assert_allclose(res.x, [2.0, 0.0])


def test_minimal_error_update_formula():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((2, 3))
    b = rng.standard_normal(2)
    cfg = preset("minimal_error", a, b, max_iterations=1)
    res = run(cfg)
    r = a @ np.zeros(3) - b
    d = a.T @ r
    want = -(np.dot(r, r) / np.dot(d, d)) * d
    np.testing.assert_allclose(res.x, want, atol=1e-12)


def test_sparse_kaczmarz_iterates_are_shrunk():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((4, 8))
    x_true = np.zeros(8)
    x_true[[1, 5]] = [2.0, -1.5]
    b = a @ x_true
    cfg = preset("sparse_kaczmarz", a, b, lam=1.0, max_iterations=400)
    states = []
    res = run(cfg, callback=lambda pair, rec: states.append((pair.x.copy(), pair.x_star.copy())))
    for x, x_star in states:
        np.testing.assert_allclose(x, soft_shrink(x_star, 1.0), atol=1e-12)


def test_preset_validation():
    with pytest.raises(MissingLambda):
        preset("linearized_bregman", np.eye(2), np.zeros(2))
    with pytest.raises(MissingLambda):
        preset("sparse_kaczmarz", np.eye(2), np.zeros(2))
    with pytest.raises(ValueError):
        preset("gauss_seidel", np.eye(2), np.zeros(2))
    with pytest.raises(ValueError):
        preset("kaczmarz", np.eye(2), np.zeros(3))


@pytest.mark.parametrize("name", ["kaczmarz", "sparse_kaczmarz"])
def test_row_presets_skip_consistent_zero_rows(name):
    # 0 = 0 carries no information: it is dropped instead of raising ZeroNormal
    cfg = preset(name, [[1.0, 2.0], [0.0, 0.0]], [3.0, 0.0], lam=1.0, max_iterations=50)
    assert len(cfg.constraints) == 1
    res = run(cfg)
    assert res.termination == "tolerance"
    assert abs(res.x @ [1.0, 2.0] - 3.0) <= 1e-6


@pytest.mark.parametrize("name", ["kaczmarz", "sparse_kaczmarz"])
def test_row_presets_reject_all_zero_rows(name):
    with pytest.raises(AllZeroRows, match="every row of A is zero"):
        preset(name, [[0.0, 0.0], [0.0, 0.0]], [0.0, 0.0], lam=1.0)


@pytest.mark.parametrize("name", ["kaczmarz", "sparse_kaczmarz"])
def test_row_presets_reject_inconsistent_zero_row(name):
    with pytest.raises(InconsistentZeroRow, match=r"row 1 .*b\[1\] = 2"):
        preset(name, [[1.0, 2.0], [0.0, 0.0], [1.0, 0.0]], [3.0, 2.0, 1.0], lam=1.0)


def test_preset_structures():
    a = np.eye(3)
    b = np.ones(3)
    kz = preset("kaczmarz", a, b)
    assert len(kz.constraints) == 3
    assert all(isinstance(c, Simple) for c in kz.constraints)
    assert all(isinstance(c.target, Hyperplane) for c in kz.constraints)
    lb = preset("linearized_bregman", a, b, lam=2.0, step_rule=Dynamic())
    assert isinstance(lb.objective, ElasticNet)
    assert lb.objective.lam == 2.0
    assert isinstance(lb.step_rule, Dynamic)
    assert isinstance(lb.constraints[0], Difficult)
    lw = preset("landweber", a, b)
    assert isinstance(lw.step_rule, Constant)
    assert isinstance(lw.objective, SquaredNorm)


# ---------------------------------------------------------------------------
# step rules
# ---------------------------------------------------------------------------


def test_exact_equals_dynamic_for_squared_norm():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((3, 6))
    b = rng.standard_normal(3)
    steps = {}
    for rule in (Exact(), Dynamic()):
        cfg = _equality_config(a, b, SquaredNorm(6), rule, max_iterations=20)
        res = run(cfg)
        steps[type(rule).__name__] = [r.step_size for r in res.records]
    np.testing.assert_allclose(steps["Exact"], steps["Dynamic"], rtol=0, atol=1e-12)


def test_constant_step_value():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 5))
    cfg = _equality_config(a, np.ones(3), ElasticNet(1.0, 5), Constant(), max_iterations=4)
    res = run(cfg)
    want = 1.0 / np.linalg.svd(a, compute_uv=False)[0] ** 2
    for rec in res.records:
        assert rec.step_size == pytest.approx(want, rel=1e-4)


def test_inexact_rule_brackets_exact():
    rng = np.random.default_rng(4)
    obj = ElasticNet(0.8, 6)
    for _ in range(30):
        a = rng.standard_normal((2, 6))
        b = rng.standard_normal(2)
        x_star = rng.standard_normal(6)
        cfg = SolverConfig(
            objective=obj,
            constraints=[Difficult(DenseMatrix(a), Point(b))],
            step_rule=Inexact(),
            max_iterations=1,
            x0_star=x_star,
        )
        res = run(cfg)
        t_in = res.records[0].step_size
        pair = pair_from_dual(obj, x_star)
        y = a @ pair.x
        w = y - b
        d = a.T @ w
        beta = float(np.dot(d, pair.x)) - float(np.dot(w, w))
        t_dyn = np.dot(w, w) / np.dot(d, d)
        t_ex = exact_linesearch(obj, x_star, d, beta, nonneg=True)
        assert t_dyn - 1e-12 <= t_in <= t_ex + 1e-12
        assert t_ex < 2.0 * t_in + 1e-12


def test_difficult_step_at_feasible_point_is_zero():
    # only an exactly zero residual counts as feasible
    pair = pair_from_dual(SquaredNorm(2), np.array([1.0, 0.0]))
    cfg = _equality_config(np.array([[1.0, 0.0]]), np.array([1.0]), SquaredNorm(2), Exact())
    new_pair, t, w_norm = _difficult_step(cfg, pair)
    assert new_pair is pair
    assert t == 0.0
    assert w_norm == 0.0
    # a residual of 2**-52 still gets a real step
    cfg = _equality_config(
        np.array([[1.0, 0.0]]), np.array([1.0 + 2.0**-52]), SquaredNorm(2), Exact()
    )
    new_pair, t, w_norm = _difficult_step(cfg, pair)
    assert t > 0.0
    assert w_norm == 2.0**-52
    assert new_pair.x[0] == 1.0 + 2.0**-52


def test_tiny_residuals_are_not_skipped():
    # the tolerance is far below 1e-12 * ||A x||: every nonzero residual must
    # still get a real step, or the run idles until its budget runs out
    inst = generate_instance(InstanceSpec(m=200, n=1000, sparsity=10, seed=1))
    lam = 10.0 * np.abs(inst.x_true).max()
    cfg = preset(
        "linearized_bregman", inst.op, inst.b, lam=lam, step_rule=Dynamic(),
        max_iterations=2000, residual_tolerance=1e-12,
    )
    res = run(cfg)
    assert res.termination == "tolerance"
    assert all(rec.step_size > 0.0 for rec in res.records)


def test_unknown_rule_rejected():
    cfg = _equality_config(np.eye(2), np.ones(2), SquaredNorm(2), rule="fast")
    with pytest.raises(TypeError):
        run(cfg)


def test_step_rule_subclasses_are_accepted():
    class MyExact(Exact):
        pass

    res = run(_equality_config(np.eye(2), np.ones(2), SquaredNorm(2), rule=MyExact()))
    assert res.termination == "tolerance"


# ---------------------------------------------------------------------------
# run loop mechanics
# ---------------------------------------------------------------------------


def test_zero_iterations():
    cfg = preset("landweber", np.eye(2), np.ones(2), max_iterations=0)
    res = run(cfg)
    assert res.termination == "max_iterations"
    assert res.records == []
    np.testing.assert_allclose(res.x, np.zeros(2))


def test_feasible_start_terminates_first_pass():
    cfg = preset("landweber", np.eye(2), np.zeros(2), max_iterations=50)
    res = run(cfg)
    assert res.termination == "tolerance"
    assert res.iterations == 1


def test_tolerance_validation():
    cfg = preset("landweber", np.eye(2), np.ones(2), residual_tolerance=0.0)
    with pytest.raises(ValueError):
        run(cfg)
    cfg = preset("landweber", np.eye(2), np.ones(2), residual_tolerance=[1e-8, 1e-8])
    with pytest.raises(ValueError):
        run(cfg)  # one constraint, two tolerances


def test_per_constraint_tolerances():
    # loose tolerance on the second constraint lets the run stop early
    a = np.array([[1.0, 0.0]])
    cfg = SolverConfig(
        objective=SquaredNorm(2),
        constraints=[
            Difficult(DenseMatrix(a), Point(np.array([1.0]))),
            Simple(Hyperplane(np.array([0.0, 1.0]), 0.25)),
        ],
        max_iterations=100,
        residual_tolerance=[1e-10, 1e10],
    )
    res = run(cfg)
    assert res.termination == "tolerance"
    assert abs(res.x[0] - 1.0) <= 1e-9


def test_empty_constraints_rejected():
    cfg = SolverConfig(objective=SquaredNorm(2), constraints=[])
    with pytest.raises(ValueError):
        run(cfg)


def test_simple_constraint_needs_projector():
    cfg = SolverConfig(
        objective=ElasticNet(1.0, 2),
        constraints=[Simple(NormBall(np.zeros(2), 1.0, 2))],
    )
    with pytest.raises(TypeError):
        run(cfg)


def test_later_simple_constraint_checked_before_first_step():
    cfg = SolverConfig(
        objective=ElasticNet(1.0, 2),
        constraints=[
            Difficult(DenseMatrix(np.eye(2)), Point(np.ones(2))),
            Simple(NormBall(np.zeros(2), 1.0, 2)),
        ],
        control=Custom([0, 0, 0, 1]),
    )
    seen = []
    with pytest.raises(TypeError):
        run(cfg, callback=lambda pair, record: seen.append(record.k))
    assert seen == []


@pytest.mark.parametrize("tol", [np.nan, [1e-8, np.nan]])
def test_nan_tolerance_rejected_before_first_step(tol):
    cfg = SolverConfig(
        objective=SquaredNorm(2),
        constraints=[Simple(Hyperplane(np.array([1.0, 0.0]), 1.0)),
                     Simple(Hyperplane(np.array([0.0, 1.0]), 1.0))],
        residual_tolerance=tol,
    )
    seen = []
    with pytest.raises(ValueError, match="tolerances must be positive"):
        run(cfg, callback=lambda pair, record: seen.append(record.k))
    assert seen == []


def test_custom_order_naming_a_missing_constraint_rejected_before_first_step():
    for order, bad in (([0, 5], 5), ([0, -1], -1)):  # -1 would name the last one
        cfg = preset("kaczmarz", [[1.0, 2.0], [3.0, 4.0]], [1.0, 2.0], control=Custom(order))
        seen = []
        with pytest.raises(ValueError, match=f"^control index {bad} out of range$"):
            run(cfg, callback=lambda pair, record: seen.append(record.k))
        assert seen == []


@pytest.mark.parametrize("bad", [-1, 2], ids=["minus-one", "n"])
def test_out_of_range_index_from_any_control_raises_before_its_step(bad):
    # -1 would run the last constraint, n would raise a bare IndexError
    class ThenBad:
        def indices(self, n):
            return iter([0, bad, 0, 0])

    cfg = preset(
        "kaczmarz", [[1.0, 2.0], [3.0, 4.0]], [1.0, 2.0], control=ThenBad(), max_iterations=4
    )
    seen = []
    with pytest.raises(ValueError, match=f"^control index {bad} out of range$"):
        run(cfg, callback=lambda pair, record: seen.append(record.k))
    assert seen == [0]


def test_controls_take_numpy_integers():
    assert list(islice(Custom(np.array([1, 0])).indices(2), 3)) == [1, 0, 1]
    assert type(Custom(np.array([1, 0])).order[0]) is int
    assert RandomUniform(np.int64(7)).seed == 7


def test_index_stream_that_ends_early_raises():
    class Twice:
        def indices(self, n):
            return iter([0, 1])

    cfg = preset("kaczmarz", [[1.0, 2.0], [3.0, 4.0]], [1.0, 2.0], control=Twice())
    seen = []
    with pytest.raises(StopIteration):
        run(cfg, callback=lambda pair, record: seen.append(record.k))
    assert seen == [0, 1]


def test_one_difficult_shared_by_two_runs_changes_neither():
    # tomography shares its Difficult constraints across variants: each run
    # must match a run over its own copy, sequential and nested alike
    rng = np.random.default_rng(11)
    a, b = rng.standard_normal((6, 10)), rng.standard_normal(6)
    shared = Difficult(DenseMatrix(a), NormBall(b, 0.1, 2))

    def configs(d):
        return (
            SolverConfig(ElasticNet(0.5, 10), [d, Simple(NonnegCone())], max_iterations=30),
            SolverConfig(SquaredNorm(10), [d], step_rule=Dynamic(), max_iterations=20),
        )

    def outcome(result):
        steps = np.array([(r.constraint_index, r.step_size) for r in result.records])
        return steps.tobytes(), result.x.tobytes()

    want = [outcome(run(configs(Difficult(shared.op, shared.target))[i])) for i in range(2)]
    first, second = configs(shared)
    assert [outcome(run(first)), outcome(run(second))] == want
    inner = []

    def start_second(pair, record):
        if record.k == 3:
            inner.append(outcome(run(second)))

    assert [outcome(run(first, callback=start_second))] + inner == want


@pytest.mark.parametrize("cap", [2.5, 3.0, True, -5, "10", None])
def test_malformed_max_iterations_rejected_before_first_step(cap):
    cfg = preset("landweber", np.eye(2), np.ones(2), max_iterations=cap)
    seen = []
    with pytest.raises(ValueError, match="max_iterations"):
        run(cfg, callback=lambda pair, record: seen.append(record.k))
    assert seen == []
    assert run(replace(cfg, max_iterations=np.int64(1))).iterations == 1  # numpy integers pass


def test_unknown_rule_rejected_before_first_step():
    # the Simple step comes first; the rule is only read on the Difficult one
    cfg = SolverConfig(
        objective=SquaredNorm(2),
        constraints=[
            Simple(Hyperplane(np.array([0.0, 1.0]), 1.0)),
            Difficult(DenseMatrix(np.eye(2)), Point(np.ones(2))),
        ],
        step_rule="fast",
    )
    seen = []
    with pytest.raises(TypeError, match="unknown step rule"):
        run(cfg, callback=lambda pair, record: seen.append(record.k))
    assert seen == []


def test_later_box_without_zero_rejected_before_first_step():
    cfg = SolverConfig(
        objective=ElasticNet(1.0, 2),
        constraints=[
            Simple(Hyperplane(np.array([1.0, 1.0]), 2.0)),
            Simple(Box(np.array([1.0, -1.0]), np.array([2.0, 1.0]))),
        ],
    )
    seen = []
    with pytest.raises(BoxWithoutZero):
        run(cfg, callback=lambda pair, record: seen.append(record.k))
    assert seen == []


def test_violations_at_pass_boundaries():
    a = np.eye(2)
    cfg = SolverConfig(
        objective=SquaredNorm(2),
        constraints=[
            Simple(Hyperplane(np.array([1.0, 0.0]), 1.0)),
            Simple(Hyperplane(np.array([0.0, 1.0]), 2.0)),
        ],
        max_iterations=5,
        residual_tolerance=1e-15,
    )
    res = run(cfg)
    has_violations = [rec.violations is not None for rec in res.records]
    assert has_violations == [False, True, False, True, False][: len(res.records)] or res.termination == "tolerance"


def test_zero_direction_raises():
    a = np.array([[1.0], [1.0]])
    b = np.array([1.0, -1.0])
    cfg = _equality_config(a, b, SquaredNorm(1), Exact())
    with pytest.raises(ZeroDirection):
        run(cfg)


def test_x0_star_used():
    cfg = preset("kaczmarz", np.array([[1.0, 0.0]]), np.array([2.0]), max_iterations=1,
                 x0_star=np.array([0.0, 7.0]))
    res = run(cfg)
    np.testing.assert_allclose(res.x, [2.0, 7.0])


def test_elapsed_ms_monotone():
    cfg = preset("landweber", np.eye(3), np.ones(3), max_iterations=10,
                 residual_tolerance=1e-15)
    res = run(cfg)
    times = [rec.elapsed_ms for rec in res.records]
    assert all(b >= a for a, b in zip(times, times[1:]))


def test_callback_sees_every_step():
    seen = []
    rng = np.random.default_rng(8)
    cfg = preset("landweber", rng.standard_normal((2, 2)), np.ones(2), max_iterations=7,
                 residual_tolerance=1e-18)
    run(cfg, callback=lambda pair, rec: seen.append(rec.k))
    assert seen == list(range(7))


class _CountingElasticNet(ElasticNet):
    calls = 0
    weight_reads = 0  # run's set-up reads the weights once for all its projectors

    def value(self, x):
        self.calls += 1
        return super().value(x)

    def shrink_weights(self):
        self.weight_reads += 1
        return super().shrink_weights()


class _CountingMatrix(DenseMatrix):
    applies = 0

    def apply(self, x):
        self.applies += 1
        return super().apply(x)


@pytest.mark.parametrize("name", ["sparse_kaczmarz", "linearized_bregman"])
def test_run_never_evaluates_the_objective(name):
    # stepping and stopping need no f(x); a caller that logs it pays for it
    rng = np.random.default_rng(12)
    a = rng.standard_normal((4, 8))
    cfg = preset(name, a, a @ rng.standard_normal(8), lam=1.0, max_iterations=40,
                 residual_tolerance=1e-18)
    assert isinstance(cfg.constraints[0], Simple if name == "sparse_kaczmarz" else Difficult)
    cfg.objective = _CountingElasticNet(1.0, 8)
    res = run(cfg)
    assert res.iterations == 40
    assert cfg.objective.calls == 0
    run(cfg, callback=lambda pair, rec: cfg.objective.value(pair.x))
    assert cfg.objective.calls == 40


def test_difficult_run_makes_one_forward_product_per_step():
    # the pass-boundary violation and the next step at the same iterate share
    # A x, so N steps need N + 1 products (the first step's own included)
    rng = np.random.default_rng(14)
    a = rng.standard_normal((4, 8))
    op = _CountingMatrix(a)
    cfg = SolverConfig(
        objective=ElasticNet(1.0, 8),
        constraints=[Difficult(op, Point(a @ rng.standard_normal(8)))],
        step_rule=Dynamic(),
        max_iterations=30,
        residual_tolerance=1e-18,
    )
    res = run(cfg)
    assert res.iterations == 30
    assert op.applies == 31


class _CountingBall(NormBall):
    projections = 0

    def project(self, y):
        self.projections += 1
        return super().project(y)


def test_difficult_run_makes_one_target_projection_per_step():
    # the violation and the next step at the same iterate share the residual
    # A x - P(A x) as they share A x: N steps make N + 1 of each
    rng = np.random.default_rng(14)
    a = rng.standard_normal((4, 8))
    op = _CountingMatrix(a)
    target = _CountingBall(a @ rng.standard_normal(8), 1e-3, 1)
    cfg = SolverConfig(
        objective=ElasticNet(1.0, 8),
        constraints=[Difficult(op, target)],
        step_rule=Dynamic(),
        max_iterations=30,
        residual_tolerance=1e-18,
    )
    res = run(cfg)
    assert res.iterations == 30
    assert target.projections == op.applies == 31


@pytest.mark.parametrize(
    "target",
    [
        Point([0.5, -1.0, 2.0]),
        NormBall([0.5, -1.0, 2.0], 0.7, 1),
        NormBall([0.5, -1.0, 2.0], 0.7, 2),
        NormBall([0.5, -1.0, 2.0], 0.7, np.inf),
        Box([-0.1, -0.2, -0.3], [0.1, 0.2, 0.3]),
        NonnegCone([0, 2]),
    ],
    ids=lambda t: type(t).__name__,
)
def test_difficult_violation_is_the_target_distance(target):
    rng = np.random.default_rng(16)
    op = DenseMatrix(rng.standard_normal((3, 5)))
    c = Difficult(op, target)
    for _ in range(20):
        x = rng.standard_normal(5) * 3.0
        w, w_norm = c.residual(x)
        assert c.violation(x) == w_norm == target.distance(c.product(x))
        np.testing.assert_array_equal(w, c.product(x) - target.project(c.product(x)))
        with pytest.raises(ValueError):
            w[0] = 1.0  # shared with the next step, so read-only


def test_difficult_product_is_keyed_by_array_identity():
    op = _CountingMatrix(np.arange(6.0).reshape(2, 3))
    c = Difficult(op, Point([0.0, 0.0]))
    x = np.array([1.0, -0.0, 2.0])
    y = c.product(x)
    np.testing.assert_array_equal(y, op.a @ x)
    assert c.product(x) is y
    assert c.violation(x) == np.linalg.norm(y)
    assert op.applies == 1
    with pytest.raises(ValueError):
        y[0] = 1.0  # shared with the next step, so read-only
    c.product(x.copy())  # equal values, another array: a new product
    assert op.applies == 2
    c.product(x)  # one entry only
    assert op.applies == 3


def test_simple_constraints_build_their_projectors_once_per_run():
    rng = np.random.default_rng(15)
    a = rng.standard_normal((3, 6))
    obj = _CountingElasticNet(0.5, 6)
    cfg = SolverConfig(
        objective=obj,
        constraints=[
            Difficult(DenseMatrix(a), Point(a @ rng.standard_normal(6))),
            Simple(NonnegCone(np.arange(3))),
            Simple(Box(-np.ones(6), 2.0 * np.ones(6))),
        ],
        step_rule=Dynamic(),
        max_iterations=30,
        residual_tolerance=1e-18,
    )
    assert run(cfg).iterations == 30
    assert obj.weight_reads == 1


def test_sparse_kaczmarz_reads_the_shrink_weights_once_per_run():
    # run takes its verdicts on the weights once and every row's linesearch
    # plan reads them, so a run over m rows reads the weights once however
    # many rows and steps it has
    rng = np.random.default_rng(16)
    m, n = 200, 12
    a = rng.standard_normal((m, n))
    cfg = preset("sparse_kaczmarz", a, a @ rng.standard_normal(n), lam=1.0,
                 max_iterations=6 * m, residual_tolerance=1e-18)
    cfg.objective = _CountingElasticNet(1.0, n)
    assert run(cfg).iterations == 6 * m
    assert cfg.objective.weight_reads == 1


def test_linearized_bregman_reads_the_shrink_weights_once_per_run():
    # a difficult step under Exact builds its linesearch plan on the
    # objective's verdicts, not on a fresh read of the weights
    rng = np.random.default_rng(17)
    a = rng.standard_normal((20, 60))
    cfg = preset("linearized_bregman", a, a @ rng.standard_normal(60), lam=1.0,
                 max_iterations=300, residual_tolerance=1e-18)
    cfg.objective = _CountingElasticNet(1.0, 60)
    assert run(cfg).iterations == 300
    assert cfg.objective.weight_reads == 1


def test_an_objective_takes_its_weight_verdicts_once_for_every_consumer():
    # two runs (row projectors, then linesearch plans along A^T w) and a
    # linesearch without a plan all read the verdicts the objective took
    rng = np.random.default_rng(18)
    a = rng.standard_normal((6, 10))
    b = a @ rng.standard_normal(10)
    obj = _CountingElasticNet(1.0, 10)
    for name in ("sparse_kaczmarz", "linearized_bregman"):
        cfg = preset(name, a, b, lam=1.0, max_iterations=30, residual_tolerance=1e-18)
        cfg.objective = obj
        assert run(cfg).iterations == 30
    exact_linesearch(obj, rng.standard_normal(10), a[0], 0.5)
    assert obj.weight_reads == 1


class _ForwardingObjective(Objective):
    """A wrapper shaped like a tracing one: it inherits Objective, forwards
    what it does not define and counts its own shrink-weight reads."""

    def __init__(self, inner):
        self.inner, self.alpha, self.dimension = inner, inner.alpha, inner.dimension
        self.weight_reads = 0

    def __getattr__(self, name):
        if name == "inner":  # not set yet
            raise AttributeError(name)
        return getattr(self.inner, name)

    def grad_conjugate(self, x_star):
        return self.inner.grad_conjugate(x_star)

    def shrink_weights(self):
        self.weight_reads += 1
        return self.inner.shrink_weights()


def test_a_forwarding_wrapper_takes_its_own_weight_verdicts_once():
    rng = np.random.default_rng(19)
    a = rng.standard_normal((6, 10))
    inner = _CountingElasticNet(1.0, 10)
    wrapper = _ForwardingObjective(inner)
    for _ in range(2):
        cfg = preset("sparse_kaczmarz", a, a @ rng.standard_normal(10), lam=1.0,
                     max_iterations=30, residual_tolerance=1e-18)
        cfg.objective = wrapper
        assert run(cfg).iterations == 30
    assert wrapper.weight_reads == inner.weight_reads == 1  # through the wrapper
    assert "_verdicts" in vars(wrapper) and "_verdicts" not in vars(inner)


# ---------------------------------------------------------------------------
# malformed input fails early with a named error
# ---------------------------------------------------------------------------


def _system_5x8():
    a = np.random.default_rng(0).standard_normal((5, 8))
    return a, a @ np.linspace(-1.0, 1.0, 8)


def test_nan_data_in_equality_block_is_named():
    a, b = _system_5x8()
    b[2] = np.nan
    with pytest.raises(NonFiniteData, match="residual norm is nan"):
        run(preset("linearized_bregman", a, b, lam=1.0, max_iterations=50))


def test_nan_start_is_rejected():
    a, b = _system_5x8()
    cfg = preset("linearized_bregman", a, b, lam=1.0, x0_star=np.full(8, np.nan))
    with pytest.raises(NonFiniteData, match="x0_star"):
        run(cfg)


def test_nan_right_hand_side_row_is_rejected():
    a, b = _system_5x8()
    b[2] = np.nan
    with pytest.raises(NonFiniteData, match="hyperplane"):
        preset("kaczmarz", a, b)


def test_infinite_matrix_entry_row_is_rejected():
    a, b = _system_5x8()
    a[0, 0] = np.inf
    with pytest.raises(NonFiniteData, match="hyperplane"):
        preset("sparse_kaczmarz", a, b, lam=1.0)


def test_non_finite_l1_ball_target_is_named():
    c = Difficult(DenseMatrix(np.eye(2)), NormBall(np.array([np.inf, 0.0]), 1.0, 1))
    cfg = SolverConfig(ElasticNet(1.0, 2), [c], step_rule=Dynamic(), max_iterations=5)
    with pytest.raises(NonFiniteData, match="l1-ball"):
        run(cfg)


def test_operator_and_objective_dimensions_must_agree():
    a, b = _system_5x8()
    cfg = _equality_config(a, b, ElasticNet(1.0, 9), Exact())
    with pytest.raises(DimensionMismatch, match="8 coordinates, not 9"):
        run(cfg)


def _wrong_length_set(constraint):
    return pytest.param(
        {"constraints": [constraint]},
        "constraint 0: .* does not fit length 2",
        id=f"{type(constraint).__name__}-{type(constraint.target).__name__}",
    )


@pytest.mark.parametrize(
    "fields, match",
    [
        _wrong_length_set(Simple(Hyperplane(np.ones(3), 1.0))),
        _wrong_length_set(Simple(Halfspace(np.ones(3), -1.0))),
        _wrong_length_set(Simple(Box(-np.ones(3), np.ones(3)))),
        _wrong_length_set(Simple(NonnegCone([5]))),
        _wrong_length_set(Simple(NonnegCone([0, 2]))),
        _wrong_length_set(Difficult(DenseMatrix(np.eye(2)), Point(np.ones(3)))),
        _wrong_length_set(Difficult(DenseMatrix(np.eye(2)), NormBall(np.zeros(3), 1.0, 2))),
        _wrong_length_set(Difficult(DenseMatrix(np.eye(2)), Box(-np.ones(3), np.ones(3)))),
        pytest.param(
            {"residual_tolerance": np.full(3, 1e-8)},
            r"residual_tolerance has shape \(3,\), not \(2,\)",
            id="residual_tolerance",
        ),
        pytest.param(
            {"x0_star": np.zeros(3)}, r"x0_star has shape \(3,\), not \(2,\)", id="x0_star"
        ),
    ],
)
def test_set_data_of_the_wrong_length_fails_before_step_0(fields, match):
    # the objective has 2 coordinates, the operators 2 outputs, and there are
    # 2 constraints unless ``fields`` replaces them
    steps = []
    plane = Simple(Hyperplane(np.ones(2), 1.0))
    cfg = SolverConfig(objective=ElasticNet(1.0, 2), constraints=[plane, plane], max_iterations=5)
    with pytest.raises(DimensionMismatch, match=match):
        run(replace(cfg, **fields), callback=lambda pair, rec: steps.append(rec.k))
    assert steps == []


def test_length_one_bounds_and_centers_broadcast():
    cfg = SolverConfig(
        objective=ElasticNet(1.0, 2),
        constraints=[
            Difficult(DenseMatrix(np.eye(2)), Box(np.array([1.0]), np.array([2.0]))),
            Difficult(DenseMatrix(np.eye(2)), NormBall(np.array([1.5]), 0.5, np.inf)),
            Simple(Box(np.array([-1.0]), np.array([1.0]))),
        ],
        step_rule=Dynamic(),
        max_iterations=2000,
    )
    assert run(cfg).termination == "tolerance"


# ---------------------------------------------------------------------------
# equivalence with the classical sparse-recovery iteration
# ---------------------------------------------------------------------------


def test_constant_rule_matches_reference_iteration():
    # with ||A|| = 1 the constant step is 1 and the solver's dual update is the
    # classical iterate v_k; the primal lags the reference x by one index
    rng = np.random.default_rng(5)
    a = rng.standard_normal((6, 12))
    a /= np.linalg.svd(a, compute_uv=False)[0]
    x_true = np.zeros(12)
    x_true[[2, 7]] = [1.0, -2.0]
    b = a @ x_true
    lam = 0.5

    cfg = _equality_config(a, b, ElasticNet(lam, 12), Constant(), max_iterations=30,
                           residual_tolerance=1e-18)
    trace = []
    res = run(cfg, callback=lambda pair, rec: trace.append((pair.x.copy(), pair.x_star.copy())))
    t = res.records[0].step_size
    assert t == pytest.approx(1.0, rel=1e-5)

    v = np.zeros(12)
    for k in range(30):
        x_ref = soft_shrink(v, lam)
        v = v - t * (a.T @ (a @ x_ref - b))
        np.testing.assert_allclose(trace[k][1], v, atol=1e-10)
        np.testing.assert_allclose(trace[k][0], soft_shrink(v, lam), atol=1e-10)


# ---------------------------------------------------------------------------
# Bregman monotonicity on a small run
# ---------------------------------------------------------------------------


def test_distance_to_solution_decreases():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((5, 10))
    x_true = np.zeros(10)
    x_true[[0, 4, 9]] = [1.0, -1.0, 2.0]
    b = a @ x_true
    obj = ElasticNet(2.0, 10)
    for rule in (Exact(), Dynamic(), Constant()):
        cfg = _equality_config(a, b, obj, rule, max_iterations=60, residual_tolerance=1e-14)
        dists = []

        def watch(pair, rec):
            dists.append(bregman_distance(obj, pair.x, pair.x_star, x_true))

        run(cfg, callback=watch)
        diffs = np.diff(dists)
        assert np.all(diffs <= 1e-9), type(rule).__name__


# ---------------------------------------------------------------------------
# history CSV
# ---------------------------------------------------------------------------


def test_history_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(7)
    a = rng.standard_normal((3, 6))
    b = rng.standard_normal(3)
    cfg = preset("kaczmarz", a, b, max_iterations=7, residual_tolerance=1e-18)
    values = []
    res = run(cfg, callback=lambda pair, rec: values.append(cfg.objective.value(pair.x)))
    path = tmp_path / "history.csv"
    history_to_csv(res, path, values)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == CSV_COLUMNS
    assert len(rows) == 1 + len(res.records)
    # simple steps: step_size column is nan, max_violation appears at the pass
    # boundary and is carried forward afterwards
    first = rows[1]
    assert first[0] == "0"
    assert first[2] == "nan"
    assert first[4] == "nan"
    boundary = rows[3 + 1]  # k = 3 = last step of the first pass
    assert boundary[4] != "nan"
    assert float(rows[5][4]) == float(rows[4][4])
    assert [float(row[5]) for row in rows[1:]] == values


def test_history_csv_difficult_run(tmp_path):
    cfg = preset("landweber", np.eye(2), np.ones(2), max_iterations=3,
                 residual_tolerance=1e-18)
    values = []
    res = run(cfg, callback=lambda pair, rec: values.append(cfg.objective.value(pair.x)))
    path = tmp_path / "h.csv"
    history_to_csv(res, path, values)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert [float(row[5]) for row in rows[1:]] == values
    for row, rec in zip(rows[1:], res.records):
        assert float(row[2]) == rec.step_size
        assert float(row[3]) == rec.w_norm
        assert float(row[4]) == np.max(rec.violations)
    # one value per record, checked before the file is opened
    for bad in (values[:-1], values + [0.0]):
        match = rf"^objective_values: {len(bad)} values for {res.iterations} records$"
        with pytest.raises(ValueError, match=match):
            history_to_csv(res, tmp_path / "bad.csv", bad)
    assert not (tmp_path / "bad.csv").exists()


def test_iteration_records_are_slotted():
    # a run keeps one record per step, so a record has no __dict__; run still
    # sets the violations of a pass boundary after building its record
    cfg = preset("kaczmarz", np.eye(3), np.ones(3), max_iterations=5, residual_tolerance=1e-18)
    res = run(cfg)
    rec = res.records[0]
    assert not hasattr(rec, "__dict__")
    assert rec.violations is None
    assert res.records[2].violations.shape == (3,)  # the end of the first pass
    rec.violations = np.zeros(3)
    assert rec.violations.tolist() == [0.0, 0.0, 0.0]
    with pytest.raises(AttributeError):
        rec.note = "no such field"


# ---------------------------------------------------------------------------
# difficult steps that skip the zero blocks of a block row
# ---------------------------------------------------------------------------


_KINDS = st.sampled_from(["squared", "elastic", "group"])


def _part(draw, kind):
    """A part of 2 or 4 coordinates for a ProductObjective."""
    n = 2 * draw(st.integers(1, 2))
    if kind == "squared":
        return SquaredNorm(n)
    if kind == "elastic":
        return ElasticNet(draw(st.sampled_from([0.0, 0.5, 2.0])), n)
    return GroupElasticNet(draw(st.sampled_from([0.0, 0.5])), np.arange(n).reshape(2, -1).T)


@st.composite
def _zero_block_cases(draw):
    # parts of 2-4 coordinates, each covered by a dense block or by one or
    # two zero blocks; at least one of each kind
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(_KINDS, min_size=2, max_size=4))
    zero = draw(st.lists(st.booleans(), min_size=len(kinds), max_size=len(kinds)))
    if all(zero) or not any(zero):
        zero[0], zero[-1] = True, False
    m = draw(st.integers(1, 4))
    parts, blocks, split = [], [], []
    for kind, is_zero in zip(kinds, zero):
        parts.append(_part(draw, kind))
        n = parts[-1].dimension
        if not is_zero:
            blocks.append(DenseMatrix(rng.standard_normal((m, n))))
        elif draw(st.booleans()):  # adjacent zero blocks over one part
            blocks += [ZeroOperator(m, 1), ZeroOperator(m, n - 1)]
            split.append(len(parts) - 1)
        else:
            blocks.append(ZeroOperator(m, n))
    obj = ProductObjective(parts)
    x0_star = rng.standard_normal(obj.dimension) * 2.0
    x0_star[rng.random(obj.dimension) < 0.3] = draw(st.sampled_from([0.0, -0.0]))
    center = rng.standard_normal(m) * 3.0
    target = draw(
        st.sampled_from([Point(center), NormBall(center, 0.5, 2), NormBall(center, 1.0, 1)])
    )
    rule = draw(st.sampled_from([Constant(), Dynamic(), Exact(), Inexact()]))
    return obj, BlockRow(blocks), target, rule, x0_star, zero, split


@settings(max_examples=150, deadline=None)
@given(case=_zero_block_cases())
def test_zero_block_steps_match_the_full_length_step_bitwise(case):
    # the reference step updates every coordinate: x* - t A^T w with the full
    # adjoint, and the primal of the whole objective. The step itself moves
    # only the parts its nonzero blocks reach: a part under one zero block or
    # under two adjacent ones is skipped
    obj, op, target, rule, x0_star, zero, split = case
    constraint = Difficult(op, target)
    cfg = SolverConfig(objective=obj, constraints=[constraint], step_rule=rule)
    _, parts = solver._reach(obj, op)
    met = [s for s, _ in parts]
    assert met == [s for s, is_zero in zip(obj.slices, zero) if not is_zero]
    for i in split:  # a part covered by two adjacent zero blocks is skipped too
        assert obj.slices[i] not in met
    pair = pair_from_dual(obj, x0_star)
    for _ in range(4):
        w, _ = constraint.residual(pair.x)
        d = op.apply_adjoint(w)
        new_pair, t, _ = _difficult_step(cfg, pair)
        reference = pair_from_dual(obj, pair.x_star - t * d)
        assert new_pair.x_star.tobytes() == reference.x_star.tobytes()
        assert new_pair.x.tobytes() == reference.x.tobytes()
        pair = new_pair


def test_footprint_names_the_parts_a_support_meets():
    m = 2
    dense = DenseMatrix(np.ones((m, 3)))
    op = BlockRow([dense, ZeroOperator(m, 3)])
    inside = ProductObjective([SquaredNorm(3), ElasticNet(1.0, 3)])
    assert solver._reach(inside, op) == (slice(0, 3), [(slice(0, 3), inside.parts[0])])
    # a part across the edge of the zero block is met like any other; a
    # support that meets every part and an objective without parts name none
    straddling = ProductObjective([SquaredNorm(2), ElasticNet(1.0, 4)])
    assert solver._reach(straddling, op) == (slice(0, 3), None)
    assert solver._reach(SquaredNorm(6), op) == (slice(0, 3), None)
    assert solver._reach(inside, BlockRow([dense, dense])) == (slice(None), None)
    # two adjacent zero blocks over one part, and the supports of sets: a
    # normal's mask, a cone's int indices and a cone without indices
    adjacent = BlockRow([dense, ZeroOperator(m, 1), ZeroOperator(m, 2)])
    assert solver._reach(inside, adjacent)[1] == [(slice(0, 3), inside.parts[0])]
    normal = Hyperplane([0.0, 0.0, 0.0, 1.0, 0.0, 2.0], 1.0)
    assert projections._footprint(inside, normal.support) == [(slice(3, 6), inside.parts[1])]
    assert projections._footprint(inside, NonnegCone([4, 1]).indices) is None
    assert projections._footprint(inside, NonnegCone([]).indices) == []
    assert projections._footprint(SquaredNorm(6), NonnegCone([]).indices) is None


class _CountingBlockRow(BlockRow):
    """A BlockRow that counts the reads of its ``zero_columns``."""

    reads = 0

    @property
    def zero_columns(self):
        self.reads += 1
        return self._zero_columns

    @zero_columns.setter
    def zero_columns(self, value):
        self._zero_columns = value


def test_zero_columns_are_read_once_per_run():
    op = _CountingBlockRow([DenseMatrix(np.ones((2, 3))), ZeroOperator(2, 3)])
    obj = ProductObjective([SquaredNorm(3), ElasticNet(1.0, 3)])
    cfg = SolverConfig(
        objective=obj,
        constraints=[Difficult(op, Point(np.array([1.0, 2.0]))), Simple(NonnegCone())],
        step_rule=Dynamic(),
        max_iterations=6,
    )
    res = run(cfg)
    assert res.iterations == 6
    assert op.reads == 1


# ---------------------------------------------------------------------------
# the pair invariant of every step
# ---------------------------------------------------------------------------

# half-integers with both zeros: shrinkage ties, exact zeros and -0.0
_HALVES = st.sampled_from([-2.0, -1.5, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 1.5, 2.0])


def _halves(draw, n):
    return np.array(draw(st.lists(_HALVES, min_size=n, max_size=n)))


@st.composite
def _objectives(draw):
    if draw(st.booleans()):
        return ElasticNet(draw(st.sampled_from([0.0, 0.5, 1.0])), draw(st.integers(1, 5)))
    kinds = draw(st.lists(_KINDS, min_size=1, max_size=3))
    return ProductObjective([_part(draw, kind) for kind in kinds])


@st.composite
def _steps(draw):
    """(objective, start pair, one step as a function of the pair, the mask of
    the coordinates the step may move): a Bregman projection onto each simple
    set type, or a difficult step under each rule on a block row with zero
    blocks over any columns."""
    obj = draw(_objectives())
    n = obj.dimension
    pair = pair_from_dual(obj, _halves(draw, n))
    weights = obj.shrink_weights()
    finite = np.flatnonzero(np.isfinite(weights)).tolist()
    kind = draw(st.sampled_from(["hyperplane", "halfspace", "cone", "box", "difficult"]))
    if kind == "box" and len(finite) < n:
        kind = "cone"  # the closed form needs finite weights on the box's indices
    moved = np.zeros(n, dtype=bool)
    if kind in ("hyperplane", "halfspace"):
        normal = _halves(draw, n)
        normal[draw(st.integers(0, n - 1))] = draw(st.sampled_from([-1.0, 0.5, 2.0]))
        target = (Hyperplane if kind == "hyperplane" else Halfspace)(normal, draw(_HALVES))
        moved[normal != 0.0] = True
    elif kind == "cone":
        indices = draw(st.lists(st.sampled_from(finite), unique=True)) if finite else []
        target = NonnegCone(indices)
        moved[indices] = True
    elif kind == "box":
        size = draw(st.sampled_from([1, n]))
        target = Box(-np.abs(_halves(draw, size)), np.abs(_halves(draw, size)))
        moved[:] = True
    else:
        m, blocks, start = draw(st.integers(1, 3)), [], 0
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        while start < n:  # the last block is dense when no other is
            width = draw(st.integers(1, n - start))
            if draw(st.booleans()) and (moved.any() or start + width < n):
                blocks.append(ZeroOperator(m, width))
            else:
                blocks.append(DenseMatrix(rng.standard_normal((m, width))))
                moved[start : start + width] = True
            start += width
        constraint = Difficult(BlockRow(blocks), Point(_halves(draw, m)))
        rule = draw(st.sampled_from([Constant(), Dynamic(), Exact(), Inexact()]))
        cfg = SolverConfig(objective=obj, constraints=[constraint], step_rule=rule)
        return obj, pair, lambda p: _difficult_step(cfg, p)[0], moved
    if not np.any(weights):  # f = ||x||^2 / 2: the orthogonal route moves all of x*
        moved[:] = True
    return obj, pair, lambda p: bregman_project(obj, p, target), moved


@settings(max_examples=400, deadline=None)
@given(case=_steps())
def test_every_step_writes_a_consistent_pair_and_keeps_x_star_off_its_support(case):
    obj, pair, step, moved = case
    for _ in range(2):
        new = step(pair)
        assert new.x.tobytes() == obj.grad_conjugate(new.x_star).tobytes()
        assert new.x_star[~moved].tobytes() == pair.x_star[~moved].tobytes()
        pair = new
