"""One malformed-input table for the whole public API.

A row per name in ``splitbreg.__all__`` and per runner config, a column per
bad-value class. Each cell either expects a named error (``Raises``: the
exception class and the message, which names the argument) or marks the
value valid there, with a one-line reason (``Valid``), and then runs the call
it gives, if any, which must not raise or warn (RuntimeWarnings are errors
in this suite).
"""

import os

import numpy as np
import pytest

import splitbreg
from splitbreg import (
    BlockRow,
    Box,
    Custom,
    DenseMatrix,
    Difficult,
    ElasticNet,
    Grad2D,
    GroupElasticNet,
    GroupedMax,
    Halfspace,
    Hyperplane,
    NonnegCone,
    NormBall,
    PartialDCT,
    PDConfig,
    Point,
    PrimalDualPair,
    ProductObjective,
    RandomUniform,
    ScaledIdentity,
    Simple,
    SolverConfig,
    SparseOperator,
    SquaredNorm,
    ZeroOperator,
    bregman_distance,
    bregman_project,
    build_parallel_projector,
    exact_linesearch,
    fenchel_gap,
    history_to_csv,
    operator_norm,
    pair_from_dual,
    preset,
    project_l1_ball,
    project_simplex,
    run,
    run_pd,
    separating_halfspace,
    soft_shrink,
)
from splitbreg import experiments
from splitbreg.experiments import (
    ExperimentConfig,
    GaussianNoise,
    ImpulsiveNoise,
    InstanceSpec,
    MissingRules,
    TomoSpec,
    UniformNoise,
    run_stepsize_benchmark,
)
from splitbreg.projections import FeasiblePoint, NonFiniteData, ZeroDirection, ZeroNormal
from splitbreg.solver import AllZeroRows, DimensionMismatch

nan, inf = np.nan, np.inf

COLUMNS = ("bool", "float", "negative", "nan", "inf", "dimension", "length", "empty")
# a row that takes a name from a fixed set also has a cell for a name outside it
NAME_COLUMNS = ("unknown",)

# the configs a runner is built from: ExperimentConfig and what from_dict builds
RUNNER_CONFIGS = {
    cls.__name__
    for cls in (ExperimentConfig, InstanceSpec, TomoSpec, *experiments._NOISE_MODELS.values())
}


class Raises:
    def __init__(self, call, match, error=ValueError):
        self.call, self.match, self.error = call, match, error


class Valid:
    def __init__(self, reason, call=None):
        self.reason, self.call = reason, call


def _all_valid(reason):
    return {column: Valid(reason) for column in COLUMNS}


def _eye(n=2):
    return DenseMatrix(np.eye(n))


def _solve(constraint, **fields):
    """Five steps of run with one constraint on a two-coordinate ElasticNet."""
    return run(SolverConfig(ElasticNet(1.0, 2), [constraint], **{"max_iterations": 5, **fields}))


def _solve_fields(**fields):
    return _solve(Simple(Hyperplane([1.0, 1.0], 1.0)), **fields)


def _kaczmarz(order):
    return run(preset("kaczmarz", np.eye(2), np.ones(2), control=Custom(order), max_iterations=4))


def _pd(**fields):
    base = {"lam": 0.1, "op": np.eye(2), "b": np.ones(2), "max_iterations": 5}
    return run_pd(PDConfig(**{**base, **fields}))


def _history(values):
    result = run(preset("kaczmarz", np.eye(2), np.ones(2), max_iterations=2))
    history_to_csv(result, os.devnull, values(result))


def _linesearch(x_star, beta, n=2):
    return exact_linesearch(ElasticNet(1.0, n), x_star, np.ones(n), beta)


def _projected(x_star, n=2):
    obj = ElasticNet(1.0, n)
    return bregman_project(obj, pair_from_dual(obj, x_star), Hyperplane([1.0, 1.0], 1.0))


_EN = ElasticNet(1.0, 2)
_PRODUCT = ProductObjective([SquaredNorm(1), ElasticNet(1.0, 2)])
_MISFIT = r"^constraint 0: \w+ does not fit length 2$"
_EMPTY_TARGET = Valid(
    "an operator without rows meets its empty target at once",
    lambda: _solve(Difficult(ZeroOperator(0, 2), Point([]))),
)


def _sized(name):
    """The start of the message for a bad whole number >= 0 named ``name``."""
    return rf"^{name} must be nonnegative and whole, not "


def _weighted(build, groups=True):
    """The row of an objective with a weight ``lam`` and groups (or a size)."""
    lam = "^lam must be nonnegative and finite$"
    if not groups:
        return dict(
            bool=Raises(lambda: build(True, 2), "^lam must be a real number, not True$"),
            float=Raises(lambda: build(1.0, 2.0), _sized("dimension") + "2.0$"),
            negative=Raises(lambda: build(-1.0, 2), lam),
            nan=Raises(lambda: build(nan, 2), lam),
            inf=Raises(lambda: build(inf, 2), lam),
            dimension=Raises(
                lambda: build(1.0, 2).value(np.zeros((2, 1))),
                r"^x must be a vector of length 2, not of shape \(2, 1\)$",
            ),
            length=Raises(
                lambda: build(1.0, 2).grad_conjugate(np.zeros(3)),
                r"^x_star must be a vector of length 2, not of shape \(3,\)$",
            ),
            empty=Valid("dimension 0: the objective on R^0", lambda: build(1.0, 0).value([])),
        )
    return dict(
        bool=Raises(lambda: build(1.0, [[True, 0]]), "^group index must hold integers, not True$"),
        float=Raises(lambda: build(1.0, [[0.5, 1.7]]), "^group index must hold integers, not 0.5$"),
        negative=Raises(lambda: build(1.0, [[-1, 0]]), "^group index -1 out of range$"),
        nan=Raises(lambda: build(nan, [[0, 1]]), lam),
        inf=Raises(lambda: build(inf, [[0, 1]]), lam),
        dimension=Raises(
            lambda: build(1.0, [[[0, 1]]]), r"^group index must be a vector, not of shape \(1, 2\)$"
        ),
        length=Raises(lambda: build(1.0, [[0], [2]]), "^group index 2 out of range$"),
        empty=Raises(lambda: build(1.0, []), "^need at least one group$"),
    )


def _linear_set(cls):
    """The row of a Hyperplane or a Halfspace."""
    kind = cls.__name__.lower()
    return dict(
        bool=Raises(lambda: cls([1.0, 2.0], True), "^offset must be a real number, not True$"),
        float=Valid("the offset is a real number", lambda: cls([1.0, 2.0], 0.5)),
        negative=Valid("a negative offset is a set like any other", lambda: cls([1.0], -3.0)),
        nan=Raises(lambda: cls([1.0, 2.0], nan), f"^{kind} normal or offset is not finite$",
                   NonFiniteData),
        inf=Raises(lambda: cls([inf, 2.0], 1.0), f"^{kind} normal or offset is not finite$",
                   NonFiniteData),
        dimension=Raises(
            lambda: cls(np.ones((2, 3)), 1.0), r"^normal must be a vector, not of shape \(2, 3\)$"
        ),
        length=Raises(lambda: _solve(Simple(cls(np.ones(3), 1.0))), _MISFIT, DimensionMismatch),
        empty=Raises(lambda: cls([], 1.0), f"^{kind} normal is zero$", ZeroNormal),
    )


def _matrix(cls, key):
    """The row of a DenseMatrix or a SparseOperator, whose entries are ``key``."""
    return dict(
        bool=Raises(lambda: cls([[True]]), f"^{key} must hold real numbers, not bools$"),
        float=Valid("no whole number is due: entries are real", lambda: cls([[0.5]])),
        negative=Valid("entries may be negative", lambda: cls([[-1.0]]).apply([1.0])),
        nan=Valid(
            "a NaN entry is data: the product keeps it and run names it (NonFiniteData)",
            lambda: cls([[nan]]).apply([1.0]),
        ),
        inf=Valid(
            "an infinite entry is data: the product keeps it and run names it (NonFiniteData)",
            lambda: cls([[inf]]).apply([1.0]),
        ),
        dimension=Raises(
            lambda: cls(np.ones(3)),
            rf"^{key} must be a 2-d array, not of shape \(3,\)$",
            DimensionMismatch,
        ),
        length=Raises(
            lambda: cls(np.eye(2)).apply_adjoint(np.ones(3)),
            r"^y must be a vector of length 2, not of shape \(3,\)$",
        ),
        empty=Valid(
            "a matrix without rows maps onto R^0", lambda: cls(np.zeros((0, 2))).apply(np.ones(2))
        ),
    )


def _real_noise(cls, key):
    """The row of a noise model sized by one real number."""
    message = f"^noise {key} must be nonnegative and finite$"
    return dict(
        bool=Raises(lambda: cls(True), f"^noise {key} must be a real number, not True$"),
        float=Valid(f"the {key} is a real number", lambda: cls(0.5)),
        negative=Raises(lambda: cls(-1.0), message),
        nan=Raises(lambda: cls(nan), message),
        inf=Raises(lambda: cls(inf), message),
        dimension=Raises(lambda: cls([1.0]), rf"^noise {key} must be a real number, not \[1.0\]$"),
        length=Valid("one number: it fits data of any length"),
        empty=Valid(f"a {key} of 0 adds no noise", lambda: cls(0.0)),
    )


_SOLVER_CONFIG = dict(
    bool=Raises(
        lambda: _solve_fields(max_iterations=True), _sized("max_iterations") + "True$"
    ),
    float=Raises(lambda: _solve_fields(max_iterations=5.0), _sized("max_iterations") + "5.0$"),
    negative=Raises(
        lambda: _solve_fields(residual_tolerance=-1.0), "^residual tolerances must be positive$"
    ),
    nan=Raises(lambda: _solve_fields(x0_star=[nan, 0.0]), "^x0_star must be finite$", NonFiniteData),
    inf=Valid(
        "an infinite residual tolerance is no bound: the run stops at its first pass",
        lambda: _solve_fields(residual_tolerance=inf),
    ),
    dimension=Raises(
        lambda: _solve_fields(x0_star=np.zeros((2, 1))),
        r"^x0_star must be a vector of length 2, not of shape \(2, 1\)$",
        DimensionMismatch,
    ),
    length=Raises(
        lambda: _solve_fields(residual_tolerance=np.full(3, 1e-8)),
        r"^residual_tolerance has shape \(3,\), not \(\), \(1,\) or \(1,\)$",
        DimensionMismatch,
    ),
    empty=Raises(
        lambda: run(SolverConfig(ElasticNet(1.0, 2), [])), "^need at least one constraint$"
    ),
)

_PD_CONFIG = dict(
    bool=Raises(lambda: _pd(noise_norm=True), "^noise_norm True is not one of 1, 2, inf$"),
    float=Raises(lambda: _pd(max_iterations=2.0), _sized("max_iterations") + "2.0$"),
    negative=Raises(lambda: _pd(delta=-1.0), "^delta must be nonnegative$"),
    nan=Raises(lambda: _pd(lam=nan), "^lam must be nonnegative and finite$"),
    inf=Raises(lambda: _pd(lam=inf), "^lam must be nonnegative and finite$"),
    dimension=Raises(
        lambda: _pd(b=np.ones((2, 1))),
        r"^b must be a vector of length 2, not of shape \(2, 1\)$",
        DimensionMismatch,
    ),
    length=Raises(
        lambda: _pd(b=np.ones(3)),
        r"^b must be a vector of length 2, not of shape \(3,\)$",
        DimensionMismatch,
    ),
    empty=Valid(
        "an operator without rows leaves the objective alone: x = 0",
        lambda: _pd(op=np.zeros((0, 2)), b=[]),
    ),
)
# the whole message for a preset name outside solver.PRESETS
_UNKNOWN_PRESET = (
    "^preset 'bogus' is not one of "
    "landweber, minimal_error, kaczmarz, linearized_bregman, sparse_kaczmarz$"
)

ROWS = {
    # objectives
    "SquaredNorm": dict(
        bool=Raises(lambda: SquaredNorm(True), _sized("dimension") + "True$"),
        float=Raises(lambda: SquaredNorm(2.0), _sized("dimension") + "2.0$"),
        negative=Raises(lambda: SquaredNorm(-2), _sized("dimension") + "-2$"),
        nan=Raises(lambda: SquaredNorm(nan), _sized("dimension") + "nan$"),
        inf=Raises(lambda: SquaredNorm(inf), _sized("dimension") + "inf$"),
        dimension=Raises(
            lambda: SquaredNorm(2).value(np.ones((2, 1))),
            r"^x must be a vector of length 2, not of shape \(2, 1\)$",
        ),
        length=Raises(
            lambda: SquaredNorm(2).grad_conjugate(np.ones(3)),
            r"^x_star must be a vector of length 2, not of shape \(3,\)$",
        ),
        empty=Valid("dimension 0: the objective on R^0", lambda: SquaredNorm(0).value([])),
    ),
    "ElasticNet": _weighted(ElasticNet, groups=False),
    "GroupElasticNet": _weighted(GroupElasticNet),
    "GroupedMax": _weighted(GroupedMax),
    "ProductObjective": {
        **_all_valid("holds objectives, each checked when built"),
        "dimension": Raises(
            lambda: _PRODUCT.value(np.ones((3, 1))),
            r"^x must be a vector of length 3, not of shape \(3, 1\)$",
        ),
        "length": Raises(
            lambda: _PRODUCT.grad_conjugate(np.ones(2)),
            r"^x_star must be a vector of length 3, not of shape \(2,\)$",
        ),
        "empty": Raises(lambda: ProductObjective([]), "^need at least one part$"),
    },
    "InvalidSubgradient": _all_valid("an exception class: it takes a message"),
    "PrimalDualPair": _all_valid(
        "a step's pair holds the arrays it is handed; the objective and the sets check them"
    ),
    "pair_from_dual": dict(
        bool=Raises(
            lambda: pair_from_dual(_EN, [True, 0]), "^x_star must hold real numbers, not bools$"
        ),
        float=Valid("no whole number is due", lambda: pair_from_dual(_EN, [0.5, 0.0])),
        negative=Valid("x_star may be negative", lambda: pair_from_dual(_EN, [-3.0, 0.0])),
        nan=Valid(
            "the pair is built as given; run and the linesearch name non-finite data",
            lambda: pair_from_dual(_EN, [nan, 0.0]),
        ),
        inf=Valid(
            "the pair is built as given; run and the linesearch name non-finite data",
            lambda: pair_from_dual(_EN, [inf, 0.0]),
        ),
        dimension=Raises(
            lambda: pair_from_dual(_EN, np.zeros((2, 1))),
            r"^x_star must be a vector of length 2, not of shape \(2, 1\)$",
        ),
        length=Raises(
            lambda: pair_from_dual(_EN, np.zeros(3)),
            r"^x_star must be a vector of length 2, not of shape \(3,\)$",
        ),
        empty=Valid("the pair of R^0", lambda: pair_from_dual(ElasticNet(1.0, 0), [])),
    ),
    "fenchel_gap": dict(
        bool=Raises(
            lambda: fenchel_gap(_EN, [True, 0], [1.0, 0.0]),
            "^x_star must hold real numbers, not bools$",
        ),
        float=Valid("no whole number is due", lambda: fenchel_gap(_EN, [0.5, 0.0], [0.0, 0.0])),
        negative=Valid(
            "entries may be negative", lambda: fenchel_gap(_EN, [-2.0, 0.0], [0.0, 0.0])
        ),
        nan=Raises(lambda: fenchel_gap(_EN, [nan, 0.0], [0.0, 0.0]), "^x_star must be finite$"),
        inf=Raises(lambda: fenchel_gap(_EN, [0.0, 0.0], [inf, 0.0]), "^x must be finite$"),
        dimension=Raises(
            lambda: fenchel_gap(_EN, np.zeros((2, 1)), np.zeros(2)),
            r"^x_star must be a vector of length 2, not of shape \(2, 1\)$",
        ),
        length=Raises(
            lambda: fenchel_gap(_EN, np.zeros(2), np.zeros(3)),
            r"^x must be a vector of length 2, not of shape \(3,\)$",
        ),
        empty=Valid("the gap on R^0 is 0", lambda: fenchel_gap(ElasticNet(1.0, 0), [], [])),
    ),
    "bregman_distance": dict(
        bool=Raises(
            lambda: bregman_distance(_EN, [0, 0], [0, 0], [True, 0]),
            "^y must hold real numbers, not bools$",
        ),
        float=Valid(
            "no whole number is due", lambda: bregman_distance(_EN, [0, 0], [0, 0], [0.5, 0])
        ),
        negative=Valid(
            "entries may be negative", lambda: bregman_distance(_EN, [0, 0], [0, 0], [-1, 0])
        ),
        nan=Raises(
            lambda: bregman_distance(_EN, [nan, 0.0], [0.0, 0.0], [0.0, 0.0]), "^x must be finite$"
        ),
        inf=Raises(
            lambda: bregman_distance(_EN, [0.0, 0.0], [0.0, 0.0], [inf, 0.0]), "^y must be finite$"
        ),
        dimension=Raises(
            lambda: bregman_distance(_EN, np.zeros((2, 1)), np.zeros(2), np.zeros(2)),
            r"^x must be a vector of length 2, not of shape \(2, 1\)$",
        ),
        length=Raises(
            lambda: bregman_distance(_EN, np.zeros(2), np.zeros(3), np.zeros(2)),
            r"^x_star must be a vector of length 2, not of shape \(3,\)$",
        ),
        empty=Valid(
            "the distance on R^0 is 0", lambda: bregman_distance(ElasticNet(1.0, 0), [], [], [])
        ),
    ),
    "soft_shrink": {
        **_all_valid(
            "the kernel of every l1 step: its weights come checked from an objective, "
            "and it maps every entry, NaN and inf included, on its own"
        ),
        "nan": Valid("NaN in, NaN out", lambda: soft_shrink([nan], 1.0)),
        "inf": Valid("inf shrinks to inf", lambda: soft_shrink([inf], 1.0)),
    },
    # sets and projections
    "Point": dict(
        bool=Raises(lambda: Point([True]), "^b must hold real numbers, not bools$"),
        float=Valid("no whole number is due", lambda: Point([0.5])),
        negative=Valid("entries may be negative", lambda: Point([-1.0])),
        nan=Raises(
            lambda: _solve(Difficult(_eye(), Point([nan, 0.0]))),
            "^constraint residual norm is nan$",
            NonFiniteData,
        ),
        inf=Raises(
            lambda: _solve(Difficult(_eye(), Point([inf, 0.0]))),
            "^constraint residual norm is inf$",
            NonFiniteData,
        ),
        dimension=Raises(
            lambda: Point(np.ones((2, 2))), r"^b must be a vector, not of shape \(2, 2\)$"
        ),
        length=Raises(
            lambda: _solve(Difficult(_eye(), Point(np.ones(3)))), _MISFIT, DimensionMismatch
        ),
        empty=_EMPTY_TARGET,
    ),
    "NormBall": dict(
        bool=Raises(lambda: NormBall([0.0], True), "^radius must be a real number, not True$"),
        float=Raises(lambda: NormBall([0.0], 1.0, 2.5), "^p 2.5 is not one of 1, 2, inf$"),
        negative=Raises(lambda: NormBall([0.0], -1.0), "^radius must be nonnegative$"),
        nan=Raises(lambda: NormBall([0.0], nan), "^radius must be nonnegative$"),
        inf=Valid(
            "an infinite radius is no bound: the ball is all of space",
            lambda: NormBall([0.0], inf).project([5.0]),
        ),
        dimension=Raises(
            lambda: NormBall(np.ones((2, 2)), 1.0),
            r"^center must be a vector, not of shape \(2, 2\)$",
        ),
        length=Raises(
            lambda: _solve(Difficult(_eye(), NormBall(np.zeros(3), 1.0))), _MISFIT,
            DimensionMismatch,
        ),
        empty=Raises(
            lambda: _solve(Difficult(_eye(), NormBall([], 1.0))), _MISFIT, DimensionMismatch
        ),
    ),
    "Box": dict(
        bool=Raises(lambda: Box([False], [True]), "^lower must hold real numbers, not bools$"),
        float=Valid("no whole number is due", lambda: Box([0.5], [1.5])),
        negative=Valid("a bound may be negative", lambda: Box([-1.0], [1.0])),
        nan=Raises(lambda: Box([nan], [1.0]), "^lower bound exceeds upper bound$"),
        inf=Valid(
            "an infinite bound is no bound", lambda: Box([-inf], [inf]).project([5.0])
        ),
        dimension=Raises(
            lambda: Box(np.zeros((2, 2)), np.ones(2)),
            r"^lower must be a vector, not of shape \(2, 2\)$",
        ),
        length=Raises(
            lambda: Box(np.zeros(2), np.ones(3)),
            r"^lower and upper must have equal sizes or size 1, not \(2, 3\)$",
        ),
        empty=Raises(lambda: _solve(Simple(Box([], []))), _MISFIT, DimensionMismatch),
    ),
    "NonnegCone": dict(
        bool=Raises(lambda: NonnegCone([True, 0]), "^cone indices must hold integers, not True$"),
        float=Raises(lambda: NonnegCone([1.0]), r"^cone indices must hold integers, not 1\.0$"),
        negative=Raises(lambda: NonnegCone([-1]), "^cone indices must be nonnegative$"),
        nan=Raises(lambda: NonnegCone([nan]), "^cone indices must hold integers, not nan$"),
        inf=Raises(lambda: NonnegCone([inf]), "^cone indices must hold integers, not inf$"),
        dimension=Raises(
            lambda: NonnegCone([[0, 1]]), r"^cone indices must be a vector, not of shape \(1, 2\)$"
        ),
        length=Raises(lambda: _solve(Simple(NonnegCone([5]))), _MISFIT, DimensionMismatch),
        empty=Valid(
            "no index: the cone is all of space", lambda: NonnegCone([]).project([-1.0])
        ),
    ),
    "Hyperplane": _linear_set(Hyperplane),
    "Halfspace": _linear_set(Halfspace),
    "FeasiblePoint": _all_valid("an exception class: it takes a message"),
    "project_simplex": dict(
        bool=Raises(
            lambda: project_simplex([1.0], True), "^total must be a real number, not True$"
        ),
        float=Valid("the total is a real number", lambda: project_simplex([0.2, 0.3], 0.5)),
        negative=Raises(
            lambda: project_simplex([1.0], -1.0), "^total must be nonnegative and finite$"
        ),
        nan=Raises(lambda: project_simplex([1.0], nan), "^total must be nonnegative and finite$"),
        inf=Raises(lambda: project_simplex([1.0], inf), "^total must be nonnegative and finite$"),
        dimension=Raises(
            lambda: project_simplex(np.ones((2, 2))), r"^y must be a vector, not of shape \(2, 2\)$"
        ),
        length=Valid("the simplex has the length of y"),
        empty=Raises(
            lambda: project_simplex([], 1.0),
            "^an empty vector has no point on the simplex of total 1.0$",
        ),
    ),
    "project_l1_ball": dict(
        bool=Raises(
            lambda: project_l1_ball([1.0], True), "^radius must be a real number, not True$"
        ),
        float=Valid("the radius is a real number", lambda: project_l1_ball([3.0, -1.0], 1.5)),
        negative=Raises(lambda: project_l1_ball([1.0], -1.0), "^radius must be nonnegative$"),
        nan=Raises(
            lambda: project_l1_ball([nan], 1.0),
            "^l1-ball projection input has sum of",
            NonFiniteData,
        ),
        inf=Valid(
            "an infinite radius is no bound: y is inside", lambda: project_l1_ball([3.0], inf)
        ),
        dimension=Raises(
            lambda: project_l1_ball(np.ones((2, 2)), 1.0),
            r"^y must be a vector, not of shape \(2, 2\)$",
        ),
        length=Valid("the ball has the length of y"),
        empty=Valid("the ball of R^0", lambda: project_l1_ball([], 1.0)),
    ),
    "separating_halfspace": {
        **_all_valid("w and ||w|| come from Difficult.residual of a run's own iterate"),
        "nan": Raises(
            lambda: separating_halfspace(_eye(), np.zeros(2), [nan, 0.0], nan),
            "^constraint residual norm is nan$",
            NonFiniteData,
        ),
        "inf": Raises(
            lambda: separating_halfspace(_eye(), np.zeros(2), [inf, 0.0], inf),
            "^constraint residual norm is inf$",
            NonFiniteData,
        ),
        "empty": Raises(
            lambda: separating_halfspace(ZeroOperator(0, 2), np.zeros(2), [], 0.0),
            "^point satisfies the constraint exactly$",
            FeasiblePoint,
        ),
    },
    "exact_linesearch": dict(
        bool=Valid("nonneg is a flag", lambda: exact_linesearch(_EN, [0, 0], [1, 1], 3.0, True)),
        float=Valid("no whole number is due: beta is real", lambda: _linesearch([0.0, 0.0], 2.5)),
        negative=Valid("beta may be negative", lambda: _linesearch([0.0, 0.0], -3.0)),
        nan=Raises(lambda: _linesearch([0.0, 0.0], nan), "^linesearch beta is nan$", NonFiniteData),
        inf=Raises(
            lambda: _linesearch([inf, 0.0], 1.0), "^linesearch x_star is not finite$", NonFiniteData
        ),
        dimension=Raises(
            lambda: _linesearch(np.zeros((2, 1)), 1.0),
            r"^linesearch x_star has shape \(2, 1\), not \(2,\)$",
            DimensionMismatch,
        ),
        length=Raises(
            lambda: exact_linesearch(_EN, np.zeros(2), np.ones(3), 1.0),
            r"^linesearch direction has shape \(3,\), not \(2,\)$",
            DimensionMismatch,
        ),
        empty=Raises(
            lambda: _linesearch([], 1.0, n=0), "^linesearch direction is zero$", ZeroDirection
        ),
    ),
    "bregman_project": {
        **_all_valid("takes an objective, a pair and a set, each checked where it is built"),
        "nan": Raises(lambda: _projected([nan, 0.0]), "^linesearch x_star is not finite$",
                      NonFiniteData),
        "inf": Raises(lambda: _projected([inf, 0.0]), "^linesearch x_star is not finite$",
                      NonFiniteData),
        "dimension": Raises(
            lambda: _projected(np.zeros(3), n=3),
            "^Hyperplane does not fit length 3$",
            DimensionMismatch,
        ),
        "length": Raises(
            lambda: bregman_project(_EN, pair_from_dual(_EN, np.zeros(2)), NonnegCone([5])),
            "^NonnegCone does not fit length 2$",
            DimensionMismatch,
        ),
        "empty": Valid(
            "the projection onto the box of R^0",
            lambda: bregman_project(
                ElasticNet(1.0, 0), pair_from_dual(ElasticNet(1.0, 0), []), Box([], [])
            ),
        ),
    },
    # operators
    "DenseMatrix": _matrix(DenseMatrix, "a"),
    "SparseOperator": _matrix(SparseOperator, "mat"),
    "ScaledIdentity": dict(
        bool=Raises(lambda: ScaledIdentity(2, True), "^scale must be a real number, not True$"),
        float=Raises(lambda: ScaledIdentity(2.5), _sized("n") + "2.5$"),
        negative=Raises(lambda: ScaledIdentity(-1), _sized("n") + "-1$"),
        nan=Raises(lambda: ScaledIdentity(2, nan), "^scale must be finite, not nan$"),
        inf=Raises(lambda: ScaledIdentity(2, inf), "^scale must be finite, not inf$"),
        dimension=Raises(
            lambda: ScaledIdentity(2).apply(np.ones((2, 1))),
            r"^x must be a vector of length 2, not of shape \(2, 1\)$",
        ),
        length=Raises(
            lambda: ScaledIdentity(3, 2.0).apply(np.ones(5)),
            r"^x must be a vector of length 3, not of shape \(5,\)$",
        ),
        empty=Valid("the identity on R^0", lambda: ScaledIdentity(0).apply([])),
    ),
    "ZeroOperator": dict(
        bool=Raises(lambda: ZeroOperator(True, 2), _sized("m") + "True$"),
        float=Raises(lambda: ZeroOperator(3, 1.0), _sized("n") + "1.0$"),
        negative=Raises(lambda: ZeroOperator(-1, 3), _sized("m") + "-1$"),
        nan=Raises(lambda: ZeroOperator(nan, 3), _sized("m") + "nan$"),
        inf=Raises(lambda: ZeroOperator(2, inf), _sized("n") + "inf$"),
        dimension=Raises(
            lambda: ZeroOperator(2, 3).apply(np.ones((3, 1))),
            r"^x must be a vector of length 3, not of shape \(3, 1\)$",
        ),
        length=Raises(
            lambda: ZeroOperator(2, 3).apply_adjoint(np.ones(9)),
            r"^y must be a vector of length 2, not of shape \(9,\)$",
        ),
        empty=Valid("the zero map of R^0", lambda: ZeroOperator(0, 0).apply([])),
    ),
    "BlockRow": {
        **_all_valid("holds operators, each checked when built"),
        "dimension": Raises(
            lambda: BlockRow([_eye()]).apply(np.ones((2, 1))),
            r"^x must be a vector of length 2, not of shape \(2, 1\)$",
        ),
        "length": Raises(
            lambda: BlockRow([_eye(2), _eye(3)]), "^summed blocks must share their output length$"
        ),
        "empty": Raises(lambda: BlockRow([]), "^need at least one block$"),
    },
    "Grad2D": dict(
        bool=Raises(lambda: Grad2D(True, 3), _sized("height") + "True$"),
        float=Raises(lambda: Grad2D(2, 3.0), r"^width must be positive and whole, not 3\.0$"),
        negative=Raises(lambda: Grad2D(-2, 3), _sized("height") + "-2$"),
        nan=Raises(lambda: Grad2D(nan, 3), _sized("height") + "nan$"),
        inf=Raises(lambda: Grad2D(2, inf), "^width must be positive and whole, not inf$"),
        dimension=Raises(
            lambda: Grad2D(2, 2).apply_adjoint(np.ones((8, 1))),
            r"^y must be a vector of length 8, not of shape \(8, 1\)$",
        ),
        length=Raises(
            lambda: Grad2D(2, 2).apply(np.ones(5)),
            r"^x must be a vector of length 4, not of shape \(5,\)$",
        ),
        empty=Valid("an image without rows has no pixel", lambda: Grad2D(0, 3).apply([])),
    ),
    "PartialDCT": dict(
        bool=Raises(lambda: PartialDCT(True, [0]), "^n must be positive and whole, not True$"),
        float=Raises(lambda: PartialDCT(4, [0.9]), r"^row index must hold integers, not 0\.9$"),
        negative=Raises(lambda: PartialDCT(4, [-1]), "^row index -1 out of range$"),
        nan=Raises(lambda: PartialDCT(4, [nan]), "^row index must hold integers, not nan$"),
        inf=Raises(lambda: PartialDCT(inf, [0]), "^n must be positive and whole, not inf$"),
        dimension=Raises(
            lambda: PartialDCT(4, [[0, 1]]), r"^row index must be a vector, not of shape \(1, 2\)$"
        ),
        length=Raises(lambda: PartialDCT(4, [4]), "^row index 4 out of range$"),
        empty=Raises(lambda: PartialDCT(4, []), "^need at least one row$"),
    ),
    "operator_norm": dict(
        bool=Raises(
            lambda: operator_norm(_eye(), max_iter=True),
            "^max_iter must be positive and whole, not True$",
        ),
        float=Raises(
            lambda: operator_norm(_eye(), max_iter=2.5),
            r"^max_iter must be positive and whole, not 2\.5$",
        ),
        negative=Raises(lambda: operator_norm(_eye(), tol=-1.0), "^tol must be nonnegative$"),
        nan=Raises(lambda: operator_norm(_eye(), tol=nan), "^tol must be nonnegative$"),
        inf=Valid(
            "an infinite tol is no bound: one power step", lambda: operator_norm(_eye(), inf)
        ),
        dimension=Valid("takes an operator and two numbers"),
        length=Valid("takes an operator and two numbers"),
        empty=Valid(
            "an operator without rows has norm 0", lambda: operator_norm(ZeroOperator(0, 2))
        ),
    ),
    "build_parallel_projector": dict(
        bool=Raises(
            lambda: build_parallel_projector(True, 4, [0.0], 5),
            "^height and width must be positive and whole, not True$",
        ),
        float=Raises(
            lambda: build_parallel_projector(4.7, 4, [0.0], 5),
            r"^height and width must be positive and whole, not 4\.7$",
        ),
        negative=Raises(
            lambda: build_parallel_projector(4, -3, [0.0], 5),
            "^height and width must be positive and whole, not -3$",
        ),
        nan=Raises(
            lambda: build_parallel_projector(4, 4, [nan], 5), "^angles_deg must be finite$"
        ),
        inf=Raises(
            lambda: build_parallel_projector(4, 4, [0.0], offsets=[inf]), "^offsets must be finite$"
        ),
        dimension=Raises(
            lambda: build_parallel_projector(4, 4, [[0.0, 90.0]], 5),
            r"^angles_deg must be a vector, not of shape \(1, 2\)$",
        ),
        length=Valid("any number of angles and of offsets"),
        empty=Raises(
            lambda: build_parallel_projector(4, 4, [], 5), "^no ray intersects the image$"
        ),
    ),
    # the solver
    "Constant": _all_valid("takes no argument"),
    "Dynamic": _all_valid("takes no argument"),
    "Exact": _all_valid("takes no argument"),
    "Inexact": _all_valid("takes no argument"),
    "Cyclic": _all_valid("takes no argument"),
    "RandomUniform": dict(
        bool=Raises(lambda: RandomUniform(True), _sized("seed") + "True$"),
        float=Raises(lambda: RandomUniform(1.0), _sized("seed") + r"1\.0$"),
        negative=Raises(lambda: RandomUniform(-1), _sized("seed") + "-1$"),
        nan=Raises(lambda: RandomUniform(nan), _sized("seed") + "nan$"),
        inf=Raises(lambda: RandomUniform(inf), _sized("seed") + "inf$"),
        dimension=Raises(lambda: RandomUniform([1, 2]), _sized("seed") + r"\[1, 2\]$"),
        length=Valid("one seed serves any number of constraints"),
        empty=Raises(lambda: RandomUniform([]), _sized("seed") + r"\[\]$"),
    ),
    "Custom": dict(
        bool=Raises(lambda: Custom([True, 0]), "^order must hold integers, not True$"),
        float=Raises(lambda: Custom([1.0]), r"^order must hold integers, not 1\.0$"),
        negative=Raises(lambda: _kaczmarz([0, -1]), "^control index -1 out of range$"),
        nan=Raises(lambda: Custom([nan]), "^order must hold integers, not nan$"),
        inf=Raises(lambda: Custom([inf]), "^order must hold integers, not inf$"),
        dimension=Raises(
            lambda: Custom([[0, 1]]), r"^order must be a vector, not of shape \(1, 2\)$"
        ),
        length=Raises(lambda: _kaczmarz([0, 2]), "^control index 2 out of range$"),
        empty=Raises(lambda: Custom([]), "^order must be nonempty$"),
    ),
    "Simple": {
        **_all_valid("holds a set, checked when built"),
        "length": Raises(
            lambda: _solve(Simple(Hyperplane(np.ones(3), 1.0))), _MISFIT, DimensionMismatch
        ),
        "empty": Raises(lambda: _solve(Simple(Box([], []))), _MISFIT, DimensionMismatch),
    },
    "Difficult": {
        **_all_valid("holds an operator and a set, each checked when built"),
        "bool": Raises(
            lambda: Difficult([[True, False]], Point([1.0])), "^a must hold real numbers, not bools$"
        ),
        "nan": Raises(
            lambda: _solve(Difficult(DenseMatrix([[nan, 0.0], [0.0, 1.0]]), Point([1.0, 1.0]))),
            "^constraint residual norm is nan$",
            NonFiniteData,
        ),
        "inf": Raises(
            lambda: _solve(Difficult(_eye(), Point([inf, 0.0]))),
            "^constraint residual norm is inf$",
            NonFiniteData,
        ),
        "dimension": Raises(
            lambda: _solve(Difficult(_eye(), Point(np.ones(3)))), _MISFIT, DimensionMismatch
        ),
        "length": Raises(
            lambda: _solve(Difficult(_eye(3), Point(np.ones(3)))),
            "^constraint 0 acts on 3 coordinates, not 2$",
            DimensionMismatch,
        ),
        "empty": _EMPTY_TARGET,
    },
    "SolverConfig": _SOLVER_CONFIG,
    "run": _SOLVER_CONFIG,  # run checks every field of the config it is handed
    "SolverResult": _all_valid("the result run returns, built from checked values"),
    "preset": dict(
        bool=Raises(
            lambda: preset("linearized_bregman", np.eye(2), np.ones(2), lam=True),
            "^lam must be a real number, not True$",
        ),
        float=Valid(
            "no whole number is due: sizes come from a", lambda: preset("landweber", [[0.5]], [1])
        ),
        negative=Raises(
            lambda: preset("linearized_bregman", np.eye(2), np.ones(2), lam=-1.0),
            "^lam must be nonnegative and finite$",
        ),
        nan=Raises(
            lambda: preset("linearized_bregman", np.eye(2), np.ones(2), lam=nan),
            "^lam must be nonnegative and finite$",
        ),
        inf=Raises(
            lambda: preset("linearized_bregman", np.eye(2), np.ones(2), lam=inf),
            "^lam must be nonnegative and finite$",
        ),
        dimension=Raises(
            lambda: preset("kaczmarz", np.eye(2), np.ones((2, 1))),
            r"^b must be a vector of length 2, not of shape \(2, 1\)$",
        ),
        length=Raises(
            lambda: preset("kaczmarz", np.eye(2), np.ones(3)),
            r"^b must be a vector of length 2, not of shape \(3,\)$",
        ),
        empty=Raises(
            lambda: preset("kaczmarz", np.zeros((2, 2)), np.zeros(2)),
            r"^every row of A is zero \(2 rows\)$",
            AllZeroRows,
        ),
        unknown=Raises(lambda: preset("bogus", np.eye(2), np.ones(2)), _UNKNOWN_PRESET),
    ),
    "history_to_csv": {
        **_all_valid("writes the records of a run and the floats it is handed"),
        "nan": Valid("a NaN objective value is written as nan", lambda: _history(
            lambda result: [nan] * result.iterations
        )),
        "length": Raises(
            lambda: _history(lambda result: []),
            "^objective_values: 0 values for 2 records$",
        ),
    },
    # the comparator
    "PDConfig": _PD_CONFIG,
    "run_pd": _PD_CONFIG,  # run_pd checks every field of the config it is handed
    # runner configs
    "ExperimentConfig": dict(
        bool=Raises(
            lambda: ExperimentConfig(tolerance=True), "^tolerance must be a real number, not True$"
        ),
        float=Raises(
            lambda: ExperimentConfig(max_iterations=100.0),
            r"^max_iterations must be positive and whole, not 100\.0$",
        ),
        negative=Raises(lambda: ExperimentConfig(lam=-1.0), "^lam must be nonnegative and finite$"),
        nan=Raises(
            lambda: ExperimentConfig(tolerance=nan), "^tolerance must be positive, not nan$"
        ),
        inf=Raises(lambda: ExperimentConfig(lam=inf), "^lam must be nonnegative and finite$"),
        dimension=Raises(
            lambda: ExperimentConfig(rules=[["exact"]]), r"^step rule \['exact'\] is not one of"
        ),
        length=Raises(
            lambda: ExperimentConfig(noise=ImpulsiveNoise(101)),
            "^noise count 101 exceeds the 100 data entries$",
        ),
        empty=Raises(
            lambda: run_stepsize_benchmark(ExperimentConfig(rules=())),
            "^bench-stepsizes needs at least one step rule",
            MissingRules,
        ),
        unknown=Raises(lambda: ExperimentConfig(preset="bogus"), _UNKNOWN_PRESET),
    ),
    "InstanceSpec": dict(
        bool=Raises(
            lambda: InstanceSpec(m=True, n=4), "^instance m must be positive and whole, not True$"
        ),
        float=Raises(
            lambda: InstanceSpec(4, 4.0), r"^instance n must be positive and whole, not 4\.0$"
        ),
        negative=Raises(
            lambda: InstanceSpec(4, 4, seed=-1), _sized("instance seed") + "-1$"
        ),
        nan=Raises(
            lambda: InstanceSpec(4, nan), "^instance n must be positive and whole, not nan$"
        ),
        inf=Raises(
            lambda: InstanceSpec(4, 4, sparsity=inf),
            "^instance sparsity must be nonnegative and whole, not inf$",
        ),
        dimension=Raises(
            lambda: InstanceSpec([4], 4), r"^instance m must be positive and whole, not \[4\]$"
        ),
        length=Raises(
            lambda: InstanceSpec(4, 4, sparsity=5), "^instance sparsity 5 exceeds n = 4$"
        ),
        empty=Raises(lambda: InstanceSpec(0, 4), "^instance m must be positive and whole, not 0$"),
    ),
    "TomoSpec": dict(
        bool=Raises(
            lambda: TomoSpec(rays_per_angle=True),
            "^tomo rays_per_angle must be positive and whole, not True$",
        ),
        float=Raises(
            lambda: TomoSpec(width=2.5), r"^tomo width must be positive and whole, not 2\.5$"
        ),
        negative=Raises(lambda: TomoSpec(lam=-1.0), "^tomo lam must be nonnegative and finite$"),
        nan=Raises(
            lambda: TomoSpec(noise_level=nan), "^tomo noise_level must be nonnegative and finite$"
        ),
        inf=Raises(lambda: TomoSpec(lam=inf), "^tomo lam must be nonnegative and finite$"),
        dimension=Raises(
            lambda: TomoSpec(variants=(["plain"],)), r"^tomo variant \['plain'\] is not one of"
        ),
        length=Raises(
            lambda: TomoSpec(variants=("plain", "plain")),
            r"^tomo variants must be distinct, not \['plain', 'plain'\]$",
        ),
        empty=Raises(lambda: TomoSpec(variants=()), "^tomo variants must name at least one of"),
    ),
    "ImpulsiveNoise": dict(
        bool=Raises(
            lambda: ImpulsiveNoise(True), "^noise count must be nonnegative and whole, not True$"
        ),
        float=Raises(
            lambda: ImpulsiveNoise(2.0), r"^noise count must be nonnegative and whole, not 2\.0$"
        ),
        negative=Raises(
            lambda: ImpulsiveNoise(-1), "^noise count must be nonnegative and whole, not -1$"
        ),
        nan=Raises(
            lambda: ImpulsiveNoise(nan), "^noise count must be nonnegative and whole, not nan$"
        ),
        inf=Raises(
            lambda: ImpulsiveNoise(inf), "^noise count must be nonnegative and whole, not inf$"
        ),
        dimension=Raises(
            lambda: ImpulsiveNoise([1]), r"^noise count must be nonnegative and whole, not \[1\]$"
        ),
        length=Raises(
            lambda: ExperimentConfig(noise=ImpulsiveNoise(101)),
            "^noise count 101 exceeds the 100 data entries$",
        ),
        empty=Valid("a count of 0 replaces nothing", lambda: ImpulsiveNoise(0)),
    ),
    "UniformNoise": _real_noise(UniformNoise, "amplitude"),
    "GaussianNoise": _real_noise(GaussianNoise, "level"),
}

CELLS = [(row, column, cell) for row, cells in ROWS.items() for column, cell in cells.items()]


def test_every_public_name_and_runner_config_has_a_fulldict():
    missing = set(splitbreg.__all__) | RUNNER_CONFIGS
    assert set(ROWS) == missing, sorted(set(ROWS) ^ missing)
    for name, cells in ROWS.items():
        assert tuple(cells) in (COLUMNS, COLUMNS + NAME_COLUMNS), name


@pytest.mark.parametrize("row, column, cell", CELLS, ids=[f"{r}-{c}" for r, c, _ in CELLS])
def test_malformed_input_cell(row, column, cell):
    if isinstance(cell, Raises):
        with pytest.raises(cell.error, match=cell.match):
            cell.call()
    else:
        assert cell.reason
        if cell.call is not None:
            cell.call()


@pytest.mark.parametrize(
    "call, error",
    [
        pytest.param(lambda: _eye().apply(np.ones(3)), DimensionMismatch, id="product"),
        pytest.param(
            lambda: _EN.grad_conjugate(np.ones((2, 1))), DimensionMismatch, id="objective"
        ),
        pytest.param(
            lambda: preset("kaczmarz", np.eye(2), np.ones((2, 1))), DimensionMismatch, id="preset-b"
        ),
        pytest.param(lambda: _pd(b=np.ones((2, 1))), DimensionMismatch, id="run_pd-b"),
        pytest.param(lambda: _solve_fields(x0_star=np.ones(3)), DimensionMismatch, id="x0_star"),
        pytest.param(lambda: Custom([[0, 1]]), DimensionMismatch, id="index-array"),
        pytest.param(
            lambda: fenchel_gap(_EN, [0.0, 0.0], [nan, 0.0]), NonFiniteData, id="fenchel_gap"
        ),
        pytest.param(lambda: _pd(b=[1.0, inf]), NonFiniteData, id="run_pd-b-finite"),
        pytest.param(lambda: _solve_fields(x0_star=[nan, 0.0]), NonFiniteData, id="x0_star-finite"),
        pytest.param(
            lambda: build_parallel_projector(4, 4, [0.0], offsets=[-inf]), NonFiniteData, id="offsets"
        ),
    ],
)
def test_every_wrong_shape_and_non_finite_vector_has_one_class(call, error):
    # one judge, _checks._vector (or _integers for an index array), with one
    # message per mistake; both classes are ValueErrors
    match = " must be a vector" if error is DimensionMismatch else " must be finite$"
    with pytest.raises(ValueError, match=match) as info:
        call()
    assert info.type is error


@pytest.mark.parametrize(
    "obj, pair, target, message",
    [
        pytest.param(
            ElasticNet(0.5, 2), PrimalDualPair([1.0], [1.0]), Box([-1.0], [1.0]),
            r"^pair\.x must be a vector of length 2, not of shape \(1,\)$", id="box",
        ),
        pytest.param(
            SquaredNorm(2), PrimalDualPair([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]), Point([0.0, 0.0]),
            r"^pair\.x must be a vector of length 2, not of shape \(3,\)$", id="orthogonal",
        ),
        pytest.param(
            ElasticNet(0.5, 2), PrimalDualPair(np.ones(3), np.ones(3)), NonnegCone(),
            r"^pair\.x must be a vector of length 2, not of shape \(3,\)$", id="cone",
        ),
        pytest.param(
            ElasticNet(0.5, 2), PrimalDualPair(np.ones(2), np.ones((2, 1))), NonnegCone(),
            r"^pair\.x_star must be a vector of length 2, not of shape \(2, 1\)$", id="x_star",
        ),
    ],
)
def test_bregman_project_names_a_pair_of_the_wrong_shape(obj, pair, target, message):
    # every route judges the pair before it projects, not only the
    # hyperplane's linesearch: numpy would broadcast a length-1 pair
    with pytest.raises(DimensionMismatch, match=message):
        bregman_project(obj, pair, target)


@pytest.mark.parametrize("cls, key", [(DenseMatrix, "a"), (SparseOperator, "mat")])
@pytest.mark.parametrize("shape", [(), (2, 2, 2)])
def test_a_matrix_that_is_not_2d_names_its_shape(cls, key, shape):
    # the table's dimension cell takes a vector; _checks._matrix judges these too
    with pytest.raises(DimensionMismatch) as info:
        cls(np.ones(shape))
    assert str(info.value) == f"{key} must be a 2-d array, not of shape {shape}"


@pytest.mark.parametrize("cls", [DenseMatrix, SparseOperator])
def test_a_matrix_product_names_an_input_of_the_wrong_shape(cls):
    with pytest.raises(DimensionMismatch) as info:
        cls(np.eye(2)).apply(np.ones((2, 1)))
    assert str(info.value) == "x must be a vector of length 2, not of shape (2, 1)"
