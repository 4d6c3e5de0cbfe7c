"""Bregman-projection methods for split feasibility problems."""

from types import ModuleType as _Module

from .objectives import (
    ElasticNet,
    GroupElasticNet,
    GroupedMax,
    InvalidSubgradient,
    PrimalDualPair,
    ProductObjective,
    SquaredNorm,
    bregman_distance,
    fenchel_gap,
    pair_from_dual,
    project_l1_ball,
    project_simplex,
    soft_shrink,
)
from .projections import (
    Box,
    FeasiblePoint,
    Halfspace,
    Hyperplane,
    NonnegCone,
    NormBall,
    Point,
    bregman_project,
    exact_linesearch,
    separating_halfspace,
)
from .linops import (
    BlockRow,
    DenseMatrix,
    Grad2D,
    PartialDCT,
    ScaledIdentity,
    SparseOperator,
    ZeroOperator,
    build_parallel_projector,
    operator_norm,
)
from .solver import (
    Constant,
    Custom,
    Cyclic,
    Difficult,
    Dynamic,
    Exact,
    Inexact,
    RandomUniform,
    Simple,
    SolverConfig,
    SolverResult,
    history_to_csv,
    preset,
    run,
)
from .comparator import PDConfig, run_pd

# every name bound here is public; __all__ lists them all but the submodules
__all__ = sorted(k for k, v in globals().items() if not (k[0] == "_" or isinstance(v, _Module)))
