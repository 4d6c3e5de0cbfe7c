"""Row-action solver for split feasibility problems.

Each iteration picks one constraint via the control sequence. Simple
constraints are handled by an exact Bregman projection of the current
primal-dual pair; difficult constraints (a linear operator mapping into a
target set) are handled by stepping along the separating-halfspace normal
A^T w with a step size chosen by the configured rule. Dual iterates stay in
the row space of the touched operators when started there, which is what makes
the limit solve the regularized problem and not just the feasibility problem.
"""

import csv
import time
from dataclasses import dataclass, field

import numpy as np

from . import projections
from .linops import LinearOperator, as_operator
from .objectives import ElasticNet, SquaredNorm, pair_from_dual


class MissingLambda(ValueError):
    """A sparsity-regularized preset was requested without a weight."""


class InconsistentZeroRow(ValueError):
    """A row-action preset met a zero row of A with a nonzero right-hand side."""


class AllZeroRows(ValueError):
    """A row-action preset met an A whose every row is zero: no constraint is
    left to act on."""


class DimensionMismatch(ValueError):
    """A difficult constraint's operator does not act on the objective's
    coordinates."""


# ---------------------------------------------------------------------------
# configuration pieces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Constant:
    """t = alpha / ||A||^2, fixed over the run."""


@dataclass(frozen=True)
class Dynamic:
    """t = alpha * ||w||^2 / ||A^T w||^2, recomputed every step."""


@dataclass(frozen=True)
class Exact:
    """t = argmin of the dual linesearch objective g."""


@dataclass(frozen=True)
class Inexact:
    """Geometric forward tracking: the largest t = c^p * t_dynamic (p <= p_cap)
    that keeps g'(t) <= 0."""

    c: float = 2.0
    p_cap: int = 60

    def __post_init__(self):
        if not self.c > 1.0:
            raise ValueError("c must exceed 1")
        if not self.p_cap >= 0:
            raise ValueError("p_cap must be nonnegative")


# the one table of step rules by name; run accepts these classes and subclasses
STEP_RULES = {"constant": Constant, "dynamic": Dynamic, "exact": Exact, "inexact": Inexact}


class Cyclic:
    """r(k) = k mod number of constraints."""

    def index(self, k, n):
        return k % n


class RandomUniform:
    """Independent uniform draws, reproducible from the seed alone."""

    def __init__(self, seed):
        self.seed = int(seed)

    def index(self, k, n):
        return int(np.random.default_rng((self.seed, k)).integers(n))


class Custom:
    """A fixed index list, cycled when the run is longer than the list."""

    def __init__(self, order):
        self.order = [int(i) for i in order]
        if not self.order:
            raise ValueError("order must be nonempty")

    def index(self, k, n):
        i = self.order[k % len(self.order)]
        if not 0 <= i < n:
            raise ValueError(f"control index {i} out of range")
        return i


@dataclass
class Simple:
    """A constraint set the objective can Bregman-project onto directly."""

    target: projections.RangeSet

    def violation(self, x):
        return self.target.distance(x)


@dataclass
class Difficult:
    """A constraint {x : A x in target}, handled via separating halfspaces."""

    op: LinearOperator
    target: projections.RangeSet

    def violation(self, x):
        return self.target.distance(self.op.apply(x))


@dataclass
class SolverConfig:
    objective: object
    constraints: list
    control: object = field(default_factory=Cyclic)
    step_rule: object = field(default_factory=Exact)
    max_iterations: int = 1000
    residual_tolerance: object = 1e-8  # scalar or per-constraint array
    x0_star: np.ndarray = None


@dataclass
class IterationRecord:
    k: int
    constraint_index: int
    step_size: float  # NaN on non-linesearch simple steps
    w_norm: float  # pre-step residual norm of the treated constraint; NaN on simple steps
    elapsed_ms: float
    violations: np.ndarray = None  # full per-constraint vector, set at pass boundaries


@dataclass
class SolverResult:
    pair: object
    records: list
    termination: str  # "tolerance" or "max_iterations"

    @property
    def iterations(self):
        return len(self.records)

    @property
    def x(self):
        return self.pair.x


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------


def _difficult_step(obj, pair, constraint, rule):
    """One separating-halfspace step. Returns (pair, step_size, w_norm); a point
    whose residual is exactly zero gets a zero step."""
    op = constraint.op
    try:
        d, beta, w_norm = projections.separating_halfspace(op, constraint.target, pair.x)
    except projections.FeasiblePoint:
        return pair, 0.0, 0.0
    d_sq = float(np.dot(d, d))
    if d_sq == 0.0:
        raise projections.ZeroDirection("separating halfspace has a zero normal")
    if isinstance(rule, Constant):
        t = obj.alpha / op.norm_estimate() ** 2
    elif isinstance(rule, Dynamic):
        t = obj.alpha * w_norm * w_norm / d_sq
    elif isinstance(rule, Exact):
        # g'(0) = -||w||^2 exactly; passing it avoids the beta cancellation
        t = projections.exact_linesearch(
            obj, pair.x_star, d, beta, nonneg=True, gp0=-(w_norm * w_norm)
        )
    elif isinstance(rule, Inexact):
        t = _forward_track(obj, pair.x_star, d, beta, obj.alpha * w_norm * w_norm / d_sq, rule)
    else:
        raise TypeError(f"unknown step rule {rule!r}")
    return pair_from_dual(obj, pair.x_star - t * d), t, w_norm


def _forward_track(obj, x_star, d, beta, t0, rule):
    """Largest c^p * t0 with p <= p_cap keeping the linesearch derivative <= 0.

    t0 is the dynamic step, which always satisfies the descent condition, so
    the returned step is at least t0 and below c times the exact minimizer.
    """
    t = t0
    for _ in range(rule.p_cap):
        t_next = rule.c * t
        gp = beta - float(np.dot(d, obj.grad_conjugate(x_star - t_next * d)))
        if gp > 0.0:
            break
        t = t_next
    return t


def step(config, pair, k):
    """Apply the k-th constraint step to a pair. Returns (pair, record); run
    fills in the record's elapsed_ms."""
    i = config.control.index(k, len(config.constraints))
    constraint = config.constraints[i]
    if isinstance(constraint, Simple):
        new_pair = projections.bregman_project(config.objective, pair, constraint.target)
        t_step, w_norm = float("nan"), float("nan")
    else:
        new_pair, t_step, w_norm = _difficult_step(
            config.objective, pair, constraint, config.step_rule
        )
    record = IterationRecord(
        k=k, constraint_index=i, step_size=t_step, w_norm=w_norm, elapsed_ms=float("nan")
    )
    return new_pair, record


def run(config, callback=None):
    """Run the solver until every constraint violation is inside its tolerance
    (checked once per full pass over the constraint list) or the iteration cap.

    ``callback(pair, record)`` is invoked after every step when given. The
    solver computes only what stepping and stopping need: a caller who wants
    f(x) per step computes ``config.objective.value(pair.x)`` in the callback.
    """
    obj = config.objective
    constraints = config.constraints
    if not constraints:
        raise ValueError("need at least one constraint")
    for i, c in enumerate(constraints):  # every set-up error before step 0
        if isinstance(c, Simple):
            projections.bregman_projector(obj, c.target)  # TypeError, BoxWithoutZero
        elif c.op.shape[1] != obj.dimension:
            msg = f"constraint {i} acts on {c.op.shape[1]} coordinates, not {obj.dimension}"
            raise DimensionMismatch(msg)
        elif not isinstance(config.step_rule, tuple(STEP_RULES.values())):
            raise TypeError(f"unknown step rule {config.step_rule!r}")
    n = len(constraints)
    tols = np.broadcast_to(np.asarray(config.residual_tolerance, dtype=float), (n,))
    if not np.all(tols > 0.0):
        raise ValueError("residual tolerances must be positive")

    x0_star = (
        np.zeros(obj.dimension) if config.x0_star is None else np.asarray(config.x0_star, float)
    )
    if not np.all(np.isfinite(x0_star)):
        raise projections.NonFiniteData("x0_star is not finite")
    pair = pair_from_dual(obj, x0_star)
    records = []
    termination = "max_iterations"
    start = time.perf_counter()
    for k in range(config.max_iterations):
        pair, record = step(config, pair, k)
        record.elapsed_ms = (time.perf_counter() - start) * 1e3
        boundary = (k + 1) % n == 0 or k == config.max_iterations - 1
        if boundary:
            record.violations = np.array([c.violation(pair.x) for c in constraints])
        records.append(record)
        if callback is not None:
            callback(pair, record)
        if boundary and np.all(record.violations <= tols):
            termination = "tolerance"
            break
    return SolverResult(pair=pair, records=records, termination=termination)


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------


# name -> (l1 term in the objective?, one hyperplane per row of A?, default rule);
# without the row split the one constraint is A x = b, stepped by halfspaces
_PRESETS = {
    "landweber": (False, False, Constant()),
    "minimal_error": (False, False, Dynamic()),
    "kaczmarz": (False, True, Exact()),
    "linearized_bregman": (True, False, Exact()),
    "sparse_kaczmarz": (True, True, Exact()),
}


def preset(name, a, b, lam=None, step_rule=None, **kwargs):
    """Classical iterations as solver configurations.

    - "landweber": squared-norm objective, one equality block, constant steps
    - "minimal_error": same, dynamic steps
    - "kaczmarz": squared-norm objective, one hyperplane per row, exact steps
    - "linearized_bregman": l1+l2 objective, one equality block, chosen rule
    - "sparse_kaczmarz": l1+l2 objective, row hyperplanes, exact steps

    The row presets skip zero rows with b_i = 0, raise InconsistentZeroRow on
    a zero row with b_i != 0 and AllZeroRows when every row is zero. Extra
    keyword arguments go straight into SolverConfig.
    """
    op = as_operator(a)
    b = np.atleast_1d(np.asarray(b, dtype=float))
    m, n = op.shape
    if b.shape != (m,):
        raise ValueError("right-hand side does not match the operator")

    def rows():
        constraints = []
        for i in range(m):
            try:
                constraints.append(Simple(projections.Hyperplane(op.row(i), b[i])))
            except projections.ZeroNormal:
                if b[i] != 0.0:
                    msg = f"row {i} of A is zero but b[{i}] = {b[i]:g}"
                    raise InconsistentZeroRow(msg) from None
        if not constraints:
            raise AllZeroRows(f"every row of A is zero ({m} rows)")
        return constraints

    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}")
    sparse, by_rows, rule = _PRESETS[name]
    if sparse and lam is None:
        raise MissingLambda(f"{name} needs lam")
    objective = ElasticNet(lam, n) if sparse else SquaredNorm(n)
    constraints = rows() if by_rows else [Difficult(op, projections.Point(b))]
    if step_rule is not None:
        rule = step_rule
    return SolverConfig(objective=objective, constraints=constraints, step_rule=rule, **kwargs)


# ---------------------------------------------------------------------------
# history serialization
# ---------------------------------------------------------------------------

CSV_COLUMNS = (
    "k",
    "constraint_index",
    "step_size",
    "w_norm",
    "max_violation",
    "objective_value",
    "elapsed_ms",
)


def format_float(v):
    """The one float format of every CSV the package writes: round-trip exact."""
    return f"{v:.17g}"


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def history_to_csv(result, path, objective_values):
    """Write the run history with one row per step; every column after the
    first two is a float.

    ``objective_values`` holds f(x) after each step, in record order (collect
    it in run's callback). max_violation carries the most recent full-pass
    violation maximum forward between pass boundaries (NaN before the first
    boundary).
    """

    def rows():
        latest = float("nan")
        for rec, value in zip(result.records, objective_values, strict=True):
            if rec.violations is not None:
                latest = float(np.max(rec.violations))
            floats = (rec.step_size, rec.w_norm, latest, value, rec.elapsed_ms)
            yield [rec.k, rec.constraint_index] + [format_float(v) for v in floats]

    write_csv(path, CSV_COLUMNS, rows())
