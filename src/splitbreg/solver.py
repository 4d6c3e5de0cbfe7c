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
import functools
import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import projections
from ._checks import _check_indices, _check_whole, _integers, _vector
from .linops import LinearOperator, as_operator
from .objectives import ElasticNet, SquaredNorm, pair_from_dual


class MissingLambda(ValueError):
    """A sparsity-regularized preset was requested without a weight."""


class InconsistentZeroRow(ValueError):
    """A row-action preset met a zero row of A with a nonzero right-hand side."""


class AllZeroRows(ValueError):
    """A row-action preset met an A whose every row is zero: no constraint is
    left to act on."""


DimensionMismatch = projections.DimensionMismatch


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
    """Geometric forward tracking: the largest t = 2^p * t_dynamic (p <= 60)
    that keeps g'(t) <= 0."""


# Inexact's forward tracking doubles the dynamic step at most 60 times
_DOUBLING = 2.0
_MAX_DOUBLINGS = 60


# the one table of step rules by name; run accepts these classes and subclasses
STEP_RULES = {"constant": Constant, "dynamic": Dynamic, "exact": Exact, "inexact": Inexact}


class Cyclic:
    """r(k) = k mod number of constraints."""

    def indices(self, n):
        return itertools.cycle(range(n))


_BLOCK = 1024


class RandomUniform:
    """Independent uniform draws, reproducible from the seed alone: block b of
    the stream is _BLOCK draws from a generator seeded with (seed, b), so step
    k reads entry k % _BLOCK of block k // _BLOCK."""

    def __init__(self, seed):
        self.seed = _check_whole("seed", seed, low=0)

    def indices(self, n):
        for b in itertools.count():
            yield from np.random.default_rng((self.seed, b)).integers(n, size=_BLOCK).tolist()


class Custom:
    """A fixed index list, cycled when the run is longer than the list. Its
    entries must be integers; each must lie in range(n) for a run over n
    constraints, which ``indices(n)`` checks before step 0."""

    def __init__(self, order):
        self.order = _integers("order", list(order)).tolist()
        if not self.order:
            raise ValueError("order must be nonempty")

    def indices(self, n):
        _check_indices("control index", self.order, n)
        return itertools.cycle(self.order)


@dataclass
class Simple:
    """A constraint set the objective can Bregman-project onto directly."""

    target: projections.RangeSet

    def violation(self, x):
        return self.target.distance(x)


@dataclass
class Difficult:
    """A constraint {x : A x in target}, handled via separating halfspaces.

    The last product y = A x is kept with its range-space residual
    w = y - P_target(y) and ||w||, keyed by the identity of x: the violation
    at a pass boundary and the next step at the same iterate share one
    product and one projection onto the target.
    """

    op: LinearOperator
    target: projections.RangeSet
    _last: tuple = field(default=(None,), init=False, repr=False, compare=False)

    def _at(self, x):
        """(x, A x, w, ||w||), recomputed only when x is another array object."""
        if x is not self._last[0]:
            y = self.op.apply(x).view()
            y.flags.writeable = False
            w = y - self.target.project(y)
            w.flags.writeable = False
            self._last = (x, y, w, float(np.linalg.norm(w)))
        return self._last

    def product(self, x):
        """A x, reused while x is the same array object as at the last call
        (a copy with equal values gets a new product). The result is read-only,
        and x must not be modified in place while it is the key."""
        return self._at(x)[1]

    def residual(self, x):
        """(w, ||w||) with w = A x - P_target(A x), kept like ``product``."""
        return self._at(x)[2:]

    def violation(self, x):
        """||A x - P_target(A x)||: ``target.distance(A x)`` bit for bit, but
        for a Hyperplane or Halfspace target, whose distance has its own
        formula."""
        return self._at(x)[3]


@dataclass
class SolverConfig:
    objective: object
    constraints: list
    control: object = field(default_factory=Cyclic)
    step_rule: object = field(default_factory=Exact)
    max_iterations: int = 1000
    residual_tolerance: object = 1e-8  # scalar or per-constraint array
    x0_star: np.ndarray = None


@dataclass(slots=True)  # no per-record __dict__: a run keeps one record per step
class IterationRecord:
    k: int
    constraint_index: int
    step_size: float  # t of a difficult step; NaN on every simple step, linesearch or not
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


def _simple_step(obj, target, pair):
    """One Bregman projection onto a simple set. Returns (pair, NaN, NaN)."""
    return projections.bregman_project(obj, pair, target), math.nan, math.nan


def _difficult_step(obj, constraint, rule, supp, parts, pair):
    """One separating-halfspace step. Returns (pair, step_size, w_norm); a point
    whose residual is exactly zero gets a zero step.

    The new dual point is x* - t A^T w, written through projections._moved on
    ``supp``, the columns the operator's nonzero blocks act on, with x
    recomputed on the objective ``parts`` that support meets. Off ``supp``
    A^T w is +0.0, so x* keeps every bit there, -0.0 included: what
    x*_j - t * (+0.0) gives for any finite t >= 0."""
    op = constraint.op
    w, w_norm = constraint.residual(pair.x)
    try:
        d, beta = projections.separating_halfspace(op, pair.x, w, w_norm)
    except projections.FeasiblePoint:
        return pair, 0.0, 0.0
    d_sq = float(np.dot(d, d))
    if d_sq == 0.0:
        raise projections.ZeroDirection("separating halfspace has a zero normal")
    t_dynamic = obj.alpha * w_norm * w_norm / d_sq
    if isinstance(rule, Constant):
        t = obj.alpha / op.norm_estimate() ** 2
    elif isinstance(rule, Dynamic):
        t = t_dynamic
    elif isinstance(rule, Exact):
        # g'(0) = -||w||^2 exactly; passing it avoids the beta cancellation
        t = projections.exact_linesearch(
            obj, pair.x_star, d, beta, nonneg=True, gp0=-(w_norm * w_norm), x=pair.x
        )
    else:  # Inexact, the one rule left once run has checked it
        t = _forward_track(obj, pair.x_star, d, beta, t_dynamic)
    return projections._moved(obj, parts, pair, supp, pair.x_star[supp] - t * d[supp]), t, w_norm


def _reach(obj, op):
    """(supp, parts) of a difficult step through ``op``: the index ``supp``
    (as projections._nonzeros gives it) of the columns its nonzero blocks
    act on, all but its ``zero_columns`` (BlockRow's, read through the
    attribute, so wrappers that forward it count as what they wrap), where
    A^T w is +0.0 for every w, and the objective ``parts`` that supp meets
    (projections._footprint)."""
    cols = np.ones(obj.dimension, dtype=bool)
    for a, b in getattr(op, "zero_columns", ()):
        cols[a:b] = False
    supp = projections._nonzeros(cols)
    return supp, projections._footprint(obj, supp)


def _forward_track(obj, x_star, d, beta, t0):
    """Largest 2^p * t0 with p <= 60 keeping the linesearch derivative <= 0.

    t0 is the dynamic step, which always satisfies the descent condition, so
    the returned step is at least t0 and below twice the exact minimizer.
    """
    t = t0
    for _ in range(_MAX_DOUBLINGS):
        t_next = _DOUBLING * t
        gp = beta - float(np.dot(d, obj.grad_conjugate(x_star - t_next * d)))
        if gp > 0.0:
            break
        t = t_next
    return t


def run(config, callback=None):
    """Run the solver until every constraint violation is inside its tolerance
    (checked once per full pass over the constraint list) or the iteration cap.

    ``callback(pair, record)`` is invoked after every step when given. The
    solver computes only what stepping and stopping need: a caller who wants
    f(x) per step computes ``config.objective.value(pair.x)`` in the callback.
    A difficult constraint computes A x and its residual once per iterate:
    the pass-boundary violation and the next step at the same pair share them,
    and a callback can read the product through ``Difficult.product(pair.x)``.
    Callbacks must therefore not modify the arrays of ``pair`` in place.

    Before step 0, run checks its input and sets up each constraint's step
    once: a simple constraint builds its Bregman projector, a difficult one
    takes the columns its operator's nonzero blocks act on and the objective
    parts they meet (``projections._footprint``), and the control hands over
    this run's index stream, ``control.indices(n)``, from which each step
    takes the next index (a stream that ends early raises StopIteration, and
    an index outside 0..n-1 a ValueError before its step runs). Every step
    writes its pair through ``projections._moved``: x* changes on the step's
    support only and x = grad f*(x*) is recomputed on the parts it meets, so
    every pair a run hands over is consistent by construction. A wrong width
    or length, an unknown step rule, a ``max_iterations`` that is not a whole
    number >= 0 and a ``Custom`` order naming a missing constraint all raise
    then. run is the only stepping
    path.
    """
    obj = config.objective
    constraints = config.constraints
    if not constraints:
        raise ValueError("need at least one constraint")
    steps = []  # constraint i's step, pair -> (pair, step_size, w_norm)
    rule = config.step_rule
    for i, c in enumerate(constraints):  # every set-up error before step 0
        simple = isinstance(c, Simple)
        if not simple and c.op.shape[1] != obj.dimension:
            msg = f"constraint {i} acts on {c.op.shape[1]} coordinates, not {obj.dimension}"
            raise DimensionMismatch(msg)
        length = obj.dimension if simple else c.op.shape[0]
        if not projections.data_fits(c.target, length):
            msg = f"constraint {i}: {type(c.target).__name__} does not fit length {length}"
            raise DimensionMismatch(msg)
        if simple:
            # raises TypeError or BoxWithoutZero; the set keeps what it builds
            projections.bregman_projector(obj, c.target)
            steps.append(functools.partial(_simple_step, obj, c.target))
        elif not isinstance(rule, tuple(STEP_RULES.values())):
            raise TypeError(f"unknown step rule {rule!r}")
        else:
            steps.append(functools.partial(_difficult_step, obj, c, rule, *_reach(obj, c.op)))
    n = len(constraints)
    tols = np.asarray(config.residual_tolerance, dtype=float)
    if tols.shape not in ((), (1,), (n,)):
        raise DimensionMismatch(f"residual_tolerance has shape {tols.shape}, not ({n},)")
    tols = np.broadcast_to(tols, (n,))
    if not np.all(tols > 0.0):
        raise ValueError("residual tolerances must be positive")
    _check_whole("max_iterations", config.max_iterations, low=0)
    indices = config.control.indices(n)  # this run's own stream of indices

    x0_star = (
        np.zeros(obj.dimension) if config.x0_star is None else np.asarray(config.x0_star, float)
    )
    if x0_star.shape != (obj.dimension,):
        raise DimensionMismatch(f"x0_star has shape {x0_star.shape}, not ({obj.dimension},)")
    if not np.all(np.isfinite(x0_star)):
        raise projections.NonFiniteData("x0_star is not finite")
    pair = pair_from_dual(obj, x0_star)
    records = []
    termination = "max_iterations"
    start = time.perf_counter()
    for k in range(config.max_iterations):
        i = next(indices)
        if not 0 <= i < n:
            raise ValueError(f"control index {i} out of range")
        pair, t, w_norm = steps[i](pair)
        record = IterationRecord(k, i, t, w_norm, (time.perf_counter() - start) * 1e3)
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
    m, n = op.shape
    b = _vector("b", b, m)

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
    it in run's callback); a ValueError names another count before the file
    is opened. max_violation carries the most recent full-pass violation
    maximum forward between pass boundaries (NaN before the first boundary).
    """
    if len(values := list(objective_values)) != result.iterations:
        raise ValueError(f"objective_values: {len(values)} values for {result.iterations} records")

    def rows():
        latest = float("nan")
        for rec, value in zip(result.records, values):
            if rec.violations is not None:
                latest = float(np.max(rec.violations))
            floats = (rec.step_size, rec.w_norm, latest, value, rec.elapsed_ms)
            yield [rec.k, rec.constraint_index] + [format_float(v) for v in floats]

    write_csv(path, CSV_COLUMNS, rows())
