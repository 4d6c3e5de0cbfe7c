"""In-memory span tracing around the library's layer boundaries.

Everything here lives outside the library: delegating wrappers time the calls
the solver makes on operators, objectives and Difficult-constraint targets,
and ``patched`` swaps three module attributes for timed versions while a
traced solve runs. Wrappers forward every call unchanged, so a traced solve
takes the same steps and ends at a bit-identical ``x``.

A span is ``[name, start, end, parent, item]``: times from
``time.perf_counter``, ``parent`` the index of the enclosing span (-1 for a
root) and ``item`` the workload item (one instance) the span belongs to.
"""

import contextlib
import csv
import gzip
from time import perf_counter

import numpy as np

from splitbreg import projections, solver
from splitbreg.linops import DenseMatrix, LinearOperator, SparseOperator
from splitbreg.objectives import Objective
from splitbreg.projections import RangeSet


class Tracer:
    """Collects spans in memory; ``write`` saves them when the run ends."""

    def __init__(self):
        self.spans = []
        self._stack = [-1]
        self.item = -1
        self.support = []  # (kind, support size) of each traced linesearch
        self.bytes = {}  # span index -> computed bytes of an operator product

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        idx = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1], self.item]
        self.spans.append(span)
        self._stack.append(idx)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            span[1] = start
            self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        idx = len(self.spans)
        span = [name, perf_counter(), 0.0, self._stack[-1], self.item]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            yield
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def add(self, name, start, end):
        """Record an already finished leaf span under the current parent."""
        self.spans.append([name, start, end, self._stack[-1], self.item])

    def arrays(self):
        """Spans as parallel arrays plus each span's self time and root index.

        Self time is the span's duration minus the durations of its direct
        children; children never overlap because everything runs on one
        thread. A parent is always recorded before its children.
        """
        names = np.array([s[0] for s in self.spans], dtype=object)
        start = np.array([s[1] for s in self.spans], dtype=float)
        end = np.array([s[2] for s in self.spans], dtype=float)
        parent = np.array([s[3] for s in self.spans], dtype=np.int64)
        dur = end - start
        has_parent = parent >= 0
        child_sum = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        root = np.arange(len(dur))
        root[has_parent] = parent[has_parent]
        while True:  # one pass per nesting level
            up = parent[root] >= 0
            if not up.any():
                break
            root[up] = parent[root[up]]
        return {"name": names, "dur": dur, "self": dur - child_sum, "parent": parent, "root": root}

    def write(self, path):
        """Write every span as gzip-compressed CSV (times in microseconds)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "name", "start_us", "end_us", "parent", "item"])
            for i, (name, start, end, parent, item) in enumerate(self.spans):
                out.writerow([i, name, f"{(start - t0) * 1e6:.3f}", f"{(end - t0) * 1e6:.3f}", parent, item])


# ---------------------------------------------------------------------------
# delegating wrappers
# ---------------------------------------------------------------------------


def matrix_bytes(op):
    """Bytes of stored matrix data one product with ``op`` reads (0 for
    matrix-free operators). A computed figure, not a measured one."""
    if isinstance(op, DenseMatrix):
        return op.a.nbytes
    if isinstance(op, SparseOperator):
        return op.mat.data.nbytes + op.mat.indices.nbytes + op.mat.indptr.nbytes
    return sum(matrix_bytes(inner) for inner in getattr(op, "ops", ()))


class _Forwarding:
    """Forwards attributes the wrapper does not define to the wrapped object."""

    def __getattr__(self, name):
        if name == "inner":  # not set yet
            raise AttributeError(name)
        return getattr(self.inner, name)


class TracedOperator(_Forwarding, LinearOperator):
    """Times ``apply`` and ``apply_adjoint``; forwards everything else."""

    def __init__(self, op, tracer):
        self.inner = op
        self.tracer = tracer
        self.shape = op.shape
        # matrix data plus the input and output vector of one product
        self.bytes_per_product = matrix_bytes(op) + 8 * (op.shape[0] + op.shape[1])

    def _product(self, name, fn, v):
        self.tracer.bytes[len(self.tracer.spans)] = self.bytes_per_product
        return self.tracer.call(name, fn, v)

    def apply(self, x):
        return self._product("linops.apply", self.inner.apply, x)

    def apply_adjoint(self, y):
        return self._product("linops.adjoint", self.inner.apply_adjoint, y)

    def row(self, i):
        return self.tracer.call("linops.row", self.inner.row, i)

    def norm_estimate(self, *args, **kwargs):
        return self.tracer.call("linops.norm_estimate", self.inner.norm_estimate, *args, **kwargs)

    def to_dense(self):
        return self.inner.to_dense()


class TracedObjective(_Forwarding, Objective):
    """Times the objective calls the solver and projectors make."""

    def __init__(self, obj, tracer):
        self.inner = obj
        self.tracer = tracer
        self.alpha = obj.alpha
        self.dimension = obj.dimension

    def value(self, x):
        return self.tracer.call("objectives.value", self.inner.value, x)

    def conjugate(self, x_star):
        return self.tracer.call("objectives.conjugate", self.inner.conjugate, x_star)

    def grad_conjugate(self, x_star):
        return self.tracer.call("objectives.grad_conjugate", self.inner.grad_conjugate, x_star)

    def shrink_weights(self):
        return self.tracer.call("objectives.shrink_weights", self.inner.shrink_weights)


class TracedTarget(_Forwarding, RangeSet):
    """Times the orthogonal projector of a Difficult constraint's target."""

    def __init__(self, target, tracer):
        self.inner = target
        self.tracer = tracer

    def project(self, y):
        return self.tracer.call("projections.target_project", self.inner.project, y)

    def distance(self, y):
        return self.tracer.call("projections.target_distance", self.inner.distance, y)

    def contains(self, y, tol=1e-12):
        return self.inner.contains(y, tol)


def traced_config(cfg, tracer):
    """A copy of a SolverConfig whose objective, operators and Difficult
    targets go through the wrappers. Simple targets stay as they are: the
    Bregman projector dispatch looks at their type."""
    constraints = [
        solver.Difficult(TracedOperator(c.op, tracer), TracedTarget(c.target, tracer))
        if isinstance(c, solver.Difficult)
        else c
        for c in cfg.constraints
    ]
    return solver.SolverConfig(
        objective=TracedObjective(cfg.objective, tracer),
        constraints=constraints,
        control=cfg.control,
        step_rule=cfg.step_rule,
        max_iterations=cfg.max_iterations,
        residual_tolerance=cfg.residual_tolerance,
        x0_star=cfg.x0_star,
    )


def _linesearch_kind(obj, a):
    """Kind and support size of a linesearch direction: "quad" when every
    shrink weight on the support of ``a`` is zero, "l1" otherwise."""
    weights = getattr(obj, "inner", obj).shrink_weights()
    supp = np.asarray(a) != 0.0
    quad = weights is not None and not np.any(weights[supp] != 0.0)
    return ("quad" if quad else "l1"), int(np.count_nonzero(supp))


@contextlib.contextmanager
def patched(tracer):
    """Time ``projections.exact_linesearch``, ``projections.bregman_project``
    and ``solver.Difficult.violation`` until the block exits.

    Callers inside the library look these names up at call time, so the timed
    versions see every call.
    """
    linesearch = projections.exact_linesearch
    project = projections.bregman_project
    violation = solver.Difficult.violation

    def timed_linesearch(obj, x_star, a, *args, **kwargs):
        start = perf_counter()
        kind, size = _linesearch_kind(obj, a)
        tracer.add("bench.linesearch_kind", start, perf_counter())
        tracer.support.append((kind, size))
        return tracer.call(
            f"projections.exact_linesearch.{kind}", linesearch, obj, x_star, a, *args, **kwargs
        )

    def timed_project(obj, pair, target):
        return tracer.call("projections.bregman_project", project, obj, pair, target)

    def timed_violation(self, x):
        return tracer.call("solver.violation", violation, self, x)

    projections.exact_linesearch = timed_linesearch
    projections.bregman_project = timed_project
    solver.Difficult.violation = timed_violation
    try:
        yield
    finally:
        projections.exact_linesearch = linesearch
        projections.bregman_project = project
        solver.Difficult.violation = violation
