"""Runs one workload, closed loop, and turns timings and spans into metrics.

One item at a time: set it up, solve each of its runs to tolerance, run its
primal-dual reference if it has one, then judge it with its gate. The
untraced run (``trace=False``) gives the end-to-end metrics. The traced run
solves each item twice, once plain and once through the wrappers of
``tracing``, alternating which goes first. It checks that both take the same
steps and end at a bit-identical ``x``, and derives the per-layer metrics
from the spans of the traced solves.
"""

import contextlib
import functools
import gc
import hashlib
import math
import resource
import traceback
from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np

from splitbreg import comparator, solver

import tracing

MIN_SETUPS = 5  # set-up samples per run, so setup_s is a median even for few items
PHASES = ("instance", "projector", "objective", "constraints")
LAYER_SHARES = ("linops", "objectives", "projections", "solver", "bench")


@dataclass
class Solved:
    """The solver runs of one item, solved once."""

    results: dict  # run name -> SolverResult
    seconds: float  # wall time of the solver.run calls
    intervals: np.ndarray  # seconds per step, from the callback timestamps
    solves: np.ndarray  # per step: which solver run of the item it belongs to
    kinds: np.ndarray  # per step: the kind of constraint it treated
    useful: int  # steps that moved the dual point (counted when traced)


def constraint_kind(constraint):
    """Constraints of one kind cost the same per step: Simple or Difficult,
    and the target set's type."""
    return f"{type(constraint).__name__}:{type(constraint.target).__name__}"


def _solve_item(item, kinds, tracer=None):
    """Solve every run of an item to tolerance, in order, through the tracing
    wrappers when ``tracer`` is given. ``kinds`` numbers constraint kinds
    consistently over a whole benchmark run."""
    results, seconds, intervals, solves, step_kinds, useful = {}, 0.0, [], [], [], [0]
    stamps, treated = [], []

    def callback(pair, record):
        stamps.append(perf_counter())
        treated.append(record.constraint_index)

    def track(pair, record):
        t = record.step_size
        if t == t:  # Difficult step: its step size says whether it moved
            moved = t != 0.0
        else:  # Simple step: compare dual points
            moved = not np.array_equal(pair.x_star, prev[0])
        useful[0] += moved
        prev[0] = pair.x_star

    def traced_callback(pair, record):
        callback(pair, record)
        tracer.call("bench.callback", track, pair, record)

    with tracing.patched(tracer) if tracer is not None else contextlib.nullcontext():
        for index, (name, cfg) in enumerate(item.configs.items()):
            kind_of = np.array(
                [kinds.setdefault(constraint_kind(c), len(kinds)) for c in cfg.constraints]
            )
            stamps.clear()
            treated.clear()
            if tracer is None:
                run, on_step = solver.run, callback
            else:
                prev = [np.zeros(cfg.objective.dimension) if cfg.x0_star is None else cfg.x0_star]
                cfg = tracing.traced_config(cfg, tracer)
                run = functools.partial(tracer.call, "solver.run", solver.run)
                on_step = traced_callback
            start = perf_counter()
            results[name] = run(cfg, callback=on_step)
            seconds += perf_counter() - start
            intervals.append(np.diff([start] + stamps))
            solves.append(np.full(len(stamps), index))
            step_kinds.append(kind_of[np.asarray(treated, dtype=int)])
    return Solved(
        results, seconds, np.concatenate(intervals), np.concatenate(solves),
        np.concatenate(step_kinds), useful[0],
    )


def typical_step(intervals, solves, kinds):
    """Typical step time in seconds: the median step time of each solve and
    constraint kind, averaged over the solves of a kind, then over the kinds.

    Kinds differ in cost (a data step of tomo-tv costs several nonnegativity
    steps) and their mix varies between instances, so a pooled median would
    jump between the kinds' modes. Taking medians per solve keeps a slow
    spell of the host from deciding the whole figure.
    """
    if intervals.size == 0:
        return 0.0
    group = solves * (int(kinds.max()) + 1) + kinds
    order = np.argsort(group, kind="stable")
    steps, group, kinds = intervals[order], group[order], kinds[order]
    starts = np.flatnonzero(np.r_[True, np.diff(group) != 0])
    medians = np.array([np.median(g) for g in np.split(steps, starts[1:])])
    group_kind = kinds[starts]
    return float(np.mean([medians[group_kind == k].mean() for k in np.unique(group_kind)]))


def _reference(item, tracer=None):
    if item.reference is None:
        return None, 0.0
    cfg = item.reference
    start = perf_counter()
    if tracer is None:
        pd = comparator.run_pd(cfg)
    else:
        cfg = replace(cfg, op=tracing.TracedOperator(cfg.op, tracer))
        pd = tracer.call("comparator.run_pd", comparator.run_pd, cfg)
    return pd, perf_counter() - start


def _digest(results):
    h = hashlib.sha256()
    for result in results.values():
        h.update(np.ascontiguousarray(result.x, dtype=np.float64).tobytes())
    return h.hexdigest()


@dataclass
class Totals:
    """What one run accumulates over its items."""

    traced_s: float = 0.0
    useful: int = 0
    pd_iterations: int = 0
    solves: int = 0
    item_seconds: list = field(default_factory=list)  # per solved item
    item_steps: list = field(default_factory=list)
    intervals: list = field(default_factory=list)
    solve_ids: list = field(default_factory=list)
    kind_ids: list = field(default_factory=list)
    kinds: dict = field(default_factory=dict)  # constraint kind -> id


def _item(workload, seed, i, params, tracer, trace, totals):
    """Set up, solve, reference and gate item ``i``. Returns its record.

    Everything the item allocates is released on return, so the next
    item's set-up does not pay for collecting it.
    """
    record = {"item": i}
    with tracer.span("setup"):
        item = workload.build(np.random.default_rng([seed, i]), tracer, params)
    if trace:
        order = (tracer, None) if i % 2 else (None, tracer)  # alternate which goes first
        outcome = {t is not None: _solve_item(item, totals.kinds, t) for t in order}
        plain, traced = outcome[False], outcome[True]
        totals.traced_s += traced.seconds
        totals.useful += traced.useful
        record["transparent"] = all(
            traced.results[k].iterations == r.iterations and np.array_equal(traced.results[k].x, r.x)
            for k, r in plain.results.items()
        )
    else:
        plain = _solve_item(item, totals.kinds)
    results = plain.results
    totals.item_seconds.append(plain.seconds)
    totals.item_steps.append(sum(r.iterations for r in results.values()))
    totals.intervals.append(plain.intervals)
    totals.solve_ids.append(totals.solves + plain.solves)
    totals.kind_ids.append(plain.kinds)
    totals.solves += len(results)
    pd, record["reference_s"] = _reference(item, tracer if trace else None)
    if item.reference is not None:
        totals.pd_iterations += item.reference.max_iterations
    err, failures = item.gate(results, pd)
    if trace and not record["transparent"]:
        failures.append("traced run differs from the untraced run")
    record.update(
        steps={k: r.iterations for k, r in results.items()},
        solve_s=plain.seconds,
        err_rel=err,
        failures=failures,
        x_digest=_digest(results),
    )
    return record


def run(workload, seed, seconds, trace, params=None):
    """Run ``workload`` for one seed. Returns a dict with ``correct``,
    ``attempted``, ``failed``, ``metrics``, ``details`` and the ``tracer``.

    ``params`` overrides workload parameters (the harness tests use small
    sizes). Any exception inside an item counts that item as failed.
    """
    params = {**workload.params, **(params or {})}
    n_items = workload.items(seconds)
    if trace:
        n_items = math.ceil(n_items / 2)  # each item is solved twice
    tracer = tracing.Tracer()
    totals = Totals()
    items = []
    digest = hashlib.sha256()
    for i in range(max(n_items, MIN_SETUPS)):
        tracer.item = i
        gc.collect()  # keep collections of earlier items out of the timings
        try:
            if i < n_items:
                items.append(_item(workload, seed, i, params, tracer, trace, totals))
                digest.update(items[-1]["x_digest"].encode())
            else:  # set-up sample only
                with tracer.span("setup"):
                    workload.build(np.random.default_rng([seed, i]), tracer, params)
        except Exception as exc:  # one broken item must not hide the others
            traceback.print_exc()
            items.append({"item": i, "failures": [f"raised {type(exc).__name__}: {exc}"]})
    failed = sum(1 for r in items if r["failures"])
    spans = tracer.arrays()
    setup_root = spans["name"] == "setup"
    intervals = np.concatenate(totals.intervals) if totals.intervals else np.zeros(0)
    details = {
        "items": items,
        "x_digest": digest.hexdigest(),
        "failed_frac": failed / len(items),
        "err_rel.max": max(
            (r["err_rel"] for r in items if np.isfinite(r.get("err_rel", np.nan))), default=0.0
        ),
        "reference_s": float(np.median([r.get("reference_s", 0.0) for r in items])),
        "step_samples": int(intervals.size),
        # set by the host's slow spells more than by the program, so it is
        # printed and is a per-layer figure, not a bounded end-to-end one
        "step_us.p99": float(np.percentile(intervals, 99)) * 1e6 if intervals.size else 0.0,
    }
    steps = sum(totals.item_steps)
    if trace:
        metrics = per_layer_metrics(tracer, spans, totals)
        details["traced_solve_s"] = totals.traced_s
        metrics["comparator.reference_s"] = (details["reference_s"], "s")
        metrics["check.err_rel.max"] = (details["err_rel.max"], "ratio")
        metrics["step_us.p99"] = (details["step_us.p99"], "us")
    else:
        solve_s = sum(totals.item_seconds)
        metrics = {
            "setup_s": (float(np.median(spans["dur"][setup_root])), "s"),
            "solve_s": (solve_s, "s"),
            "steps": (steps, "count"),
            "steps_per_s": (steps / solve_s if solve_s else 0.0, "1/s"),
            "step_us.p50": (typical_step(*(
                np.concatenate(a) if a else np.zeros(0, dtype=int)
                for a in (totals.intervals, totals.solve_ids, totals.kind_ids)
            )) * 1e6, "us"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    return {
        "correct": failed == 0,
        "attempted": len(items),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "details": details,
        "tracer": tracer,
    }


def _pct(values, q):
    return float(np.percentile(values, q)) * 1e6 if len(values) else 0.0


def per_layer_metrics(tracer, spans, totals):
    """Per-layer metrics from the spans of one traced run.

    Shares are self time over the time of the traced solves, so the layer
    shares plus ``solver.self_share`` and ``bench.share`` add up to one.
    """
    names, dur, self_t, root = spans["name"], spans["dur"], spans["self"], spans["root"]
    root_name = names[root] if len(names) else names
    in_solve = root_name == "solver.run"
    solve_time = float(dur[names == "solver.run"].sum())
    steps = max(sum(totals.item_steps), 1)
    m = {}

    def sel(name):
        return in_solve & (names == name)

    for kind in ("l1", "quad"):
        name = f"projections.exact_linesearch.{kind}"
        d = dur[sel(name)]
        sizes = [size for k, size in tracer.support if k == kind]
        m[f"{name}.calls_per_step"] = (d.size / steps, "calls/step")
        m[f"{name}.us_p50"] = (_pct(d, 50), "us")
        m[f"{name}.us_p99"] = (_pct(d, 99), "us")
        m[f"{name}.support_mean"] = (float(np.mean(sizes)) if sizes else 0.0, "count")
    m["projections.bregman_project.us_p50"] = (_pct(self_t[sel("projections.bregman_project")], 50), "us")
    m["projections.target_project.us_p50"] = (_pct(dur[sel("projections.target_project")], 50), "us")
    layer = np.array([n.split(".", 1)[0] for n in names], dtype=object)
    shares = {
        lay: float(self_t[in_solve & (layer == lay)].sum()) / solve_time if solve_time else 0.0
        for lay in LAYER_SHARES
    }
    m["projections.share"] = (shares["projections"], "ratio")
    linops_time, linops_bytes = 0.0, 0
    for kind in ("apply", "adjoint"):
        where = sel(f"linops.{kind}")
        d = dur[where]
        m[f"linops.{kind}.calls_per_step"] = (d.size / steps, "calls/step")
        m[f"linops.{kind}.us_p50"] = (_pct(d, 50), "us")
        linops_time += float(d.sum())
        linops_bytes += sum(tracer.bytes[i] for i in np.nonzero(where)[0])
    m["linops.gbps_computed"] = (linops_bytes / linops_time / 1e9 if linops_time else 0.0, "GB/s")
    m["linops.share"] = (shares["linops"], "ratio")
    for kind in ("grad_conjugate", "value", "shrink_weights"):
        d = dur[sel(f"objectives.{kind}")]
        m[f"objectives.{kind}.calls_per_step"] = (d.size / steps, "calls/step")
        m[f"objectives.{kind}.us_p50"] = (_pct(d, 50), "us")
    m["objectives.share"] = (shares["objectives"], "ratio")
    m["solver.self_share"] = (shares["solver"], "ratio")
    d = dur[sel("solver.violation")]
    m["solver.violation.calls_per_step"] = (d.size / steps, "calls/step")
    m["solver.violation.us_p50"] = (_pct(d, 50), "us")
    m["solver.useful_step_frac"] = (totals.useful / steps, "ratio")
    m["bench.share"] = (shares["bench"], "ratio")
    pd_time = float(dur[names == "comparator.run_pd"].sum())
    in_pd = root_name == "comparator.run_pd"
    m["comparator.iter_us"] = (
        pd_time / totals.pd_iterations * 1e6 if totals.pd_iterations else 0.0, "us"
    )
    m["comparator.linops_share"] = (
        float(self_t[in_pd & (layer == "linops")].sum()) / pd_time if pd_time else 0.0,
        "ratio",
    )
    in_setup = root_name == "setup"
    for phase in PHASES:
        d = dur[in_setup & (names == f"setup.{phase}")]
        m[f"setup.{phase}_s"] = (float(np.median(d)) if d.size else 0.0, "s")
    m["trace.overhead_frac"] = (
        totals.traced_s / sum(totals.item_seconds) - 1.0 if totals.item_seconds else 0.0, "ratio"
    )
    return m
