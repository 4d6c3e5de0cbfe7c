"""Tests of the benchmark harness itself (not of the library).

    python3 -m pytest perfbench

Workloads run here at small sizes so the file finishes in seconds.
"""

import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import tracing  # noqa: E402
from splitbreg import DenseMatrix, ElasticNet, NormBall, ProductObjective, SquaredNorm  # noqa: E402
from splitbreg.linops import LinearOperator  # noqa: E402
from splitbreg.objectives import Objective  # noqa: E402
from splitbreg.projections import RangeSet  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SMALL = {
    "sparse-kaczmarz": dict(m=40, n=120, sparsity=3),
    "noise-ball": dict(m=60, n=200, sparsity=4, pd_iterations=3000),
    "tomo-tv": dict(size=12, angles=8, rays_per_angle=18),
}
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def small(name, items=2):
    wl = replace(WORKLOADS[name], per_second=1.0)
    return wl, SMALL[name], float(items)


@pytest.fixture(scope="module")
def traced_runs():
    return {
        name: bench.run(wl, 3, seconds, trace=True, params=params)
        for name, (wl, params, seconds) in ((n, small(n, items=2)) for n in SMALL)
    }


def test_metric_names_match_benchmark_json(traced_runs):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec["paths"]) == {HERE.name}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    wl, params, seconds = small("sparse-kaczmarz", items=1)
    plain = bench.run(wl, 0, seconds, trace=False, params=params)
    for out, key in ((plain, "end_to_end"), (traced_runs["tomo-tv"], "per_layer")):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        got = {k: v["unit"] for k, v in out["metrics"].items()}
        assert got == declared
        for name in got:
            assert NAME.fullmatch(name), name
        for m in out["metrics"].values():
            assert isinstance(m["value"], (int, float)) and np.isfinite(m["value"])


def _public(cls):
    return sorted(
        n for n in dir(cls) if not n.startswith("_") and callable(getattr(cls, n))
    )


def test_wrappers_forward_every_method():
    rng = np.random.default_rng(0)
    tracer = tracing.Tracer()
    a = rng.standard_normal((5, 7))
    op = DenseMatrix(a)
    traced_op = tracing.TracedOperator(DenseMatrix(a), tracer)
    x, y = rng.standard_normal(7), rng.standard_normal(5)
    assert _public(LinearOperator) == ["apply", "apply_adjoint", "norm_estimate", "row", "to_dense"]
    assert np.array_equal(traced_op.apply(x), op.apply(x))
    assert np.array_equal(traced_op.apply_adjoint(y), op.apply_adjoint(y))
    assert np.array_equal(traced_op.row(2), op.row(2))
    assert traced_op.norm_estimate() == op.norm_estimate()
    assert np.array_equal(traced_op.to_dense(), op.to_dense())
    assert traced_op.shape == op.shape and traced_op.a is traced_op.inner.a

    obj = ProductObjective([ElasticNet(0.3, 4), SquaredNorm(3)])
    traced_obj = tracing.TracedObjective(obj, tracer)
    assert _public(Objective) == ["conjugate", "grad_conjugate", "shrink_weights", "value"]
    assert traced_obj.value(x) == obj.value(x)
    assert traced_obj.conjugate(x) == obj.conjugate(x)
    assert np.array_equal(traced_obj.grad_conjugate(x), obj.grad_conjugate(x))
    assert np.array_equal(traced_obj.shrink_weights(), obj.shrink_weights(), equal_nan=True)
    assert (traced_obj.alpha, traced_obj.dimension, traced_obj.parts) == (
        obj.alpha, obj.dimension, obj.parts
    )

    ball = NormBall(np.ones(5), 0.5, 1)
    traced_ball = tracing.TracedTarget(ball, tracer)
    assert _public(RangeSet) == ["contains", "distance", "project"]
    assert np.array_equal(traced_ball.project(y), ball.project(y))
    assert traced_ball.distance(y) == ball.distance(y)
    assert traced_ball.contains(y) == ball.contains(y)
    assert traced_ball.radius == ball.radius

    names = {s[0] for s in tracer.spans}
    assert {
        "linops.apply", "linops.adjoint", "linops.row", "linops.norm_estimate",
        "objectives.value", "objectives.conjugate", "objectives.grad_conjugate",
        "objectives.shrink_weights", "projections.target_project", "projections.target_distance",
    } <= names


def test_traced_run_reproduces_untraced_iterates(traced_runs):
    for name, out in traced_runs.items():
        assert out["attempted"] == 1, name
        for item in out["details"]["items"]:
            assert item["transparent"], name
            assert not any("raised" in f for f in item["failures"]), (name, item["failures"])


def test_failing_gate_is_counted():
    wl, params, seconds = small("sparse-kaczmarz", items=3)
    plain = bench.run(wl, 0, seconds, trace=False, params=params)
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] == 3

    def failing_build(rng, tracer, p):
        item = WORKLOADS["sparse-kaczmarz"].build(rng, tracer, p)
        gate = item.gate

        def always_fails(results, reference):
            err, failures = gate(results, reference)
            return err, failures + ["deliberate failure"]

        return replace(item, gate=always_fails)

    out = bench.run(replace(wl, build=failing_build), 0, seconds, trace=False, params=params)
    assert not out["correct"]
    assert out["failed"] == out["attempted"] == 3
    assert out["details"]["failed_frac"] == 1.0

    def raising_build(rng, tracer, p):
        raise RuntimeError("deliberate")

    out = bench.run(replace(wl, build=raising_build), 0, seconds, trace=False, params=params)
    assert not out["correct"]
    assert out["details"]["failed_frac"] == 1.0


def test_self_times_add_up_to_solve_time(traced_runs):
    for name, out in traced_runs.items():
        m = {k: v["value"] for k, v in out["metrics"].items()}
        shares = [m[f"{layer}.share"] for layer in ("linops", "objectives", "projections", "bench")]
        assert sum(shares) + m["solver.self_share"] == pytest.approx(1.0, abs=1e-9), name
        spans = out["tracer"].arrays()
        in_solve = spans["name"][spans["root"]] == "solver.run"
        self_total = float(spans["self"][in_solve].sum())
        assert self_total == pytest.approx(out["details"]["traced_solve_s"], rel=0.02), name


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "sparse-kaczmarz",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
