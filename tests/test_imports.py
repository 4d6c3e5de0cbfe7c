"""What `import splitbreg` and a run load: numpy only, until a run needs
scipy.sparse (a sparse operator or the ray projector) or scipy.optimize (the
root-finding linesearch). Each check runs in a fresh interpreter. And which
way the package's own modules import each other: objectives, beneath
projections, imports nothing of the package but _checks."""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# prints which of the two deferred modules the process holds
_LOADED = "print(sorted({'scipy.optimize', 'scipy.sparse'} & set(sys.modules)))"


def _fresh(code):
    """The stdout lines of ``code`` run in a new interpreter on src/."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", "import sys\n" + textwrap.dedent(code)],
        env=env, capture_output=True, text=True, check=True,
    )
    return out.stdout.splitlines()


def test_import_and_dense_solves_load_neither_scipy_module():
    code = f"""
        import numpy as np
        import splitbreg
        from splitbreg import DenseMatrix, ElasticNet, NormBall
        from splitbreg.solver import Difficult, Exact, SolverConfig, preset, run
        {_LOADED}
        rng = np.random.default_rng(0)
        a = rng.standard_normal((20, 60))
        x_true = np.zeros(60)
        x_true[[3, 17, 40]] = [1.0, -2.0, 0.5]
        b = a @ x_true
        res = run(preset("sparse_kaczmarz", a, b, lam=1.0, max_iterations=400))
        assert res.iterations > 0 and np.all(np.isfinite(res.x))
        ball = Difficult(DenseMatrix(a), NormBall(b, 0.1, 1))
        res = run(SolverConfig(ElasticNet(1.0, 60), [ball], step_rule=Exact(), max_iterations=200))
        assert res.iterations > 0 and np.all(np.isfinite(res.x))
        {_LOADED}
    """
    assert _fresh(code) == ["[]", "[]"]


def test_parallel_projector_loads_scipy_sparse_and_works():
    code = f"""
        import numpy as np
        from splitbreg.linops import build_parallel_projector
        p = build_parallel_projector(8, 8, [0.0, 45.0, 90.0], rays_per_angle=9)
        x = np.arange(64.0)
        y = np.arange(float(p.shape[0]))
        dense = p.to_dense()
        np.testing.assert_allclose(p.apply(x), dense @ x)
        np.testing.assert_allclose(p.apply_adjoint(y), dense.T @ y)
        {_LOADED}
    """
    assert _fresh(code) == ["['scipy.sparse']"]


def test_root_finding_linesearch_loads_scipy_optimize_on_first_use():
    code = f"""
        import numpy as np
        from splitbreg import GroupedMax, Hyperplane, bregman_project, pair_from_dual
        {_LOADED}
        obj = GroupedMax(0.8, [np.array([0, 1]), np.array([2, 3])])
        a = np.array([1.0, -2.0, 0.5, 3.0])
        pair = bregman_project(obj, pair_from_dual(obj, np.zeros(4)), Hyperplane(a, 4.0))
        assert abs(float(a @ pair.x) - 4.0) < 1e-9, a @ pair.x
        {_LOADED}
    """
    before, after = _fresh(code)
    assert before == "[]" and "'scipy.optimize'" in after  # which loads scipy.sparse itself


def test_objectives_imports_nothing_of_the_package_but_checks():
    # projections builds on objectives, so an import the other way, deferred
    # into a function or not, would be a cycle
    tree = ast.parse((SRC / "splitbreg" / "objectives.py").read_text())
    imports = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
    assert all(n in tree.body for n in imports)  # none deferred
    assert [n.module for n in imports if isinstance(n, ast.ImportFrom) and n.level] == ["_checks"]


def test_the_moved_primitives_resolve_under_their_old_names():
    code = """
        import splitbreg
        from splitbreg import _checks, objectives, projections, solver
        for name in ("project_simplex", "project_l1_ball", "_index", "_nonzeros",
                     "_WeightVerdicts"):
            assert getattr(projections, name) is getattr(objectives, name), name
        assert splitbreg.project_simplex is objectives.project_simplex
        assert splitbreg.project_l1_ball is objectives.project_l1_ball
        assert projections.NonFiniteData is _checks.NonFiniteData
        assert projections.DimensionMismatch is _checks.DimensionMismatch
        assert solver.DimensionMismatch is _checks.DimensionMismatch
        print("ok")
    """
    assert _fresh(code) == ["ok"]
