"""The benchmark's workloads: instance generation, set-up and correctness gates.

A workload is a stream of independent items. Item ``i`` of seed ``s`` is
drawn from ``numpy.random.default_rng([s, i])``, so the same seed always gives
the same inputs, and the library only ever sees the generated arrays. Set-up
runs through four phases, each recorded as a ``setup.<phase>`` span:

- ``projector``: the forward operator (a random matrix or the ray projector);
- ``instance``: the planted vector or phantom, its data and the noise;
- ``objective``: the strongly convex objective;
- ``constraints``: the constraint list and solver configuration.

An item's gates never re-seed: a failed gate counts the item as failed.
"""

from dataclasses import dataclass, field

import numpy as np

from splitbreg import comparator, solver
from splitbreg.experiments import projection_mass_estimate, render_phantom
from splitbreg.linops import (
    BlockRow,
    DenseMatrix,
    Grad2D,
    ScaledIdentity,
    ZeroOperator,
    build_parallel_projector,
)
from splitbreg.objectives import ElasticNet, GroupElasticNet, ProductObjective, SquaredNorm
from splitbreg.projections import Hyperplane, NonnegCone, NormBall, Point


@dataclass
class Item:
    """One instance: the solver runs it takes, an optional primal-dual
    reference run, and the gate that judges the outcome."""

    configs: dict  # run name -> SolverConfig, solved in this order
    gate: object  # (results by run name, reference result or None) -> (err_rel, failures)
    reference: comparator.PDConfig = None


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    per_second: float  # items per second of run length
    stresses: str
    bypasses: str
    why: str
    build: object  # (rng, tracer, params) -> Item
    params: dict = field(default_factory=dict)

    def items(self, seconds):
        """Items in one run of ``seconds``: a whole number fixed by the run
        length, so every run of a seed solves the same inputs. The rate is
        set per workload so that each batch is large enough for its total
        step count to vary little between seeds."""
        return max(1, round(seconds * self.per_second))


def _planted(rng, n, sparsity, low):
    """A sparse vector with random signs and magnitudes uniform in [low, 1].

    Magnitudes are kept away from zero: a near-zero entry against
    lam = 10 max|x| takes thousands of extra steps to activate, which turns
    the step count into a heavy-tailed draw (400 to 4400 steps on m=200,
    n=1000 with Gaussian amplitudes) and swamps the time per solve.
    """
    x = np.zeros(n)
    support = rng.choice(n, size=sparsity, replace=False)
    x[support] = rng.choice([-1.0, 1.0], size=sparsity) * rng.uniform(low, 1.0, size=sparsity)
    return x


def _rel(x, truth):
    return float(np.linalg.norm(x - truth) / np.linalg.norm(truth))


# ---------------------------------------------------------------------------
# sparse-kaczmarz
# ---------------------------------------------------------------------------


def build_sparse_kaczmarz(rng, tracer, p):
    m, n = p["m"], p["n"]
    with tracer.span("setup.projector"):
        op = DenseMatrix(rng.standard_normal((m, n)))
    with tracer.span("setup.instance"):
        x_true = _planted(rng, n, p["sparsity"], p["amplitude_low"])
        b = op.apply(x_true)
    with tracer.span("setup.objective"):
        lam = p["lam_factor"] * float(np.abs(x_true).max())
        objective = ElasticNet(lam, n)
    with tracer.span("setup.constraints"):
        cfg = solver.preset(
            "sparse_kaczmarz",
            op,
            b,
            lam=lam,
            step_rule=solver.Exact(),
            max_iterations=p["max_iterations"],
            residual_tolerance=p["tol_factor"] * float(np.linalg.norm(b)),
        )
        # the preset builds the same ElasticNet; the one built above is used
        # so that objective set-up is timed on its own
        cfg.objective = objective

    def gate(results, reference):
        result = results["solve"]
        err = _rel(result.x, x_true)
        failures = []
        if result.termination != "tolerance":
            failures.append(f"terminated at {result.termination}")
        if not err <= p["err_rel_bound"]:
            failures.append(f"err_rel {err:.3e} > {p['err_rel_bound']:.0e}")
        return err, failures

    return Item(configs={"solve": cfg}, gate=gate)


# ---------------------------------------------------------------------------
# noise-ball
# ---------------------------------------------------------------------------


def build_noise_ball(rng, tracer, p):
    m, n = p["m"], p["n"]
    with tracer.span("setup.projector"):
        op = DenseMatrix(rng.standard_normal((m, n)))
    with tracer.span("setup.instance"):
        x_true = _planted(rng, n, p["sparsity"], p["amplitude_low"])
        b = op.apply(x_true)
        noisy = b.copy()
        hit = rng.choice(m, size=m // p["outlier_every"], replace=False)
        noisy[hit] = rng.choice([b.max(), b.min()], size=hit.size)
        delta = float(np.abs(noisy - b).sum())
    with tracer.span("setup.objective"):
        lam = p["lam_factor"] * float(np.abs(x_true).max())
        objective = ElasticNet(lam, n)
    with tracer.span("setup.constraints"):
        cfg = solver.SolverConfig(
            objective=objective,
            constraints=[solver.Difficult(op, NormBall(noisy, delta, 1))],
            step_rule=solver.Dynamic(),
            max_iterations=p["max_iterations"],
            # a 2-norm distance below tol / sqrt(m) keeps the 1-norm gap below tol
            residual_tolerance=p["gap_bound"] / np.sqrt(m),
        )
        reference = comparator.PDConfig(
            lam=lam, op=op, b=noisy, delta=delta, noise_norm=1,
            max_iterations=p["pd_iterations"], record_every=0,
        )

    def gate(results, pd):
        result = results["solve"]
        gap = float(np.abs(op.apply(result.x) - noisy).sum()) - delta
        ours, ref = objective.value(result.x), objective.value(pd.x)
        failures = []
        if result.termination != "tolerance":
            failures.append(f"terminated at {result.termination}")
        if not gap <= p["gap_bound"]:
            failures.append(f"1-norm gap {gap:.3e} > {p['gap_bound']:.0e}")
        if not abs(ours - ref) <= p["objective_rel_bound"] * ref:
            failures.append(f"objective {ours:.6g} vs primal-dual {ref:.6g}")
        return _rel(result.x, x_true), failures

    return Item(configs={"solve": cfg}, gate=gate, reference=reference)


# ---------------------------------------------------------------------------
# tomo-tv
# ---------------------------------------------------------------------------


def build_tomo_tv(rng, tracer, p):
    h = w = p["size"]
    hw = h * w
    with tracer.span("setup.projector"):
        angles = np.arange(p["angles"]) * (180.0 / p["angles"])
        projector = build_parallel_projector(h, w, angles, p["rays_per_angle"])
        m = projector.shape[0]
        data_op = BlockRow([projector, ZeroOperator(m, 2 * hw)])
        grad = Grad2D(h, w)
        coupling_op = BlockRow([grad, ScaledIdentity(2 * hw, -1.0)])
    with tracer.span("setup.instance"):
        u_true = render_phantom(h, w)
        b = projector.apply(u_true)
        e = rng.standard_normal(m)
        e *= p["noise_level"] * np.linalg.norm(b) / np.linalg.norm(e)
        noisy = b + e
        delta = float(np.linalg.norm(e))
        mass = projection_mass_estimate(projector, noisy)
    with tracer.span("setup.objective"):
        objective = ProductObjective(
            [SquaredNorm(hw), GroupElasticNet(p["lam"], grad.pair_groups())]
        )
    with tracer.span("setup.constraints"):
        base = [
            solver.Difficult(data_op, NormBall(noisy, delta, 2)),
            solver.Difficult(coupling_op, Point(np.zeros(2 * hw))),
        ]
        nonneg = solver.Simple(NonnegCone(np.arange(hw)))
        mass_plane = solver.Simple(
            Hyperplane(np.concatenate([np.ones(hw), np.zeros(2 * hw)]), mass)
        )
        tols = [p["data_tol"], p["coupling_tol"]]
        # the Simple constraints are met exactly after their own step, so
        # their violation never blocks termination
        variants = {
            "plain": (base, tols),
            "nonneg": (base + [nonneg], tols + [1e12]),
            "one": (base + [nonneg, mass_plane], tols + [1e12, 1e12]),
        }
        configs = {
            name: solver.SolverConfig(
                objective=objective,
                constraints=cons,
                step_rule=solver.Dynamic(),
                max_iterations=p["max_iterations"],
                residual_tolerance=np.asarray(tol),
            )
            for name, (cons, tol) in variants.items()
        }

    def gate(results, reference):
        failures = []
        errors = {}
        for name, result in results.items():
            u = result.x[:hw]
            data_gap = float(np.linalg.norm(projector.apply(u) - noisy)) - delta
            coupling = float(np.linalg.norm(coupling_op.apply(result.x)))
            errors[name] = float(np.linalg.norm(u - u_true))
            if result.termination != "tolerance":
                failures.append(f"{name}: terminated at {result.termination}")
            if not data_gap <= p["data_tol"]:
                failures.append(f"{name}: data gap {data_gap:.3e}")
            if not coupling <= p["coupling_tol"]:
                failures.append(f"{name}: coupling {coupling:.3e}")
        if not errors["one"] <= errors["plain"] + p["one_vs_plain_slack"]:
            failures.append(f"error one {errors['one']:.4f} > plain {errors['plain']:.4f}")
        return max(errors.values()) / float(np.linalg.norm(u_true)), failures

    return Item(configs=configs, gate=gate)


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="sparse-kaczmarz",
            default_seed=0,
            per_second=2.0,  # 0.6 s per item
            stresses="projections (l1 kink walk of the exact linesearch)",
            bypasses="linops (row access at set-up only)",
            why="The l1 kink walk in the exact linesearch is most of each step, so a "
            "linesearch change shows here and nowhere else.",
            build=build_sparse_kaczmarz,
            params=dict(
                m=200, n=1000, sparsity=5, amplitude_low=0.5, lam_factor=10.0,
                tol_factor=1e-6, max_iterations=20000, err_rel_bound=1e-3,
            ),
        ),
        Workload(
            name="noise-ball",
            default_seed=0,
            per_second=1 / 5,  # 3.6 s per item, most of it the reference run
            stresses="linops (two dense forward products and one adjoint per step) and comparator",
            bypasses="the exact linesearch and Bregman projectors",
            why="Dense matrix products are most of each step and the primal-dual "
            "reference runs only here, so operator and comparator changes show here.",
            build=build_noise_ball,
            params=dict(
                m=400, n=1600, sparsity=10, amplitude_low=0.5, outlier_every=20,
                lam_factor=10.0, max_iterations=20000, gap_bound=1e-6,
                objective_rel_bound=0.01, pd_iterations=5000,
            ),
        ),
        Workload(
            name="tomo-tv",
            default_seed=0,
            per_second=3 / 30,  # 12-19 s per item; steps vary 12k-19k between items
            stresses="set-up, sparse linops, group shrinkage in objectives, closed-form projections",
            bypasses="the l1 kink walk (its only linesearch is quadratic) and comparator",
            why="The same layers as the other two, used differently: sparse products, "
            "grouped objectives, cheap projections and a heavy set-up.",
            build=build_tomo_tv,
            params=dict(
                size=64, angles=60, rays_per_angle=92, noise_level=0.05, lam=0.7,
                data_tol=1e-3, coupling_tol=1e-2, max_iterations=30000,
                one_vs_plain_slack=1e-3,
            ),
        ),
    )
}
