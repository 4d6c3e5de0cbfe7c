"""Experiment harness: instances, noise models, certification and runners.

Everything here is deterministic given the configuration and seed; trace and
summary CSVs contain no wall-clock columns (timings go into a separate file),
so identical configurations produce bit-identical outputs. The exception is
``solve``'s history.csv: its elapsed_ms column is wall time, so only its other
columns repeat bit for bit.
"""

import json
import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import comparator, solver
from ._checks import (
    _check_choice, _check_names, _check_whole, _nonnegative, _positive, _vector
)
from .linops import (
    BlockRow,
    DenseMatrix,
    Grad2D,
    PartialDCT,
    ScaledIdentity,
    ZeroOperator,
    build_parallel_projector,
)
from .objectives import ElasticNet, GroupElasticNet, ProductObjective, SquaredNorm
from .projections import Hyperplane, NonnegCone, NormBall, Point
from .solver import format_float, write_csv, write_trace_csv


class CertificationFailed(RuntimeError):
    """No candidate weight reproduced the planted vector via the oracle run."""


class MissingNoise(ValueError):
    """A noisy-recovery run was requested without a noise model."""


class MissingRules(ValueError):
    """A step-size benchmark was requested without a step rule to compare."""


class ZeroData(ValueError):
    """A runner that recovers a planted vector was given an instance with
    sparsity 0, whose planted vector and data b are zero."""


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------


# name -> draw(rng, m, n), the sensing matrix
_MATRIX_KINDS = {
    "gaussian": lambda rng, m, n: DenseMatrix(rng.standard_normal((m, n))),
    "bernoulli": lambda rng, m, n: DenseMatrix(rng.choice([-1.0, 1.0], size=(m, n))),
    "partial_dct": lambda rng, m, n: PartialDCT(n, rng.choice(n, size=m, replace=False)),
}
# name -> draw(rng, s), the planted amplitudes; dynamic_range draws the signs first
_AMPLITUDES = {
    "gaussian": lambda rng, s: rng.standard_normal(s),
    "pm_one": lambda rng, s: rng.choice([-1.0, 1.0], size=s),
    "dynamic_range": lambda rng, s: (
        rng.choice([-1.0, 1.0], size=s) * 10.0 ** rng.uniform(0.0, 5.0, size=s)
    ),
}


@dataclass
class InstanceSpec:
    m: int
    n: int
    kind: str = "gaussian"  # one of _MATRIX_KINDS
    sparsity: int = 0
    amplitude: str = "gaussian"  # one of _AMPLITUDES
    seed: int = 0

    def __post_init__(self):
        _check_choice("instance kind", self.kind, _MATRIX_KINDS)
        _check_choice("instance amplitude", self.amplitude, _AMPLITUDES)
        _check_whole("instance m", self.m)
        _check_whole("instance n", self.n)
        _check_whole("instance sparsity", self.sparsity, low=0)
        _check_whole("instance seed", self.seed, low=0)
        if not self.sparsity <= self.n:
            raise ValueError(f"instance sparsity {self.sparsity} exceeds n = {self.n}")
        if self.kind == "partial_dct" and self.m > self.n:
            msg = f"instance m = {self.m} exceeds n = {self.n}, the rows partial_dct can sample"
            raise ValueError(msg)


@dataclass
class Instance:
    op: object
    x_true: np.ndarray
    b: np.ndarray


def generate_instance(spec):
    """Sampled sensing matrix plus a planted sparse vector and exact data.

    Matrix kinds: iid standard normal, iid +-1, or distinct rows of the
    orthonormal DCT sampled without replacement. Amplitudes: standard normal,
    +-1, or "dynamic_range" (random signs, magnitudes log-uniform in [1, 1e5]).
    """
    rng = np.random.default_rng(spec.seed)
    m, n = int(spec.m), int(spec.n)
    op = _MATRIX_KINDS[spec.kind](rng, m, n)
    x = np.zeros(n)
    s = int(spec.sparsity)
    if s > 0:
        support = rng.choice(n, size=s, replace=False)
        x[support] = _AMPLITUDES[spec.amplitude](rng, s)
    return Instance(op=op, x_true=x, b=op.apply(x))


# ---------------------------------------------------------------------------
# noise models
# ---------------------------------------------------------------------------


@dataclass
class ImpulsiveNoise:
    """Replace ``count`` entries by the data maximum or minimum (equal odds).
    The matching discrepancy is the 1-norm of the perturbation; ``perturb``
    draws both."""

    count: int
    p = 1

    def __post_init__(self):
        _check_whole("noise count", self.count, low=0)

    def check_fits(self, size):
        """Raise a ValueError naming the count when it exceeds ``size``, the
        number of data entries."""
        if self.count > size:
            raise ValueError(f"noise count {self.count} exceeds the {size} data entries")

    def perturb(self, rng, b):
        """(noisy copy of ``b``, delta), drawn from ``rng``; a count above
        b's size raises before anything is drawn."""
        self.check_fits(b.size)
        noisy = b.copy()
        idx = rng.choice(b.size, size=int(self.count), replace=False)
        noisy[idx] = rng.choice([b.max(), b.min()], size=idx.size)
        return noisy, float(np.abs(noisy - b).sum())


@dataclass
class UniformNoise:
    """Add iid uniform noise from [-amplitude, amplitude]; discrepancy is the
    max-norm of the perturbation; ``perturb`` draws both."""

    amplitude: float = 1.0
    p = np.inf

    def __post_init__(self):
        _nonnegative("noise amplitude", self.amplitude)

    def perturb(self, rng, b):
        """(noisy copy of ``b``, delta), drawn from ``rng``."""
        noisy = b + rng.uniform(-self.amplitude, self.amplitude, size=b.size)
        return noisy, float(np.abs(noisy - b).max())


@dataclass
class GaussianNoise:
    """Add Gaussian noise rescaled to ``level * ||b||_2``; discrepancy is the
    2-norm of the perturbation; ``perturb`` draws both."""

    level: float = 0.05
    p = 2

    def __post_init__(self):
        _nonnegative("noise level", self.level)

    def perturb(self, rng, b):
        """(noisy copy of ``b``, delta), drawn from ``rng``; delta is ||e||_2
        of the noise e itself, not ||noisy - b||_2, which can differ in the
        last bit."""
        e = rng.standard_normal(b.size)
        e *= self.level * np.linalg.norm(b) / np.linalg.norm(e)
        return b + e, float(np.linalg.norm(e))


def inject_noise(b, model, seed):
    """Apply a noise model: seed a generator and let the model draw from it
    (``model.perturb``). Returns (noisy data, discrepancy delta), delta the
    model's p-norm of the perturbation. Raises TypeError for an object that
    is not a noise model, and a ValueError naming ``b``, before anything is
    drawn, unless ``b`` is a finite vector with at least one entry (and, for
    ImpulsiveNoise, at least ``count`` entries)."""
    if not isinstance(model, tuple(_NOISE_MODELS.values())):
        raise TypeError(f"unknown noise model {model!r}")
    b = _vector("b", b, finite=True)
    if not b.size:
        raise ValueError("b must hold at least one entry")
    return model.perturb(np.random.default_rng(seed), b)


_NOISE_MODELS = {"impulsive": ImpulsiveNoise, "uniform": UniformNoise, "gaussian": GaussianNoise}


def _noise_model(kind=None, **params):
    """The noise model a config's ``noise`` block names by its ``kind``."""
    _check_choice("noise kind", kind, _NOISE_MODELS)
    return _NOISE_MODELS[kind](**params)


# ---------------------------------------------------------------------------
# weight certification
# ---------------------------------------------------------------------------


def certify_lambda(op, x_true, b, candidates=None, iterations=50000):
    """Smallest candidate weight whose regularized solution is the planted
    vector, decided by a long primal-dual oracle run on the exact data.

    Acceptance is ||x - x_true||_inf <= 1e-5 * (1 + ||x_true||_inf). Raises
    CertificationFailed when no candidate passes, and a ValueError naming
    ``x_true``, before anything runs, unless it is a finite vector of the
    operator's width.
    """
    x_true = _vector("x_true", x_true, op.shape[1], finite=True)
    top = float(np.abs(x_true).max())
    if candidates is None:
        candidates = [factor * (top or 1.0) for factor in (1.0, 10.0, 100.0)]
    tol = 1e-5 * (1.0 + top)
    for lam in sorted(candidates):
        result = comparator.run_pd(
            comparator.PDConfig(
                lam=lam, op=op, b=b, delta=0.0, max_iterations=iterations, record_every=0
            )
        )
        if float(np.abs(result.x - x_true).max()) <= tol:
            return float(lam)
    raise CertificationFailed("no candidate weight reproduced the planted vector")


# ---------------------------------------------------------------------------
# phantoms and images
# ---------------------------------------------------------------------------


@dataclass
class Ellipse:
    cx: float
    cy: float
    rx: float
    ry: float
    angle_deg: float = 0.0
    intensity: float = 1.0


DEFAULT_PHANTOM = (
    Ellipse(0.0, 0.0, 0.72, 0.9, 0.0, 1.0),
    Ellipse(0.0, 0.05, 0.55, 0.75, 0.0, -0.55),
    Ellipse(-0.22, -0.25, 0.16, 0.3, 18.0, 0.7),
    Ellipse(0.25, -0.2, 0.12, 0.22, -12.0, 0.55),
    Ellipse(0.0, 0.45, 0.2, 0.12, 0.0, 0.45),
)


def render_phantom(height, width, ellipses=DEFAULT_PHANTOM):
    """Additive ellipse phantom on pixel centers, clipped to be nonnegative.

    Ellipse coordinates live in [-1, 1]^2 regardless of the resolution.
    """
    ys = (np.arange(height) + 0.5) / height * 2.0 - 1.0
    xs = (np.arange(width) + 0.5) / width * 2.0 - 1.0
    gx, gy = np.meshgrid(xs, ys)
    img = np.zeros((height, width))
    for e in ellipses:
        th = np.deg2rad(e.angle_deg)
        dx, dy = gx - e.cx, gy - e.cy
        u = np.cos(th) * dx + np.sin(th) * dy
        v = -np.sin(th) * dx + np.cos(th) * dy
        img[(u / e.rx) ** 2 + (v / e.ry) ** 2 <= 1.0] += e.intensity
    return np.maximum(img, 0.0).ravel()


def write_pgm(path, image, height, width):
    """8-bit binary PGM (P5, max value 255), row-major, spanning min to max."""
    img = np.asarray(image, dtype=float).reshape(height, width)
    lo, hi = float(img.min()), float(img.max())
    span = hi - lo if hi > lo else 1.0
    scaled = np.clip((img - lo) / span * 255.0, 0.0, 255.0).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(scaled.tobytes())


def projection_mass_estimate(projector, values):
    """Estimate the 1-norm of a nonnegative image from its projection data:
    mean over angles of the per-angle data sums scaled by the ray spacing.
    ``values`` must be a vector with one entry per projector row."""
    values = _vector("values", values, projector.shape[0])
    sums = np.bincount(projector.row_angle, weights=values, minlength=projector.angles_deg.size)
    return float(projector.ray_spacing * sums.mean())


# ---------------------------------------------------------------------------
# experiment configuration
# ---------------------------------------------------------------------------


# nested: each variant runs one more set of run_tomography's constraint list
_TOMO_VARIANTS = ("plain", "nonneg", "one")


@dataclass
class TomoSpec:
    height: int = 32
    width: int = 32
    n_angles: int = 12
    rays_per_angle: int = 46
    noise_level: float = 0.05
    lam: float = 0.7
    iterations: int = 3000  # constraint steps, not full passes
    data_tolerance: float = 1e-3
    coupling_tolerance: float = 1e-2
    variants: tuple = _TOMO_VARIANTS

    def __post_init__(self):
        if not self.variants:
            choices = ", ".join(_TOMO_VARIANTS)
            raise ValueError(f"tomo variants must name at least one of {choices}")
        variants = self.variants
        self.variants = _check_names("tomo variants", "tomo variant", variants, _TOMO_VARIANTS)
        for key in ("height", "width", "n_angles", "rays_per_angle", "iterations"):
            _check_whole(f"tomo {key}", getattr(self, key))
        for key in ("noise_level", "lam"):
            _nonnegative(f"tomo {key}", getattr(self, key))
        for key in ("data_tolerance", "coupling_tolerance"):
            _positive(f"tomo {key}", getattr(self, key))


@dataclass
class ExperimentConfig:
    experiment: str = "bench-stepsizes"
    seed: int = 0
    out: str = "."
    instance: InstanceSpec = None  # None: m=100, n=200, sparsity 10, seeded by seed
    noise: object = None
    lam: float = None  # None: bench and solve pick a scale heuristic, recovery certifies
    rules: tuple = tuple(solver.STEP_RULES)
    max_iterations: int = 20000
    tolerance: float = 1e-6
    pd_iterations: int = 20000
    tomo: TomoSpec = None  # None: the default TomoSpec
    preset: str = "linearized_bregman"  # for the generic solve runner

    def __post_init__(self):
        if self.instance is None:
            self.instance = InstanceSpec(m=100, n=200, sparsity=10, seed=self.seed)
        if self.tomo is None:
            self.tomo = TomoSpec()
        if not isinstance(self.out, (str, os.PathLike)):
            raise ValueError(f"out must be a path, not {self.out!r}")
        self.rules = _check_names("rules", "step rule", self.rules, solver.STEP_RULES)
        for key in ("max_iterations", "pd_iterations"):
            _check_whole(key, getattr(self, key))
        _check_whole("seed", self.seed, low=0)
        _positive("tolerance", self.tolerance)
        if self.lam is not None:
            _nonnegative("lam", self.lam)
        _check_choice("preset", self.preset, solver.PRESETS)
        if isinstance(self.noise, ImpulsiveNoise):
            self.noise.check_fits(self.instance.m)

    @classmethod
    def from_dict(cls, data):
        """The config a JSON document describes: its ``instance``, ``noise``
        and ``tomo`` blocks are each a JSON object or null, else a ValueError
        names the block."""
        data = dict(data)
        for key, build in (("instance", InstanceSpec), ("noise", _noise_model), ("tomo", TomoSpec)):
            block = data.get(key)
            if block is None:
                continue
            if not isinstance(block, dict):
                raise ValueError(f"{key} must be a JSON object or null, not {block!r}")
            data[key] = build(**block)
        return cls(**data)

    @classmethod
    def from_json(cls, path):
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def _write_report(out, index, traces, summary_header, summary):
    """Write trace.csv and summary.csv into ``out``.

    ``traces`` maps each method to its per-row traces by quantity, in the same
    quantity order for every method. trace.csv has an ``index`` column, then
    one ``<quantity>_<method>`` column per quantity and method, quantities
    outer, padded as solver.write_trace_csv pads. summary.csv has one row per
    (name, error, iterations, termination) entry of ``summary``."""
    quantities = list(next(iter(traces.values())))
    write_trace_csv(
        out / "trace.csv",
        [index] + [f"{q}_{m}" for q in quantities for m in traces],
        [traces[m][q] for q in quantities for m in traces],
    )
    write_csv(
        out / "summary.csv",
        summary_header,
        [[name, format_float(err), its, term] for name, err, its, term in summary],
    )


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------


def _planted_instance(config, runner):
    """The configured instance. Raises ZeroData before generating it when its
    sparsity is 0: x_true = 0 and b = 0 leave nothing to recover."""
    if config.instance.sparsity == 0:
        msg = f"{runner} needs instance sparsity >= 1: with sparsity 0, x_true and b are zero"
        raise ZeroData(msg)
    return generate_instance(config.instance)


def _preset_setup(config, runner):
    """The planted instance, the weight (``config.lam``, else 10 max|x_true|, or
    10 for x_true = 0; quadratic presets ignore it) and the SolverConfig budget
    and tolerance * ||b|| that bench-stepsizes and solve build presets from."""
    inst = _planted_instance(config, runner)
    lam = config.lam if config.lam is not None else 10.0 * (np.abs(inst.x_true).max() or 1.0)
    tol = config.tolerance * np.linalg.norm(inst.b)
    return inst, lam, {"max_iterations": config.max_iterations, "residual_tolerance": tol}


def run_stepsize_benchmark(config):
    """Residual traces of the regularized equality solver under each step rule.

    Writes residuals.csv with one column per rule (same row count, shorter runs
    padded with their final residual). Returns the trace dict and terminations.
    Raises MissingRules, before anything runs, when the configuration names no
    step rule, and ZeroData for an instance with sparsity 0.
    """
    if not config.rules:
        rules = ", ".join(solver.STEP_RULES)
        raise MissingRules(f"bench-stepsizes needs at least one step rule in 'rules' ({rules})")
    inst, lam, budget = _preset_setup(config, "bench-stepsizes")
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)

    cfg = solver.preset("linearized_bregman", inst.op, inst.b, lam=lam, **budget)
    traces = {}
    terminations = {}
    for rule_name in config.rules:
        result = solver.run(replace(cfg, step_rule=solver.STEP_RULES[rule_name]()))
        # single constraint: every step is a pass boundary with a fresh violation
        traces[rule_name] = result.records.violations[:, 0].tolist()
        terminations[rule_name] = result.termination

    write_trace_csv(
        out / "residuals.csv", ["k"] + list(config.rules), [traces[r] for r in config.rules]
    )
    return {"traces": traces, "terminations": terminations, "lam": lam, "instance": inst}


def run_noisy_recovery(config):
    """Noise-ball recovery: dynamic and exact split-feasibility runs against the
    primal-dual comparator, on the noise model's matching ball constraint.

    Writes trace.csv (objective and feasibility gap per iteration per method,
    the gap ``NormBall.gap`` of the noise ball; the primal-dual columns are
    its run's ``objective_value`` and ``feasibility_gap``) and summary.csv
    (relative reconstruction errors), both through _write_report. The weight is
    certified on the exact data unless the configuration pins one. Raises
    MissingNoise when the configuration has no noise model and ZeroData for an
    instance with sparsity 0, before anything runs.
    """
    if config.noise is None:
        kinds = ", ".join(_NOISE_MODELS)
        raise MissingNoise(f"noisy-recovery needs a 'noise' block with a kind ({kinds})")
    inst = _planted_instance(config, "noisy-recovery")
    noisy, delta = inject_noise(inst.b, config.noise, config.seed)
    p = config.noise.p
    lam = config.lam if config.lam is not None else certify_lambda(inst.op, inst.x_true, inst.b)
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)

    # a 2-norm distance below tol/sqrt(m) forces a p-norm gap below tol
    m = inst.op.shape[0]
    solver_tol = config.tolerance / np.sqrt(m) if p == 1 else config.tolerance
    ball = NormBall(noisy, delta, p)
    cfg = solver.SolverConfig(
        objective=ElasticNet(lam, inst.op.shape[1]),
        constraints=[solver.Difficult(inst.op, ball)],
        max_iterations=config.max_iterations,
        residual_tolerance=solver_tol,
    )

    traces = {}
    finals = {}  # method -> (final x, iterations, termination)
    for rule_name in ("dynamic", "exact"):
        trace = traces[rule_name] = {"objective": [], "gap": []}

        def track(pair, record):
            # one constraint: every step ends a pass, whose violation check
            # has just computed A x at this pair
            trace["objective"].append(cfg.objective.value(pair.x))
            trace["gap"].append(ball.gap(cfg.constraints[0].product(pair.x)))

        result = solver.run(replace(cfg, step_rule=solver.STEP_RULES[rule_name]()), callback=track)
        finals[rule_name] = (result.x, len(result.records), result.termination)
    terminations = {name: term for name, (_, _, term) in finals.items()}

    pd_result = comparator.run_pd(
        comparator.PDConfig(
            lam=lam, op=inst.op, b=noisy, delta=delta, noise_norm=p,
            max_iterations=config.pd_iterations,
        )
    )
    traces["pd"] = {"objective": pd_result.objective_value, "gap": pd_result.feasibility_gap}
    finals["pd"] = (pd_result.x, len(pd_result.k), "budget")
    x_norm = np.linalg.norm(inst.x_true)
    summary = [
        (name, float(np.linalg.norm(x - inst.x_true)) / x_norm, its, term)
        for name, (x, its, term) in finals.items()
    ]
    _write_report(out, "k", traces, ["method", "err_rel", "iterations", "termination"], summary)
    return {
        "traces": traces,
        "terminations": terminations,
        "lam": lam,
        "delta": delta,
        "instance": inst,
        "noisy": noisy,
        "pd": pd_result,
    }


def run_tomography(config):
    """Total-variation constrained tomography at three constraint levels.

    Variables are (image, gradient-field) blocks tied by a coupling constraint;
    the data enters through a 2-norm noise ball. One constraint list is built
    once, in the paper's order: the data ball, the coupling, nonnegativity,
    then the projection-estimated sum; variant i of ``_TOMO_VARIANTS``
    (plain, nonneg, one) runs its first i + 2 constraints. Dynamic steps,
    cyclic control; an iteration treats one constraint, and traces are
    recorded once per full pass over the variant's constraints.

    Writes trace.csv (per-pass data gap, ``NormBall.gap`` of the noise ball,
    and coupling residual per variant, the run's own violation of its
    coupling constraint at each pass boundary, column 1 of
    ``records.violations``) and summary.csv (final errors), both through
    _write_report, timings.csv (ms per iteration: the run's own
    ``elapsed_ms`` at its last step over its step count, so the run's set-up
    is not in it) and PGM images, and creates the output directory only once
    the constraints are built. The simple constraints have no bound on their
    violation (tolerance inf).
    """
    spec = config.tomo
    h, w = spec.height, spec.width
    hw = h * w

    u_true = render_phantom(h, w)
    angles = np.arange(spec.n_angles) * (180.0 / spec.n_angles)
    projector = build_parallel_projector(h, w, angles, spec.rays_per_angle)
    b = projector.apply(u_true)
    noisy, delta = inject_noise(b, GaussianNoise(spec.noise_level), config.seed)

    grad_op = Grad2D(h, w)
    objective = ProductObjective(
        [SquaredNorm(hw), GroupElasticNet(spec.lam, grad_op.pair_groups())]
    )
    ball = NormBall(noisy, delta, 2)
    mass = projection_mass_estimate(projector, noisy)
    constraints = [
        solver.Difficult(BlockRow([projector, ZeroOperator(projector.shape[0], 2 * hw)]), ball),
        solver.Difficult(
            BlockRow([grad_op, ScaledIdentity(2 * hw, -1.0)]), Point(np.zeros(2 * hw))
        ),
        solver.Simple(NonnegCone(np.arange(hw))),
        solver.Simple(Hyperplane(np.concatenate([np.ones(hw), np.zeros(2 * hw)]), mass)),
    ]
    tols = np.array([spec.data_tolerance, spec.coupling_tolerance, np.inf, np.inf])
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)

    results = {}
    traces = {}
    timings = {}
    for variant in spec.variants:
        count = _TOMO_VARIANTS.index(variant) + 2
        cfg = solver.SolverConfig(
            objective=objective,
            constraints=constraints[:count],
            step_rule=solver.Dynamic(),
            max_iterations=spec.iterations,
            residual_tolerance=tols[:count],
        )
        trace = traces[variant] = {"data_gap": []}

        def track(pair, record):
            if record.violations is not None:  # pass boundary
                # [P, 0] x = P u: the product the violation check just computed
                trace["data_gap"].append(ball.gap(constraints[0].product(pair.x)))

        result = results[variant] = solver.run(cfg, callback=track)
        trace["coupling"] = result.records.violations[:, 1].tolist()
        timings[variant] = result.records.elapsed_ms[-1] / len(result.records)
        write_pgm(out / f"reconstruction_{variant}.pgm", result.x[:hw], h, w)

    write_pgm(out / "phantom.pgm", u_true, h, w)
    errors = {v: float(np.linalg.norm(r.x[:hw] - u_true)) for v, r in results.items()}
    terminations = {v: r.termination for v, r in results.items()}
    summary = [(v, errors[v], len(r.records), terminations[v]) for v, r in results.items()]
    header = ["variant", "final_error", "iterations", "termination"]
    _write_report(out, "sweep", traces, header, summary)
    write_csv(
        out / "timings.csv",
        ["variant", "ms_per_iteration"],
        [[v, format_float(timings[v])] for v in spec.variants],
    )
    return {
        "results": results,
        "traces": traces,
        "timings": timings,
        "terminations": terminations,
        "errors": errors,
        "delta": delta,
        "projector": projector,
        "noisy": noisy,
    }


def run_solve(config):
    """Generic single run of a preset; writes the solver history CSV, with the
    objective value of every step computed here. Raises ZeroData, before
    anything runs, for an instance with sparsity 0."""
    inst, lam, budget = _preset_setup(config, "solve")
    cfg = solver.preset(config.preset, inst.op, inst.b, lam=lam, **budget)
    values = []
    result = solver.run(
        cfg, callback=lambda pair, record: values.append(cfg.objective.value(pair.x))
    )
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    solver.history_to_csv(result, out / "history.csv", values)
    return {"result": result, "terminations": {"solve": result.termination}, "instance": inst}
