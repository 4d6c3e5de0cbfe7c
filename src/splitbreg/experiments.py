"""Experiment harness: instances, noise models, certification and runners.

Everything here is deterministic given the configuration and seed; trace and
summary CSVs contain no wall-clock columns (timings go into a separate file),
so identical configurations produce bit-identical outputs. The exception is
``solve``'s history.csv: its elapsed_ms column is wall time, so only its other
columns repeat bit for bit.
"""

import json
import math
import numbers
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import comparator, solver
from ._checks import _check_whole
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
from .solver import format_float, write_csv


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
    spec: InstanceSpec


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
    return Instance(op=op, x_true=x, b=op.apply(x), spec=spec)


# ---------------------------------------------------------------------------
# noise models
# ---------------------------------------------------------------------------


@dataclass
class ImpulsiveNoise:
    """Replace ``count`` entries by the data maximum or minimum (equal odds).
    The matching discrepancy is the 1-norm of the perturbation."""

    count: int
    p = 1

    def __post_init__(self):
        _check_whole("noise count", self.count, low=0)


@dataclass
class UniformNoise:
    """Add iid uniform noise from [-amplitude, amplitude]; discrepancy is the
    max-norm of the perturbation."""

    amplitude: float = 1.0
    p = np.inf

    def __post_init__(self):
        _check_nonnegative("noise amplitude", self.amplitude)


@dataclass
class GaussianNoise:
    """Add Gaussian noise rescaled to ``level * ||b||_2``; discrepancy is the
    2-norm of the perturbation."""

    level: float = 0.05
    p = 2

    def __post_init__(self):
        _check_nonnegative("noise level", self.level)


def inject_noise(b, model, seed):
    """Apply a noise model. Returns (noisy data, discrepancy delta)."""
    rng = np.random.default_rng(seed)
    b = np.asarray(b, dtype=float)
    noisy = b.copy()
    if isinstance(model, ImpulsiveNoise):
        idx = rng.choice(b.size, size=int(model.count), replace=False)
        noisy[idx] = rng.choice([b.max(), b.min()], size=idx.size)
        delta = float(np.abs(noisy - b).sum())
    elif isinstance(model, UniformNoise):
        noisy = b + rng.uniform(-model.amplitude, model.amplitude, size=b.size)
        delta = float(np.abs(noisy - b).max())
    elif isinstance(model, GaussianNoise):
        e = rng.standard_normal(b.size)
        e *= model.level * np.linalg.norm(b) / np.linalg.norm(e)
        noisy = b + e
        delta = float(np.linalg.norm(e))
    else:
        raise TypeError(f"unknown noise model {model!r}")
    return noisy, delta


_NOISE_MODELS = {"impulsive": ImpulsiveNoise, "uniform": UniformNoise, "gaussian": GaussianNoise}


# ---------------------------------------------------------------------------
# weight certification
# ---------------------------------------------------------------------------


def certify_lambda(op, x_true, b, candidates=None, iterations=50000):
    """Smallest candidate weight whose regularized solution is the planted
    vector, decided by a long primal-dual oracle run on the exact data.

    Acceptance is ||x - x_true||_inf <= 1e-5 * (1 + ||x_true||_inf). Raises
    CertificationFailed when no candidate passes.
    """
    x_true = np.asarray(x_true, dtype=float)
    if candidates is None:
        scale = float(np.abs(x_true).max()) or 1.0
        candidates = [scale, 10.0 * scale, 100.0 * scale]
    tol = 1e-5 * (1.0 + float(np.abs(x_true).max()))
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
    mean over angles of the per-angle data sums scaled by the ray spacing."""
    values = np.asarray(values, dtype=float)
    sums = np.bincount(projector.row_angle, weights=values, minlength=projector.angles_deg.size)
    return float(projector.ray_spacing * sums.mean())


# ---------------------------------------------------------------------------
# experiment configuration
# ---------------------------------------------------------------------------


def _check_choice(key, value, choices):
    """Raise a ValueError naming ``key``, the bad ``value`` and the ``choices``
    unless ``value`` is one of them."""
    if value not in tuple(choices):
        raise ValueError(f"{key} {value!r} is not one of {', '.join(choices)}")


def _is_number(value):
    """Whether ``value`` is a real number; a bool is not, nor is a string."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_positive(key, value):
    """Raise a ValueError naming ``key`` unless ``value`` is a number > 0 (NaN
    fails)."""
    if not (_is_number(value) and value > 0):
        raise ValueError(f"{key} must be positive, not {value!r}")


def _check_nonnegative(key, value):
    """Raise a ValueError naming ``key`` unless ``value`` is a finite number
    >= 0."""
    if not (_is_number(value) and 0 <= value < math.inf):
        raise ValueError(f"{key} must be finite and nonnegative, not {value!r}")


def _check_distinct(key, names):
    """Raise a ValueError naming ``key`` when ``names`` lists a name twice."""
    if len(set(names)) != len(names):
        raise ValueError(f"{key} must not repeat a name, not {list(names)!r}")


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
        for variant in self.variants:
            _check_choice("tomo variant", variant, _TOMO_VARIANTS)
        _check_distinct("tomo variants", self.variants)
        for key in ("height", "width", "n_angles", "rays_per_angle", "iterations"):
            _check_whole(f"tomo {key}", getattr(self, key))
        for key in ("noise_level", "lam"):
            _check_nonnegative(f"tomo {key}", getattr(self, key))
        for key in ("data_tolerance", "coupling_tolerance"):
            _check_positive(f"tomo {key}", getattr(self, key))


@dataclass
class ExperimentConfig:
    experiment: str = "bench-stepsizes"
    seed: int = 0
    out: str = "."
    instance: InstanceSpec = None  # None: m=100, n=200, sparsity 10, seeded by seed
    noise: object = None
    lam: float = None  # None: bench and solve pick a scale heuristic, recovery certifies
    rules: tuple = ("constant", "dynamic", "exact", "inexact")
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
        for rule in self.rules:
            _check_choice("step rule", rule, solver.STEP_RULES)
        _check_distinct("rules", self.rules)
        for key in ("max_iterations", "pd_iterations"):
            _check_whole(key, getattr(self, key))
        _check_positive("tolerance", self.tolerance)
        if self.lam is not None:
            _check_nonnegative("lam", self.lam)
        if isinstance(self.noise, ImpulsiveNoise) and self.noise.count > self.instance.m:
            msg = f"noise count {self.noise.count} exceeds the {self.instance.m} data entries"
            raise ValueError(msg)

    @classmethod
    def from_dict(cls, data):
        data = dict(data)
        if "instance" in data and data["instance"] is not None:
            data["instance"] = InstanceSpec(**data["instance"])
        if "noise" in data and data["noise"] is not None:
            noise = dict(data["noise"])
            kind = noise.pop("kind", None)
            _check_choice("noise kind", kind, _NOISE_MODELS)
            data["noise"] = _NOISE_MODELS[kind](**noise)
        if "tomo" in data and data["tomo"] is not None:
            data["tomo"] = TomoSpec(**data["tomo"])
        if "rules" in data:
            data["rules"] = tuple(data["rules"])
        return cls(**data)

    @classmethod
    def from_json(cls, path):
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def _write_trace_csv(path, header, columns):
    """Write float trace columns side by side under ``header``, whose first
    entry names the row index; shorter columns repeat their last value."""
    length = max(len(c) for c in columns)
    rows = [[k] + [format_float(c[min(k, len(c) - 1)]) for c in columns] for k in range(length)]
    write_csv(path, header, rows)


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

    traces = {}
    terminations = {}
    for rule_name in config.rules:
        cfg = solver.preset(
            "linearized_bregman",
            inst.op,
            inst.b,
            lam=lam,
            step_rule=solver.STEP_RULES[rule_name](),
            **budget,
        )
        result = solver.run(cfg)
        # single constraint: every step is a pass boundary with a fresh violation
        traces[rule_name] = [float(rec.violations[0]) for rec in result.records]
        terminations[rule_name] = result.termination

    _write_trace_csv(
        out / "residuals.csv", ["k"] + list(config.rules), [traces[r] for r in config.rules]
    )
    return {"traces": traces, "terminations": terminations, "lam": lam, "instance": inst}


def run_noisy_recovery(config):
    """Noise-ball recovery: dynamic and exact split-feasibility runs against the
    primal-dual comparator, on the noise model's matching ball constraint.

    Writes trace.csv (objective and p-norm feasibility gap per iteration per
    method) and summary.csv (relative reconstruction errors). The weight is
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
    x_norm = np.linalg.norm(inst.x_true)

    traces = {}
    terminations = {}
    summary = []
    for rule_name in ("dynamic", "exact"):
        cfg = solver.SolverConfig(
            objective=ElasticNet(lam, inst.op.shape[1]),
            constraints=[solver.Difficult(inst.op, ball)],
            step_rule=solver.STEP_RULES[rule_name](),
            max_iterations=config.max_iterations,
            residual_tolerance=solver_tol,
        )
        objective_trace = []
        gap_trace = []

        def track(pair, record):
            # one constraint: every step ends a pass, whose violation check
            # has just computed A x at this pair
            y = cfg.constraints[0].product(pair.x)
            objective_trace.append(cfg.objective.value(pair.x))
            gap_trace.append(float(np.linalg.norm(y - noisy, p)) - delta)

        result = solver.run(cfg, callback=track)
        traces[rule_name] = {"objective": objective_trace, "gap": gap_trace}
        terminations[rule_name] = result.termination
        summary.append(
            (rule_name, float(np.linalg.norm(result.x - inst.x_true)) / x_norm,
             len(result.records), result.termination)
        )

    pd_result = comparator.run_pd(
        comparator.PDConfig(
            lam=lam, op=inst.op, b=noisy, delta=delta, noise_norm=p,
            max_iterations=config.pd_iterations,
        )
    )
    traces["pd"] = {
        "objective": [r.objective_value for r in pd_result.records],
        "gap": [r.feasibility_gap for r in pd_result.records],
    }
    summary.append(
        ("pd", float(np.linalg.norm(pd_result.x - inst.x_true)) / x_norm,
         len(pd_result.records), "budget")
    )

    methods = ("dynamic", "exact", "pd")
    _write_trace_csv(
        out / "trace.csv",
        ["k"] + [f"objective_{m_}" for m_ in methods] + [f"gap_{m_}" for m_ in methods],
        [traces[m_]["objective"] for m_ in methods] + [traces[m_]["gap"] for m_ in methods],
    )
    write_csv(
        out / "summary.csv",
        ["method", "err_rel", "iterations", "termination"],
        [[name, format_float(err), its, term] for name, err, its, term in summary],
    )
    return {
        "traces": traces,
        "terminations": terminations,
        "summary": summary,
        "lam": lam,
        "delta": delta,
        "instance": inst,
        "noisy": noisy,
        "pd": pd_result,
    }


def _tomo_constraints(variant, a_u, coupling_op, ball, hw, c_value, spec):
    constraints = [
        solver.Difficult(a_u, ball),
        solver.Difficult(coupling_op, Point(np.zeros(coupling_op.shape[0]))),
    ]
    tols = [spec.data_tolerance, spec.coupling_tolerance]
    if variant in ("nonneg", "one"):
        constraints.append(solver.Simple(NonnegCone(np.arange(hw))))
        tols.append(1e12)
    if variant == "one":
        normal = np.concatenate([np.ones(hw), np.zeros(2 * hw)])
        constraints.append(solver.Simple(Hyperplane(normal, c_value)))
        tols.append(1e12)
    return constraints, np.asarray(tols)


def run_tomography(config):
    """Total-variation constrained tomography at three constraint levels.

    Variables are (image, gradient-field) blocks tied by a coupling constraint;
    the data enters through a 2-norm noise ball. Variants add nonnegativity and
    the projection-estimated sum constraint. Dynamic steps, cyclic control; an
    iteration treats one constraint, and traces are recorded once per full
    pass over the variant's constraint list.

    Writes trace.csv (per-pass data gap and coupling residual per variant),
    summary.csv (final errors), timings.csv (ms per iteration) and PGM images,
    and creates the output directory only once every variant's constraints
    are built.
    """
    spec = config.tomo
    h, w = spec.height, spec.width
    hw = h * w

    u_true = render_phantom(h, w)
    angles = np.arange(spec.n_angles) * (180.0 / spec.n_angles)
    projector = build_parallel_projector(h, w, angles, spec.rays_per_angle)
    b = projector.apply(u_true)
    noisy, delta = inject_noise(b, GaussianNoise(spec.noise_level), config.seed)
    c_value = projection_mass_estimate(projector, noisy)

    m = projector.shape[0]
    a_u = BlockRow([projector, ZeroOperator(m, 2 * hw)])
    grad_op = Grad2D(h, w)
    coupling_op = BlockRow([grad_op, ScaledIdentity(2 * hw, -1.0)])
    objective = ProductObjective(
        [SquaredNorm(hw), GroupElasticNet(spec.lam, grad_op.pair_groups())]
    )
    ball = NormBall(noisy, delta, 2)
    setups = {
        v: _tomo_constraints(v, a_u, coupling_op, ball, hw, c_value, spec) for v in spec.variants
    }
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)

    results = {}
    traces = {}
    timings = {}
    terminations = {}
    errors = {}
    for variant in spec.variants:
        constraints, tols = setups[variant]
        cfg = solver.SolverConfig(
            objective=objective,
            constraints=constraints,
            step_rule=solver.Dynamic(),
            max_iterations=spec.iterations,
            residual_tolerance=tols,
        )
        data_gap = []
        coupling_res = []

        def track(pair, record):
            if record.violations is not None:  # pass boundary
                # [P, 0] x = P u: the product the violation check just computed
                y = constraints[0].product(pair.x)
                data_gap.append(float(np.linalg.norm(y - noisy)) - delta)
                coupling_res.append(float(record.violations[1]))

        start = time.perf_counter()
        result = solver.run(cfg, callback=track)
        elapsed = time.perf_counter() - start
        results[variant] = result
        traces[variant] = {"data_gap": data_gap, "coupling": coupling_res}
        timings[variant] = elapsed * 1e3 / max(1, len(result.records))
        terminations[variant] = result.termination
        errors[variant] = float(np.linalg.norm(result.x[:hw] - u_true))
        write_pgm(out / f"reconstruction_{variant}.pgm", result.x[:hw], h, w)

    write_pgm(out / "phantom.pgm", u_true, h, w)
    variants = list(spec.variants)
    _write_trace_csv(
        out / "trace.csv",
        ["sweep"] + [f"data_gap_{v}" for v in variants] + [f"coupling_{v}" for v in variants],
        [traces[v]["data_gap"] for v in variants] + [traces[v]["coupling"] for v in variants],
    )
    write_csv(
        out / "summary.csv",
        ["variant", "final_error", "iterations", "termination"],
        [
            [v, format_float(errors[v]), len(results[v].records), terminations[v]]
            for v in variants
        ],
    )
    write_csv(
        out / "timings.csv",
        ["variant", "ms_per_iteration"],
        [[v, format_float(timings[v])] for v in variants],
    )
    return {
        "results": results,
        "traces": traces,
        "timings": timings,
        "terminations": terminations,
        "errors": errors,
        "u_true": u_true,
        "delta": delta,
        "c_value": c_value,
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
