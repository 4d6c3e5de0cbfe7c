"""Tests for instance generation, noise models, certification and runners."""

import csv
import json

import numpy as np
import pytest

from splitbreg.experiments import (
    CertificationFailed,
    Ellipse,
    ExperimentConfig,
    GaussianNoise,
    ImpulsiveNoise,
    InstanceSpec,
    TomoSpec,
    UniformNoise,
    certify_lambda,
    generate_instance,
    inject_noise,
    projection_mass_estimate,
    render_phantom,
    run_noisy_recovery,
    run_solve,
    run_stepsize_benchmark,
    run_tomography,
    write_pgm,
)
from splitbreg.linops import (
    BlockRow,
    Grad2D,
    PartialDCT,
    ScaledIdentity,
    ZeroOperator,
    build_parallel_projector,
)
from splitbreg._checks import DimensionMismatch
from splitbreg.objectives import GroupElasticNet, ProductObjective, SquaredNorm
from splitbreg.projections import NormBall, Point
from splitbreg import solver


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------


def test_gaussian_instance_basics():
    spec = InstanceSpec(m=10, n=25, sparsity=4, seed=3)
    inst = generate_instance(spec)
    assert inst.op.shape == (10, 25)
    assert np.count_nonzero(inst.x_true) == 4
    np.testing.assert_allclose(inst.b, inst.op.apply(inst.x_true))
    again = generate_instance(spec)
    np.testing.assert_array_equal(inst.x_true, again.x_true)
    np.testing.assert_array_equal(inst.op.to_dense(), again.op.to_dense())


def test_bernoulli_entries():
    inst = generate_instance(InstanceSpec(m=6, n=9, kind="bernoulli", seed=0))
    assert set(np.unique(inst.op.to_dense())) == {-1.0, 1.0}


def test_partial_dct_rows_distinct():
    inst = generate_instance(InstanceSpec(m=8, n=16, kind="partial_dct", seed=1))
    assert isinstance(inst.op, PartialDCT)
    dense = inst.op.to_dense()
    assert dense.shape == (8, 16)
    # sampled without replacement: all pairwise distinct rows
    for i in range(8):
        for j in range(i + 1, 8):
            assert np.abs(dense[i] - dense[j]).max() > 1e-8


def test_amplitude_kinds():
    pm = generate_instance(InstanceSpec(m=5, n=12, sparsity=6, amplitude="pm_one", seed=2))
    vals = pm.x_true[pm.x_true != 0]
    assert set(np.unique(vals)) <= {-1.0, 1.0}

    dyn = generate_instance(
        InstanceSpec(m=5, n=12, sparsity=6, amplitude="dynamic_range", seed=2)
    )
    mags = np.abs(dyn.x_true[dyn.x_true != 0])
    assert mags.min() >= 1.0 and mags.max() <= 1e5


def test_unknown_kinds_raise():
    with pytest.raises(ValueError):
        generate_instance(InstanceSpec(m=3, n=3, kind="toeplitz"))
    with pytest.raises(ValueError):
        generate_instance(InstanceSpec(m=3, n=3, sparsity=1, amplitude="cauchy"))


# ---------------------------------------------------------------------------
# noise
# ---------------------------------------------------------------------------


def test_impulsive_noise_identity():
    rng = np.random.default_rng(0)
    b = rng.standard_normal(40)
    noisy, delta = inject_noise(b, ImpulsiveNoise(count=7), seed=5)
    changed = noisy != b
    assert changed.sum() <= 7
    assert np.all(np.isin(noisy[changed], [b.max(), b.min()]))
    # delta satisfies its defining norm identity exactly
    assert delta == float(np.abs(noisy - b).sum())


def test_uniform_noise_identity():
    b = np.linspace(-1, 1, 30)
    noisy, delta = inject_noise(b, UniformNoise(amplitude=0.2), seed=9)
    assert delta == float(np.abs(noisy - b).max())
    assert delta <= 0.2


def test_gaussian_noise_identity():
    rng = np.random.default_rng(1)
    b = rng.standard_normal(50) * 3
    noisy, delta = inject_noise(b, GaussianNoise(level=0.05), seed=2)
    assert delta == pytest.approx(float(np.linalg.norm(noisy - b)), rel=1e-12)
    assert delta == pytest.approx(0.05 * np.linalg.norm(b), rel=1e-12)


def test_noise_is_seeded():
    b = np.arange(20, dtype=float)
    first = inject_noise(b, GaussianNoise(0.1), seed=4)
    second = inject_noise(b, GaussianNoise(0.1), seed=4)
    np.testing.assert_array_equal(first[0], second[0])
    # a foreign object, or a model class instead of an instance
    for model in (object(), GaussianNoise):
        with pytest.raises(TypeError, match="unknown noise model"):
            inject_noise(b, model, seed=0)


_MODELS = [ImpulsiveNoise(count=2), UniformNoise(amplitude=0.1), GaussianNoise(level=0.05)]


@pytest.mark.parametrize("model", _MODELS, ids=["impulsive", "uniform", "gaussian"])
@pytest.mark.parametrize(
    "b,match",
    [
        ([], "^b must hold at least one entry$"),
        (np.ones((2, 3)), r"^b must be a vector, not of shape \(2, 3\)$"),
        ([1.0, np.nan, 2.0], "^b must be finite$"),
        ([1.0, np.inf, 2.0], "^b must be finite$"),
    ],
    ids=["empty", "2d", "nan", "inf"],
)
def test_inject_noise_names_malformed_data(model, b, match):
    with pytest.raises(ValueError, match=match):
        inject_noise(b, model, seed=0)


def test_impulsive_noise_above_the_data_size_is_named():
    with pytest.raises(ValueError, match="^noise count 5 exceeds the 3 data entries$"):
        inject_noise([1.0, 2.0, 3.0], ImpulsiveNoise(5), seed=0)


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------


def test_certify_lambda_small_instance():
    inst = generate_instance(InstanceSpec(m=10, n=20, sparsity=2, seed=11))
    lam = certify_lambda(inst.op, inst.x_true, inst.b, iterations=30000)
    scale = np.abs(inst.x_true).max()
    assert lam in (scale, 10.0 * scale, 100.0 * scale)


def test_certify_lambda_failure():
    inst = generate_instance(InstanceSpec(m=10, n=20, sparsity=2, seed=11))
    with pytest.raises(CertificationFailed):
        certify_lambda(inst.op, inst.x_true, inst.b, candidates=[1e-9], iterations=200)


@pytest.mark.parametrize(
    "x_true, message",
    [
        ([np.nan] + [0.0] * 19, "^x_true must be finite$"),
        (np.ones(19), r"^x_true must be a vector of length 20, not of shape \(19,\)$"),
        ([True] * 20, "^x_true must hold real numbers, not bools$"),
    ],
    ids=["nan", "short", "bool"],
)
def test_certify_lambda_reads_x_true_by_the_vector_rule(monkeypatch, x_true, message):
    # named before the first candidate's primal-dual run
    inst = generate_instance(InstanceSpec(m=10, n=20, sparsity=2, seed=11))
    monkeypatch.setattr("splitbreg.comparator.run_pd", lambda cfg: pytest.fail("run_pd ran"))
    with pytest.raises(ValueError, match=message):
        certify_lambda(inst.op, x_true, inst.b)


# ---------------------------------------------------------------------------
# phantom, images, mass estimate
# ---------------------------------------------------------------------------


def test_render_phantom_shape_and_range():
    img = render_phantom(16, 16)
    assert img.shape == (256,)
    assert img.min() >= 0.0
    assert img.max() > 0.0
    np.testing.assert_array_equal(img, render_phantom(16, 16))


def test_render_phantom_single_ellipse():
    # an ellipse covering the whole square paints every pixel
    big = (Ellipse(0.0, 0.0, 10.0, 10.0, 0.0, 2.0),)
    np.testing.assert_array_equal(render_phantom(4, 4, big), np.full(16, 2.0))
    assert render_phantom(4, 4, ()).sum() == 0.0


def test_write_pgm(tmp_path):
    path = tmp_path / "img.pgm"
    write_pgm(path, np.array([0.0, 0.5, 1.0, 1.0, 0.25, 0.0]), 2, 3)
    raw = path.read_bytes()
    header = b"P5\n3 2\n255\n"
    assert raw.startswith(header)
    pixels = raw[len(header):]
    assert len(pixels) == 6
    assert pixels[0] == 0 and pixels[2] == 255 and pixels[3] == 255
    # the image as its height x width array writes the same bytes
    write_pgm(tmp_path / "grid.pgm", np.array([[0.0, 0.5, 1.0], [1.0, 0.25, 0.0]]), 2, 3)
    assert (tmp_path / "grid.pgm").read_bytes() == raw


def test_write_pgm_names_an_image_of_another_size(tmp_path):
    with pytest.raises(DimensionMismatch, match=r"^image must be a vector of length 9, not of "
                       r"shape \(4,\)$"):
        write_pgm(tmp_path / "img.pgm", np.ones(4), 3, 3)
    assert not (tmp_path / "img.pgm").exists()


def test_mass_estimate_exact_on_tiling_rays():
    # horizontal rays through every row center integrate each row exactly,
    # so spacing * (per-angle sum) recovers the total mass
    rng = np.random.default_rng(6)
    u = rng.uniform(0.0, 1.0, 16)
    offsets = np.array([-1.5, -0.5, 0.5, 1.5])
    proj = build_parallel_projector(4, 4, [0.0], offsets=offsets)
    est = projection_mass_estimate(proj, proj.apply(u))
    assert est == pytest.approx(np.abs(u).sum(), rel=1e-12)

    # averaging over two tiling angles keeps it exact
    proj2 = build_parallel_projector(4, 4, [0.0, 90.0], offsets=offsets)
    est2 = projection_mass_estimate(proj2, proj2.apply(u))
    assert est2 == pytest.approx(np.abs(u).sum(), rel=1e-12)


@pytest.mark.parametrize("count", [-1, 1])
def test_mass_estimate_takes_one_value_per_projector_row(count):
    proj = build_parallel_projector(4, 4, [0.0, 90.0], offsets=[-1.5, -0.5, 0.5, 1.5])
    m = proj.shape[0]
    message = rf"^values must be a vector of length {m}, not of shape \({m + count},\)$"
    with pytest.raises(ValueError, match=message):
        projection_mass_estimate(proj, np.ones(m + count))


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_config_from_json(tmp_path):
    payload = {
        "experiment": "noisy-recovery",
        "seed": 5,
        "out": "results",
        "instance": {"m": 20, "n": 40, "sparsity": 3, "seed": 5},
        "noise": {"kind": "uniform", "amplitude": 0.3},
        "lam": 2.5,
        "rules": ["dynamic", "exact"],
        "max_iterations": 500,
        "tomo": {"height": 8, "width": 8, "iterations": 40},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    cfg = ExperimentConfig.from_json(path)
    assert cfg.instance == InstanceSpec(m=20, n=40, sparsity=3, seed=5)
    assert isinstance(cfg.noise, UniformNoise) and cfg.noise.amplitude == 0.3
    assert cfg.rules == ("dynamic", "exact")
    assert cfg.tomo.height == 8 and cfg.tomo.iterations == 40
    assert cfg.lam == 2.5


@pytest.mark.parametrize(
    "build, key, name",
    [
        (lambda names: ExperimentConfig(rules=names).rules, "rules", "exact"),
        (lambda names: ExperimentConfig.from_dict({"rules": names}).rules, "rules", "exact"),
        (lambda names: TomoSpec(variants=names).variants, "tomo variants", "one"),
        (
            lambda names: ExperimentConfig.from_dict({"tomo": {"variants": names}}).tomo.variants,
            "tomo variants",
            "one",
        ),
    ],
    ids=["rules", "rules-from-dict", "variants", "variants-from-dict"],
)
def test_a_list_of_names_is_a_list_never_one_string(build, key, name):
    # one string is named as such, not split into letters; a list is kept
    # as a tuple
    message = f"^{key} must be a list of names, not the string '{name}'$"
    with pytest.raises(ValueError, match=message):
        build(name)
    assert build([name]) == (name,)


def test_default_instance_lives_in_the_config(tmp_path):
    cfg = ExperimentConfig(seed=7, out=str(tmp_path), max_iterations=5)
    assert cfg.instance == InstanceSpec(m=100, n=200, sparsity=10, seed=7)
    assert len(run_solve(cfg)["result"].records) == 5
    assert run_stepsize_benchmark(cfg)["instance"].op.shape == (100, 200)


def test_pad_repeats_last_value(tmp_path):
    solver.write_trace_csv(tmp_path / "t.csv", ["k", "a", "b"], [[1.0, 2.0], [5.0]])
    with open(tmp_path / "t.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["k", "a", "b"], ["0", "1", "5"], ["1", "2", "5"]]


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------


def _bench_config(tmp_path, **kwargs):
    base = dict(
        experiment="bench-stepsizes",
        seed=0,
        out=str(tmp_path),
        instance=InstanceSpec(m=10, n=20, sparsity=3, seed=0),
        lam=None,
        max_iterations=400,
        tolerance=1e-6,
    )
    base.update(kwargs)
    return ExperimentConfig(**base)


def test_stepsize_benchmark_outputs(tmp_path):
    cfg = _bench_config(tmp_path)
    report = run_stepsize_benchmark(cfg)
    with open(tmp_path / "residuals.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "constant", "dynamic", "exact", "inexact"]
    length = max(len(report["traces"][r]) for r in cfg.rules)
    assert len(rows) == length + 1
    # columns reproduce the traces, padded with the final residual
    exact = report["traces"]["exact"]
    col = [float(r[3]) for r in rows[1:]]
    assert col[: len(exact)] == exact
    assert all(v == exact[-1] for v in col[len(exact):])
    for term in report["terminations"].values():
        assert term in ("tolerance", "max_iterations")


def test_stepsize_benchmark_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    run_stepsize_benchmark(_bench_config(a, max_iterations=150))
    run_stepsize_benchmark(_bench_config(b, max_iterations=150))
    assert (a / "residuals.csv").read_bytes() == (b / "residuals.csv").read_bytes()


def test_runners_are_deterministic(tmp_path):
    # identical configurations write byte-identical trace, summary and image
    # files, and solve's history.csv but for its wall-clock column
    for out in (tmp_path / "a", tmp_path / "b"):
        run_solve(ExperimentConfig(
            out=str(out / "solve"),
            instance=InstanceSpec(m=8, n=16, sparsity=2, seed=2),
            preset="sparse_kaczmarz",
            lam=1.0,
            max_iterations=300,
        ))
        run_noisy_recovery(ExperimentConfig(
            seed=1,
            out=str(out / "noise"),
            instance=InstanceSpec(m=15, n=30, sparsity=2, seed=1),
            noise=ImpulsiveNoise(count=2),
            lam=1.0,
            max_iterations=300,
            pd_iterations=300,
        ))
        run_tomography(ExperimentConfig(
            out=str(out / "tomo"),
            tomo=TomoSpec(height=8, width=8, n_angles=4, rays_per_angle=12, iterations=60),
        ))
    names = ["noise/trace.csv", "noise/summary.csv", "tomo/trace.csv", "tomo/summary.csv"]
    names += [f"tomo/{p.name}" for p in (tmp_path / "a" / "tomo").glob("*.pgm")]
    assert len(names) == 8
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name
    # elapsed_ms is the last column: drop what follows each line's last comma
    histories = [
        [line.rpartition(b",")[0] for line in (out / "history.csv").read_bytes().splitlines()]
        for out in (tmp_path / "a" / "solve", tmp_path / "b" / "solve")
    ]
    assert histories[0][0] == ",".join(solver.CSV_COLUMNS[:-1]).encode()
    assert solver.CSV_COLUMNS[-1] == "elapsed_ms" and len(histories[0]) > 3
    assert histories[0] == histories[1]


def test_noisy_recovery_outputs(tmp_path):
    cfg = ExperimentConfig(
        experiment="noisy-recovery",
        seed=1,
        out=str(tmp_path),
        instance=InstanceSpec(m=15, n=30, sparsity=2, seed=1),
        noise=GaussianNoise(level=0.05),
        lam=None,
        max_iterations=3000,
        tolerance=1e-6,
        pd_iterations=3000,
    )
    report = run_noisy_recovery(cfg)
    with open(tmp_path / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["method"] for r in rows] == ["dynamic", "exact", "pd"]
    for row in rows:
        assert np.isfinite(float(row["err_rel"]))
    # the comparator records every iteration of its budget
    assert int(rows[2]["iterations"]) == cfg.pd_iterations
    with open(tmp_path / "trace.csv", newline="") as fh:
        header = next(csv.reader(fh))
        fh.seek(0)
        trace = list(csv.DictReader(fh))
    # the pd columns are the comparator run's own recorded columns
    pd = report["pd"]
    assert [r["objective_pd"] for r in trace] == list(map(solver.format_float, pd.objective_value))
    assert [r["gap_pd"] for r in trace] == list(map(solver.format_float, pd.feasibility_gap))
    assert header == [
        "k",
        "objective_dynamic",
        "objective_exact",
        "objective_pd",
        "gap_dynamic",
        "gap_exact",
        "gap_pd",
    ]
    # the solver runs stop once inside the noise ball
    for rule in ("dynamic", "exact"):
        assert report["terminations"][rule] == "tolerance"
        assert report["traces"][rule]["gap"][-1] <= cfg.tolerance


def test_run_solve_writes_history(tmp_path):
    cfg = ExperimentConfig(
        experiment="solve",
        out=str(tmp_path),
        instance=InstanceSpec(m=8, n=8, seed=2, sparsity=8),
        preset="landweber",
        rules=(),
        max_iterations=2000,
        tolerance=1e-8,
    )
    report = run_solve(cfg)
    with open(tmp_path / "history.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(solver.CSV_COLUMNS)
    assert len(rows) == len(report["result"].records) + 1


def test_run_solve_uses_the_preset_step_rule(tmp_path, monkeypatch):
    # ``rules`` configures the step-size benchmark only; solve keeps the
    # preset's documented rule (Exact for linearized_bregman)
    configs = []
    run = solver.run
    monkeypatch.setattr(
        solver, "run", lambda cfg, **kwargs: configs.append(cfg) or run(cfg, **kwargs)
    )
    cfg = ExperimentConfig(
        experiment="solve",
        out=str(tmp_path),
        instance=InstanceSpec(m=8, n=16, seed=2, sparsity=2),
        max_iterations=5,
    )
    assert cfg.rules[0] == "constant"
    run_solve(cfg)
    assert [type(c.step_rule) for c in configs] == [solver.Exact]


@pytest.mark.parametrize("name", [name for name, row in solver.PRESETS.items() if row[0]])
def test_run_solve_picks_lam_for_l1_presets(tmp_path, name):
    cfg = ExperimentConfig(
        experiment="solve",
        out=str(tmp_path),
        instance=InstanceSpec(m=8, n=16, seed=2, sparsity=2),
        preset=name,
        max_iterations=5,
    )
    assert cfg.lam is None
    assert run_solve(cfg)["result"].records


def test_zero_noise_zero_phantom_is_immediately_feasible():
    # zero image, exact data: the start x* = 0 already satisfies the data ball
    # and the coupling constraint, so the run ends on its first pass
    h = w = 6
    hw = h * w
    u_true = render_phantom(h, w, ())
    proj = build_parallel_projector(h, w, [0.0, 90.0], rays_per_angle=10)
    b = proj.apply(u_true)
    noisy, delta = inject_noise(b, GaussianNoise(0.0), seed=0)
    assert delta == 0.0

    m = proj.shape[0]
    a_u = BlockRow([proj, ZeroOperator(m, 2 * hw)])
    grad_op = Grad2D(h, w)
    coupling = BlockRow([grad_op, ScaledIdentity(2 * hw, -1.0)])
    spec = TomoSpec(height=h, width=w, iterations=10)
    constraints = [
        solver.Difficult(a_u, NormBall(noisy, delta, 2)),
        solver.Difficult(coupling, Point(np.zeros(2 * hw))),
    ]
    tols = np.array([spec.data_tolerance, spec.coupling_tolerance])
    objective = ProductObjective([SquaredNorm(hw), GroupElasticNet(1.0, grad_op.pair_groups())])
    cfg = solver.SolverConfig(
        objective=objective,
        constraints=constraints,
        step_rule=solver.Dynamic(),
        max_iterations=5 * len(constraints),
        residual_tolerance=tols,
    )
    result = solver.run(cfg)
    assert result.termination == "tolerance"
    assert len(result.records) <= len(constraints)
    np.testing.assert_array_equal(result.x, np.zeros(3 * hw))


def test_tomography_smoke(tmp_path):
    cfg = ExperimentConfig(
        experiment="tomo",
        seed=0,
        out=str(tmp_path),
        tomo=TomoSpec(
            height=8,
            width=8,
            n_angles=4,
            rays_per_angle=12,
            noise_level=0.05,
            lam=1.0,
            iterations=60,
            variants=("plain", "one"),
        ),
    )
    report = run_tomography(cfg)
    for name in ("trace.csv", "summary.csv", "timings.csv", "phantom.pgm",
                 "reconstruction_plain.pgm", "reconstruction_one.pgm"):
        assert (tmp_path / name).exists()
    with open(tmp_path / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["variant"] for r in rows] == ["plain", "one"]
    with open(tmp_path / "trace.csv", newline="") as fh:
        header = next(csv.reader(fh))
    assert header == [
        "sweep",
        "data_gap_plain",
        "data_gap_one",
        "coupling_plain",
        "coupling_one",
    ]
    raw = (tmp_path / "phantom.pgm").read_bytes()
    assert raw.startswith(b"P5\n8 8\n255\n")
    assert len(raw.split(b"\n", 3)[3]) == 64
    for v in ("plain", "one"):
        assert np.isfinite(report["errors"][v])
        assert report["timings"][v] > 0.0


def test_a_tomography_variant_does_not_depend_on_the_others(tmp_path):
    # the variants run prefixes of one constraint list, whose sets keep
    # memos: each variant ends the same whichever others run, in any order
    def run(variants):
        spec = TomoSpec(
            height=12, width=12, n_angles=6, rays_per_angle=18, iterations=400, variants=variants
        )
        out = str(tmp_path / "-".join(variants))
        return run_tomography(ExperimentConfig(experiment="tomo", out=out, tomo=spec))

    canonical = run(("plain", "nonneg", "one"))
    for variants in (("one", "nonneg", "plain"), ("one", "plain")):
        report = run(variants)
        for v in variants:
            assert report["results"][v].x.tobytes() == canonical["results"][v].x.tobytes()
            assert report["traces"][v] == canonical["traces"][v]
            assert report["terminations"][v] == canonical["terminations"][v]
