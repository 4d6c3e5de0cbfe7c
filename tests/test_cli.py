"""Tests for the command line front end."""

import json
import re

import pytest

from splitbreg.cli import _load_config, build_parser, main
from splitbreg.experiments import ExperimentConfig, TomoSpec


def _solve_payload(tmp_path, **overrides):
    # the full orthonormal transform makes the fixed-step preset converge in
    # one iteration, keeping the exit-code tests fast and unambiguous
    payload = {
        "experiment": "solve",
        "seed": 0,
        "out": str(tmp_path / "run"),
        "instance": {"m": 8, "n": 8, "kind": "partial_dct", "sparsity": 8, "seed": 2},
        "preset": "landweber",
        "rules": [],
        "max_iterations": 2000,
        "tolerance": 1e-8,
    }
    payload.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    return path


def test_parser_has_all_subcommands():
    parser = build_parser()
    for name in ("bench-stepsizes", "noisy-recovery", "tomo", "solve"):
        args = parser.parse_args([name, "--out", "x"])
        assert args.command == name
        assert args.out == "x"


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_solve_exit_zero_and_history(tmp_path):
    cfg = _solve_payload(tmp_path)
    code = main(["solve", "--config", str(cfg)])
    assert code == 0
    assert (tmp_path / "run" / "history.csv").exists()


def test_exit_two_on_budget(tmp_path):
    cfg = _solve_payload(
        tmp_path,
        instance={"m": 8, "n": 8, "sparsity": 8, "seed": 2},
        max_iterations=3,
        tolerance=1e-14,
    )
    assert main(["solve", "--config", str(cfg)]) == 2


def test_exit_one_on_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"instance": {"m": 4, "n": 4}, "preset": "unknown"}))
    assert main(["solve", "--config", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err

    assert main(["solve", "--config", str(tmp_path / "missing.json")]) == 1


def test_flag_overrides(tmp_path):
    cfg = _solve_payload(tmp_path, instance={"m": 8, "n": 8, "sparsity": 8, "seed": 2})
    out = tmp_path / "elsewhere"
    code = main(
        ["solve", "--config", str(cfg), "--out", str(out), "--max-iter", "3", "--tol", "1e-14"]
    )
    assert code == 2
    assert (out / "history.csv").exists()
    assert not (tmp_path / "run").exists()


def test_each_flag_overrides_its_two_fields():
    # a flag sets its top-level field and the field of the instance or tomo
    # block that plays the same part there; the coupling tolerance stays
    args = build_parser().parse_args(["tomo", "--max-iter", "7", "--tol", "0.5", "--seed", "3"])
    config = _load_config(args)
    assert (config.max_iterations, config.tomo.iterations) == (7, 7)
    assert (config.tolerance, config.tomo.data_tolerance) == (0.5, 0.5)
    assert config.tomo.coupling_tolerance == TomoSpec().coupling_tolerance
    assert (config.seed, config.instance.seed) == (3, 3)


def test_seed_override_changes_instance(tmp_path):
    import csv

    runs = {}
    for seed in (1, 2):
        out = tmp_path / f"s{seed}"
        cfg = _solve_payload(tmp_path, out=str(out))
        assert main(["solve", "--config", str(cfg), "--seed", str(seed)]) == 0
        with open(out / "history.csv", newline="") as fh:
            runs[seed] = [row["objective_value"] for row in csv.DictReader(fh)]
    assert runs[1] != runs[2]


def test_noisy_recovery_without_noise_is_named(tmp_path, capsys):
    # no config file, so no noise block: the run names the missing key
    assert main(["noisy-recovery", "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert "'noise'" in err
    assert all(kind in err for kind in ("impulsive", "uniform", "gaussian"))
    assert not (tmp_path / "run").exists()


def test_bench_default_instance(tmp_path):
    # no config file: the benchmark falls back to the built-in instance
    code = main(
        ["bench-stepsizes", "--out", str(tmp_path), "--max-iter", "40", "--seed", "3"]
    )
    assert code == 2  # 40 iterations is far below the tolerance
    assert (tmp_path / "residuals.csv").exists()


@pytest.mark.parametrize(
    "command, payload, key, value",
    [
        ("noisy-recovery", {"noise": {"kind": "laplace"}}, "noise kind", "'laplace'"),
        ("noisy-recovery", {"noise": {"count": 3}}, "noise kind", "None"),
        ("bench-stepsizes", {"rules": ["fast"]}, "step rule", "'fast'"),
        ("tomo", {"tomo": {"variants": ["nonnneg"]}}, "tomo variant", "'nonnneg'"),
        ("solve", {"preset": "bogus"}, "preset", "'bogus'"),
        ("bench-stepsizes", {"preset": "bogus"}, "preset", "'bogus'"),
    ],
)
def test_unknown_config_names_fail_early(tmp_path, capsys, command, payload, key, value):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    out = tmp_path / "run"
    assert main([command, "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    # the message names the key, the bad value and the choices; nothing ran
    assert f"{key} {value} is not one of" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "payload, flags, key",
    [
        ({}, ["--max-iter", "0"], "max_iterations"),
        ({}, ["--max-iter", "-5"], "max_iterations"),
        ({}, ["--tol", "-1"], "tolerance"),
        ({}, ["--tol", "nan"], "tolerance"),
        ({"tolerance": float("nan")}, [], "tolerance"),
        ({"pd_iterations": 0}, [], "pd_iterations"),
        ({"tomo": {"iterations": 0}}, [], "tomo iterations"),
        ({"tomo": {"data_tolerance": -1.0}}, [], "tomo data_tolerance"),
        ({"tomo": {"coupling_tolerance": 0.0}}, [], "tomo coupling_tolerance"),
    ],
)
def test_bad_budgets_and_tolerances_fail_before_anything_runs(
    tmp_path, capsys, monkeypatch, payload, flags, key
):
    # flags are checked like config values, when the configuration is built:
    # the weight certification, the first costly step, never starts
    def certify(*args, **kwargs):
        raise AssertionError("certify_lambda ran")

    monkeypatch.setattr("splitbreg.experiments.certify_lambda", certify)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"noise": {"kind": "impulsive", "count": 3}, **payload}))
    out = tmp_path / "run"
    assert main(["noisy-recovery", "--config", str(path), "--out", str(out)] + flags) == 1
    assert f"error: {key} must be positive" in capsys.readouterr().err
    assert not out.exists()


def test_sparsity_above_n_fails_when_the_config_is_built(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"instance": {"m": 5, "n": 10, "sparsity": 20}}))
    out = tmp_path / "run"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 1
    assert "error: instance sparsity 20 exceeds n = 10" in capsys.readouterr().err
    assert not out.exists()


def test_null_tomo_block_means_the_default(tmp_path):
    assert ExperimentConfig.from_dict({"tomo": None}).tomo == TomoSpec()
    cfg = _solve_payload(tmp_path, tomo=None)
    assert main(["solve", "--config", str(cfg), "--max-iter", "5"]) == 0
    assert (tmp_path / "run" / "history.csv").exists()


def test_bench_without_rules_is_named_before_anything_runs(tmp_path, capsys, monkeypatch):
    def generate(*args, **kwargs):
        raise AssertionError("generate_instance ran")

    monkeypatch.setattr("splitbreg.experiments.generate_instance", generate)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"rules": []}))
    out = tmp_path / "run"
    assert main(["bench-stepsizes", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error: bench-stepsizes needs at least one step rule in 'rules'" in err
    assert all(rule in err for rule in ("constant", "dynamic", "exact", "inexact"))
    assert not out.exists()


_INSTANCE = {"m": 5, "n": 10, "sparsity": 2}
_IMPULSIVE = {"kind": "impulsive", "count": 2}


def _instance(**changes):
    return {"instance": {**_INSTANCE, **changes}}


def _noise(**changes):
    # a change to None drops the key: a key the noise kind does not take
    noise = {k: v for k, v in {**_IMPULSIVE, **changes}.items() if v is not None}
    return {**_instance(), "noise": noise}


@pytest.mark.parametrize(
    "command, payload, key",
    [
        # the instance block
        ("solve", _instance(kind="foo"), "instance kind"),
        ("tomo", _instance(kind="foo"), "instance kind"),
        ("solve", _instance(amplitude="cauchy"), "instance amplitude"),
        ("solve", _instance(m=5.5), "instance m"),
        ("solve", _instance(m=0), "instance m"),
        ("solve", _instance(m=True), "instance m"),
        ("solve", _instance(n=0, sparsity=0), "instance n"),
        ("solve", _instance(sparsity=2.5), "instance sparsity"),
        ("solve", _instance(sparsity=-1), "instance sparsity"),
        ("solve", _instance(m=12, n=8, kind="partial_dct"), "instance m"),
        # zero data: sparsity 0 plants x_true = 0, so b = 0
        ("solve", _instance(sparsity=0), "instance sparsity"),
        ("bench-stepsizes", _instance(sparsity=0), "instance sparsity"),
        ("noisy-recovery", {**_noise(), **_instance(sparsity=0)}, "instance sparsity"),
        # budgets and tomography sizes
        ("noisy-recovery", {**_noise(), "max_iterations": 100.5}, "max_iterations"),
        ("noisy-recovery", {**_noise(), "max_iterations": 100.0}, "max_iterations"),
        ("noisy-recovery", {**_noise(), "max_iterations": True}, "max_iterations"),
        ("noisy-recovery", {**_noise(), "pd_iterations": 10.5}, "pd_iterations"),
        ("tomo", {"tomo": {"iterations": 5.5}}, "tomo iterations"),
        ("tomo", {"tomo": {"n_angles": 0}}, "tomo n_angles"),
        ("tomo", {"tomo": {"height": 0}}, "tomo height"),
        ("tomo", {"tomo": {"width": 2.5}}, "tomo width"),
        ("tomo", {"tomo": {"rays_per_angle": True}}, "tomo rays_per_angle"),
        # noise parameters, and the weights
        ("noisy-recovery", _noise(count=100), "noise count"),
        ("noisy-recovery", _noise(count=-1), "noise count"),
        ("noisy-recovery", _noise(count=2.5), "noise count"),
        ("noisy-recovery", _noise(kind="uniform", count=None, amplitude=-1), "noise amplitude"),
        ("noisy-recovery", _noise(kind="gaussian", count=None, level=float("nan")), "noise level"),
        ("noisy-recovery", _noise(kind="gaussian", count=None, level=-0.1), "noise level"),
        ("noisy-recovery", {**_noise(), "lam": -1.0}, "lam"),
        ("tomo", {"tomo": {"noise_level": float("nan")}}, "tomo noise_level"),
        ("tomo", {"tomo": {"lam": -1.0}}, "tomo lam"),
        # variant and rule lists
        ("tomo", {"tomo": {"variants": []}}, "tomo variants"),
        ("tomo", {"tomo": {"variants": ["plain", "plain"]}}, "tomo variants"),
        ("bench-stepsizes", {**_instance(), "rules": ["exact", "exact"]}, "rules"),
        # a list of names given as one string, not read letter by letter
        ("bench-stepsizes", {**_instance(), "rules": "exact"}, "rules must be a list"),
        ("tomo", {"tomo": {"variants": "one"}}, "tomo variants must be a list"),
        # a list of names given as null or as a number
        (
            "bench-stepsizes",
            {**_instance(), "rules": None},
            "rules must be a list of names, not None",
        ),
        ("bench-stepsizes", {**_instance(), "rules": 5}, "rules must be a list of names, not 5"),
        # a block that is neither a JSON object nor null
        ("solve", {"instance": 5}, "instance must be a JSON object or null, not 5"),
        ("noisy-recovery", {**_instance(), "noise": "impulsive"}, "noise must be a JSON object"),
        ("tomo", {"tomo": 5}, "tomo must be a JSON object or null, not 5"),
        # a document that is not a JSON object
        ("tomo", 5, "the configuration must be a JSON object, not 5"),
        ("tomo", ["a"], "the configuration must be a JSON object, not ['a']"),
        # numbers given as JSON strings or booleans, for every key that must
        # be positive or finite and nonnegative
        ("solve", {**_instance(), "tolerance": "1e-6"}, "tolerance"),
        ("solve", {**_instance(), "tolerance": True}, "tolerance"),
        ("tomo", {"tomo": {"data_tolerance": "1e-3"}}, "tomo data_tolerance"),
        ("tomo", {"tomo": {"coupling_tolerance": "1e-2"}}, "tomo coupling_tolerance"),
        ("noisy-recovery", _noise(kind="uniform", count=None, amplitude="1"), "noise amplitude"),
        ("noisy-recovery", _noise(kind="gaussian", count=None, level="0.05"), "noise level"),
        ("noisy-recovery", _noise(kind="gaussian", count=None, level=True), "noise level"),
        ("noisy-recovery", {**_noise(), "lam": "1.0"}, "lam"),
        ("tomo", {"tomo": {"noise_level": "0.05"}}, "tomo noise_level"),
        ("tomo", {"tomo": {"lam": "0.7"}}, "tomo lam"),
        ("tomo", {"tomo": {"lam": False}}, "tomo lam"),
    ],
)
def test_malformed_configs_fail_before_anything_runs(
    tmp_path, capsys, monkeypatch, command, payload, key
):
    # each malformed value is named when the configuration is built, or, for
    # zero data, before the runner generates its instance: no file is written
    # and neither the instance nor the weight certification is computed
    called = []
    for name in ("generate_instance", "certify_lambda"):
        monkeypatch.setattr(
            f"splitbreg.experiments.{name}", lambda *args, name=name, **kw: called.append(name)
        )
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    out = tmp_path / "run"
    assert main([command, "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert not called
    assert not out.exists()


@pytest.mark.parametrize(
    "payload, flags",
    [({"seed": True}, []), ({"seed": -1}, []), ({}, ["--seed", "-1"])],
    ids=["bool", "negative", "flag"],
)
def test_a_bad_seed_is_named_seed(tmp_path, capsys, payload, flags):
    # with no instance block the default instance takes the seed: the value
    # is named as the seed, not as the instance's
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    out = tmp_path / "run"
    assert main(["solve", "--config", str(path), "--out", str(out), *flags]) == 1
    assert re.match(r"error: seed must be nonnegative and whole, not ", capsys.readouterr().err)
    assert not out.exists()


def test_a_null_out_is_named_before_anything_runs(tmp_path, capsys, monkeypatch):
    # run without --out, which would override the field
    called = []
    monkeypatch.setattr(
        "splitbreg.experiments.certify_lambda", lambda *args, **kw: called.append(args)
    )
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**_noise(), "out": None}))
    assert main(["noisy-recovery", "--config", str(path)]) == 1
    assert capsys.readouterr().err == "error: out must be a path, not None\n"
    assert not called
    assert list(tmp_path.iterdir()) == [path]


def test_tomo_set_up_failure_writes_nothing(tmp_path, capsys):
    # one ray per angle runs along the image's corner and hits no pixel: the
    # projector fails to build before the output directory is created
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"tomo": {"rays_per_angle": 1}}))
    out = tmp_path / "run"
    assert main(["tomo", "--config", str(path), "--out", str(out)]) == 1
    assert "no ray intersects the image" in capsys.readouterr().err
    assert not out.exists()
