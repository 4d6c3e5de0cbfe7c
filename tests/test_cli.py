"""Tests for the command line front end."""

import json

import pytest

from splitbreg.cli import build_parser, main


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
