"""Command line front end for the experiment runners.

Exit codes: 0 when every solver run stopped at its tolerance, 2 when any run
hit its iteration budget, 1 on configuration or runtime errors. The
primal-dual comparator runs a fixed budget and never affects the exit code.
"""

import argparse
import sys
from dataclasses import replace

from .experiments import (
    ExperimentConfig,
    run_noisy_recovery,
    run_solve,
    run_stepsize_benchmark,
    run_tomography,
)

_RUNNERS = {
    "bench-stepsizes": run_stepsize_benchmark,
    "noisy-recovery": run_noisy_recovery,
    "tomo": run_tomography,
    "solve": run_solve,
}


def _add_common(parser):
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument("--out", help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, help="seed override")
    parser.add_argument("--max-iter", type=int, help="iteration budget override")
    parser.add_argument("--tol", type=float, help="tolerance override")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="splitbreg", description="Bregman split-feasibility experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _RUNNERS:
        _add_common(sub.add_parser(name))
    return parser


def _load_config(args):
    """The config with the flags applied, rebuilt so that flags are checked.
    ``--seed`` sets ``seed`` first, which names a bad value, and then the
    instance's seed."""
    config = ExperimentConfig.from_json(args.config) if args.config else ExperimentConfig()
    top, tomo = {"experiment": args.command}, {}
    if args.out is not None:
        top["out"] = args.out
    if args.seed is not None:
        config = replace(config, seed=args.seed)
        top["instance"] = replace(config.instance, seed=args.seed)
    if args.max_iter is not None:
        top["max_iterations"] = tomo["iterations"] = args.max_iter
    if args.tol is not None:
        top["tolerance"] = tomo["data_tolerance"] = args.tol
    config = replace(config, **top)
    return replace(config, tomo=replace(config.tomo, **tomo)) if tomo else config


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args)
        outcome = _RUNNERS[args.command](config)
    except Exception as exc:  # noqa: BLE001 - map anything to exit code 1
        print(f"error: {exc}", file=sys.stderr)
        return 1
    terminations = outcome.get("terminations", {})
    if any(t == "max_iterations" for t in terminations.values()):
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
