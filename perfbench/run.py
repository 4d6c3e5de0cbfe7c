"""Benchmark entry point: run one workload and print its metrics.

    python3 perfbench/run.py --workload sparse-kaczmarz --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py            # every workload, at its default seed

Run from the root of a checkout. The library is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run. Each workload's output ends with one JSON line with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the environment, every metric with its unit, the failed fraction and a
digest of the final iterates. The full result, and the spans of a traced
run, are written to ``bench_out/``.

BLAS is pinned to one thread through environment variables set for this
process before numpy loads; nothing outside the process is changed.
"""

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def environment():
    """Versions, BLAS build, processor and pinned thread count of this run."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if level and size:
            caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
    }


def report(bench, workload, seed, seconds, trace, env):
    """Run one workload, print its lines and JSON result, save its files."""
    out = bench.run(workload, seed, seconds, trace)
    details = out.pop("details")
    tracer = out.pop("tracer")

    print(f"perfbench {workload.name} seed={seed} seconds={seconds:g} trace={int(trace)}"
          f" items={out['attempted']} step_samples={details['step_samples']}")
    print("env " + json.dumps(env))
    for name, m in out["metrics"].items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    print(f"  failed_frac {details['failed_frac']:g} ({out['failed']}/{out['attempted']})"
          f"  err_rel.max {details['err_rel.max']:.3e}  reference_s {details['reference_s']:.4g}"
          f"  step_us.p99 {details['step_us.p99']:.6g}")
    for item in details["items"]:
        for failure in item["failures"]:
            print(f"  FAILED item {item['item']}: {failure}")
    print(f"x_digest {details['x_digest']}")

    results = ROOT / "bench_out"
    results.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{seed}-trace{int(trace)}"
    (results / f"{stem}.json").write_text(
        json.dumps({
            "env": env,
            "workload": {k: getattr(workload, k) for k in
                         ("name", "default_seed", "stresses", "bypasses", "why", "params")},
            "seed": seed,
            "seconds": seconds,
            **out,
            **details,
        }, indent=1, default=float)
    )
    if trace:
        tracer.write(results / f"{stem}.spans.csv.gz")
    print(json.dumps(out), flush=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", help="a workload name, or all (default)")
    parser.add_argument("--seed", type=int, help="default: each workload's own default seed")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import splitbreg

        if not Path(splitbreg.__file__).resolve().is_relative_to(ROOT / "src"):
            raise ImportError(f"splitbreg was found at {splitbreg.__file__}")
        import bench
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"perfbench: cannot import the library from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.workload != "all" and args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}"
              " or all", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    env = environment()
    for name in names:
        workload = WORKLOADS[name]
        seed = workload.default_seed if args.seed is None else args.seed
        report(bench, workload, seed, args.seconds, bool(args.trace), env)
    return 0


if __name__ == "__main__":
    sys.exit(main())
