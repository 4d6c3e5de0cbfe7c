"""Every committed benchmark file at the root names a claim that the benchmark
defines and holds comparable parent and change runs of each workload."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
END_TO_END = {m["name"] for m in BENCHMARK["end_to_end"]}
FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_some_bench_file_is_committed():
    assert FILES


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_bench_file_claims_an_end_to_end_metric(path):
    claim = json.loads(path.read_text())["claim"]
    assert claim["workload"] in WORKLOADS
    assert claim["metric"] in END_TO_END


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_bench_file_pairs_every_run(path):
    workloads = json.loads(path.read_text())["workloads"]
    assert set(workloads) <= WORKLOADS
    for name, w in workloads.items():
        parent, change = w["runs"]["parent"], w["runs"]["change"]
        assert len(parent) == len(change) > 0, name
        assert w["x_digest"], name
