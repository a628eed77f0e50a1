"""Fast self-test of the benchmark at tiny sizes.

    python3 -m pytest benchmarks/test_benchmark.py
"""

from __future__ import annotations

import importlib
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run._import_acsfa()

import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = {
    "eil51": workloads.Spec(iterations=2, runs=1, n=51, probes=1),
    "rand1000": workloads.Spec(iterations=2, runs=1, n=60, probes=1),
    "experiment": workloads.Spec(iterations=2, runs=2, n=8, probes=1),
}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace, monkeypatch, capsys):
    monkeypatch.setitem(workloads.SPECS, workload, TINY[workload])
    args = ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    assert run.main(args) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"]), name
        assert any(line.startswith(f"{name} ") and line.endswith(f" {metric['unit']}") for line in lines), name


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_calls_reach_every_binding(workload):
    spec = TINY[workload]
    done = workloads.measure(workload, 3, 0, True, spec)
    idx = tracing.SpanIndex(done["spans"])
    solvers = ("acs.run_acs", "hybrid.run_acsfa")
    per_pass = len(workloads.ALGORITHMS) * spec.runs * (3 if workload == "experiment" else 1)
    assert len(idx.counts_under(solvers, "acs.construct_tour")) == per_pass
    assert set(idx.counts_under(solvers, "acs.construct_tour")) == {spec.ants * spec.iterations}
    assert set(idx.counts_under(solvers, "acs.global_update")) == {spec.iterations}
    assert set(idx.counts_under(("hybrid.run_acsfa",), "firefly.sweep")) == {spec.iterations}
    assert set(idx.counts_under(("hybrid.run_acsfa",), "firefly.reduce_alpha")) == {spec.iterations}
    assert done["metrics"]["acs.construct_tour.calls"][0] == spec.ants * spec.iterations
    assert done["metrics"]["firefly.sweep.calls"][0] == spec.iterations
    if workload == "experiment":
        assert len(idx.durations("acs.run_acs", parent="bench.run_experiment")) == per_pass // 2
        assert len(idx.durations("tsplib.parse_instance", parent="bench.run_experiment")) == 3
        assert len(idx.durations("stats.studentized_range_quantile", parent="stats.tukey_hsd")) >= 8
        assert len(idx.durations("stats.tukey_hsd", parent="cli.main")) == 2
    for module_name, fn_name in tracing.TARGETS:
        for module in tracing.MODULES:
            fn = getattr(importlib.import_module(module), fn_name, None)
            assert not hasattr(fn, "__wrapped__"), f"{module}.{fn_name} still traced"


def test_same_seed_gives_the_same_fingerprint_and_gaps():
    first, second = (workloads.measure("eil51", 5, 0, False, TINY["eil51"]) for _ in range(2))
    assert first["info"]["fingerprint"] == second["info"]["fingerprint"]
    for name in ("acs_gap_pct", "acsfa_gap_pct"):
        assert first["metrics"][name] == second["metrics"][name]


def test_fails_without_the_sources():
    bare = workloads.ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    done = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "eil51", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
