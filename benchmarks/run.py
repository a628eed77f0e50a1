"""Benchmark of the acsfa package: one seeded workload per invocation.

    python3 benchmarks/run.py --workload eil51 --seed 1 --seconds 30 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory, and outputs go to ``.bench_out/``. ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` wraps the package's public functions, prints
the per-layer metrics and writes the spans to a JSON-lines file. Human-readable
lines (machine, fingerprint, every metric with its unit) come first; the last
line is one JSON object with the keys correct, attempted, failed and metrics.
``failed / attempted`` is the error rate: failed output checks and raised
calls over the operations and checks attempted. Self-test:
``python3 -m pytest benchmarks/test_benchmark.py``.
"""

from __future__ import annotations

import os

# One thread per process, pinned before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKLOADS = ("eil51", "rand1000", "experiment")


def _import_acsfa() -> float:
    """Import the package from this checkout's sources; returns the import time."""
    if not (SRC / "acsfa" / "__init__.py").is_file():
        raise SystemExit(f"error: no acsfa sources under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import acsfa

    elapsed = time.perf_counter() - t0
    if Path(acsfa.__file__).resolve().parent != SRC / "acsfa":
        raise SystemExit(f"error: imported acsfa from {acsfa.__file__}, not from {SRC}")
    return elapsed


def _cache_size(level: int) -> str:
    name = f"SC_LEVEL{level}_CACHE_SIZE"
    size = os.sysconf(name) if name in getattr(os, "sysconf_names", {}) else 0
    if size > 0:
        return f"{size // 1024} KiB"
    index = {2: "index2", 3: "index3"}[level]
    try:
        return Path(f"/sys/devices/system/cpu/cpu0/cache/{index}/size").read_text().strip()
    except OSError:
        return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "l2": _cache_size(2),
        "l3": _cache_size(3),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(),
    }


def setup_probe(workload: str) -> None:
    """Fresh-process set-up for setup_s: prints when the inputs are ready."""
    import_s = _import_acsfa()
    import workloads

    workloads.setup(workload, workloads.SPECS[workload], ROOT / ".bench_out" / f"{workload}-probe")
    print(json.dumps({"ready": time.clock_gettime(time.CLOCK_MONOTONIC), "import_s": import_s}))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload)
        return 0

    _import_acsfa()
    import workloads

    run = workloads.measure(args.workload, args.seed, args.seconds, bool(args.trace))
    ledger, metrics, info = run["ledger"], run["metrics"], run["info"]
    print("# env " + json.dumps(environment()))
    print(
        f"# workload={args.workload} seed={args.seed} trace={args.trace} passes={info['passes']} "
        f"attempted={ledger.attempted} failed={ledger.failed} "
        f"error_rate={ledger.failed / max(ledger.attempted, 1):.6g}"
    )
    print(f"# fingerprint {info['fingerprint']}")
    if "spans" in info:
        print(f"# spans {info['spans']}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": ledger.failed == 0 and bool(metrics),
        "attempted": max(ledger.attempted, 1),
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
