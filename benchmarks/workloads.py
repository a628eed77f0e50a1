"""The benchmark's workloads: inputs, timed passes, output checks and metrics.

eil51       run_acs and run_acsfa on the TSPLIB file with m=10. Both matrices
            stay in cache, so per-step interpreter and numpy overhead in
            construct_tour dominates, and the firefly sweep and the hybrid's
            bookkeeping are at their largest share.
rand1000    a random-Euclidean n=1000 instance on a 1000 x 1000 square, written
            with format_instance and read back with parse_instance. tau and
            eta**beta (16 MB) overflow L2; parse and the distance matrix
            dominate set-up; the firefly sweep is negligible.
experiment  the bench path end to end: load_config, run_experiment, export,
            held_karp optima, error_matrix, ANOVA and Tukey at three
            confidences on both responses, and the stats CLI in-process.

A run repeats its workload's pass until the time budget is spent. Pass 0
always uses the same solver seeds, so the gap metrics and the quality
fingerprint repeat exactly; later passes draw their solver seeds from the
workload seed. The gaps come from pass 0 alone because, at these budgets,
they vary across solver seeds and random instances by more than any usable
bound (IQR over median 0.15 to 0.3 across ten seeds on a 2-vCPU Xeon VM).
For the same reason the random instances are generated from fixed seeds.

End-to-end times are in calibrated seconds (see clock.py). ``*_tours_per_s``
is the median over solver runs of ants x iterations over the run's time;
``cells_per_s`` is the median over passes of solver runs (bench cells) per
second of pass time, where the experiment's pass time covers load_config,
run_experiment and export, and its oracle and analysis stages are reported
per layer as ``oracle_s`` and ``analysis_s``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import resource
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

import acsfa
import acsfa.cli

from clock import Clock
from tracing import SpanIndex, Tracer, p50

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"
ALGORITHMS = ("acs", "acsfa")
CONFIDENCES = (0.90, 0.95, 0.99)
CLI_CONFIDENCE = 0.95
INSTANCE_SEED = 2016
SIDE = 1000.0
BHH = 0.7124  # Beardwood-Halton-Hammersley constant: optimum ~ BHH * sqrt(n * area)


@dataclass(frozen=True)
class Spec:
    iterations: int  # solver iterations per run
    runs: int  # solver seeds per algorithm in one pass (experiment: repetitions)
    n: int  # instance size (eil51's is fixed; the others are generated at this size)
    ants: int = 10
    probes: int = 9  # fresh-process set-ups timed for setup_s


SPECS = {
    "eil51": Spec(iterations=30, runs=4, n=51),
    "rand1000": Spec(iterations=3, runs=1, n=1000),
    "experiment": Spec(iterations=8, runs=4, n=16),
}


@dataclass
class Inputs:
    instances: list  # TspInstance, in config order for the experiment
    references: dict  # instance name -> reference length for the gap
    exact: bool  # whether the references are optima, so no tour may beat them
    out: Path
    config_path: Path | None = None


@dataclass
class Run:
    algorithm: str
    instance: str
    seed: int
    record: object  # RunRecord
    trace: object  # ParameterTrace, or None for acs
    wall_s: float


@dataclass
class Pass:
    runs: list
    wall_s: float  # calibrated; the experiment's counts load_config, run_experiment and export
    stages: dict = field(default_factory=dict)  # experiment: oracle_s, analysis_s, export sizes


class Ledger:
    """Operations and checks attempted, and how many failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def op(self, fn, *args, **kwargs):
        self.attempted += 1
        return fn(*args, **kwargs)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)

    def guard(self, fn, *args):
        """A raised call fails its step but not the run."""
        try:
            return fn(*args)
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None


def random_instance(name: str, n: int, seed: int):
    coords = np.random.default_rng(seed).random((n, 2)) * SIDE
    return acsfa.TspInstance(name=name, dimension=n, metric="EUC_2D", coords=coords)


def setup(workload: str, spec: Spec, out: Path) -> Inputs:
    """Everything before the first solve: read, generate, parse, load config."""
    out.mkdir(parents=True, exist_ok=True)
    if workload == "eil51":
        inst = acsfa.parse_instance((DATA / "eil51.tsp").read_text())
        return Inputs([inst], {inst.name: acsfa.KNOWN_OPTIMA["eil51"]}, True, out)
    if workload == "rand1000":
        path = out / f"rand{spec.n}.tsp"
        path.write_text(acsfa.format_instance(random_instance(f"rand{spec.n}", spec.n, INSTANCE_SEED)))
        inst = acsfa.parse_instance(path.read_text())
        return Inputs([inst], {inst.name: BHH * math.sqrt(spec.n * SIDE * SIDE)}, False, out)
    paths = [DATA / "ulysses16.tsp"]
    for k, suffix in enumerate("ab"):
        path = out / f"rand{spec.n}{suffix}.tsp"
        path.write_text(acsfa.format_instance(random_instance(path.stem, spec.n, INSTANCE_SEED + k)))
        paths.append(path)
    config_path = out / "experiment.cfg"
    config_path.write_text(
        f"instances = {', '.join(str(p) for p in paths)}\n"
        "algorithms = acs, acsfa\n"
        f"repetitions = {spec.runs}\n"
        f"iterations = {spec.iterations}\n"
        f"ants = {spec.ants}\n"
        "base_seed = 0\n"
        "output_dir = export\n"
    )
    acsfa.load_config(config_path)
    instances = [acsfa.parse_instance(p.read_text()) for p in paths]
    return Inputs(instances, {}, True, out, config_path)


def pass_seeds(workload_seed: int, index: int, count: int) -> list[int]:
    """Pass 0 uses seeds 0..count-1; later passes draw theirs from the workload seed."""
    if index == 0:
        return list(range(count))
    return [int(s) for s in np.random.SeedSequence([workload_seed, index]).generate_state(count)]


def solver_pass(inputs: Inputs, spec: Spec, seeds: list[int], ledger: Ledger, clock: Clock) -> Pass:
    inst = inputs.instances[0]
    runs = []
    t_pass = perf_counter()
    for seed in seeds:
        for algorithm in ALGORITHMS:
            rng = np.random.default_rng(seed)
            t0 = perf_counter()
            if algorithm == "acs":
                params = acsfa.AcsParams(m=spec.ants)
                record, trace = ledger.op(acsfa.run_acs, inst, params, spec.iterations, rng), None
            else:
                config = acsfa.HybridConfig(iterations=spec.iterations, m=spec.ants)
                record, trace = ledger.op(acsfa.run_acsfa, inst, config, rng)
            runs.append(Run(algorithm, inst.name, seed, record, trace, perf_counter() - t0))
    wall_s = perf_counter() - t_pass
    factor = clock.lap()
    for run in runs:
        run.wall_s *= factor
    check_runs(runs, inputs, acsfa.HybridConfig().bounds, ledger)
    return Pass(runs, wall_s * factor)


def experiment_pass(inputs: Inputs, spec: Spec, base_seed: int, ledger: Ledger, clock: Clock) -> Pass:
    """One session; the clock is calibrated between its stages, which last seconds."""
    export_dir = inputs.out / "export"
    shutil.rmtree(export_dir, ignore_errors=True)
    t0 = perf_counter()
    config = replace(ledger.op(acsfa.load_config, inputs.config_path), base_seed=base_seed)
    result = ledger.op(acsfa.run_experiment, config)
    written = ledger.op(acsfa.export, result, export_dir)
    run_s = perf_counter() - t0
    factor = clock.lap()
    optima = {}
    oracle_s = 0.0
    for inst in inputs.instances:
        t0 = perf_counter()
        optima[inst.name] = ledger.op(acsfa.held_karp, inst)
        oracle_s += (perf_counter() - t0) * clock.lap()
    t0 = perf_counter()
    analysis = analyse(result, optima, export_dir, ledger)
    analysis_s = (perf_counter() - t0) * clock.lap()

    ledger.check(not result.failures, f"experiment skipped instances: {result.failures}")
    ledger.check(
        optima["ulysses16"] == acsfa.KNOWN_OPTIMA["ulysses16"],
        f"held_karp(ulysses16) = {optima['ulysses16']}, expected {acsfa.KNOWN_OPTIMA['ulysses16']}",
    )
    inputs.references = optima
    runs = [
        Run(
            r.algorithm,
            r.instance,
            r.seed,
            r,
            result.traces.get((r.algorithm, r.instance, r.seed)),
            r.wall_time_s * factor,
        )
        for r in result.records
    ]
    stages = {
        "oracle_s": oracle_s,
        "analysis_s": analysis_s,
        "export_files": len(written),
        "export_bytes": sum(p.stat().st_size for p in written),
    }
    check_cli(analysis, ledger)
    check_runs(runs, inputs, config.bounds, ledger)
    return Pass(runs, run_s * factor, stages)


def analyse(result, optima: dict, export_dir: Path, ledger: Ledger) -> dict:
    """ANOVA and Tukey on both responses, then the stats CLI on the exported matrix."""
    best = acsfa.best_length_matrix(result)
    matrices = {"best": best, "error": ledger.op(acsfa.error_matrix, best, optima)}
    groupings = {}
    for response, matrix in matrices.items():
        ledger.op(acsfa.rcbd_anova, matrix)
        for confidence in CONFIDENCES:
            groupings[response, confidence] = ledger.op(acsfa.tukey_hsd, matrix, confidence)
    optima_path = export_dir / "optima.txt"
    optima_path.write_text("".join(f"{name} {value}\n" for name, value in optima.items()))
    cli_output = {}
    for response in matrices:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = ledger.op(
                acsfa.cli.main,
                [
                    "stats",
                    str(export_dir / "best_matrix.csv"),
                    "--response",
                    response,
                    "--optima",
                    str(optima_path),
                    "--confidence",
                    str(CLI_CONFIDENCE),
                ],
            )
        cli_output[response] = (code, buf.getvalue())
    return {"groupings": groupings, "cli": cli_output}


def check_cli(analysis: dict, ledger: Ledger) -> None:
    for response, (code, text) in analysis["cli"].items():
        grouping = analysis["groupings"][response, CLI_CONFIDENCE]
        lines = text.splitlines()
        rows = []
        if code == 0 and "treatment,mean,group" in lines:
            start = lines.index("treatment,mean,group") + 1
            rows = [tuple(line.split(",")[::2]) for line in lines[start : start + len(grouping.treatments)]]
        ledger.check(
            rows == list(zip(grouping.treatments, grouping.letters)),
            f"stats CLI letters {rows} differ from tukey_hsd for the {response} response",
        )


def check_runs(runs: list, inputs: Inputs, bounds, ledger: Ledger) -> None:
    instances = {inst.name: inst for inst in inputs.instances}
    for run in runs:
        inst = instances[run.instance]
        label = f"{run.algorithm} on {run.instance} seed {run.seed}"
        tour = run.record.best_tour
        is_perm = sorted(tour.order) == list(range(inst.dimension))
        ledger.check(is_perm, f"{label}: best tour is not a permutation")
        ledger.check(is_perm and acsfa.tour_length(inst, tour.order) == tour.length, f"{label}: wrong length")
        lengths = run.record.best_lengths
        ledger.check(
            all(a >= b for a, b in zip(lengths, lengths[1:])) and lengths[-1] == tour.length,
            f"{label}: best_lengths not non-increasing or not ending at the best length",
        )
        if run.algorithm == "acsfa":
            params = run.record.best_params
            ledger.check(params is not None and bounds.contains(params), f"{label}: best_params out of bounds")
        if inputs.exact:
            optimum = inputs.references[run.instance]
            ledger.check(tour.length >= optimum, f"{label}: best {tour.length} below the optimum {optimum}")


def fingerprint(runs: list) -> str:
    """sha256 over every run's best tour, best-length trace and parameter trace."""
    h = hashlib.sha256()
    for run in runs:
        h.update(f"{run.algorithm}|{run.instance}|{run.seed}|".encode())
        h.update(np.asarray(run.record.best_tour.order, dtype=np.int64).tobytes())
        h.update(np.asarray(run.record.best_lengths, dtype=np.int64).tobytes())
        if run.trace is not None:
            for array in (run.trace.means, run.trace.mins, run.trace.maxs):
                h.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
            h.update(run.record.best_params.as_array().tobytes())
    return "sha256:" + h.hexdigest()


def probe_setups(workload: str, spec: Spec, ledger: Ledger) -> list[dict]:
    """Time set-up in fresh interpreters: process start until the inputs are ready."""
    clock = Clock(spec.n)
    probes = []
    for _ in range(spec.probes):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = ledger.op(
            subprocess.run,
            [sys.executable, str(Path(__file__).with_name("run.py")), "--setup-probe", "--workload", workload],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        probe = json.loads(done.stdout.splitlines()[-1])
        probe["setup_s"] = (probe.pop("ready") - t0) * clock.lap()
        probes.append(probe)
    return probes


def measure(workload: str, seed: int, seconds: float, trace: bool, spec: Spec | None = None) -> dict:
    """One benchmark run: set-up probes, set-up, then passes until ``seconds`` is spent."""
    spec = spec or SPECS[workload]
    ledger = Ledger()
    out = ROOT / ".bench_out" / workload
    probes = ledger.guard(probe_setups, workload, spec, ledger) or []
    tracer = Tracer() if trace else None
    installed = tracer.installed if tracer else contextlib.nullcontext
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())

    with installed(), span("setup"):
        inputs = ledger.guard(setup, workload, spec, out)
    clock = Clock(spec.n)

    def one_pass(index: int) -> Pass | None:
        if inputs is None:
            return None
        if workload == "experiment":
            return ledger.guard(experiment_pass, inputs, spec, pass_seeds(seed, index, 1)[0], ledger, clock)
        return ledger.guard(solver_pass, inputs, spec, pass_seeds(seed, index, spec.runs), ledger, clock)

    t_start = perf_counter()
    baseline = one_pass(0) if trace else None
    passes = []
    with installed():
        while True:
            t_pass = perf_counter()
            with span("pass"):
                done = one_pass(len(passes))
            if done is None:
                break
            passes.append(done)
            now = perf_counter()
            if now - t_start + (now - t_pass) > seconds:  # the next pass would overrun
                break

    info = {"passes": len(passes), "fingerprint": fingerprint(passes[0].runs) if passes else None}
    if baseline is not None and passes:
        ledger.check(
            fingerprint(baseline.runs) == info["fingerprint"], "traced pass 0 differs from the untraced pass 0"
        )
    if not passes:
        metrics = {}
    elif trace:
        metrics = per_layer(workload, spec, inputs, passes, SpanIndex(tracer.spans), probes)
        metrics["trace.overhead_s"] = (passes[0].wall_s - baseline.wall_s if baseline else 0.0, "s")
        spans_path = out / f"spans-seed{seed}.jsonl"
        tracer.write(spans_path, {"workload": workload, "seed": seed, "spec": vars(spec)})
        info["spans"] = str(spans_path.relative_to(ROOT))
    else:
        metrics = end_to_end(spec, inputs, passes, probes)
    return {"ledger": ledger, "metrics": metrics, "info": info, "spans": tracer.spans if tracer else None}


def gap_pct(runs: list, references: dict, algorithm: str) -> float:
    gaps = [
        100.0 * (r.record.best_tour.length - references[r.instance]) / references[r.instance]
        for r in runs
        if r.algorithm == algorithm
    ]
    return float(np.mean(gaps))


def end_to_end(spec: Spec, inputs: Inputs, passes: list, probes: list) -> dict:
    tours = spec.ants * spec.iterations
    runs = [r for p in passes for r in p.runs]
    metrics = {"setup_s": (p50(p["setup_s"] for p in probes), "s")}
    for algorithm in ALGORITHMS:
        rate = p50(tours / r.wall_s for r in runs if r.algorithm == algorithm)
        metrics[f"{algorithm}_tours_per_s"] = (rate, "1/s")
    for algorithm in ALGORITHMS:
        metrics[f"{algorithm}_gap_pct"] = (gap_pct(passes[0].runs, inputs.references, algorithm), "%")
    metrics["cells_per_s"] = (p50(len(p.runs) / p.wall_s for p in passes), "1/s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics


def best_improved_ratio(runs: list) -> float:
    """Iterations that improved the global best (the first always does), over iterations."""
    improved = total = 0
    for r in runs:
        lengths = r.record.best_lengths
        improved += sum(1 for i, v in enumerate(lengths) if i == 0 or v < lengths[i - 1])
        total += len(lengths)
    return improved / total


def per_layer(workload: str, spec: Spec, inputs: Inputs, passes: list, idx: SpanIndex, probes: list) -> dict:
    solvers = ("acs.run_acs", "hybrid.run_acsfa")
    n = max(inst.dimension for inst in inputs.instances)
    solver_s = sum(sum(idx.durations(name)) for name in solvers)
    hybrid_s = sum(idx.durations("hybrid.run_acsfa"))
    construct = idx.durations("acs.construct_tour")
    sweeps = idx.durations("firefly.sweep")
    hybrid_self = idx.self_times("hybrid.run_acsfa")
    per_pass = lambda name: p50(idx.counts_under(("pass",), name))  # noqa: E731
    stage = lambda key: p50(p.stages[key] for p in passes if key in p.stages)  # noqa: E731
    held_karp_n = n if workload == "experiment" else 0
    return {
        "tsplib.parse_s": (p50(idx.durations("tsplib.parse_instance")), "s"),
        "tsplib.matrix_bytes": (max(inst.dist.nbytes for inst in inputs.instances), "bytes"),
        "acs.construct_tour.calls": (p50(idx.counts_under(solvers, "acs.construct_tour")), "count/run"),
        "acs.construct_tour.p50_us": (p50(construct) * 1e6, "us"),
        "acs.step_us": (p50(construct) * 1e6 / (n - 1), "us"),
        "acs.construct_tour.share": (sum(construct) / solver_s, "ratio"),
        "acs.global_update.calls": (p50(idx.counts_under(solvers, "acs.global_update")), "count/run"),
        "acs.global_update.p50_us": (p50(idx.durations("acs.global_update")) * 1e6, "us"),
        "acs.best_improved_ratio": (best_improved_ratio(passes[0].runs), "ratio"),
        "firefly.sweep.calls": (p50(idx.counts_under(solvers[1:], "firefly.sweep")), "count/run"),
        "firefly.sweep.p50_us": (p50(sweeps) * 1e6, "us"),
        "firefly.move.calls": (p50(idx.counts_under(solvers[1:], "firefly.move")), "count/run"),
        "firefly.sweep.share": (sum(sweeps) / hybrid_s, "ratio"),
        "hybrid.run_acsfa.self_s": (p50(hybrid_self), "s"),
        "hybrid.self_share": (sum(hybrid_self) / hybrid_s, "ratio"),
        "exact.held_karp.calls": (per_pass("exact.held_karp"), "count/pass"),
        "exact.held_karp.p50_s": (p50(idx.durations("exact.held_karp")), "s"),
        "exact.dp_cells": (held_karp_n * 2 ** (held_karp_n - 1), "count"),
        "stats.studentized_range_quantile.calls": (per_pass("stats.studentized_range_quantile"), "count/pass"),
        "stats.studentized_range_quantile.p50_s": (p50(idx.durations("stats.studentized_range_quantile")), "s"),
        "stats.tukey_hsd.p50_s": (p50(idx.durations("stats.tukey_hsd")), "s"),
        "stats.rcbd_anova.p50_us": (p50(idx.durations("stats.rcbd_anova")) * 1e6, "us"),
        "bench.load_config_s": (p50(idx.durations("bench.load_config")), "s"),
        "bench.run_experiment.self_s": (p50(idx.self_times("bench.run_experiment")), "s"),
        "bench.cell.p50_s": (
            p50(d for name in solvers for d in idx.durations(name, parent="bench.run_experiment")),
            "s",
        ),
        "bench.export_s": (p50(idx.durations("bench.export")), "s"),
        "bench.export.files": (stage("export_files"), "count/pass"),
        "bench.export.bytes": (stage("export_bytes"), "bytes"),
        "cli.stats_main_s": (p50(idx.durations("cli.main")), "s"),
        "cli.import_s": (p50(p["import_s"] for p in probes), "s"),
        "oracle_s": (stage("oracle_s"), "s"),
        "analysis_s": (stage("analysis_s"), "s"),
    }
