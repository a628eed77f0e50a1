"""Experiment orchestration: seeded repeated runs, aggregation, export.

A config names instances and algorithms; every (algorithm, instance,
repetition) triple gets its own seed (explicit list or base seed + run
index), so whole experiments replay bit-identically. Timing is measured
inside the solvers, never around file I/O.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .acs import AcsParams, RunRecord, run_acs
from .firefly import PARAM_NAMES, ParamBounds, check_bounds
from .hybrid import HybridConfig, ParameterTrace, run_acsfa
from .stats import ResponseMatrix, write_response_matrix
from .tsplib import TsplibParseError, parse_instance

ALGORITHMS = ("acs", "acsfa")

# Best known optimal tour lengths for the classic symmetric instances.
KNOWN_OPTIMA = {
    "ulysses16": 6859,
    "bays29": 2020,
    "oliver30": 420,
    "eil51": 426,
    "pr76": 108159,
    "kroa100": 21282,
    "lin105": 14379,
    "tsp225": 3916,
    "gil262": 2378,
    "lin318": 42029,
    "rat575": 6773,
    "rat783": 8806,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description; defaults mirror the standard setup."""

    instances: tuple[str, ...]
    algorithms: tuple[str, ...] = ALGORITHMS
    repetitions: int = 10
    iterations: int = 1000
    ants: int = 10
    base_seed: int = 0
    seeds: tuple[int, ...] | None = None
    bounds: ParamBounds = field(default_factory=ParamBounds)
    acs_beta: float = 2.0
    acs_rho: float = 0.1
    acs_q0: float = 0.85
    alpha: float = 0.1
    fa_alpha0: float = 2.3
    output_dir: str = "acsfa-out"

    def __post_init__(self) -> None:
        if not self.instances:
            raise ValueError("instances: at least one instance file is required")
        object.__setattr__(self, "instances", tuple(self.instances))
        object.__setattr__(self, "algorithms", tuple(a.lower() for a in self.algorithms))
        for algo in self.algorithms:
            if algo not in ALGORITHMS:
                raise ValueError(f"algorithms: unknown algorithm {algo!r} (expected acs/acsfa)")
        if self.repetitions < 1:
            raise ValueError(f"repetitions: must be >= 1, got {self.repetitions}")
        if self.iterations < 0:
            raise ValueError(f"iterations: must be >= 0, got {self.iterations}")
        if self.ants < 1:
            raise ValueError(f"ants: must be >= 1, got {self.ants}")
        if self.base_seed < 0:
            raise ValueError(f"base_seed: must be >= 0, got {self.base_seed}")
        if self.seeds is not None:
            object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
            if len(self.seeds) != self.repetitions:
                raise ValueError(
                    f"seeds: got {len(self.seeds)} seeds for {self.repetitions} repetitions"
                )
            if min(self.seeds) < 0:
                raise ValueError(f"seeds: must be >= 0, got {min(self.seeds)}")
        if not 0.0 < self.acs_rho < 1.0:
            raise ValueError(f"acs_rho: must lie in (0, 1), got {self.acs_rho}")
        if not 0.0 <= self.acs_q0 <= 1.0:
            raise ValueError(f"acs_q0: must lie in [0, 1], got {self.acs_q0}")
        if not 0.0 <= self.acs_beta < math.inf:
            raise ValueError(f"acs_beta: must be finite and >= 0, got {self.acs_beta}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha: must lie in (0, 1), got {self.alpha}")
        if not 0.0 < self.fa_alpha0 < math.inf:
            raise ValueError(f"fa_alpha0: must be finite and positive, got {self.fa_alpha0}")

    def seed_for(self, repetition: int) -> int:
        if self.seeds is not None:
            return self.seeds[repetition]
        return self.base_seed + repetition


@dataclass(frozen=True)
class ExperimentSummary:
    """Aggregates for one (algorithm, instance) cell."""

    algorithm: str
    instance: str
    best: int
    average: float
    worst: int
    t_avg_s: float

    def __post_init__(self) -> None:
        if not self.best <= self.average <= self.worst:
            raise ValueError(f"aggregate ordering violated: {self.best}/{self.average}/{self.worst}")
        if not self.t_avg_s > 0:
            raise ValueError(f"average time must be positive, got {self.t_avg_s}")


@dataclass(frozen=True)
class InstanceFailure:
    path: str
    error: str


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    summaries: list[ExperimentSummary]
    records: list[RunRecord]
    traces: dict[tuple[str, str, int], ParameterTrace]
    failures: list[InstanceFailure]


_RANGE_KEYS = {f"{name}_range": name for name in PARAM_NAMES}
_INT_KEYS = ("repetitions", "iterations", "ants", "base_seed")
_FLOAT_KEYS = ("acs_beta", "acs_rho", "acs_q0", "alpha", "fa_alpha0")


def parse_config(text: str, base_dir: Path | None = None) -> ExperimentConfig:
    """Parse the flat key-value config format ('key = value', '#' comments)."""
    base_dir = Path(base_dir) if base_dir is not None else Path(".")
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, value = stripped.split("=", 1)
        key = key.strip().lower()
        if key in raw:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value.strip()

    kwargs: dict = {}
    ranges: dict[str, tuple[float, float]] = {}
    for key, value in raw.items():
        if key == "instances":
            paths = [p.strip() for p in value.split(",") if p.strip()]
            kwargs["instances"] = tuple(str((base_dir / p)) for p in paths)
        elif key == "algorithms":
            kwargs["algorithms"] = tuple(a.strip() for a in value.split(",") if a.strip())
        elif key == "seeds":
            try:
                kwargs["seeds"] = tuple(int(s) for s in value.replace(",", " ").split())
            except ValueError:
                raise ValueError(f"seeds: expected integers, got {value!r}") from None
        elif key == "output_dir":
            kwargs["output_dir"] = str(base_dir / value)
        elif key in _INT_KEYS:
            try:
                kwargs[key] = int(value)
            except ValueError:
                raise ValueError(f"{key}: expected an integer, got {value!r}") from None
        elif key in _FLOAT_KEYS:
            try:
                kwargs[key] = float(value)
            except ValueError:
                raise ValueError(f"{key}: expected a number, got {value!r}") from None
        elif key in _RANGE_KEYS:
            parts = value.replace(",", " ").split()
            if len(parts) != 2:
                raise ValueError(f"{key}: expected two numbers 'low high', got {value!r}")
            name = _RANGE_KEYS[key]
            ranges[name] = (float(parts[0]), float(parts[1]))
            try:
                check_bounds(name, *ranges[name])
            except ValueError as exc:
                raise ValueError(f"{key}: {exc}") from None
        else:
            raise ValueError(f"unknown config key {key!r}")

    if "instances" not in kwargs:
        raise ValueError("instances: required key is missing")
    if "output_dir" not in kwargs:
        kwargs["output_dir"] = str(base_dir / "acsfa-out")
    if ranges:
        defaults = ParamBounds()
        kwargs["bounds"] = ParamBounds(
            **{name: ranges.get(name, getattr(defaults, name)) for name in PARAM_NAMES}
        )
    config = ExperimentConfig(**kwargs)
    missing = [p for p in config.instances if not Path(p).is_file()]
    if missing:
        raise ValueError(f"instances: file(s) not found: {', '.join(missing)}")
    return config


def load_config(path: str | Path) -> ExperimentConfig:
    """Read and validate a config file; relative paths resolve against it."""
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"config file not found: {p}")
    return parse_config(p.read_text(), base_dir=p.parent)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run every (algorithm, instance, repetition) cell and aggregate.

    An instance that fails to parse, or whose name repeats an earlier
    instance's (records, traces and exported files are keyed by name), is
    reported and skipped; the rest of the experiment still runs.
    """
    summaries: list[ExperimentSummary] = []
    records: list[RunRecord] = []
    traces: dict[tuple[str, str, int], ParameterTrace] = {}
    failures: list[InstanceFailure] = []
    paths_by_name: dict[str, str] = {}

    for path in config.instances:
        try:
            inst = parse_instance(Path(path).read_text())
        except (OSError, TsplibParseError) as exc:
            failures.append(InstanceFailure(path=path, error=str(exc)))
            continue
        if inst.name in paths_by_name:
            error = f"instance name {inst.name!r} repeats that of {paths_by_name[inst.name]}"
            failures.append(InstanceFailure(path=path, error=error))
            continue
        paths_by_name[inst.name] = path
        for algo in config.algorithms:
            cell_records = []
            for rep in range(config.repetitions):
                seed = config.seed_for(rep)
                rng = np.random.default_rng(seed)
                if algo == "acs":
                    params = AcsParams(
                        beta=config.acs_beta,
                        rho=config.acs_rho,
                        q0=config.acs_q0,
                        alpha=config.alpha,
                        m=config.ants,
                    )
                    record = run_acs(inst, params, config.iterations, rng)
                else:
                    hybrid_config = HybridConfig(
                        iterations=config.iterations,
                        m=config.ants,
                        bounds=config.bounds,
                        alpha=config.alpha,
                        fa_alpha0=config.fa_alpha0,
                    )
                    record, trace = run_acsfa(inst, hybrid_config, rng)
                    traces[(algo, inst.name, seed)] = trace
                record = replace(record, seed=seed)
                cell_records.append(record)
            records.extend(cell_records)
            lengths = [r.best_tour.length for r in cell_records]
            times = [r.wall_time_s for r in cell_records]
            summaries.append(
                ExperimentSummary(
                    algorithm=algo,
                    instance=inst.name,
                    best=min(lengths),
                    average=sum(lengths) / len(lengths),
                    worst=max(lengths),
                    t_avg_s=sum(times) / len(times),
                )
            )
    return ExperimentResult(config, summaries, records, traces, failures)


def format_summary(summaries: list[ExperimentSummary]) -> str:
    """Summary table: exact integer lengths, fixed two-decimal average and time."""
    lines = [",".join(["algorithm", "instance", "best", "average", "worst", "t_avg_s"])]
    for s in summaries:
        lines.append(
            ",".join(
                [s.algorithm, s.instance, str(s.best), f"{s.average:.2f}", str(s.worst), f"{s.t_avg_s:.2f}"]
            )
        )
    return "\n".join(lines) + "\n"


def format_record(record: RunRecord) -> str:
    """One run as replayable text: header key-values plus the best-length trace."""
    lines = [
        f"# algorithm: {record.algorithm}",
        f"# instance: {record.instance}",
        f"# seed: {record.seed}",
        f"# best_length: {record.best_tour.length}",
        f"# wall_time_s: {record.wall_time_s:.6f}",
        "# best_tour: " + " ".join(str(c) for c in record.best_tour.order),
    ]
    if record.best_params is not None:
        lines.append(
            "# best_params: "
            + " ".join(f"{name}={value!r}" for name, value in zip(PARAM_NAMES, record.best_params))
        )
    lines.append("iteration,best_length")
    lines.extend(f"{i},{length}" for i, length in enumerate(record.best_lengths))
    return "\n".join(lines) + "\n"


def format_trace(trace: ParameterTrace) -> str:
    """Per-iteration parameter means, then labeled min/max diagnostics."""
    header = (
        ["iteration"]
        + [f"{n}_mean" for n in trace.names]
        + [f"{n}_min" for n in trace.names]
        + [f"{n}_max" for n in trace.names]
    )
    lines = [",".join(header)]
    for i in range(len(trace)):
        cells = [str(i)]
        cells += [f"{v:.10g}" for v in trace.means[i]]
        cells += [f"{v:.10g}" for v in trace.mins[i]]
        cells += [f"{v:.10g}" for v in trace.maxs[i]]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def best_length_matrix(result: ExperimentResult) -> ResponseMatrix:
    """Stats-ready matrix of best lengths: algorithms x instances."""
    algorithms = []
    instances = []
    for s in result.summaries:
        if s.algorithm not in algorithms:
            algorithms.append(s.algorithm)
        if s.instance not in instances:
            instances.append(s.instance)
    values = np.full((len(algorithms), len(instances)), np.nan)
    for s in result.summaries:
        values[algorithms.index(s.algorithm), instances.index(s.instance)] = s.best
    return ResponseMatrix(values, tuple(algorithms), tuple(instances))


def export(result: ExperimentResult, output_dir: str | Path | None = None) -> list[Path]:
    """Write summary, per-run records, parameter traces and the best matrix."""
    out = Path(output_dir if output_dir is not None else result.config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    summary_path = out / "summary.csv"
    summary_path.write_text(format_summary(result.summaries))
    written.append(summary_path)

    if len({s.algorithm for s in result.summaries}) >= 2 and len(
        {s.instance for s in result.summaries}
    ) >= 2:
        matrix_path = out / "best_matrix.csv"
        matrix_path.write_text(write_response_matrix(best_length_matrix(result)))
        written.append(matrix_path)

    runs_dir = out / "runs"
    runs_dir.mkdir(exist_ok=True)
    for record in result.records:
        path = runs_dir / f"{record.algorithm}__{record.instance}__seed{record.seed}.txt"
        path.write_text(format_record(record))
        written.append(path)

    if result.traces:
        traces_dir = out / "traces"
        traces_dir.mkdir(exist_ok=True)
        for (algo, name, seed), trace in result.traces.items():
            path = traces_dir / f"{algo}__{name}__seed{seed}_params.csv"
            path.write_text(format_trace(trace))
            written.append(path)

    if result.failures:
        failures_path = out / "failures.txt"
        failures_path.write_text(
            "".join(f"{f.path}: {f.error}\n" for f in result.failures)
        )
        written.append(failures_path)
    return written
