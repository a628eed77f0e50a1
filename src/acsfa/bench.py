"""Experiment orchestration: seeded repeated runs, aggregation, export.

A config names instances and algorithms; every (algorithm, instance,
repetition) triple gets its own seed (base seed + run index), so whole
experiments replay bit-identically. Timing is measured inside the solvers,
never around file I/O.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from .acs import AcsParams, RunRecord, run_acs
from .firefly import PARAM_NAMES
from .hybrid import HybridConfig, ParameterTrace, run_acsfa
from .stats import ResponseMatrix, write_response_matrix
from .tsplib import TsplibParseError, check_integer, parse_instance

ALGORITHMS = ("acs", "acsfa")

# Optimal tour lengths of the TSPLIB instances shipped under tests/data.
KNOWN_OPTIMA = {
    "ulysses16": 6859,
    "eil51": 426,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description.

    Each solver setting takes its default and range check from its owner,
    :class:`AcsParams` or :class:`HybridConfig`; ``acs`` and ``hybrid`` hold
    the validated settings that the two solvers run with. The firefly box
    ``bounds`` is the hybrid's class constant, not a setting.
    """

    bounds = HybridConfig.bounds
    instances: tuple[str, ...]
    algorithms: tuple[str, ...] = ALGORITHMS
    repetitions: int = 10
    iterations: int = HybridConfig.iterations
    ants: int = AcsParams.m
    base_seed: int = 0
    output_dir: str = "acsfa-out"
    acs: AcsParams = field(init=False)
    hybrid: HybridConfig = field(init=False)

    def __post_init__(self) -> None:
        for key in ("instances", "algorithms"):
            value = getattr(self, key)
            if isinstance(value, str):  # tuple() would split it into characters
                raise ValueError(f"{key}: expected a sequence of strings, got the string {value!r}")
        if not self.instances:
            raise ValueError("instances: at least one instance file is required")
        object.__setattr__(self, "instances", tuple(self.instances))
        object.__setattr__(self, "algorithms", tuple(a.lower() for a in self.algorithms))
        if not self.algorithms:
            raise ValueError("algorithms: at least one algorithm is required")
        for k, algo in enumerate(self.algorithms):
            if algo not in ALGORITHMS:
                raise ValueError(f"algorithms: unknown algorithm {algo!r} (expected acs/acsfa)")
            if algo in self.algorithms[:k]:
                raise ValueError(f"algorithms: algorithm {algo!r} is repeated")
        for key, low in (("repetitions", 1), ("base_seed", 0)):
            # an int, so base_seed + k cannot wrap
            object.__setattr__(self, key, check_integer(f"{key}:", getattr(self, key), low))
        # ants first: the hybrid checks m again, and its message must not carry the iterations key
        try:
            object.__setattr__(self, "acs", AcsParams(m=self.ants))
        except ValueError as exc:
            raise ValueError(f"ants: {exc}") from None
        try:
            object.__setattr__(self, "hybrid", HybridConfig(iterations=self.iterations, m=self.ants))
        except ValueError as exc:
            raise ValueError(f"iterations: {exc}") from None

    def seed_for(self, repetition: int) -> int:
        return self.base_seed + repetition


@dataclass(frozen=True)
class ExperimentSummary:
    """Aggregates for one (algorithm, instance) cell; the average is exact."""

    algorithm: str
    instance: str
    best: int
    average: Fraction
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


_INT_KEYS = ("repetitions", "iterations", "ants", "base_seed")


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
    for key, value in raw.items():
        if key == "instances":
            paths = [p.strip() for p in value.split(",") if p.strip()]
            kwargs["instances"] = tuple(str((base_dir / p)) for p in paths)
        elif key == "algorithms":
            kwargs["algorithms"] = tuple(a.strip() for a in value.split(",") if a.strip())
        elif key == "output_dir":
            if not value:
                raise ValueError("output_dir: must name a directory, got an empty value")
            kwargs["output_dir"] = str(base_dir / value)
        elif key in _INT_KEYS:
            try:
                kwargs[key] = int(value)
            except ValueError:
                raise ValueError(f"{key}: expected an integer, got {value!r}") from None
        else:
            raise ValueError(f"unknown config key {key!r}")

    if "instances" not in kwargs:
        raise ValueError("instances: required key is missing")
    if "output_dir" not in kwargs:
        kwargs["output_dir"] = str(base_dir / ExperimentConfig.output_dir)
    config = ExperimentConfig(**kwargs)
    missing = [p for p in config.instances if not Path(p).is_file()]
    if missing:
        raise ValueError(f"instances: file(s) not found: {', '.join(missing)}")
    out = Path(config.output_dir)
    existing = next(p for p in (out, *out.parents) if p.exists())  # export makes the rest
    subdirs = [out / "runs"] + ([out / "traces"] if "acsfa" in config.algorithms else [])
    for path in (existing, *subdirs):
        if path.exists() and not path.is_dir():
            raise ValueError(f"output_dir: {path} exists and is not a directory")
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
    instance's or holds a ``/`` or ``,`` (exported file names and rows are
    keyed by name), is reported and skipped; the rest of the experiment runs.
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
        if "/" in inst.name or "," in inst.name:  # a folder in a file name, a column in a row
            failures.append(InstanceFailure(path=path, error=f"instance name {inst.name!r} holds a '/' or ','"))
            continue
        paths_by_name[inst.name] = path
        for algo in config.algorithms:
            cell_records = []
            for rep in range(config.repetitions):
                seed = config.seed_for(rep)
                rng = np.random.default_rng(seed)
                if algo == "acs":
                    record = run_acs(inst, config.acs, config.iterations, rng)
                else:
                    record, trace = run_acsfa(inst, config.hybrid, rng)
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
                    average=Fraction(sum(lengths), len(lengths)),
                    worst=max(lengths),
                    t_avg_s=sum(times) / len(times),
                )
            )
    return ExperimentResult(config, summaries, records, traces, failures)


def _two_decimals(value: Fraction) -> str:
    """A value >= 0 to two decimals, rounded half to even as ``f"{x:.2f}"`` rounds a float."""
    cents = round(Fraction(value) * 100)
    return f"{cents // 100}.{cents % 100:02d}"


def format_summary(summaries: list[ExperimentSummary]) -> str:
    """Summary table: exact integer lengths, the exact average to two decimals, and time."""
    lines = [",".join(["algorithm", "instance", "best", "average", "worst", "t_avg_s"])]
    for s in summaries:
        lines.append(
            ",".join(
                [s.algorithm, s.instance, str(s.best), _two_decimals(s.average), str(s.worst), f"{s.t_avg_s:.2f}"]
            )
        )
    return "\n".join(lines) + "\n"


def format_record(record: RunRecord) -> str:
    """One run as replayable text: header key-values plus :func:`format_lengths`."""
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
    return "\n".join(lines) + "\n" + format_lengths(record)


def format_lengths(record: RunRecord) -> str:
    """The global-best length after every iteration."""
    return "iteration,best_length\n" + "".join(f"{i},{length}\n" for i, length in enumerate(record.best_lengths))


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
    """Write summary, per-run records, parameter traces and the best matrix.

    ``output_dir`` defaults to the config's. A file of a name that an export
    writes, but that this one did not write, is removed; no other file is.
    """
    out = Path(result.config.output_dir if output_dir is None else output_dir)
    runs_dir = out / "runs"
    traces_dir = out / "traces"
    # the folders are made before any file is written, so a file in the
    # place of one fails the export with nothing written
    runs_dir.mkdir(parents=True, exist_ok=True)
    if result.traces:
        traces_dir.mkdir(exist_ok=True)
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

    # every per-run name written below, and the only ones the sweep removes
    stem = f"({'|'.join(ALGORITHMS)})__.+__seed[0-9]+"
    for record in result.records:
        path = runs_dir / f"{record.algorithm}__{record.instance}__seed{record.seed}.txt"
        path.write_text(format_record(record))
        written.append(path)

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

    # an earlier export's files, unless rewritten above; glob finds nothing in a missing traces/
    kept = set(written)
    stale = [out / "best_matrix.csv", out / "failures.txt"]
    stale += [p for p in runs_dir.glob("*") if re.fullmatch(rf"{stem}\.txt", p.name)]
    stale += [p for p in traces_dir.glob("*") if re.fullmatch(rf"{stem}_params\.csv", p.name)]
    for path in stale:
        if path.is_file() and path not in kept:
            path.unlink()
    return written
