"""Command line interface: solve, bench, stats, exact."""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .acs import AcsParams
from .bench import ALGORITHMS, ExperimentConfig, export, format_lengths, format_summary, format_trace
from .bench import load_config, run_experiment
from .exact import held_karp
from .hybrid import HybridConfig
from .stats import error_matrix, rcbd_anova, read_response_matrix, tukey_hsd
from .tsplib import TsplibParseError, parse_instance


def _load_instance(path: str):
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"instance file not found: {p}")
    return parse_instance(p.read_text())


def _cmd_solve(args: argparse.Namespace) -> int:
    config = ExperimentConfig(
        instances=(args.instance,), algorithms=(args.algo,), repetitions=1, base_seed=args.seed,
        iterations=args.iterations, ants=args.ants,
    )
    # the trace path is checked before the solve, whose result would otherwise be lost
    if args.trace and not Path(args.trace).parent.is_dir():
        raise FileNotFoundError(f"--trace: folder not found: {Path(args.trace).parent}")
    if args.trace and Path(args.trace).is_dir():
        raise IsADirectoryError(f"--trace: {args.trace} is a directory")
    result = run_experiment(config)
    if result.failures:
        raise ValueError(result.failures[0].error)
    (record,) = result.records
    print(
        f"algorithm={args.algo} instance={record.instance} seed={args.seed} "
        f"iterations={args.iterations} ants={args.ants} "
        f"best={record.best_tour.length} time_s={record.wall_time_s:.2f}"
    )
    print("tour: " + " ".join(str(c) for c in record.best_tour.order))
    if record.best_params is not None:
        v = record.best_params
        print(
            f"params: beta={v.beta:.4f} rho={v.rho:.4f} q0={v.q0:.4f} "
            f"gamma={v.gamma:.4f} delta={v.delta:.4f}"
        )
    if args.trace:
        trace = result.traces.get((args.algo, record.instance, args.seed))
        Path(args.trace).write_text(format_lengths(record) if trace is None else format_trace(trace))
        print(f"trace written to {args.trace}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    result = run_experiment(config)
    written = export(result)
    for failure in result.failures:
        print(f"warning: skipped {failure.path}: {failure.error}", file=sys.stderr)
    print(format_summary(result.summaries), end="")
    print(f"wrote {len(written)} files under {config.output_dir}")
    return 0 if result.summaries else 1


def _read_optima(path: str) -> dict[str, float]:
    optima: dict[str, float] = {}
    given_on: dict[str, int] = {}
    for number, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        # the value is the last field: a block label may hold spaces
        parts = stripped.replace(",", " ").rsplit(maxsplit=1)
        if len(parts) != 2:
            raise ValueError(f"optima file line {number}: expected 'name value' lines, got {stripped!r}")
        name, value = parts
        if name in given_on:
            raise ValueError(
                f"optima file line {number}: instance {name!r} repeats line {given_on[name]}"
            )
        try:
            optima[name] = float(value)
        except ValueError:
            raise ValueError(f"optima file line {number}: optimum {value!r} is not a number") from None
        if not math.isfinite(optima[name]):
            raise ValueError(f"optima file line {number}: optimum {value!r} is not finite")
        given_on[name] = number
    return optima


def _cmd_stats(args: argparse.Namespace) -> int:
    matrix = read_response_matrix(Path(args.matrix).read_text())
    if args.response == "error":
        if not args.optima:
            raise ValueError("--response error requires --optima FILE")
        matrix = error_matrix(matrix, _read_optima(args.optima))
    # everything that can fail runs before the first line is printed
    table = rcbd_anova(matrix)
    grouping = tukey_hsd(matrix, args.confidence)
    print(f"response: {args.response}")
    print("source,df,adj_ss,adj_ms,f,p")
    print(
        f"treatment,{table.treatment.df},{table.treatment.ss:.1f},{table.treatment.ms:.1f},"
        f"{table.f_treatment:.2f},{table.p_treatment:.3f}"
    )
    print(
        f"block,{table.block.df},{table.block.ss:.1f},{table.block.ms:.1f},"
        f"{table.f_block:.2f},{table.p_block:.3f}"
    )
    print(f"error,{table.error.df},{table.error.ss:.1f},{table.error.ms:.1f},,")
    print(f"total,{table.total.df},{table.total.ss:.1f},,,")
    print(
        f"tukey at {100 * args.confidence:g}% confidence: "
        f"q={grouping.q_critical:.4f} hsd={grouping.hsd:.4f}"
    )
    print("treatment,mean,group")
    for label, mean, letters in zip(grouping.treatments, grouping.means, grouping.letters):
        print(f"{label},{mean:.2f},{letters}")
    for pair in grouping.pairs:
        flag = "significant" if pair.significant else "not significant"
        print(f"{pair.first} vs {pair.second}: diff={pair.difference:.2f} ({flag})")
    return 0


def _cmd_exact(args: argparse.Namespace) -> int:
    inst = _load_instance(args.instance)
    length = held_karp(inst)
    print(f"instance={inst.name} optimal={length}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="acsfa",
        description="Symmetric-TSP solvers (fixed-parameter and self-tuning ant colony), "
        "exact oracle, benchmark runner and statistical comparison.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run one seeded solve on a TSPLIB instance")
    p_solve.add_argument("instance", help="path to a TSPLIB file")
    p_solve.add_argument("--algo", choices=ALGORITHMS, default="acsfa")
    p_solve.add_argument("--iterations", type=int, default=HybridConfig.iterations)
    p_solve.add_argument("--ants", type=int, default=AcsParams.m)
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument("--trace", help="write the per-iteration trace to this file")
    p_solve.set_defaults(func=_cmd_solve)

    p_bench = sub.add_parser("bench", help="run a configured experiment and export results")
    p_bench.add_argument("config", help="path to a key-value config file")
    p_bench.set_defaults(func=_cmd_bench)

    p_stats = sub.add_parser("stats", help="blocked ANOVA plus Tukey grouping on a response matrix")
    p_stats.add_argument("matrix", help="comma-separated response matrix file")
    p_stats.add_argument("--confidence", type=float, default=0.90)
    p_stats.add_argument("--response", choices=("best", "error"), default="best")
    p_stats.add_argument("--optima", help="file of 'instance optimum' lines (for --response error)")
    p_stats.set_defaults(func=_cmd_stats)

    p_exact = sub.add_parser("exact", help="exact optimal length for a small instance")
    p_exact.add_argument("instance", help="path to a TSPLIB file")
    p_exact.set_defaults(func=_cmd_exact)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TsplibParseError, ValueError, FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
