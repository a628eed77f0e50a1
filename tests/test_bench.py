import os
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from acsfa.acs import AcsParams
from acsfa.bench import (
    KNOWN_OPTIMA,
    ExperimentConfig,
    ExperimentSummary,
    best_length_matrix,
    export,
    format_record,
    format_summary,
    load_config,
    parse_config,
    run_experiment,
)
from acsfa.firefly import PARAM_NAMES, ParamBounds
from acsfa.hybrid import HybridConfig
from acsfa.stats import read_response_matrix
from acsfa.tsplib import format_instance
from conftest import random_euclidean

MINI_INSTANCE = """\
NAME : mini5
TYPE : TSP
DIMENSION : 5
EDGE_WEIGHT_TYPE : EUC_2D
NODE_COORD_SECTION
1 0 0
2 0 10
3 10 10
4 10 0
5 5 5
EOF
"""

# every tour has length 2**60 + 1, which no float holds: its average rounds to 2**60
BIG_INSTANCE = f"""\
NAME : big3
TYPE : TSP
DIMENSION : 3
EDGE_WEIGHT_TYPE : EXPLICIT
EDGE_WEIGHT_FORMAT : UPPER_ROW
EDGE_WEIGHT_SECTION
{2**59} {2**58}
{2**60 + 1 - 2**59 - 2**58}
EOF
"""


@pytest.fixture()
def mini_path(tmp_path):
    path = tmp_path / "mini5.tsp"
    path.write_text(MINI_INSTANCE)
    return path


@pytest.fixture()
def mini_config(mini_path, tmp_path):
    return ExperimentConfig(
        instances=(str(mini_path),),
        algorithms=("acs", "acsfa"),
        repetitions=3,
        iterations=5,
        ants=4,
        base_seed=7,
        output_dir=str(tmp_path / "out"),
    )


class TestConfigParsing:
    def test_defaults_from_minimal_config(self, mini_path):
        config = parse_config(f"instances = {mini_path}\n", base_dir=mini_path.parent)
        assert config.repetitions == 10
        assert config.iterations == 1000
        assert config.ants == 10
        assert config.bounds == ParamBounds()
        assert config.bounds.beta == (0.0, 8.0)
        assert config.bounds.rho == (0.5, 1.0)
        assert config.bounds.q0 == (0.5, 1.0)
        assert config.bounds.gamma == (0.0, 10.0)
        assert config.bounds.delta == (0.8, 1.0)
        assert config.acs == AcsParams()
        assert config.hybrid == HybridConfig()

    def test_solver_settings_follow_the_fields(self, mini_path):
        config = ExperimentConfig(instances=(str(mini_path),), iterations=7, ants=3)
        assert config.acs == AcsParams(m=3)
        assert config.hybrid == HybridConfig(iterations=7, m=3)
        # replace() runs __post_init__ again, so the derived settings follow
        changed = replace(config, ants=5)
        assert changed.acs.m == changed.hybrid.m == 5
        with pytest.raises(TypeError):
            ExperimentConfig(instances=(str(mini_path),), acs=AcsParams())

    def test_full_config(self, mini_path):
        text = f"""
# comment line
instances = {mini_path.name}
algorithms = acs
repetitions = 4
iterations = 25
ants = 6
base_seed = 3
output_dir = results
"""
        config = parse_config(text, base_dir=mini_path.parent)
        assert config.repetitions == 4
        assert config.iterations == 25
        assert config.ants == 6
        assert config.base_seed == 3
        assert config.output_dir == str(mini_path.parent / "results")
        assert config.algorithms == ("acs",)

    def test_zero_repetitions_rejected(self, mini_path):
        with pytest.raises(ValueError, match="repetitions"):
            parse_config(f"instances = {mini_path}\nrepetitions = 0\n")

    @pytest.mark.parametrize(
        "line",
        [
            "beta_range = 0 8",
            "q0_range = 0.5 1",
            "delta_range = 0.8 1.5",
            "rho_range = -0.5 0.2",
            "beta_range = -3 -1",
            "gamma_range = 4 2",
            "beta_range = a b",
            "gamma_range = 0 1e308",
            "beta_range = 0 1e308",
        ],
    )
    def test_range_error_names_the_key(self, mini_path, line):
        # the firefly box is fixed: a range key is unknown whatever its value
        key = line.split()[0]
        with pytest.raises(ValueError, match=f"^unknown config key '{key}'$"):
            parse_config(f"instances = {mini_path}\n{line}\n")

    def test_box_is_not_a_setting(self, mini_path):
        with pytest.raises(TypeError):
            ExperimentConfig(instances=(str(mini_path),), bounds=ParamBounds())
        config = ExperimentConfig(instances=(str(mini_path),), ants=3)
        assert HybridConfig.bounds == config.bounds == ParamBounds()
        assert config.hybrid.bounds is HybridConfig.bounds

    @pytest.mark.parametrize("key", ["seeds", "acs_beta", "acs_rho", "acs_q0", "alpha"])
    def test_retired_key_is_unknown(self, mini_path, key):
        # seeds duplicated base_seed, and the ACS parameters are not settings:
        # each key fails up front, whatever its value, and no config has a field for it
        with pytest.raises(ValueError, match=f"^unknown config key '{key}'$"):
            parse_config(f"instances = {mini_path}\n{key} = 1\n")
        with pytest.raises(TypeError):
            ExperimentConfig(instances=(str(mini_path),), **{key: 1})
        with pytest.raises(TypeError):
            HybridConfig(**{key: 1})

    def test_empty_output_dir_rejected(self, mini_path):
        # a key with no value is a mistake, not a request for the config's own folder
        with pytest.raises(ValueError, match="^output_dir: must name a directory, got an empty value$"):
            parse_config(f"instances = {mini_path}\noutput_dir =\n", base_dir=mini_path.parent)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("iterations", -1),
            ("iterations", 0),  # a run of no iteration builds no tour
            ("ants", 0),
            ("iterations", 2.5),
            ("ants", 2.5),
            ("repetitions", 2.5),
            ("base_seed", 1.5),
            # bool is an Integral, and repetitions=True would be kept as True
            ("repetitions", True),
            ("base_seed", True),
        ],
    )
    def test_out_of_range_setting_names_the_key(self, mini_path, key, value):
        with pytest.raises(ValueError, match=f"^{key}: "):
            parse_config(f"instances = {mini_path}\n{key} = {value}\n")
        with pytest.raises(ValueError, match=f"^{key}: "):
            ExperimentConfig(instances=(str(mini_path),), **{key: value})

    @pytest.mark.parametrize(
        "line, algorithms, message",
        [
            ("acs, acsfa, ACS", ("acs", "acsfa", "ACS"), "algorithm 'acs' is repeated"),
            (",", (), "at least one algorithm is required"),
        ],
        ids=["repeated", "empty"],
    )
    def test_bad_algorithm_list_rejected(self, mini_path, line, algorithms, message):
        # a repeated algorithm reruns its cells and overwrites their run files;
        # an empty list runs nothing
        with pytest.raises(ValueError, match=f"^algorithms: {message}"):
            parse_config(f"instances = {mini_path}\nalgorithms = {line}\n")
        with pytest.raises(ValueError, match=f"^algorithms: {message}"):
            ExperimentConfig(instances=(str(mini_path),), algorithms=algorithms)

    def test_numpy_integers_accepted(self, mini_path, tmp_path):
        config = ExperimentConfig(
            instances=(str(mini_path),),
            algorithms=("acs", "acsfa"),
            repetitions=np.int32(2),
            iterations=np.int64(2),
            ants=np.int64(2),
            base_seed=np.uint8(255),
            output_dir=str(tmp_path / "o"),
        )
        # the second seed is 256, not the 0 that uint8 arithmetic would wrap to
        assert [config.seed_for(i) for i in range(2)] == [255, 256]
        assert [r.seed for r in run_experiment(config).records] == [255, 256, 255, 256]
        assert ExperimentConfig(instances=(str(mini_path),), base_seed=np.int64(3)).seed_for(1) == 4

    def test_unknown_key_rejected(self, mini_path):
        with pytest.raises(ValueError, match="frobnicate"):
            parse_config(f"instances = {mini_path}\nfrobnicate = 3\n")

    def test_first_kick_is_not_a_setting(self, mini_path):
        with pytest.raises(ValueError, match="^unknown config key 'fa_alpha0'$"):
            parse_config(f"instances = {mini_path}\nfa_alpha0 = 2.3\n")

    def test_missing_instance_file_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="not found"):
            parse_config("instances = nowhere.tsp\n", base_dir=tmp_path)

    def test_load_config_resolves_relative_paths(self, mini_path):
        config_path = mini_path.parent / "exp.cfg"
        config_path.write_text(f"instances = {mini_path.name}\n")
        config = load_config(config_path)
        assert config.instances == (str(mini_path),)

    def test_negative_seed_rejected(self, mini_path):
        # numpy rejects a negative seed only when its cell runs, after the
        # earlier cells have spent their compute
        with pytest.raises(ValueError, match="^base_seed: "):
            parse_config(f"instances = {mini_path}\nbase_seed = -1\n")
        with pytest.raises(ValueError, match="^base_seed: "):
            ExperimentConfig(instances=(str(mini_path),), base_seed=-1)

    @pytest.mark.parametrize("key", ["instances", "algorithms"])
    def test_string_for_a_sequence_rejected(self, mini_path, key):
        # tuple() would split the string into characters, one failed cell each
        kwargs = {"instances": (str(mini_path),), "algorithms": ("acs",)}
        kwargs[key] = kwargs[key][0]
        with pytest.raises(ValueError, match=f"^{key}: expected a sequence of strings, got the string "):
            ExperimentConfig(**kwargs)

    def test_seed_for(self, mini_path):
        config = parse_config(f"instances = {mini_path}\nbase_seed = 100\n")
        assert [config.seed_for(i) for i in range(3)] == [100, 101, 102]


class TestSummaryInvariants:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError, match="ordering"):
            ExperimentSummary("acs", "x", best=10, average=9.0, worst=12, t_avg_s=1.0)

    def test_positive_time_enforced(self):
        with pytest.raises(ValueError, match="time"):
            ExperimentSummary("acs", "x", best=10, average=11.0, worst=12, t_avg_s=0.0)


class TestRunExperiment:
    def test_aggregates_match_records(self, mini_config):
        result = run_experiment(mini_config)
        assert not result.failures
        assert len(result.records) == 2 * 3  # two algorithms x three repetitions
        for summary in result.summaries:
            cell = [
                r
                for r in result.records
                if r.algorithm == summary.algorithm and r.instance == summary.instance
            ]
            lengths = [r.best_tour.length for r in cell]
            assert summary.best == min(lengths)
            assert summary.worst == max(lengths)
            assert summary.average == pytest.approx(sum(lengths) / len(lengths))

    def test_lengths_above_2_53_aggregate(self, tmp_path):
        path = tmp_path / "big3.tsp"
        path.write_text(BIG_INSTANCE)
        config = ExperimentConfig(
            instances=(str(path),), repetitions=2, iterations=2, ants=2, output_dir=str(tmp_path / "o")
        )
        result = run_experiment(config)
        assert [(s.best, s.average, s.worst) for s in result.summaries] == [(2**60 + 1,) * 3] * 2
        rows = [line.split(",") for line in format_summary(result.summaries).splitlines()[1:]]
        length = str(2**60 + 1)
        assert [row[2:5] for row in rows] == [[length, length + ".00", length]] * 2

    def test_single_repetition_collapses(self, mini_path, tmp_path):
        config = ExperimentConfig(
            instances=(str(mini_path),),
            algorithms=("acs",),
            repetitions=1,
            iterations=3,
            ants=2,
            output_dir=str(tmp_path / "o"),
        )
        (summary,) = run_experiment(config).summaries
        assert summary.best == summary.average == summary.worst

    def test_seeds_recorded_and_paired(self, mini_config):
        result = run_experiment(mini_config)
        for algo in ("acs", "acsfa"):
            seeds = [r.seed for r in result.records if r.algorithm == algo]
            assert seeds == [7, 8, 9]

    def test_rerun_identical_outputs(self, mini_config):
        a = run_experiment(mini_config)
        b = run_experiment(mini_config)
        assert format_summary_without_time(a) == format_summary_without_time(b)
        for ra, rb in zip(a.records, b.records):
            assert ra.best_tour == rb.best_tour
            assert ra.best_lengths == rb.best_lengths

    def test_traces_only_for_hybrid(self, mini_config):
        result = run_experiment(mini_config)
        assert set(k[0] for k in result.traces) == {"acsfa"}
        assert len(result.traces) == 3
        for trace in result.traces.values():
            assert len(trace) == mini_config.iterations

    def test_bad_instance_aborts_that_instance_only(self, mini_path, tmp_path):
        bad = tmp_path / "broken.tsp"
        bad.write_text("DIMENSION : 4\nEDGE_WEIGHT_TYPE : EUC_2D\nNODE_COORD_SECTION\n1 0 0\nEOF\n")
        config = ExperimentConfig(
            instances=(str(bad), str(mini_path)),
            algorithms=("acs",),
            repetitions=2,
            iterations=2,
            ants=2,
            output_dir=str(tmp_path / "o"),
        )
        result = run_experiment(config)
        assert len(result.failures) == 1
        assert result.failures[0].path == str(bad)
        assert {s.instance for s in result.summaries} == {"mini5"}

    def test_negative_dimension_skips_that_instance_only(self, mini_path, tmp_path):
        bad = tmp_path / "negative.tsp"
        bad.write_text(
            "DIMENSION : -2\nEDGE_WEIGHT_TYPE : EXPLICIT\nEDGE_WEIGHT_FORMAT : FULL_MATRIX\n"
            "EDGE_WEIGHT_SECTION\n0 1\n1 0\nEOF\n"
        )
        config = ExperimentConfig(
            instances=(str(mini_path), str(bad)),
            repetitions=2,
            iterations=2,
            ants=2,
            output_dir=str(tmp_path / "o"),
        )
        result = run_experiment(config)
        assert [f.path for f in result.failures] == [str(bad)]
        assert "dimension must be at least 3, got -2" in result.failures[0].error
        assert [(s.algorithm, s.instance) for s in result.summaries] == [("acs", "mini5"), ("acsfa", "mini5")]
        export(result)
        assert (tmp_path / "o" / "failures.txt").read_text().startswith(f"{bad}: ")

    def test_instance_not_utf8_skips_that_instance_only(self, mini_path, tmp_path):
        bad = tmp_path / "latin1.tsp"
        bad.write_bytes(mini_path.read_text().replace("NAME : mini5", "NAME : caf\u00e9").encode("latin-1"))
        config = ExperimentConfig(
            instances=(str(mini_path), str(bad)),
            repetitions=2,
            iterations=2,
            ants=2,
            output_dir=str(tmp_path / "o"),
        )
        result = run_experiment(config)
        assert [f.path for f in result.failures] == [str(bad)]
        assert "can't decode byte 0xe9" in result.failures[0].error
        assert [(s.algorithm, s.instance) for s in result.summaries] == [("acs", "mini5"), ("acsfa", "mini5")]
        export(result)
        assert (tmp_path / "o" / "failures.txt").read_text().startswith(f"{bad}: ")

    def test_repeated_instance_name_is_skipped(self, mini_path, tmp_path):
        # runs, traces and the best matrix are keyed by instance name, so a
        # second file with the same NAME would overwrite the first's results
        first, second = tmp_path / "a.tsp", tmp_path / "b.tsp"
        first.write_text(format_instance(random_euclidean(12, np.random.default_rng(1))))
        second.write_text(format_instance(random_euclidean(12, np.random.default_rng(2))))
        config = ExperimentConfig(
            instances=(str(first), str(mini_path), str(second)),
            repetitions=2,
            iterations=2,
            ants=2,
            output_dir=str(tmp_path / "o"),
        )
        result = run_experiment(config)
        assert len(result.failures) == 1
        assert result.failures[0].path == str(second)
        assert str(first) in result.failures[0].error
        assert len(result.records) == 8
        assert len(result.traces) == 4
        assert best_length_matrix(result).blocks == ("random12", "mini5")
        export(result)
        assert len(list((tmp_path / "o" / "runs").iterdir())) == len(result.records)

    @pytest.mark.parametrize(
        "name, error",
        [
            ("sub/random12", "instance name 'sub/random12' holds a '/', ',' or NUL"),
            ("random,12", "instance name 'random,12' holds a '/', ',' or NUL"),
            ("random\x0012", "instance name 'random\\x0012' holds a '/', ',' or NUL"),
            ("", "instance name '' is empty"),
        ],
        ids=["slash", "comma", "nul", "empty"],
    )
    def test_instance_name_no_export_can_carry_is_skipped(self, mini_path, tmp_path, name, error):
        # a '/' would put a run file in a missing folder, a ',' would add a
        # column to the summary and best matrix rows, a NUL is in no file
        # name, and an empty name gives run files that a later export's sweep
        # does not match
        first, bad = tmp_path / "a.tsp", tmp_path / "b.tsp"
        first.write_text(format_instance(random_euclidean(12, np.random.default_rng(1))))
        bad.write_text(first.read_text().replace("NAME : random12", f"NAME : {name}"))
        config = ExperimentConfig(
            instances=(str(first), str(bad), str(mini_path)),
            repetitions=2,
            iterations=2,
            ants=2,
            output_dir=str(tmp_path / "o"),
        )
        result = run_experiment(config)
        assert [(f.path, f.error) for f in result.failures] == [(str(bad), error)]
        assert len(result.records) == 8
        export(result)
        matrix = read_response_matrix((tmp_path / "o" / "best_matrix.csv").read_text())
        assert matrix.blocks == ("random12", "mini5")
        assert (tmp_path / "o" / "failures.txt").read_text().startswith(f"{bad}: ")


def format_summary_without_time(result):
    return [
        (s.algorithm, s.instance, s.best, s.average, s.worst) for s in result.summaries
    ]


class TestExport:
    def test_files_written(self, mini_config, tmp_path):
        result = run_experiment(mini_config)
        written = export(result)
        names = {p.name for p in written}
        assert "summary.csv" in names
        assert any(n.startswith("acs__mini5__seed7") for n in names)
        assert any(n.startswith("acsfa__mini5__seed7") for n in names)

    def test_summary_format(self, mini_config):
        result = run_experiment(mini_config)
        text = format_summary(result.summaries)
        lines = text.strip().splitlines()
        assert lines[0] == "algorithm,instance,best,average,worst,t_avg_s"
        for line in lines[1:]:
            algo, inst, best, average, worst, t = line.split(",")
            assert algo in ("acs", "acsfa")
            assert inst == "mini5"
            assert int(best) <= float(average) <= int(worst)
            assert float(t) >= 0
            assert len(average.split(".")[1]) == 2
            assert len(t.split(".")[1]) == 2

    def test_trace_file_shape(self, mini_config):
        result = run_experiment(mini_config)
        paths = export(result)
        trace_files = [p for p in paths if p.name.endswith("_params.csv")]
        assert len(trace_files) == 3
        for path in trace_files:
            lines = path.read_text().strip().splitlines()
            header = lines[0].split(",")
            assert header[0] == "iteration"
            assert "beta_mean" in header and "delta_max" in header
            assert len(lines) - 1 == mini_config.iterations
            bounds = ParamBounds()
            for line in lines[1:]:
                cells = line.split(",")
                means = np.array([float(c) for c in cells[1:6]])
                assert (means >= bounds.lows).all() and (means <= bounds.highs).all()

    @pytest.mark.parametrize(
        "average",
        [0.0, 0.125, 0.375, 2.675, 1.005, 4 / 3, 6859.5, 6859.995, 2.0**51 + 0.5, 2.0**60, 1e20],
    )
    def test_exact_average_prints_as_its_float(self, average):
        # wherever a double holds the mean, the text is that of f"{average:.2f}"
        summary = ExperimentSummary("acs", "x", best=0, average=average, worst=10**21, t_avg_s=1.0)
        assert format_summary([summary]).splitlines()[1].split(",")[3] == f"{average:.2f}"

    def test_exact_average_between_doubles(self):
        # (3 * 2**60 + 2) / 3 lies between two doubles and rounds to neither
        lengths = [2**60, 2**60 + 1, 2**60 + 1]
        summary = ExperimentSummary(
            "acs", "x", best=2**60, average=Fraction(sum(lengths), 3), worst=2**60 + 1, t_avg_s=1.0
        )
        assert format_summary([summary]).splitlines()[1].split(",")[3] == "1152921504606846976.67"

    def test_record_replayable_header(self, mini_config):
        result = run_experiment(mini_config)
        text = format_record(result.records[0])
        assert "# algorithm: acs" in text
        assert "# seed: 7" in text
        assert "# best_tour:" in text
        assert "iteration,best_length" in text

    def test_best_params_header_reads_back_exactly(self, mini_config):
        result = run_experiment(mini_config)
        record = next(r for r in result.records if r.algorithm == "acsfa")
        (line,) = [ln for ln in format_record(record).splitlines() if ln.startswith("# best_params: ")]
        pairs = [item.split("=") for item in line.removeprefix("# best_params: ").split()]
        assert [name for name, _ in pairs] == list(PARAM_NAMES)
        assert tuple(float(value) for _, value in pairs) == record.best_params

    def test_best_matrix_needs_two_instances(self, mini_config, eil51, tmp_path):
        # single instance: no stats-ready matrix is written
        result = run_experiment(mini_config)
        names = {p.name for p in export(result)}
        assert "best_matrix.csv" not in names

    def test_best_matrix_written_for_full_grid(self, mini_path, tmp_path, square40):
        other = tmp_path / "square40.tsp"
        other.write_text(format_instance(square40))
        config = ExperimentConfig(
            instances=(str(mini_path), str(other)),
            algorithms=("acs", "acsfa"),
            repetitions=1,
            iterations=2,
            ants=2,
            output_dir=str(tmp_path / "o"),
        )
        result = run_experiment(config)
        matrix = best_length_matrix(result)
        assert matrix.treatments == ("acs", "acsfa")
        assert matrix.blocks == ("mini5", "square40")
        names = {p.name for p in export(result)}
        assert "best_matrix.csv" in names

    def test_second_export_leaves_no_optional_file_it_did_not_write(self, mini_path, mini_config, tmp_path):
        first, second = tmp_path / "a.tsp", tmp_path / "b.tsp"
        first.write_text(format_instance(random_euclidean(12, np.random.default_rng(1))))
        second.write_text(format_instance(random_euclidean(12, np.random.default_rng(2))))
        out = tmp_path / "shared"
        config = ExperimentConfig(
            instances=(str(first), str(mini_path), str(second)), repetitions=1, iterations=2, ants=2
        )
        earlier = {p.name for p in export(run_experiment(config), out)}
        assert {"best_matrix.csv", "failures.txt"} <= earlier
        later = export(run_experiment(mini_config), out)
        assert not {"best_matrix.csv", "failures.txt"} & {p.name for p in later}
        on_disk = {p.name for p in out.rglob("*") if p.is_file()}
        # the runs and traces of the first export go too
        assert on_disk == {p.name for p in later}

    def test_second_export_leaves_only_its_own_runs_and_traces(self, mini_path, tmp_path):
        out = tmp_path / "shared"
        config = ExperimentConfig(instances=(str(mini_path),), repetitions=2, iterations=2, ants=2, base_seed=0)
        export(run_experiment(config), out)
        later = export(run_experiment(replace(config, base_seed=5)), out)
        assert sorted(p.name for p in (out / "runs").iterdir()) == [
            f"{algo}__mini5__seed{seed}.txt" for algo in ("acs", "acsfa") for seed in (5, 6)
        ]
        assert sorted(p.name for p in (out / "traces").iterdir()) == [
            "acsfa__mini5__seed5_params.csv",
            "acsfa__mini5__seed6_params.csv",
        ]
        assert {p for p in out.rglob("*") if p.is_file()} == set(later)

    @pytest.mark.parametrize("taken", ["runs", "traces"])
    def test_a_file_in_place_of_a_folder_fails_before_any_write(self, mini_config, tmp_path, taken):
        result = run_experiment(mini_config)
        out = Path(mini_config.output_dir)
        out.mkdir()
        (out / taken).write_text("keep me\n")
        with pytest.raises(FileExistsError):
            export(result)
        # runs/ may be made before traces fails, but no file is written
        assert [p.name for p in out.rglob("*") if p.is_file()] == [taken]
        assert (out / taken).read_text() == "keep me\n"

    def test_a_traces_file_is_no_obstacle_without_the_hybrid(self, mini_path, tmp_path):
        # acs writes no trace, so parse_config and export leave a file named traces be
        out = tmp_path / "out"
        out.mkdir()
        (out / "traces").write_text("keep me\n")
        config = parse_config(
            f"instances = {mini_path.name}\nalgorithms = acs\nrepetitions = 1\niterations = 1\noutput_dir = out\n",
            base_dir=tmp_path,
        )
        export(run_experiment(config))
        assert (out / "traces").read_text() == "keep me\n"
        assert (out / "summary.csv").is_file()

    @pytest.mark.parametrize(
        "output_dir", ["", ".", Path(""), "runs/..", "out"], ids=["empty", "dot", "empty-path", "runs-up", "folder"]
    )
    def test_files_an_export_cannot_name_survive(self, mini_config, tmp_path, monkeypatch, output_dir):
        # the first four name the working directory
        result = run_experiment(mini_config)
        monkeypatch.chdir(tmp_path)
        notes = [Path(output_dir, folder, "notes.txt") for folder in ("runs", "traces")]
        for path in notes:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("kept")
        written = export(result, output_dir)
        assert len(written) == 1 + 2 * 3 + 3  # summary, runs, traces
        on_disk = {p.relative_to(tmp_path) for p in tmp_path.rglob("*") if p.is_file()}
        assert on_disk == {Path("mini5.tsp")} | {Path(os.path.normpath(p)) for p in [*notes, *written]}
        assert [path.read_text() for path in notes] == ["kept", "kept"]


def test_known_optima_metadata():
    assert KNOWN_OPTIMA["ulysses16"] == 6859
    assert KNOWN_OPTIMA["eil51"] == 426
    assert len(KNOWN_OPTIMA) == 2


def test_readme_config_shows_the_defaults():
    # the README's block sets every config key; all but instances and
    # output_dir show their defaults, so leaving those out gives the same config
    root = Path(__file__).resolve().parents[1]
    block = (root / "README.md").read_text().split("```ini\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.split("#", 1)[0].strip()]
    assert [line.split("=", 1)[0].strip() for line in lines] == [
        "instances", "algorithms", "repetitions", "iterations", "ants", "base_seed", "output_dir"
    ]
    required = "\n".join(line for line in lines if line.startswith(("instances", "output_dir")))
    assert parse_config(block, base_dir=root) == parse_config(required, base_dir=root)
