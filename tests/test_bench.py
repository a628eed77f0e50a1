import numpy as np
import pytest

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
        assert config.alpha == 0.1

    def test_full_config(self, mini_path):
        text = f"""
# comment line
instances = {mini_path.name}
algorithms = acs
repetitions = 4
iterations = 25
ants = 6
seeds = 1, 2, 3, 4
beta_range = 0 4
acs_q0 = 0.5
output_dir = results
"""
        config = parse_config(text, base_dir=mini_path.parent)
        assert config.repetitions == 4
        assert config.seeds == (1, 2, 3, 4)
        assert config.bounds.beta == (0.0, 4.0)
        assert config.bounds.rho == (0.5, 1.0)  # untouched dimensions keep defaults
        assert config.acs_q0 == 0.5
        assert config.algorithms == ("acs",)

    def test_zero_repetitions_rejected(self, mini_path):
        with pytest.raises(ValueError, match="repetitions"):
            parse_config(f"instances = {mini_path}\nrepetitions = 0\n")

    def test_seed_count_mismatch_rejected(self, mini_path):
        with pytest.raises(ValueError, match="seeds"):
            parse_config(f"instances = {mini_path}\nrepetitions = 3\nseeds = 1 2\n")

    def test_rho_bounds_out_of_range_rejected(self, mini_path):
        with pytest.raises(ValueError, match="rho_range"):
            parse_config(f"instances = {mini_path}\nrho_range = 0.5 1.5\n")

    @pytest.mark.parametrize(
        "line",
        ["delta_range = 0.8 1.5", "rho_range = -0.5 0.2", "beta_range = -3 -1", "gamma_range = 4 2"],
    )
    def test_range_error_names_the_key(self, mini_path, line):
        key = line.split()[0]
        with pytest.raises(ValueError, match=f"^{key}: "):
            parse_config(f"instances = {mini_path}\n{line}\n")

    @pytest.mark.parametrize(
        "key, value",
        [("acs_beta", "nan"), ("acs_beta", "inf"), ("fa_alpha0", "nan"), ("fa_alpha0", "inf")],
    )
    def test_non_finite_value_rejected(self, mini_path, key, value):
        with pytest.raises(ValueError, match=f"^{key}: "):
            parse_config(f"instances = {mini_path}\n{key} = {value}\n")
        with pytest.raises(ValueError, match=f"^{key}: "):
            ExperimentConfig(instances=(str(mini_path),), **{key: float(value)})

    def test_unknown_key_rejected(self, mini_path):
        with pytest.raises(ValueError, match="frobnicate"):
            parse_config(f"instances = {mini_path}\nfrobnicate = 3\n")

    def test_missing_instance_file_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="not found"):
            parse_config("instances = nowhere.tsp\n", base_dir=tmp_path)

    def test_load_config_resolves_relative_paths(self, mini_path):
        config_path = mini_path.parent / "exp.cfg"
        config_path.write_text(f"instances = {mini_path.name}\n")
        config = load_config(config_path)
        assert config.instances == (str(mini_path),)

    @pytest.mark.parametrize(
        "key, line, kwargs",
        [
            ("base_seed", "base_seed = -1", {"base_seed": -1}),
            ("seeds", "repetitions = 2\nseeds = 1, -2", {"repetitions": 2, "seeds": (1, -2)}),
        ],
        ids=["base_seed", "seeds"],
    )
    def test_negative_seed_rejected(self, mini_path, key, line, kwargs):
        # numpy rejects a negative seed only when its cell runs, after the
        # earlier cells have spent their compute
        with pytest.raises(ValueError, match=f"^{key}: "):
            parse_config(f"instances = {mini_path}\n{line}\n")
        with pytest.raises(ValueError, match=f"^{key}: "):
            ExperimentConfig(instances=(str(mini_path),), **kwargs)

    def test_non_integer_seed_names_the_key(self, mini_path):
        with pytest.raises(ValueError, match="^seeds: "):
            parse_config(f"instances = {mini_path}\nrepetitions = 2\nseeds = 1 x\n")

    def test_seed_for(self, mini_path):
        config = parse_config(f"instances = {mini_path}\nbase_seed = 100\n")
        assert [config.seed_for(i) for i in range(3)] == [100, 101, 102]
        config = parse_config(f"instances = {mini_path}\nrepetitions = 2\nseeds = 9 4\n")
        assert [config.seed_for(i) for i in range(2)] == [9, 4]


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


def test_known_optima_metadata():
    assert KNOWN_OPTIMA["ulysses16"] == 6859
    assert KNOWN_OPTIMA["eil51"] == 426
    assert len(KNOWN_OPTIMA) == 12
