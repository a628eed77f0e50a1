import numpy as np
import pytest

from acsfa.acs import AcsParams, run_acs
from acsfa.bench import format_lengths, format_trace
from acsfa.cli import main
from acsfa.hybrid import HybridConfig, run_acsfa
from acsfa.tsplib import parse_instance

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

MATRIX = """\
treatment,ulysses16,bays29,eil51
ACS,6875,2038,430
PSOACS,6909,2028,429
ACSFA,6859,2026,428
"""


@pytest.fixture()
def mini_path(tmp_path):
    path = tmp_path / "mini5.tsp"
    path.write_text(MINI_INSTANCE)
    return path


class TestSolve:
    def test_acs_run(self, mini_path, capsys):
        assert main(["solve", str(mini_path), "--algo", "acs", "--iterations", "5", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "algorithm=acs" in out
        assert "best=" in out
        assert "tour:" in out

    def test_acsfa_run_with_trace(self, mini_path, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        code = main(
            ["solve", str(mini_path), "--algo", "acsfa", "--iterations", "4", "--trace", str(trace)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "params:" in out
        lines = trace.read_text().strip().splitlines()
        assert lines[0].startswith("iteration,beta_mean")
        assert len(lines) == 5

    @pytest.mark.parametrize("algo", ["acs", "acsfa"])
    def test_prints_what_a_direct_solver_call_gives(self, tmp_path, capsys, algo):
        import conftest

        path = conftest.DATA / "ulysses16.tsp"
        trace = tmp_path / "trace.csv"
        argv = ["solve", str(path), "--algo", algo, "--iterations", "20", "--ants", "4", "--seed", "5"]
        assert main(argv + ["--trace", str(trace)]) == 0
        inst = parse_instance(path.read_text())
        rng = np.random.default_rng(5)
        if algo == "acs":
            record = run_acs(inst, AcsParams(m=4), 20, rng)
            trace_text = format_lengths(record)
        else:
            record, params = run_acsfa(inst, HybridConfig(iterations=20, m=4), rng)
            trace_text = format_trace(params)
        expected = [
            f"algorithm={algo} instance=ulysses16 seed=5 iterations=20 ants=4 best={record.best_tour.length}",
            "tour: " + " ".join(str(c) for c in record.best_tour.order),
        ]
        if record.best_params is not None:
            v = record.best_params
            expected.append(
                f"params: beta={v.beta:.4f} rho={v.rho:.4f} q0={v.q0:.4f} gamma={v.gamma:.4f} delta={v.delta:.4f}"
            )
        expected.append(f"trace written to {trace}")
        assert strip_times(capsys.readouterr().out) == expected
        assert trace.read_text() == trace_text

    def test_bad_setting_names_the_key(self, mini_path, capsys):
        assert main(["solve", str(mini_path), "--ants", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: ants: " in captured.err

    def test_negative_seed_fails_before_any_cell(self, mini_path, monkeypatch, capsys):
        cells = []
        monkeypatch.setattr("acsfa.bench.run_acsfa", lambda *args: cells.append(args))
        assert main(["solve", str(mini_path), "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: base_seed: " in captured.err
        assert cells == []

    def test_zero_iterations_fails_before_any_cell(self, mini_path, monkeypatch, capsys):
        # a run of no iteration builds no tour to print
        cells = []
        monkeypatch.setattr("acsfa.bench.run_acsfa", lambda *args: cells.append(args))
        assert main(["solve", str(mini_path), "--iterations", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: iterations: iterations must be >= 1, got 0" in captured.err
        assert cells == []

    @pytest.mark.parametrize("trace", ["missing/t.csv", "."], ids=["missing folder", "directory"])
    def test_unwritable_trace_fails_before_the_solve(self, mini_path, tmp_path, monkeypatch, capsys, trace):
        cells = []
        monkeypatch.setattr("acsfa.bench.run_acsfa", lambda *args: cells.append(args))
        assert main(["solve", str(mini_path), "--iterations", "2", "--trace", str(tmp_path / trace)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: --trace: " in captured.err
        assert cells == []
        assert not (tmp_path / "missing").exists()

    def test_deterministic_given_seed(self, mini_path, capsys):
        main(["solve", str(mini_path), "--algo", "acs", "--iterations", "6", "--seed", "11"])
        first = capsys.readouterr().out
        main(["solve", str(mini_path), "--algo", "acs", "--iterations", "6", "--seed", "11"])
        second = capsys.readouterr().out
        assert strip_times(first) == strip_times(second)

    def test_missing_file(self, capsys):
        assert main(["solve", "nope.tsp"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "nope.tsp" in err


def strip_times(text):
    return [
        " ".join(tok for tok in line.split() if not tok.startswith("time_s="))
        for line in text.splitlines()
    ]


class TestExact:
    def test_known_optimum(self, capsys):
        import conftest

        assert main(["exact", str(conftest.DATA / "ulysses16.tsp")]) == 0
        assert "optimal=6859" in capsys.readouterr().out

    def test_too_large(self, capsys):
        import conftest

        assert main(["exact", str(conftest.DATA / "eil51.tsp")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_cap_is_not_an_option(self, capsys):
        # a cap of 40 would ask held_karp for a 40 * 2**39-cell table, which
        # numpy cannot allocate
        import conftest

        with pytest.raises(SystemExit) as exit_info:
            main(["exact", str(conftest.DATA / "eil51.tsp"), "--max-cities", "40"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --max-cities 40" in err
        assert "Traceback" not in err


class TestStats:
    def test_best_response(self, tmp_path, capsys):
        matrix = tmp_path / "matrix.csv"
        matrix.write_text(MATRIX)
        assert main(["stats", str(matrix), "--confidence", "0.9"]) == 0
        out = capsys.readouterr().out
        assert "source,df,adj_ss,adj_ms,f,p" in out
        assert "tukey at 90% confidence" in out

    def test_error_response_with_optima(self, tmp_path, capsys):
        matrix = tmp_path / "matrix.csv"
        matrix.write_text(MATRIX)
        optima = tmp_path / "optima.txt"
        optima.write_text("ulysses16 6859\nbays29 2020\neil51 426\n")
        assert main(["stats", str(matrix), "--response", "error", "--optima", str(optima)]) == 0
        out = capsys.readouterr().out
        assert "response: error" in out

    def test_optima_name_may_hold_spaces(self, tmp_path, capsys):
        # the value is the last field, so a block label with a space can be named
        reports = []
        for label in ["ulysses16", "my inst"]:
            matrix = tmp_path / "matrix.csv"
            matrix.write_text(MATRIX.replace("ulysses16", label))
            optima = tmp_path / "optima.txt"
            optima.write_text(f"{label} 6859\nbays29, 2020\neil51 426\n")
            assert main(["stats", str(matrix), "--response", "error", "--optima", str(optima)]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]
        assert "response: error" in reports[1]

    def test_tied_matrix_reads_f_zero_p_one(self, tmp_path, capsys):
        matrix = tmp_path / "matrix.csv"
        matrix.write_text("treatment,w,x,y,z\n" + "".join(f"{t},19137.3,19137.3,19137.3,19137.3\n" for t in "ABC"))
        assert main(["stats", str(matrix)]) == 0
        out = capsys.readouterr().out
        assert "treatment,2,0.0,0.0,0.00,1.000\n" in out
        assert "block,3,0.0,0.0,0.00,1.000\n" in out

    @pytest.mark.parametrize("cell", ["1e160", "1e308"])
    def test_huge_cell_fails_before_any_report(self, tmp_path, capsys, cell):
        matrix = tmp_path / "matrix.csv"
        matrix.write_text(f"treatment,a,b,c,d\nacs,{cell},430,3012,0\nacsfa,6860,428,3011,3005\n")
        assert main(["stats", str(matrix)]) == 2
        captured = capsys.readouterr()
        assert "source," not in captured.out
        assert "|v| > 1e100" in captured.err

    def test_error_without_optima_fails(self, tmp_path, capsys):
        matrix = tmp_path / "matrix.csv"
        matrix.write_text(MATRIX)
        assert main(["stats", str(matrix), "--response", "error"]) == 2
        assert "optima" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "optima, message",
        [
            ("ulysses16 6859\nbays29 9\neil51 426\nbays29 2020\n", "line 4: instance 'bays29' repeats line 2"),
            ("ulysses16 6859\n# a comment\nbays29 abc\neil51 426\n", "line 3: optimum 'abc' is not a number"),
            ("ulysses16 6859\nbays29 nan\neil51 426\n", "line 2: optimum 'nan' is not finite"),
            ("ulysses16 inf\nbays29 2020\neil51 426\n", "line 1: optimum 'inf' is not finite"),
            ("ulysses16 6859\nbays29\neil51 426\n", "line 2: expected 'name value' lines, got 'bays29'"),
        ],
        ids=["repeated name", "non-numeric optimum", "nan optimum", "infinite optimum", "one field"],
    )
    def test_bad_optima_line_is_named(self, tmp_path, capsys, optima, message):
        matrix = tmp_path / "matrix.csv"
        matrix.write_text(MATRIX)
        path = tmp_path / "optima.txt"
        path.write_text(optima)
        assert main(["stats", str(matrix), "--response", "error", "--optima", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_bad_confidence_prints_no_report(self, tmp_path, capsys):
        matrix = tmp_path / "matrix.csv"
        matrix.write_text(MATRIX)
        assert main(["stats", str(matrix), "--confidence", "1.5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err and "confidence" in captured.err

    def test_quantile_out_of_reach_is_an_error_not_a_traceback(self, tmp_path, capsys):
        # a 2 x 2 matrix leaves one error degree of freedom
        matrix = tmp_path / "matrix.csv"
        matrix.write_text("treatment,x,y\nA,1,4\nB,2,7\n")
        assert main(["stats", str(matrix), "--confidence", "0.9999"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err and "studentized range" in captured.err


class TestBench:
    def test_end_to_end(self, mini_path, tmp_path, capsys):
        config = tmp_path / "exp.cfg"
        config.write_text(
            f"instances = {mini_path.name}\n"
            "algorithms = acs, acsfa\n"
            "repetitions = 2\n"
            "iterations = 3\n"
            "ants = 3\n"
            f"output_dir = out\n"
        )
        assert main(["bench", str(config)]) == 0
        out = capsys.readouterr().out
        assert "acs,mini5" in out
        assert (tmp_path / "out" / "summary.csv").read_text() in out
        runs = list((tmp_path / "out" / "runs").iterdir())
        assert len(runs) == 4

    def test_bad_config(self, tmp_path, capsys):
        config = tmp_path / "exp.cfg"
        config.write_text("repetitions = 2\n")
        assert main(["bench", str(config)]) == 2
        assert "instances" in capsys.readouterr().err

    def test_negative_seed_fails_before_any_cell(self, mini_path, tmp_path, capsys):
        config = tmp_path / "exp.cfg"
        config.write_text(
            f"instances = {mini_path.name}\nrepetitions = 2\niterations = 1\n"
            "base_seed = -1\noutput_dir = out\n"
        )
        assert main(["bench", str(config)]) == 2
        assert "base_seed: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_empty_output_dir_fails_before_any_cell(self, mini_path, tmp_path, capsys):
        # a key with no value is a mistake: it fails before any cell runs or any file is written
        notes = tmp_path / "runs" / "notes.txt"
        notes.parent.mkdir()
        notes.write_text("keep me\n")
        config = tmp_path / "exp.cfg"
        config.write_text(f"instances = {mini_path.name}\nrepetitions = 1\niterations = 1\noutput_dir =\n")
        assert main(["bench", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: output_dir: " in captured.err
        assert notes.read_text() == "keep me\n"
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["exp.cfg", "mini5.tsp", "notes.txt", "runs"]

    @pytest.mark.parametrize(
        "output_dir, taken",
        [("taken", "taken"), ("taken/out", "taken"), ("out", "out/runs"), ("out", "out/traces")],
        ids=["a file", "below a file", "runs is a file", "traces is a file"],
    )
    def test_output_dir_on_a_file_fails_before_any_cell(
        self, mini_path, tmp_path, monkeypatch, capsys, output_dir, taken
    ):
        # export would fail only after every cell had run
        (tmp_path / taken).parent.mkdir(exist_ok=True)
        (tmp_path / taken).write_text("keep me\n")
        cells = []
        monkeypatch.setattr("acsfa.bench.run_acs", lambda *args: cells.append(args))
        monkeypatch.setattr("acsfa.bench.run_acsfa", lambda *args: cells.append(args))
        config = tmp_path / "exp.cfg"
        config.write_text(f"instances = {mini_path.name}\nrepetitions = 2\niterations = 1\noutput_dir = {output_dir}\n")
        assert main(["bench", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: output_dir: {tmp_path / taken} exists and is not a directory" in captured.err
        assert cells == []
        assert (tmp_path / taken).read_text() == "keep me\n"
        assert not (tmp_path / output_dir / "summary.csv").exists()

    def test_all_instances_failing_is_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsp"
        bad.write_text("DIMENSION : 3\nEDGE_WEIGHT_TYPE : EUC_2D\nNODE_COORD_SECTION\n1 0 0\nEOF\n")
        config = tmp_path / "exp.cfg"
        config.write_text(f"instances = {bad.name}\nrepetitions = 1\niterations = 1\n")
        assert main(["bench", str(config)]) == 1
        assert "skipped" in capsys.readouterr().err
