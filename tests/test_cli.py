import pytest

from acsfa.cli import main

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

    def test_deterministic_given_seed(self, mini_path, capsys):
        main(["solve", str(mini_path), "--algo", "acs", "--iterations", "6", "--seed", "11"])
        first = capsys.readouterr().out
        main(["solve", str(mini_path), "--algo", "acs", "--iterations", "6", "--seed", "11"])
        second = capsys.readouterr().out
        assert strip_times(first) == strip_times(second)

    def test_missing_file(self, capsys):
        assert main(["solve", "nope.tsp"]) == 2
        assert "error:" in capsys.readouterr().err


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

    def test_error_without_optima_fails(self, tmp_path, capsys):
        matrix = tmp_path / "matrix.csv"
        matrix.write_text(MATRIX)
        assert main(["stats", str(matrix), "--response", "error"]) == 2
        assert "optima" in capsys.readouterr().err


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
        assert (tmp_path / "out" / "summary.csv").is_file()
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
            "seeds = 1, -2\noutput_dir = out\n"
        )
        assert main(["bench", str(config)]) == 2
        assert "seeds: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_all_instances_failing_is_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsp"
        bad.write_text("DIMENSION : 3\nEDGE_WEIGHT_TYPE : EUC_2D\nNODE_COORD_SECTION\n1 0 0\nEOF\n")
        config = tmp_path / "exp.cfg"
        config.write_text(f"instances = {bad.name}\nrepetitions = 1\niterations = 1\n")
        assert main(["bench", str(config)]) == 1
        assert "skipped" in capsys.readouterr().err
