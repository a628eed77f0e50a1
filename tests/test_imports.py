"""The package's import surface."""

import os
import subprocess
import sys

import acsfa

from conftest import SRC


def loaded_after(code: str, package: str) -> set[str]:
    """The modules of a package that a fresh interpreter holds after running code."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p)
    probe = code + (
        "\nimport sys\n"
        f"print(' '.join(m for m in sys.modules if m == {package!r} or m.startswith({package + '.'!r})))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    return set(result.stdout.split())


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats adds ~0.6 s and ~46 MB to the import
    assert not any(m.startswith("scipy.stats") for m in loaded_after("import acsfa", "scipy"))


def test_import_loads_no_scipy():
    # the solvers and every CLI subcommand import stats through the package,
    # so a solver run or a worker process pays for numpy alone
    assert loaded_after("import acsfa, acsfa.cli", "scipy") == set()


def test_statistics_load_no_scipy(tmp_path):
    # the ANOVA, the Tukey grouping and the stats CLI run on numpy and math
    # alone; scipy.special would add ~0.3 s and ~24 MB to every analysis
    matrix = tmp_path / "matrix.csv"
    matrix.write_text("treatment,x,y,z\na,1,2,4\nb,3,5,4\n")
    code = (
        "import contextlib, io, numpy as np, acsfa, acsfa.cli\n"
        "m = acsfa.ResponseMatrix(np.array([[1.0, 2.0, 4.0], [3.0, 5.0, 4.0]]), ('a', 'b'), ('x', 'y', 'z'))\n"
        "assert acsfa.rcbd_anova(m).error.ms > 0.0\n"
        "acsfa.tukey_hsd(m)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert acsfa.cli.main(['stats', {str(matrix)!r}]) == 0\n"
    )
    assert loaded_after(code, "scipy") == set()


def test_quantile_loads_no_numpy_polynomial():
    # the Gauss-Legendre rule is computed in stats; numpy's leggauss
    # eigensolved a 512 x 512 companion matrix for it
    code = "import acsfa\nacsfa.studentized_range_quantile(0.9, 3, 22)"
    assert loaded_after(code, "numpy.polynomial") == set()


def test_every_exported_name_resolves():
    assert [name for name in acsfa.__all__ if not hasattr(acsfa, name)] == []
    assert len(set(acsfa.__all__)) == len(acsfa.__all__)
