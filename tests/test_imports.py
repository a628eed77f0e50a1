"""The package's import surface."""

import os
import subprocess
import sys

import acsfa

from conftest import SRC


def scipy_loaded_after(code: str) -> set[str]:
    """The scipy modules a fresh interpreter holds after running code."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p)
    probe = code + "\nimport sys\nprint(' '.join(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    return set(result.stdout.split())


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats adds ~0.6 s and ~46 MB to the import; the statistics
    # functions need only scipy.special, and import it when called
    assert not any(m.startswith("scipy.stats") for m in scipy_loaded_after("import acsfa"))


def test_import_loads_no_scipy():
    # the solvers and every CLI subcommand import stats through the package,
    # so a solver run or a worker process pays for numpy alone
    assert scipy_loaded_after("import acsfa, acsfa.cli") == set()


def test_tukey_loads_scipy_special_but_not_optimize():
    code = (
        "import numpy as np, acsfa\n"
        "acsfa.tukey_hsd(acsfa.ResponseMatrix("
        "np.array([[1.0, 2.0, 4.0], [3.0, 5.0, 4.0]]), ('a', 'b'), ('x', 'y', 'z')))"
    )
    loaded = scipy_loaded_after(code)
    assert "scipy.special" in loaded
    assert not any(m.startswith("scipy.optimize") for m in loaded)


def test_every_exported_name_resolves():
    assert [name for name in acsfa.__all__ if not hasattr(acsfa, name)] == []
    assert len(set(acsfa.__all__)) == len(acsfa.__all__)
