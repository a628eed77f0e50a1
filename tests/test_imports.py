"""The package's import surface."""

import os
import subprocess
import sys

import acsfa

from conftest import SRC


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats adds ~0.6 s and ~46 MB to the import; the package needs only
    # scipy.special and scipy.optimize
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p)
    code = "import sys, acsfa; print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.stdout.strip() == "[]"


def test_every_exported_name_resolves():
    assert [name for name in acsfa.__all__ if not hasattr(acsfa, name)] == []
    assert len(set(acsfa.__all__)) == len(acsfa.__all__)
