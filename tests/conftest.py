import pathlib
import sys

import numpy as np
import pytest
from hypothesis import settings

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from acsfa.tsplib import TspInstance, parse_instance  # noqa: E402

DATA = pathlib.Path(__file__).parent / "data"

# a longer search for the property tests, chosen with --hypothesis-profile contract
settings.register_profile("contract", max_examples=5000)


@pytest.fixture(scope="session")
def ulysses16() -> TspInstance:
    return parse_instance((DATA / "ulysses16.tsp").read_text())


@pytest.fixture(scope="session")
def eil51() -> TspInstance:
    return parse_instance((DATA / "eil51.tsp").read_text())


@pytest.fixture(scope="session")
def tiny3() -> TspInstance:
    """Right triangle (0,0), (0,1), (1,0): all rounded distances are 1."""
    return TspInstance(
        name="tiny3", dimension=3, metric="EUC_2D", coords=np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    )


@pytest.fixture(scope="session")
def square4() -> TspInstance:
    """Unit square, corners in perimeter order."""
    return TspInstance(
        name="square4",
        dimension=4,
        metric="EUC_2D",
        coords=np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0]]),
    )


@pytest.fixture(scope="session")
def square40() -> TspInstance:
    """Side-10 square: the diagonal (14) is strictly longer than the sides (10)."""
    return TspInstance(
        name="square40",
        dimension=4,
        metric="EUC_2D",
        coords=np.array([[0.0, 0.0], [0.0, 10.0], [10.0, 10.0], [10.0, 0.0]]),
    )


def random_euclidean(n: int, rng: np.random.Generator, side: float = 1000.0) -> TspInstance:
    coords = rng.random((n, 2)) * side
    return TspInstance(name=f"random{n}", dimension=n, metric="EUC_2D", coords=coords)


# --- acceptance criteria reporting -------------------------------------------------

_ACCEPTANCE_RESULTS: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if "test_acceptance.py" in report.nodeid and "test_criterion" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        if report.when == "call":
            _ACCEPTANCE_RESULTS[name] = "PASS" if report.passed else "FAIL"
        elif report.when == "setup" and report.failed:
            _ACCEPTANCE_RESULTS[name] = "ERROR"


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for name in sorted(_ACCEPTANCE_RESULTS):
        terminalreporter.write_line(f"{name}: {_ACCEPTANCE_RESULTS[name]}")
