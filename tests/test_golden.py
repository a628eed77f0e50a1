"""Golden runs: seeded solver output pinned by a sha256 digest.

Each digest covers, for seeds 0-2 at 30 iterations, the best tour's order,
the best-length trace and, for the hybrid, the ParameterTrace arrays and
``best_params``. A speed change that keeps these digests keeps every seeded
tour and trace bit-identical; a change to the random stream or to the
floating-point order of the transition rule or the pheromone updates shows
up here before it shows up as a quality shift in the acceptance suite.
"""

import hashlib

import numpy as np
import pytest

from acsfa.acs import AcsParams, run_acs
from acsfa.hybrid import HybridConfig, run_acsfa

SEEDS = (0, 1, 2)
ITERATIONS = 30

GOLDEN = {
    ("acs", "ulysses16"): "939adfc3f6e12674b76a5e57e4b74e56a65f95b0f4cb11a0fefdb347c4e1e870",
    ("acs", "eil51"): "9908e5b73ac9034912b08048b0b1d61db0b5f3c4dae12b447393db961824f400",
    ("acsfa", "ulysses16"): "870e94aa5264b7a5fbdc0e58a67583393a036152ab91fa0ebed782e848499ec0",
    ("acsfa", "eil51"): "3c0bdec641587b17f3f6bb3394256c0ec37fc326e5800858b3ee31cc4f5525c0",
}


def _update(h, values, dtype) -> None:
    a = np.ascontiguousarray(values, dtype=dtype)
    h.update(repr(a.shape).encode())
    h.update(a.tobytes())


def golden_digest(algorithm: str, inst) -> str:
    h = hashlib.sha256()
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        if algorithm == "acs":
            record = run_acs(inst, AcsParams(), ITERATIONS, rng)
        else:
            record, trace = run_acsfa(inst, HybridConfig(iterations=ITERATIONS), rng)
            for arr in (trace.means, trace.mins, trace.maxs):
                _update(h, arr, np.float64)
            _update(h, record.best_params.as_array(), np.float64)
        _update(h, record.best_tour.order, np.int64)
        _update(h, [record.best_tour.length], np.int64)
        _update(h, record.best_lengths, np.int64)
    return h.hexdigest()


@pytest.mark.parametrize("algorithm, instance", sorted(GOLDEN))
def test_golden_run(algorithm, instance, request):
    inst = request.getfixturevalue(instance)
    assert golden_digest(algorithm, inst) == GOLDEN[(algorithm, instance)]
