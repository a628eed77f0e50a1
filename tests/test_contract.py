"""The input contract of ``parse_instance``, stated once as a property.

Any text either raises ``ValueError`` (``TsplibParseError`` is one) with no
RuntimeWarning, or gives an instance that both solvers can run. The texts
are TSPLIB files with one to three whitespace tokens replaced, deleted or
inserted. A longer run of the same property:

    python -m pytest tests/test_contract.py --hypothesis-profile contract
"""

import re
import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from acsfa.acs import AcsParams, run_acs
from acsfa.hybrid import HybridConfig, run_acsfa
from acsfa.tsplib import parse_instance, tour_length

from conftest import DATA

LOWER_DIAG_ROW_5 = """\
NAME : lower5
TYPE : TSP
DIMENSION : 5
EDGE_WEIGHT_TYPE : EXPLICIT
EDGE_WEIGHT_FORMAT : LOWER_DIAG_ROW
EDGE_WEIGHT_SECTION
0
3 0
4 5 0
2 6 7 0
8 1 9 4 0
EOF
"""

BASES = [(DATA / "ulysses16.tsp").read_text(), (DATA / "eil51.tsp").read_text(), LOWER_DIAG_ROW_5]

TOKENS = [
    "1e308", "-1e308", "nan", "inf", "-1", "0", "1e17", "9223372036854775808", "\x00", "é",
    "NAME", "TYPE", "DIMENSION", "EDGE_WEIGHT_TYPE", "EDGE_WEIGHT_FORMAT", "NODE_COORD_SECTION",
    "EDGE_WEIGHT_SECTION", "DISPLAY_DATA_SECTION", "EOF", "EUC_2D", "GEO", "EXPLICIT",
    "FULL_MATRIX", "UPPER_ROW", "LOWER_DIAG_ROW",
]  # fmt: skip

GEO_1E308 = BASES[0].replace(" 1 38.24 20.42", " 1 1e308 20.42")
EUC_2D_1E308 = BASES[1].replace("1 37 52", "1 1e308 52").replace("2 49 49", "2 -1e308 49")


@st.composite
def mutated_texts(draw) -> str:
    # even entries are tokens, odd ones the whitespace between them
    parts = re.split(r"(\s+)", draw(st.sampled_from(BASES)))
    for _ in range(draw(st.integers(1, 3))):
        at = 2 * draw(st.integers(0, len(parts) // 2))
        op = draw(st.sampled_from(["replace", "delete", "insert"]))
        if op == "delete":
            parts[at] = ""
        else:
            token = draw(st.sampled_from(TOKENS))
            parts[at] = token if op == "replace" else f"{token} {parts[at]}"
    return "".join(parts)


@settings(derandomize=True, deadline=None)
@given(mutated_texts())
@example(GEO_1E308)
@example(EUC_2D_1E308)
def test_parse_instance_rejects_or_gives_a_solvable_instance(text):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        warnings.simplefilter("ignore", UserWarning)  # unknown keywords and TYPE values
        try:
            inst = parse_instance(text)
        except ValueError:
            return
        n, d = inst.dimension, inst.dist
        assert d.dtype == np.int64 and d.shape == (n, n)
        assert (d == d.T).all() and (d >= 0).all() and not np.diag(d).any()
        assert n * int(d.max()) <= 2**63 - 1
        acs = run_acs(inst, AcsParams(m=2), 1, np.random.default_rng(0))
        hybrid, _ = run_acsfa(inst, HybridConfig(iterations=1, m=2), np.random.default_rng(0))
        for record in (acs, hybrid):
            assert sorted(record.best_tour.order) == list(range(n))
            assert record.best_tour.length == tour_length(inst, record.best_tour.order)
