import math
import pickle
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acsfa import tsplib
from acsfa.tsplib import (
    TspInstance,
    TsplibParseError,
    format_instance,
    parse_instance,
    tour_length,
)

EXPLICIT_FULL = """\
NAME : mini4
TYPE : TSP
DIMENSION : 4
EDGE_WEIGHT_TYPE : EXPLICIT
EDGE_WEIGHT_FORMAT : FULL_MATRIX
EDGE_WEIGHT_SECTION
0 2 4 6
2 0 5 7
4 5 0 3
6 7 3 0
EOF
"""


EXPLICIT_UPPER_ROW_3 = """\
DIMENSION : 3
EDGE_WEIGHT_TYPE : EXPLICIT
EDGE_WEIGHT_FORMAT : UPPER_ROW
EDGE_WEIGHT_SECTION
{} 1
1
EOF
"""


def make_coord_file(coords, dimension=None, metric="EUC_2D"):
    n = dimension if dimension is not None else len(coords)
    lines = [
        "NAME : synthetic",
        "TYPE : TSP",
        f"DIMENSION : {n}",
        f"EDGE_WEIGHT_TYPE : {metric}",
        "NODE_COORD_SECTION",
    ]
    lines += [f"{i + 1} {x} {y}" for i, (x, y) in enumerate(coords)]
    lines.append("EOF")
    return "\n".join(lines) + "\n"


class TestParse:
    def test_eil51_header(self, eil51):
        assert eil51.name == "eil51"
        assert eil51.dimension == 51
        assert eil51.metric == "EUC_2D"

    def test_minimal_three_node_instance(self):
        inst = parse_instance(make_coord_file([(0, 0), (0, 1), (1, 0)]))
        assert inst.dimension == 3
        assert inst.metric == "EUC_2D"

    def test_dimension_mismatch_is_an_error(self):
        text = make_coord_file([(0, 0), (0, 1), (1, 0), (2, 2)], dimension=5)
        with pytest.raises(TsplibParseError):
            parse_instance(text)

    @pytest.mark.parametrize("dimension", [-1, 0])
    def test_dimension_below_one_is_a_parse_error(self, dimension):
        text = f"DIMENSION : {dimension}\nEDGE_WEIGHT_TYPE : EUC_2D\nNODE_COORD_SECTION\nEOF\n"
        with pytest.raises(TsplibParseError, match=f"dimension must be at least 3, got {dimension}"):
            parse_instance(text)

    @pytest.mark.parametrize(
        "section",
        [
            "EDGE_WEIGHT_TYPE : EXPLICIT\nEDGE_WEIGHT_FORMAT : FULL_MATRIX\nEDGE_WEIGHT_SECTION\n0 1\n1 0\n",
            "EDGE_WEIGHT_TYPE : EXPLICIT\nEDGE_WEIGHT_FORMAT : UPPER_ROW\nEDGE_WEIGHT_SECTION\n1 2\n3\n",
            "EDGE_WEIGHT_TYPE : EXPLICIT\nEDGE_WEIGHT_FORMAT : LOWER_DIAG_ROW\nEDGE_WEIGHT_SECTION\n0\n1 0\n",
            "EDGE_WEIGHT_TYPE : EUC_2D\nNODE_COORD_SECTION\n1 0 0\n2 0 1\n",
        ],
        ids=["FULL_MATRIX", "UPPER_ROW", "LOWER_DIAG_ROW", "NODE_COORD"],
    )
    def test_negative_dimension_fails_at_its_header_line(self, section):
        # the sections read DIMENSION as a count, so it is checked where it is read,
        # before any section line is taken for a count or a keyword
        text = f"NAME : neg\nDIMENSION : -2\n{section}EOF\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                TsplibParseError, match=r"^line 2: dimension must be at least 3, got -2 \('DIMENSION : -2'\)$"
            ):
                parse_instance(text)

    def test_unsupported_edge_weight_type_names_line(self):
        text = make_coord_file([(0, 0), (0, 1), (1, 0)], metric="ATT")
        with pytest.raises(TsplibParseError, match="EDGE_WEIGHT_TYPE"):
            parse_instance(text)

    def test_missing_headers(self):
        with pytest.raises(TsplibParseError, match="DIMENSION"):
            parse_instance("NAME : x\nEOF\n")

    def test_unknown_keyword_warns_and_parses(self):
        text = make_coord_file([(0, 0), (0, 1), (1, 0)]).replace(
            "NODE_COORD_SECTION", "FROBNICATION : 7\nNODE_COORD_SECTION"
        )
        with pytest.warns(UserWarning, match="FROBNICATION"):
            inst = parse_instance(text)
        assert inst.dimension == 3

    def test_explicit_full_matrix(self):
        inst = parse_instance(EXPLICIT_FULL)
        assert inst.metric == "EXPLICIT"
        assert inst.dist[0, 3] == 6
        assert inst.dist[2, 3] == 3

    def test_explicit_upper_row(self):
        text = """\
DIMENSION : 4
EDGE_WEIGHT_TYPE : EXPLICIT
EDGE_WEIGHT_FORMAT : UPPER_ROW
EDGE_WEIGHT_SECTION
2 4 6
5 7
3
EOF
"""
        inst = parse_instance(text)
        expected = parse_instance(EXPLICIT_FULL)
        assert np.array_equal(inst.dist, expected.dist)

    def test_explicit_lower_diag_row(self):
        text = """\
DIMENSION : 4
EDGE_WEIGHT_TYPE : EXPLICIT
EDGE_WEIGHT_FORMAT : LOWER_DIAG_ROW
EDGE_WEIGHT_SECTION
0
2 0
4 5 0
6 7 3 0
EOF
"""
        inst = parse_instance(text)
        expected = parse_instance(EXPLICIT_FULL)
        assert np.array_equal(inst.dist, expected.dist)

    def test_explicit_asymmetric_matrix_rejected(self):
        text = EXPLICIT_FULL.replace("2 0 5 7", "9 0 5 7")
        with pytest.raises(TsplibParseError, match="symmetric"):
            parse_instance(text)

    def test_truncated_weight_section(self):
        text = "\n".join(EXPLICIT_FULL.splitlines()[:-3]) + "\nEOF\n"
        with pytest.raises(TsplibParseError, match="EDGE_WEIGHT_SECTION"):
            parse_instance(text)


class TestNodeIds:
    def test_permuted_ids_give_the_sorted_files_distances(self, ulysses16):
        head, _, rest = format_instance(ulysses16).partition("NODE_COORD_SECTION\n")
        entries, _, tail = rest.partition("EOF")
        lines = entries.splitlines()
        shuffled = [lines[k] for k in np.random.default_rng(4).permutation(len(lines))]
        assert shuffled != lines
        inst = parse_instance(head + "NODE_COORD_SECTION\n" + "\n".join(shuffled) + "\nEOF" + tail)
        assert np.array_equal(inst.coords, ulysses16.coords)
        assert np.array_equal(inst.dist, ulysses16.dist)

    @pytest.mark.parametrize(
        "entries, bad",
        [
            (["3 0 0", "1 3 0", "1 0 4"], "node id 1 appears more than once"),
            (["0 0 0", "2 3 0", "3 0 4"], "node id 0 is not an integer in 1..3"),
            (["1 0 0", "2 3 0", "4 0 4"], "node id 4 is not an integer in 1..3"),
            (["1 0 0", "2.5 3 0", "3 0 4"], "node id 2.5 is not an integer in 1..3"),
        ],
        ids=["repeated", "zero", "n+1", "fractional"],
    )
    def test_bad_ids_rejected(self, entries, bad):
        text = "DIMENSION : 3\nEDGE_WEIGHT_TYPE : EUC_2D\nNODE_COORD_SECTION\n" + "\n".join(entries) + "\nEOF\n"
        with pytest.raises(TsplibParseError, match=f"NODE_COORD_SECTION: {bad}"):
            parse_instance(text)


class TestInstanceValidation:
    def test_dimension_below_three(self):
        with pytest.raises(ValueError, match="dimension"):
            TspInstance(name="x", dimension=2, metric="EUC_2D", coords=np.zeros((2, 2)))

    @pytest.mark.parametrize("dimension", [16.0, np.float64(16)], ids=["float", "numpy-float"])
    def test_non_integer_dimension_rejected_before_the_matrix_is_built(self, ulysses16, dimension, monkeypatch):
        def no_matrix(coords):
            raise AssertionError("matrix built")

        with monkeypatch.context() as patch:
            patch.setattr(tsplib, "_geo_matrix", no_matrix)
            with pytest.raises(ValueError, match=f"^dimension must be an integer, got {re.escape(repr(dimension))}$"):
                TspInstance(name="x", dimension=dimension, metric="GEO", coords=ulysses16.coords)
        inst = TspInstance(name="x", dimension=np.int64(16), metric="GEO", coords=ulysses16.coords)
        assert np.array_equal(inst.dist, ulysses16.dist)

    def test_exactly_one_of_coords_weights(self):
        with pytest.raises(ValueError):
            TspInstance(name="x", dimension=3, metric="EUC_2D", coords=None)
        with pytest.raises(ValueError):
            TspInstance(
                name="x",
                dimension=3,
                metric="EXPLICIT",
                coords=np.zeros((3, 2)),
                weights=np.zeros((3, 3), dtype=int),
            )

    def test_negative_weights_rejected(self):
        w = np.array([[0, -1, 2], [-1, 0, 3], [2, 3, 0]])
        with pytest.raises(ValueError, match="non-negative"):
            TspInstance(name="x", dimension=3, metric="EXPLICIT", weights=w)

    def test_nonzero_diagonal_rejected(self):
        w = np.array([[1, 1, 2], [1, 0, 3], [2, 3, 0]])
        with pytest.raises(ValueError, match="diagonal"):
            TspInstance(name="x", dimension=3, metric="EXPLICIT", weights=w)

    @pytest.mark.parametrize(
        "metric, rows",
        [
            ("EXPLICIT", [[0, 1, 2], [1, 0, 3], [2, 3, 0]]),
            ("EUC_2D", [[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]]),
            ("GEO", [[10.0, 20.0], [11.0, 21.0], [12.0, 19.0]]),
        ],
    )
    def test_caller_array_is_not_frozen(self, metric, rows):
        # the instance freezes its own copy; editing the caller's array later
        # changes nothing in the instance
        key = "weights" if metric == "EXPLICIT" else "coords"
        data = np.array(rows, dtype=np.int64 if metric == "EXPLICIT" else float)
        inst = TspInstance(name="x", dimension=3, metric=metric, **{key: data})
        dist = inst.dist.copy()
        assert data.flags.writeable
        data[0, 1] = data[1, 0] = 7
        assert np.array_equal(inst.dist, dist)
        # the instance's own arrays are read-only: a write through them raises
        for arr in (getattr(inst, key), inst.dist):
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 1] = 99
        assert np.array_equal(inst.dist, dist)

    @pytest.mark.parametrize("metric", ["EXPLICIT", "EUC_2D", "GEO"])
    def test_pickle_round_trip_keeps_one_read_only_matrix(self, metric):
        coords = np.random.default_rng(2).random((60, 2)) * 50.0
        inst = TspInstance(name="p", dimension=60, metric="EUC_2D" if metric == "EXPLICIT" else metric, coords=coords)
        if metric == "EXPLICIT":
            inst = TspInstance(name="p", dimension=60, metric=metric, weights=inst.dist)
        data = pickle.dumps(inst)
        copy = pickle.loads(data)
        assert len(data) < 1.2 * inst.dist.nbytes  # the matrix travels at most once
        assert copy.dist.tobytes() == inst.dist.tobytes()
        assert not copy.dist.flags.writeable
        assert np.shares_memory(copy._owner, copy.dist)
        if metric == "EXPLICIT":
            assert np.shares_memory(copy.weights, copy.dist) and not copy.weights.flags.writeable


class TestBadInputsRejected:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("metric", ["EUC_2D", "GEO"])
    def test_non_finite_coordinates(self, metric, bad):
        coords = [[0.0, 0.0], [1.0, bad], [2.0, 2.0]]
        with pytest.raises(ValueError, match="coordinates must be finite"):
            TspInstance(name="x", dimension=3, metric=metric, coords=coords)

    def test_nan_coordinate_line_is_a_parse_error(self):
        text = make_coord_file([(0, 0), (1, "nan"), (2, 2)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TsplibParseError, match="coordinates must be finite"):
                parse_instance(text)

    def test_euc_2d_coordinates_beyond_int64_distances(self):
        # the triangle's tour length, 2**62.5 * (2 + sqrt 2), wrapped in int64
        limit = 2.0**61
        triangle = [(-limit, -limit), (limit, limit), (limit, -limit)]
        with pytest.raises(ValueError, match="overflow int64"):
            TspInstance(name="x", dimension=3, metric="EUC_2D", coords=triangle)
        with pytest.raises(TsplibParseError, match="overflow int64"):
            parse_instance(make_coord_file(triangle))
        # a smaller triangle still fits, and its length is the exact sum
        side = 2.0**59
        inst = TspInstance(name="x", dimension=3, metric="EUC_2D", coords=[[0.0, 0.0], [side, 0.0], [0.0, side]])
        d = inst.dist
        assert tour_length(inst, [0, 1, 2]) == int(d[0, 1]) + int(d[1, 2]) + int(d[2, 0]) > 0

    def test_euc_2d_bound_is_checked_before_the_matrix_is_built(self, monkeypatch):
        def no_matrix(coords):
            raise AssertionError("matrix built")

        monkeypatch.setattr(tsplib, "_euclidean_matrix", no_matrix)
        coords = [[0.0, 0.0], [1e300, 0.0], [0.0, 1.0], [1.0, 1.0]]
        with pytest.raises(ValueError, match="overflow int64"):
            TspInstance(name="x", dimension=4, metric="EUC_2D", coords=coords)

    def test_geo_coordinates_are_bounded(self):
        # 1e308 degrees overflowed the radians and cast NaN distances to -2**63
        city = [(0, 0), (1e308, 1), (2, 2), (3, 1)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TsplibParseError, match="overflow int64"):
                parse_instance(make_coord_file(city, metric="GEO"))
            city[1] = (1e17, 1)
            inst = parse_instance(make_coord_file(city, metric="GEO"))
        assert inst.dist.tolist() == [
            [0, 1863, 315, 353], [1863, 0, 1863, 1860], [315, 1863, 0, 158], [353, 1860, 158, 0]
        ]

    def test_euc_2d_coordinates_near_the_float_limit(self):
        coords = [[-1e308, 0.0], [1e308, 0.0], [0.0, 1.0]]
        with pytest.raises(ValueError, match="coordinates must be finite"):
            TspInstance(name="x", dimension=3, metric="EUC_2D", coords=coords)

    def test_euc_2d_and_explicit_share_one_bound(self):
        # 3 x the largest distance, 3074457345618258432, fits in int64
        b = 1537228672809129216
        euc = TspInstance(name="x", dimension=3, metric="EUC_2D", coords=[[-b, 0], [b, 0], [b, 0]])
        explicit = TspInstance(name="x", dimension=3, metric="EXPLICIT", weights=euc.dist)
        assert np.array_equal(euc.dist, explicit.dist)
        assert int(euc.dist.max()) == 2 * b

    def test_explicit_weights_whose_tour_sums_overflow_int64(self):
        big = (2**63 - 1) // 3
        w = [[0, big, 1], [big, 0, 1], [1, 1, 0]]
        assert TspInstance(name="x", dimension=3, metric="EXPLICIT", weights=w).dist[0, 1] == big
        w[0][1] = w[1][0] = big + 1
        with pytest.raises(ValueError, match="overflow int64"):
            TspInstance(name="x", dimension=3, metric="EXPLICIT", weights=w)
        with pytest.raises(TsplibParseError, match="overflow int64"):
            parse_instance(EXPLICIT_UPPER_ROW_3.format(big + 1))

    def test_integer_weight_tokens_parse_exactly(self):
        inst = parse_instance(EXPLICIT_UPPER_ROW_3.format(2**53 + 1))
        assert inst.dist.dtype == np.int64
        assert int(inst.dist[0, 1]) == int(inst.dist[1, 0]) == 9007199254740993
        # integral float tokens elsewhere in the section keep the others exact
        text = EXPLICIT_UPPER_ROW_3.format(2**53 + 1).replace(" 1\n1\n", " 1.0\n1e0\n")
        assert text != EXPLICIT_UPPER_ROW_3.format(2**53 + 1)
        assert int(parse_instance(text).dist[0, 1]) == 9007199254740993

    def test_non_integer_explicit_weights(self):
        w = [[0, 1.5, 2], [1.5, 0, 1], [2, 1, 0]]
        with pytest.raises(ValueError, match="finite integers"):
            TspInstance(name="x", dimension=3, metric="EXPLICIT", weights=w)

    def test_non_integer_weight_line_is_a_parse_error(self):
        text = EXPLICIT_FULL.replace("0 2 4 6\n2 0", "0 2.5 4 6\n2.5 0")
        with pytest.raises(TsplibParseError, match="finite integers"):
            parse_instance(text)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 2.0**63])
    def test_non_finite_or_oversized_explicit_weights(self, bad):
        w = np.array([[0, bad, 2], [bad, 0, 1], [2, 1, 0]])
        with pytest.raises(ValueError, match="finite integers"):
            TspInstance(name="x", dimension=3, metric="EXPLICIT", weights=w)

    def test_integral_float_weights_accepted(self):
        w = np.array([[0, 1.0, 2], [1.0, 0, 1], [2, 1, 0]])
        inst = TspInstance(name="x", dimension=3, metric="EXPLICIT", weights=w)
        assert inst.dist.dtype == np.int64 and inst.dist[0, 1] == 1


def full_euclidean(coords):
    """The unblocked EUC_2D formula, over an (n, n, 2) difference array."""
    diff = coords[:, None, :] - coords[None, :, :]
    d = np.sqrt((diff * diff).sum(axis=-1))
    return np.floor(d + 0.5).astype(np.int64)


def full_geo(coords):
    """The unblocked GEO formula, over whole (n, n) arrays."""
    deg = np.trunc(coords)
    minutes = coords - deg
    rad = tsplib._GEO_PI * (deg + 5.0 * minutes / 3.0) / 180.0
    lat, lon = rad[:, 0], rad[:, 1]
    q1 = np.cos(lon[:, None] - lon[None, :])
    q2 = np.cos(lat[:, None] - lat[None, :])
    q3 = np.cos(lat[:, None] + lat[None, :])
    arg = np.clip(0.5 * ((1.0 + q1) * q2 - (1.0 - q1) * q3), -1.0, 1.0)
    d = (tsplib._GEO_RADIUS * np.arccos(arg) + 1.0).astype(np.int64)
    np.fill_diagonal(d, 0)
    return d


_B = tsplib._BLOCK_ROWS
BLOCK_EDGE_SIZES = [3, _B - 1, _B, _B + 1, 2 * _B + 1]


def coordinate_rows(seed, n, coincident, integral, low, high):
    """(n, 3) index/x/y rows, as parse_instance reads them, some cities stacked."""
    rng = np.random.default_rng(seed)
    rows = rng.uniform(low, high, size=(n, 3))
    if integral:
        rows = np.round(rows)
    if coincident:
        rows[rng.integers(0, n, size=n // 2)] = rows[rng.integers(0, n)]
    return rows


class TestBlockedMatrices:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from(BLOCK_EDGE_SIZES),
        log_scale=st.floats(-3.0, 12.0),
        seed=st.integers(0, 2**32 - 1),
        coincident=st.booleans(),
        integral=st.booleans(),
    )
    def test_euclidean_matches_full_formula(self, n, log_scale, seed, coincident, integral):
        scale = 10.0**log_scale
        rows = coordinate_rows(seed, n, coincident, integral, -scale, scale)
        coords = rows[:, 1:3]  # a strided view, as parse_instance passes it
        got = tsplib._euclidean_matrix(coords)
        assert got.dtype == np.int64
        assert got.tobytes() == full_euclidean(coords).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.sampled_from(BLOCK_EDGE_SIZES),
        seed=st.integers(0, 2**32 - 1),
        coincident=st.booleans(),
        integral=st.booleans(),
    )
    def test_geo_matches_full_formula(self, n, seed, coincident, integral):
        rows = coordinate_rows(seed, n, coincident, integral, -90.0, 90.0)
        rows[:, 2] *= 2.0  # longitudes span -180..180
        coords = rows[:, 1:3]
        got = tsplib._geo_matrix(coords)
        assert got.dtype == np.int64
        assert got.tobytes() == full_geo(coords).tobytes()

    @pytest.mark.parametrize("fixture", ["ulysses16", "eil51", "tiny3"])
    def test_instances_match_full_formula(self, fixture, request):
        inst = request.getfixturevalue(fixture)
        full = full_euclidean if inst.metric == "EUC_2D" else full_geo
        assert inst.dist.tobytes() == full(inst.coords).tobytes()
        assert not inst.dist.flags.writeable

    def test_euclidean_build_memory_is_bounded(self):
        # the unblocked (n, n, 2) build peaked at 40e6 bytes for this 8e6-byte result
        coords = np.random.default_rng(3).random((1000, 2)) * 1000.0
        tracemalloc.start()
        try:
            TspInstance(name="big", dimension=1000, metric="EUC_2D", coords=coords)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6


class TestDistance:
    def test_three_four_five_triangle(self):
        inst = parse_instance(make_coord_file([(0, 0), (3, 4), (10, 10)]))
        assert inst.dist[0, 1] == 5

    def test_zero_diagonal(self, eil51):
        for i in (0, 7, 50):
            assert eil51.dist[i, i] == 0

    def test_symmetry(self, eil51):
        rng = np.random.default_rng(5)
        for _ in range(100):
            i, j = rng.integers(51, size=2)
            assert eil51.dist[i, j] == eil51.dist[j, i]

    def test_euclidean_rounding_within_half(self):
        rng = np.random.default_rng(17)
        coords = rng.random((30, 2)) * 500
        inst = TspInstance(name="r", dimension=30, metric="EUC_2D", coords=coords)
        for _ in range(200):
            i, j = rng.integers(30, size=2)
            true = float(np.hypot(*(coords[int(i)] - coords[int(j)])))
            assert abs(inst.dist[i, j] - true) <= 0.5

    def test_geo_known_tour(self, ulysses16):
        # optimal visiting order; 6859 is the published optimum for this instance
        order = [0, 13, 12, 11, 6, 5, 14, 4, 10, 8, 9, 15, 2, 1, 3, 7]
        assert tour_length(ulysses16, order) == 6859


class TestTourLength:
    def test_triangle_length(self, tiny3):
        # 1 + round(sqrt 2) + 1 = 3
        assert tour_length(tiny3, [0, 1, 2]) == 3

    def test_rotation_invariance(self, eil51):
        rng = np.random.default_rng(11)
        for _ in range(20):
            perm = rng.permutation(51)
            k = int(rng.integers(1, 51))
            assert tour_length(eil51, perm) == tour_length(eil51, np.roll(perm, k))

    def test_reversal_invariance(self, eil51):
        rng = np.random.default_rng(12)
        for _ in range(20):
            perm = rng.permutation(51)
            assert tour_length(eil51, perm) == tour_length(eil51, perm[::-1])

    def test_non_permutation_rejected(self, tiny3):
        with pytest.raises(ValueError, match="permutation"):
            tour_length(tiny3, [0, 1, 1])
        with pytest.raises(ValueError, match="permutation"):
            tour_length(tiny3, [0, 1])

    @pytest.mark.parametrize(
        "order",
        [
            [k + 0.5 for k in range(16)],
            [float(k) for k in range(16)],
            np.arange(16) + 0.25,
            [True] + [False] * 15,
            ["0"] * 16,
        ],
    )
    def test_non_integer_entries_rejected(self, ulysses16, order):
        # truncating [0.5, 1.5, ..., 15.5] would measure the tour 0..15
        with pytest.raises(ValueError, match="integers"):
            tour_length(ulysses16, order)

    def test_unsigned_and_narrow_integers_accepted(self, ulysses16):
        order = [0, 13, 12, 11, 6, 5, 14, 4, 10, 8, 9, 15, 2, 1, 3, 7]
        for dtype in (np.uint8, np.int16, np.uint64):
            assert tour_length(ulysses16, np.array(order, dtype=dtype)) == 6859


class TestRoundTrip:
    @pytest.mark.parametrize("fixture", ["ulysses16", "eil51", "tiny3"])
    def test_format_parse_preserves_distances(self, fixture, request):
        inst = request.getfixturevalue(fixture)
        again = parse_instance(format_instance(inst))
        assert np.array_equal(inst.coords, again.coords)
        assert np.array_equal(inst.dist, again.dist)

    def test_explicit_round_trip(self):
        inst = parse_instance(EXPLICIT_FULL)
        again = parse_instance(format_instance(inst))
        assert np.array_equal(inst.dist, again.dist)

    def test_random_coordinates_round_trip(self):
        rng = np.random.default_rng(23)
        coords = rng.random((12, 2)) * 987.654
        inst = TspInstance(name="rt", dimension=12, metric="EUC_2D", coords=coords)
        again = parse_instance(format_instance(inst))
        assert np.array_equal(inst.dist, again.dist)
