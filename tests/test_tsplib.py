import numpy as np
import pytest

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


class TestInstanceValidation:
    def test_dimension_below_three(self):
        with pytest.raises(ValueError, match="dimension"):
            TspInstance(name="x", dimension=2, metric="EUC_2D", coords=np.zeros((2, 2)))

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


class TestRoundTrip:
    @pytest.mark.parametrize("fixture", ["ulysses16", "eil51", "tiny3"])
    def test_format_parse_preserves_distances(self, fixture, request):
        inst = request.getfixturevalue(fixture)
        again = parse_instance(format_instance(inst))
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
