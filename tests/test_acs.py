import math
import pickle
import re
import tracemalloc
from dataclasses import fields
from itertools import islice, repeat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import acsfa.acs
from acsfa.acs import (
    AcsParams,
    _choose,
    _heuristic_levels,
    _WeightProduct,
    colony,
    compute_tau0,
    construct_tour,
    global_update,
    heuristic_matrix,
    init_pheromone,
    local_update,
    nearest_neighbor_tour,
    run_acs,
    transition_probabilities,
)
from acsfa.exact import brute_force
from acsfa.firefly import ParamBounds
from acsfa.hybrid import HybridConfig, run_acsfa
from acsfa.tsplib import Tour, TspInstance, tour_length
from conftest import random_euclidean

# greedy tour length from city 0, frozen from an independently coded oracle
EIL51_NN_LENGTH = 511

# every point at the origin: all distances, and every tour length, are 0
COINCIDENT5 = TspInstance(name="coincident5", dimension=5, metric="EUC_2D", coords=np.zeros((5, 2)))


def explicit(weights) -> TspInstance:
    w = np.asarray(weights)
    return TspInstance(name="w", dimension=len(w), metric="EXPLICIT", weights=w)


def random_explicit(n: int, high: int, rng: np.random.Generator) -> TspInstance:
    w = np.triu(rng.integers(0, high, (n, n), endpoint=True), 1)
    return explicit(w + w.T)


def grid_instance(n: int, side: int, rng: np.random.Generator) -> TspInstance:
    """Integer points on a small grid: coincident points and tied distances abound."""
    coords = rng.integers(0, side, (n, 2)).astype(float)
    return TspInstance(name=f"grid{n}", dimension=n, metric="EUC_2D", coords=coords)


def reference_nearest_neighbor_order(inst: TspInstance) -> tuple[int, ...]:
    """The greedy loop from city 0 with a float copy of each row and a boolean visited mask."""
    n = inst.dimension
    visited = np.zeros(n, dtype=bool)
    visited[0] = True
    order = [0]
    r = 0
    for _ in range(n - 1):
        row = inst.dist[r].astype(float)
        row[visited] = np.inf
        r = int(np.argmin(row))
        order.append(r)
        visited[r] = True
    return tuple(order)


class TestParams:
    def test_defaults_valid(self):
        AcsParams()

    # fixed ids: a case keeps its name when cases are added or removed
    @pytest.mark.parametrize(
        "kwargs",
        [
            pytest.param({"m": 0}, id="kwargs7"),
            pytest.param({"m": 2.5}, id="kwargs8"),
            pytest.param({"m": True}, id="kwargs9"),  # bool is an Integral, and True would run one ant
        ],
    )
    def test_out_of_range_rejected(self, kwargs):
        with pytest.raises(ValueError, match="ant count m"):
            AcsParams(**kwargs)

    @pytest.mark.parametrize(
        "name, value", [("beta", 2.0), ("rho", 0.1), ("q0", 0.85), ("alpha", 0.1)], ids=["beta", "rho", "q0", "alpha"]
    )
    def test_retired_setting_is_not_a_field(self, name, value):
        # the baseline runs one fixed setting: m is its only field
        with pytest.raises(TypeError):
            AcsParams(**{name: value})
        assert getattr(AcsParams, name) == getattr(AcsParams(), name) == value
        assert [f.name for f in fields(AcsParams)] == ["m"]


class TestNearestNeighbor:
    def test_triangle(self, tiny3):
        assert nearest_neighbor_tour(tiny3).length == 3

    def test_unit_square_perimeter(self, square4):
        assert nearest_neighbor_tour(square4).length == 4

    def test_scaled_square_follows_perimeter(self, square40):
        tour = nearest_neighbor_tour(square40)
        assert tour.length == 40
        assert tour.order == (0, 1, 2, 3)

    def test_eil51_golden(self, eil51):
        tour = nearest_neighbor_tour(eil51)
        assert tour.length == EIL51_NN_LENGTH
        assert 426 <= tour.length <= 700

    def test_independent_greedy_oracle(self, eil51):
        d = eil51.dist.tolist()
        seen = [False] * 51
        seen[0] = True
        cur, total = 0, 0
        for _ in range(50):
            best_d, best_c = None, None
            for c in range(51):
                if not seen[c] and (best_d is None or d[cur][c] < best_d):
                    best_d, best_c = d[cur][c], c
            total += best_d
            seen[best_c] = True
            cur = best_c
        total += d[cur][0]
        assert total == nearest_neighbor_tour(eil51).length

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_the_masked_copy_loop(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 150))
        if seed % 2:
            inst = grid_instance(n, int(rng.integers(1, 12)), rng)
        else:
            inst = random_euclidean(n, rng)
        assert nearest_neighbor_tour(inst).order == reference_nearest_neighbor_order(inst)

    def test_exact_above_2_53(self):
        # B + 1 and B differ only below float64's precision at 2**58: city 2 is nearest
        b = 2**58
        inst = explicit([[0, b + 1, b, 2 * b], [b + 1, 0, b, b], [b, b, 0, b], [2 * b, b, b, 0]])
        tour = nearest_neighbor_tour(inst)
        assert tour.order == (0, 2, 1, 3)
        assert tour.length == 5 * b

    def test_largest_accepted_weights(self):
        # every distance at the (2**63 - 1) // 3 bound: the visited penalty must not overflow
        top = (2**63 - 1) // 3
        inst = explicit([[0, top, top], [top, 0, top], [top, top, 0]])
        tour = nearest_neighbor_tour(inst)
        assert tour.order == (0, 1, 2)
        assert tour.length == 3 * top


class TestTau0:
    def test_triangle(self, tiny3):
        assert compute_tau0(tiny3) == pytest.approx(1.0 / 9.0)

    def test_weight_scaling(self):
        base = [[0, 3, 4], [3, 0, 5], [4, 5, 0]]
        inst = explicit(base)
        scaled = explicit((np.asarray(base) * 10))
        assert compute_tau0(scaled) == pytest.approx(compute_tau0(inst) / 10.0)

    def test_eil51(self, eil51):
        assert compute_tau0(eil51) == pytest.approx(1.0 / (51 * EIL51_NN_LENGTH))

    def test_coincident_points_count_as_length_one(self):
        assert compute_tau0(COINCIDENT5) == 1.0 / 5

    @pytest.mark.parametrize("n", [True, 2.5], ids=["bool", "float"])
    def test_non_integer_pheromone_size_rejected(self, n):
        with pytest.raises(ValueError, match=f"^n must be an integer, got {n!r}$"):
            init_pheromone(n, 0.5)
        assert init_pheromone(np.int64(3), 0.5).tolist() == [[0.5] * 3] * 3

    @pytest.mark.parametrize("tau0", [0.0, -1.0, math.nan, math.inf], ids=["zero", "negative", "nan", "inf"])
    def test_pheromone_level_must_be_positive_and_finite(self, tau0):
        with pytest.raises(ValueError, match=f"^tau0 must be positive and finite, got {tau0}$"):
            init_pheromone(3, tau0)


class TestTransitionProbabilities:
    def test_single_candidate(self, tiny3):
        tau = init_pheromone(3, 0.5)
        p = transition_probabilities(0, [2], tau, tiny3, 2.0)
        assert p.tolist() == [1.0]

    def test_uniform_when_beta_zero(self, eil51):
        tau = init_pheromone(51, 0.2)
        p = transition_probabilities(0, range(1, 51), tau, eil51, 0.0)
        assert np.allclose(p, 1.0 / 50.0)

    def test_direct_ratio(self):
        inst = explicit([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        tau = init_pheromone(3, 1.0)
        tau[0, 1] = tau[1, 0] = 2.0
        p = transition_probabilities(0, [1, 2], tau, inst, 0.0)
        assert p == pytest.approx([2.0 / 3.0, 1.0 / 3.0])

    def test_normalization_and_positivity(self, eil51):
        rng = np.random.default_rng(3)
        for _ in range(200):
            tau = rng.random((51, 51)) + 1e-9
            tau = (tau + tau.T) / 2
            size = int(rng.integers(1, 50))
            unvisited = rng.choice(50, size=size, replace=False) + 1
            p = transition_probabilities(0, unvisited, tau, eil51, 2.0)
            assert abs(p.sum() - 1.0) <= 1e-12
            assert (p >= 0).all()

    def test_empty_unvisited_rejected(self, tiny3):
        with pytest.raises(ValueError):
            transition_probabilities(0, [], init_pheromone(3, 0.5), tiny3, 2.0)

    @pytest.mark.parametrize(
        "r, unvisited, what, bad",
        [
            (True, [3, 4], "city r", True),
            (2.5, [3, 4], "city r", 2.5),
            (0, [2.5, 4], "unvisited city", 2.5),
            (0, [True, 4], "unvisited city", True),
        ],
        ids=["bool r", "float r", "float city", "bool city"],
    )
    def test_non_integer_city_rejected(self, ulysses16, r, unvisited, what, bad):
        # numpy would read True as a new axis, 2.5 as no index at all, and
        # truncate the unvisited entries to cities 2 and 1
        with pytest.raises(ValueError, match=f"^{what} must be an integer, got {bad!r}$"):
            transition_probabilities(r, unvisited, init_pheromone(16, 0.5), ulysses16, 2.0)

    @pytest.mark.parametrize(
        "r, unvisited, what, bad",
        [
            (16, [3], "city r", 16),
            (-1, [3], "city r", -1),
            (0, [3, 16], "unvisited city", 16),
            (0, [-1], "unvisited city", -1),
        ],
        ids=["r above", "r below", "city above", "city below"],
    )
    def test_city_outside_the_instance_is_an_index_error(self, ulysses16, r, unvisited, what, bad):
        # -1 would wrap to city 15
        with pytest.raises(IndexError, match=f"^{what} {bad} out of range for n=16$"):
            transition_probabilities(r, unvisited, init_pheromone(16, 0.5), ulysses16, 2.0)


def choose_next(r, unvisited, tau, inst, beta, q0, rng) -> int:
    """One pseudo-random-proportional choice through construct_tour's row kernel."""
    avail = np.zeros(inst.dimension)
    avail[list(unvisited)] = 1.0
    eta_pow = heuristic_matrix(inst)[r] ** beta
    return _choose(tau[r] * eta_pow * avail, avail, rng.random() <= q0, rng.random)


class TestSelectNextCity:
    """The transition rule as construct_tour applies it: _choose over a masked weight row."""

    def test_pure_exploitation_takes_argmax(self):
        inst = explicit([[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]])
        tau = init_pheromone(4, 1.0)
        tau[0, 2] = tau[2, 0] = 5.0
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert choose_next(0, [1, 2, 3], tau, inst, 0.0, 1.0, rng) == 2

    def test_exploitation_ties_break_low_index(self):
        inst = explicit([[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]])
        tau = init_pheromone(4, 1.0)
        got = choose_next(0, [3, 1, 2], tau, inst, 0.0, 1.0, np.random.default_rng(0))
        assert got == 1

    def test_sampling_uniform_frequencies(self):
        # q0=0, uniform tau, beta=0: empirical frequencies within 2% of uniform
        inst = explicit([[0, 1, 2, 3], [1, 0, 4, 5], [2, 4, 0, 6], [3, 5, 6, 0]])
        tau = init_pheromone(4, 0.5)
        rng = np.random.default_rng(123)
        counts = {1: 0, 2: 0, 3: 0}
        draws = 10**5
        for _ in range(draws):
            counts[choose_next(0, [1, 2, 3], tau, inst, 0.0, 0.0, rng)] += 1
        for city in counts:
            assert counts[city] / draws == pytest.approx(1.0 / 3.0, abs=0.02 / 3.0)

    def test_single_candidate_any_q(self, tiny3):
        tau = init_pheromone(3, 0.5)
        for seed in range(5):
            got = choose_next(0, [1], tau, tiny3, 2.0, 0.5, np.random.default_rng(seed))
            assert got == 1


class TestLocalUpdate:
    def test_fixed_point(self):
        tau = init_pheromone(3, 0.25)
        local_update(tau, 0, 1, rho=0.3, tau0=0.25)
        assert tau[0, 1] == pytest.approx(0.25)

    def test_direct_arithmetic(self):
        tau = init_pheromone(3, 0.2)
        tau[0, 1] = tau[1, 0] = 1.0
        local_update(tau, 0, 1, rho=0.5, tau0=0.2)
        assert tau[0, 1] == pytest.approx(0.6)
        assert tau[1, 0] == pytest.approx(0.6)

    def test_monotone_convergence_to_tau0(self):
        tau = init_pheromone(3, 0.1)
        tau[0, 1] = tau[1, 0] = 2.0
        prev = tau[0, 1]
        for _ in range(60):
            local_update(tau, 0, 1, rho=0.4, tau0=0.1)
            assert tau[0, 1] < prev or tau[0, 1] == pytest.approx(0.1)
            prev = tau[0, 1]
        assert prev == pytest.approx(0.1, rel=1e-9)

    @pytest.mark.parametrize("n", [3, 4, 16, 51])
    def test_tour_edges_at_once_match_edge_by_edge(self, n):
        # an asymmetric matrix: each edge must be read from its own entry
        rng = np.random.default_rng(n)
        tau = 0.05 * (1.0 + rng.random((n, n)))
        order = rng.permutation(n)
        nxt = np.roll(order, -1)
        expected = tau.copy()
        for r, s in zip(order.tolist(), nxt.tolist()):
            local_update(expected, r, s, rho=0.3, tau0=0.01)
        local_update(tau, order, nxt, rho=0.3, tau0=0.01)
        assert tau.tobytes() == expected.tobytes()


class TestGlobalUpdate:
    def test_best_edge_value(self, tiny3):
        tau = init_pheromone(3, 1.0)
        global_update(tau, Tour(order=(0, 1, 2), length=2), 0.1)
        assert tau[0, 1] == pytest.approx(0.95)
        assert tau[1, 0] == pytest.approx(0.95)

    def test_off_best_edges_untouched(self):
        # reinforcement is confined to the best tour's edges
        tau = init_pheromone(4, 1.0)
        global_update(tau, Tour(order=(0, 1, 2, 3), length=4), 0.1)
        assert tau[0, 2] == 1.0
        assert tau[1, 3] == 1.0
        assert tau[0, 1] == pytest.approx(0.925)

    def test_alpha_zero_is_identity(self, tiny3):
        tau = init_pheromone(3, 0.7)
        tau[0, 1] = tau[1, 0] = 1.3
        snapshot = tau.copy()
        global_update(tau, Tour(order=(0, 1, 2), length=3), 0.0)
        assert np.array_equal(tau, snapshot)

    def test_symmetry_preserved(self, eil51):
        rng = np.random.default_rng(9)
        tau = init_pheromone(51, compute_tau0(eil51))
        for _ in range(30):
            perm = tuple(int(c) for c in rng.permutation(51))
            global_update(tau, Tour(order=perm, length=tour_length(eil51, perm)), AcsParams().alpha)
        assert np.array_equal(tau, tau.T)
        assert (tau > 0).all()


BETAS = st.one_of(
    st.sampled_from([0.0, 1.0, *ParamBounds().beta]),
    st.integers(0, 10).map(float),
    st.floats(0.0, 10.0),
)


@st.composite
def heuristic_instances(draw) -> TspInstance:
    """Instances on both level paths: few distinct distances, or too many for a range."""
    n = draw(st.integers(3, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["euc", "euc_wide", "grid", "coincident", "explicit"]))
    if kind == "euc":
        return random_euclidean(n, rng)
    if kind == "euc_wide":
        return random_euclidean(n, rng, side=1e7)
    if kind == "grid":
        return grid_instance(n, 3, rng)
    if kind == "coincident":
        return TspInstance(name="c", dimension=n, metric="EUC_2D", coords=np.zeros((n, 2)))
    return random_explicit(n, draw(st.sampled_from([5, 10**4, 10**12])), rng)


def first_rebuild(inst: TspInstance, beta: float, tau: np.ndarray) -> np.ndarray:
    """The weight product a colony builds for its first ant at this beta."""
    return _WeightProduct(inst, tau).sync(beta)


def random_pheromone(n: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).random((n, n)) + 1e-3


class TestHeuristicPower:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_same_bytes_as_the_full_power(self, data, ulysses16, eil51):
        inst = data.draw(st.one_of(st.sampled_from([ulysses16, eil51]), heuristic_instances()))
        beta = data.draw(BETAS)
        tau = random_pheromone(inst.dimension, data.draw(st.integers(0, 2**32 - 1)))
        expected = tau * heuristic_matrix(inst) ** beta
        got = first_rebuild(inst, beta, tau)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0, 2.0, 3.0, 3.7, 8.0])
    def test_same_bytes_at_n_300(self, beta):
        inst = random_euclidean(300, np.random.default_rng(3))
        tau = random_pheromone(300, 4)
        assert first_rebuild(inst, beta, tau).tobytes() == (tau * heuristic_matrix(inst) ** beta).tobytes()

    def test_range_levels_index_the_distances_without_a_copy(self, eil51):
        table, index = _heuristic_levels(eil51)
        assert np.shares_memory(index, eil51.dist)
        assert index.shape == eil51.dist.shape
        assert index.flags.writeable  # take() would copy a read-only index
        assert not eil51.dist.flags.writeable
        assert table.size == eil51.dist.max() + 1

    def test_range_levels_hold_one_distance_matrix(self):
        n = 300
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            inst = random_euclidean(n, np.random.default_rng(0))
            table, index = _heuristic_levels(inst)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert np.shares_memory(index, inst.dist)
        # one n x n int64 matrix, a level table of at most ~1400 doubles and the coordinates
        assert n * n * 8 < held < 1.5 * n * n * 8

    @pytest.mark.parametrize("n", [63, 64, 65])
    def test_first_rebuild_across_row_blocks(self, n):
        # _BLOCK_ROWS = 64: one block at 63 and 64 rows, two at 65
        inst = random_euclidean(n, np.random.default_rng(n))
        assert np.shares_memory(_heuristic_levels(inst)[1], inst.dist)  # the range path
        tau = random_pheromone(n, n + 1)
        for beta in (0.0, 2.0, 3.7):
            assert first_rebuild(inst, beta, tau).tobytes() == (tau * heuristic_matrix(inst) ** beta).tobytes()

    @pytest.mark.parametrize("name", ["ulysses16", "wide", "explicit"])
    def test_distinct_levels_beyond_the_range(self, name, ulysses16):
        rng = np.random.default_rng(5)
        inst = {
            "ulysses16": ulysses16,
            "wide": random_euclidean(20, rng, side=1e7),
            "explicit": random_explicit(20, 10**12, rng),
        }[name]
        table, index = _heuristic_levels(inst)
        assert inst.dist.max() + 1 > inst.dist.size
        assert table.size == np.unique(inst.dist).size
        assert index.shape == inst.dist.shape
        assert np.array_equal(table[index], heuristic_matrix(inst))


def ant_settings(inst: TspInstance, beta: float = 2.0, **values) -> tuple[np.ndarray, dict]:
    """eta ** beta, and construct_tour's other keyword values: AcsParams defaults, tau0 from the instance."""
    defaults = AcsParams()
    return heuristic_matrix(inst) ** beta, {
        "q0": defaults.q0,
        "rho": defaults.rho,
        "tau0": compute_tau0(inst),
        **values,
    }


class TestConstructTour:
    def test_triangle_always_unique_cycle(self, tiny3):
        eta_pow, ant = ant_settings(tiny3)
        tau = init_pheromone(3, ant["tau0"])
        for seed in range(10):
            tour = construct_tour(tiny3, tau, np.random.default_rng(seed), seed % 3, weights=tau * eta_pow, **ant)
            assert tour.length == 3

    def test_always_a_permutation(self, eil51):
        eta_pow, ant = ant_settings(eil51)
        tau = init_pheromone(51, ant["tau0"])
        for seed in range(25):
            tour = construct_tour(eil51, tau, np.random.default_rng(seed), 0, weights=tau * eta_pow, **ant)
            assert sorted(tour.order) == list(range(51))
            assert tour.length == tour_length(eil51, tour.order)

    def test_exploitation_on_square_matches_enumeration(self, square40):
        # q0=1 and a large beta on uniform pheromone follows the nearest
        # neighbor; enumeration confirms the perimeter is the optimum
        eta_pow, ant = ant_settings(square40, beta=5.0, q0=1.0)
        tau = init_pheromone(4, ant["tau0"])
        tour = construct_tour(square40, tau, np.random.default_rng(0), 0, weights=tau * eta_pow, **ant)
        assert tour.length == 40
        assert tour.length == brute_force(square40).length

    def test_local_update_applied_on_traversed_edges(self, square40):
        eta_pow, ant = ant_settings(square40, beta=5.0, q0=1.0, rho=0.5, tau0=0.125)
        tau = init_pheromone(4, 4.0)
        tour = construct_tour(square40, tau, np.random.default_rng(0), 0, weights=tau * eta_pow, **ant)
        order = tour.order
        for k in range(4):
            r, s = order[k], order[(k + 1) % 4]
            assert tau[r, s] < 4.0  # pulled toward tau0, closing edge included
        assert tau[0, 2] == 4.0  # diagonal never traversed

    def test_applies_local_update_once_over_the_tour_edges(self, eil51, monkeypatch):
        calls = []
        real_local_update = acsfa.acs.local_update

        def spy(tau, r, s, rho, tau0):
            calls.append((tau, list(zip(r.tolist(), s.tolist())), rho, tau0))
            real_local_update(tau, r, s, rho, tau0)

        monkeypatch.setattr(acsfa.acs, "local_update", spy)
        eta_pow, ant = ant_settings(eil51, rho=0.3)
        tau = init_pheromone(51, ant["tau0"])
        for seed in range(3):
            tour = construct_tour(eil51, tau, np.random.default_rng(seed), seed, weights=tau * eta_pow, **ant)
            ((seen_tau, edges, rho, tau0),) = calls
            assert seen_tau is tau
            assert edges == list(zip(tour.order, tour.order[1:] + tour.order[:1]))
            assert (rho, tau0) == (0.3, ant["tau0"])
            calls.clear()

    @pytest.mark.parametrize("start", [True, 2.5, np.float64(3)], ids=["bool", "float", "numpy-float"])
    def test_non_integer_start_rejected_before_any_draw(self, ulysses16, start):
        # True would pass the range check, and numpy would then read it as a mask
        eta_pow, ant = ant_settings(ulysses16)
        tau = init_pheromone(16, ant["tau0"])
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=f"^start city must be an integer, got {re.escape(repr(start))}$"):
            construct_tour(ulysses16, tau, rng, start, weights=tau * eta_pow, **ant)
        assert rng.bit_generator.state == state
        assert (tau == ant["tau0"]).all()

    @pytest.mark.parametrize("start", [-1, 16, np.int64(16)])
    def test_start_outside_the_cities_is_an_index_error(self, ulysses16, start):
        eta_pow, ant = ant_settings(ulysses16)
        tau = init_pheromone(16, ant["tau0"])
        with pytest.raises(IndexError, match=f"^start city {start} out of range for n=16$"):
            construct_tour(ulysses16, tau, np.random.default_rng(0), start, weights=tau * eta_pow, **ant)


def colony_iterations(inst: TspInstance, count: int, seed: int = 0) -> list:
    """(best, records) of a colony's first iterations; six ants with mixed settings."""
    ants = [(beta, q0, 0.1) for beta in (0.0, 2.0, 5.0) for q0 in (0.5, 0.95)]
    return list(islice(colony(inst, np.random.default_rng(seed), lambda: iter(ants)), count))


class TestColony:
    def test_records_ascend_by_ant_with_falling_lengths(self, ulysses16):
        iterations = colony_iterations(ulysses16, 40)
        lengths = []
        for _, records in iterations:
            ants = [k for k, _ in records]
            assert ants == sorted(set(ants)) and all(0 <= k < 6 for k in ants)
            lengths += [length for _, length in records]
        assert len(lengths) > sum(1 for _, records in iterations if records) > 1
        assert all(a > b for a, b in zip(lengths, lengths[1:]))

    def test_best_never_rises(self, ulysses16):
        bests = [best.length for best, _ in colony_iterations(ulysses16, 40, seed=1)]
        assert all(a >= b for a, b in zip(bests, bests[1:]))

    def test_last_record_is_the_best(self, ulysses16):
        previous = None
        for best, records in colony_iterations(ulysses16, 40, seed=2):
            if records:
                assert records[-1][1] == best.length
            else:
                assert best is previous
            previous = best

    @pytest.mark.parametrize("schedule", [[[]], [[(2.0, 0.85, 0.1)] * 2, []]])
    def test_an_iteration_with_no_ant_raises(self, ulysses16, schedule):
        rounds = iter(schedule)
        iterations = colony(ulysses16, np.random.default_rng(0), lambda: next(rounds))
        for _ in schedule[:-1]:
            next(iterations)
        with pytest.raises(ValueError, match="no ant"):
            next(iterations)

    @pytest.mark.parametrize(
        "n, path", [(n, "_rebuild") for n in (16, 51, 64)] + [(n, "_refresh") for n in (65, 100, 128, 129)]
    )
    def test_fixed_beta_rebuilds_one_row_block_and_refreshes_beyond(self, n, path, monkeypatch):
        # at a fixed beta only the first sync raises table ** beta; after
        # that, n alone picks the path
        inst = random_euclidean(n, np.random.default_rng(n))
        calls, syncs = [], []

        def spy(name):
            real = getattr(_WeightProduct, name)

            def method(self):
                calls.append(name)
                real(self)

            return method

        for name in ("_rebuild", "_refresh"):
            monkeypatch.setattr(_WeightProduct, name, spy(name))
        real_sync = _WeightProduct.sync

        def sync(self, beta):
            calls.clear()
            matrix = real_sync(self, beta)
            fresh = self.tau * (self.table**beta)[self.index]
            syncs.append((list(calls), matrix.tobytes() == fresh.tobytes()))
            return matrix

        monkeypatch.setattr(_WeightProduct, "sync", sync)
        list(islice(colony(inst, np.random.default_rng(0), lambda: repeat((2.0, 0.85, 0.1), 3)), 3))
        assert syncs == [(["_rebuild"], True)] + [([path], True)] * 8

    def test_run_acs_holds_the_pheromone_and_one_weight_matrix(self):
        # n x n float matrices alive at once: the pheromone and the weight
        # product, with a half-matrix margin for the rest
        n = 300
        inst = random_euclidean(n, np.random.default_rng(0))
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            run_acs(inst, AcsParams(m=3), 2, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert peak < 2.5 * n * n * 8


def same_ints(a: Tour, b: Tour) -> bool:
    """Whether two tours hold the very same int object for every city."""
    return all(x is y for x, y in zip(sorted(a.order), sorted(b.order), strict=True))


class TestSharedLabels:
    # n = 300 lies above 256, the top of CPython's small-int cache: a label
    # made by int() there is a new object, one taken from the instance is not

    def test_numpy_start_gives_python_ints(self, eil51):
        eta_pow, ant = ant_settings(eil51)
        tau = init_pheromone(51, ant["tau0"])
        tour = construct_tour(eil51, tau, np.random.default_rng(0), np.int64(5), weights=tau * eta_pow, **ant)
        assert tour.order[0] == 5
        assert all(type(c) is int for c in tour.order)

    def test_tours_of_two_seeds_share_their_ints(self):
        inst = random_euclidean(300, np.random.default_rng(0))
        acs = [run_acs(inst, AcsParams(m=2), 2, np.random.default_rng(seed)).best_tour for seed in (0, 1)]
        config = HybridConfig(iterations=2, m=2)
        hybrid = [run_acsfa(inst, config, np.random.default_rng(seed))[0].best_tour for seed in (0, 1)]
        greedy = nearest_neighbor_tour(inst)
        assert acs[0].order != acs[1].order
        for tour in acs[1:] + hybrid + [greedy]:
            assert same_ints(acs[0], tour)

    def test_a_pickled_instance_shares_its_own_labels(self):
        inst = pickle.loads(pickle.dumps(random_euclidean(300, np.random.default_rng(0))))
        a, b = (run_acs(inst, AcsParams(m=2), 2, np.random.default_rng(seed)).best_tour for seed in (0, 1))
        assert same_ints(a, b)
        assert same_ints(a, nearest_neighbor_tour(inst))

    def test_a_kept_record_costs_8_bytes_per_city(self):
        # the order tuple's 8 bytes per city plus a few small objects; ints of
        # its own would add ~28 bytes for each city above 256
        n, kept = 1000, 8
        inst = random_euclidean(n, np.random.default_rng(0))
        records = []
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            # the first run fills the interpreter's and numpy's free lists
            records.append(run_acs(inst, AcsParams(m=1), 1, np.random.default_rng(0)))
            before = tracemalloc.get_traced_memory()[0]
            records += [run_acs(inst, AcsParams(m=1), 1, np.random.default_rng(s)) for s in range(1, kept + 1)]
            per_record = (tracemalloc.get_traced_memory()[0] - before) / kept
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert 8 * n < per_record < 10 * n


class TestRunAcs:
    def test_non_integer_iterations_rejected(self, tiny3):
        # a fraction would fail only inside the loop, with a TypeError
        with pytest.raises(ValueError, match="iterations must be an integer, got 2.5"):
            run_acs(tiny3, AcsParams(), 2.5, np.random.default_rng(0))
        with pytest.raises(ValueError, match="iterations must be an integer, got True"):
            run_acs(tiny3, AcsParams(), True, np.random.default_rng(0))

    def test_zero_iterations_rejected(self, eil51):
        # a run of no iteration builds no tour to report: rejected before any draw
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="^iterations must be >= 1, got 0$"):
            run_acs(eil51, AcsParams(), 0, rng)
        assert rng.bit_generator.state == state

    def test_coincident_points_give_a_zero_length_permutation(self):
        record = run_acs(COINCIDENT5, AcsParams(), 5, np.random.default_rng(0))
        assert sorted(record.best_tour.order) == list(range(5))
        assert record.best_tour.length == 0
        assert record.best_lengths == (0,) * 5

    def test_trace_non_increasing(self, ulysses16):
        record = run_acs(ulysses16, AcsParams(), 60, np.random.default_rng(4))
        trace = record.best_lengths
        assert len(trace) == 60
        assert all(a >= b for a, b in zip(trace, trace[1:]))

    def test_fixed_seed_reproducible(self, ulysses16):
        a = run_acs(ulysses16, AcsParams(), 40, np.random.default_rng(7))
        b = run_acs(ulysses16, AcsParams(), 40, np.random.default_rng(7))
        assert a.best_tour == b.best_tour
        assert a.best_lengths == b.best_lengths

    def test_ulysses16_finds_optimum_in_most_seeds(self, ulysses16):
        # stochastic bar: default parameters, 200 iterations, 10 seeds
        bests = [
            run_acs(ulysses16, AcsParams(), 200, np.random.default_rng(seed)).best_tour.length
            for seed in range(10)
        ]
        assert sum(b == 6859 for b in bests) >= 8, bests

    def test_eil51_quality(self, eil51):
        # published worst-of-10 for the fixed-parameter solver is 439
        record = run_acs(eil51, AcsParams(), 1000, np.random.default_rng(0))
        assert record.best_tour.length <= 439

    def test_pheromone_floor_invariant(self, ulysses16):
        # after T global updates every entry stays above tau0 * (1 - alpha)^T
        eta_pow, ant = ant_settings(ulysses16)
        alpha = AcsParams().alpha
        tau = init_pheromone(16, ant["tau0"])
        rng = np.random.default_rng(2)
        iterations = 50
        for _ in range(iterations):
            for _ in range(3):
                construct_tour(ulysses16, tau, rng, int(rng.integers(16)), weights=tau * eta_pow, **ant)
            perm = tuple(int(c) for c in rng.permutation(16))
            global_update(tau, Tour(order=perm, length=tour_length(ulysses16, perm)), alpha)
        floor = ant["tau0"] * (1.0 - alpha) ** iterations
        assert tau.min() >= floor * (1.0 - 1e-12)
        assert (tau > 0).all()
