import weakref
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acsfa.acs import (
    AcsParams,
    _choose,
    _heuristic_levels,
    _row_weights,
    colony,
    compute_tau0,
    construct_tour,
    global_update,
    heuristic_matrix,
    heuristic_power,
    init_pheromone,
    local_update,
    nearest_neighbor_tour,
    run_acs,
    transition_probabilities,
)
from acsfa.exact import brute_force
from acsfa.firefly import ParamBounds
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


def reference_nearest_neighbor_order(inst: TspInstance, start: int) -> tuple[int, ...]:
    """The greedy loop with a float copy of each row and a boolean visited mask."""
    n = inst.dimension
    visited = np.zeros(n, dtype=bool)
    visited[start] = True
    order = [start]
    r = start
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

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"beta": -0.1},
            {"rho": 0.0},
            {"rho": 1.0},
            {"q0": 1.2},
            {"q0": -0.1},
            {"alpha": 0.0},
            {"alpha": 1.0},
            {"m": 0},
        ],
    )
    def test_out_of_range_rejected(self, kwargs):
        with pytest.raises(ValueError):
            AcsParams(**kwargs)

    @pytest.mark.parametrize("beta", [float("nan"), float("inf")])
    def test_non_finite_beta_rejected(self, beta):
        with pytest.raises(ValueError, match="beta"):
            AcsParams(beta=beta)


class TestNearestNeighbor:
    def test_triangle(self, tiny3):
        for start in range(3):
            assert nearest_neighbor_tour(tiny3, start).length == 3

    def test_unit_square_perimeter(self, square4):
        assert nearest_neighbor_tour(square4, 0).length == 4

    def test_scaled_square_follows_perimeter(self, square40):
        tour = nearest_neighbor_tour(square40, 0)
        assert tour.length == 40
        assert tour.order == (0, 1, 2, 3)

    def test_eil51_golden(self, eil51):
        tour = nearest_neighbor_tour(eil51, 0)
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
        assert total == nearest_neighbor_tour(eil51, 0).length

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_the_masked_copy_loop(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 150))
        if seed % 2:
            inst = grid_instance(n, int(rng.integers(1, 12)), rng)
        else:
            inst = random_euclidean(n, rng)
        for start in {0, n - 1, *(int(s) for s in rng.integers(n, size=3))}:
            order = nearest_neighbor_tour(inst, start).order
            assert order == reference_nearest_neighbor_order(inst, start)


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


def choose_next(r, unvisited, tau, inst, beta, q0, rng) -> int:
    """One pseudo-random-proportional choice through construct_tour's row kernel."""
    avail = np.zeros(inst.dimension)
    avail[list(unvisited)] = 1.0
    eta_pow = heuristic_matrix(inst)[r] ** beta
    return _choose(_row_weights(tau[r], eta_pow, avail), avail, q0, rng)


class TestSelectNextCity:
    """The transition rule as construct_tour applies it: _choose over _row_weights."""

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


class TestHeuristicPower:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_same_bytes_as_the_full_power(self, data, ulysses16, eil51):
        inst = data.draw(st.one_of(st.sampled_from([ulysses16, eil51]), heuristic_instances()))
        beta = data.draw(BETAS)
        expected = heuristic_matrix(inst) ** beta
        got = heuristic_power(inst)(beta)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0, 2.0, 3.0, 3.7, 8.0])
    def test_same_bytes_at_n_300(self, beta):
        inst = random_euclidean(300, np.random.default_rng(3))
        assert heuristic_power(inst)(beta).tobytes() == (heuristic_matrix(inst) ** beta).tobytes()

    def test_range_levels_index_the_distances_without_a_copy(self, eil51):
        table, index = _heuristic_levels(eil51)
        assert index is eil51.dist
        assert table.size == eil51.dist.max() + 1

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


def ant_settings(inst: TspInstance, beta: float = 2.0, **values) -> dict:
    """construct_tour's keyword values: AcsParams defaults, tau0 from the instance."""
    defaults = AcsParams()
    return {
        "eta_pow": heuristic_matrix(inst) ** beta,
        "q0": defaults.q0,
        "rho": defaults.rho,
        "tau0": compute_tau0(inst),
        **values,
    }


class TestConstructTour:
    def test_triangle_always_unique_cycle(self, tiny3):
        ant = ant_settings(tiny3)
        tau = init_pheromone(3, ant["tau0"])
        for seed in range(10):
            tour = construct_tour(tiny3, tau, np.random.default_rng(seed), seed % 3, **ant)
            assert tour.length == 3

    def test_always_a_permutation(self, eil51):
        ant = ant_settings(eil51)
        tau = init_pheromone(51, ant["tau0"])
        for seed in range(25):
            tour = construct_tour(eil51, tau, np.random.default_rng(seed), 0, **ant)
            assert sorted(tour.order) == list(range(51))
            assert tour.length == tour_length(eil51, tour.order)

    def test_exploitation_on_square_matches_enumeration(self, square40):
        # q0=1 and a large beta on uniform pheromone follows the nearest
        # neighbor; enumeration confirms the perimeter is the optimum
        ant = ant_settings(square40, beta=5.0, q0=1.0)
        tau = init_pheromone(4, ant["tau0"])
        tour = construct_tour(square40, tau, np.random.default_rng(0), 0, **ant)
        assert tour.length == 40
        assert tour.length == brute_force(square40).length

    def test_local_update_applied_on_traversed_edges(self, square40):
        ant = ant_settings(square40, beta=5.0, q0=1.0, rho=0.5, tau0=0.125)
        tau = init_pheromone(4, 4.0)
        tour = construct_tour(square40, tau, np.random.default_rng(0), 0, **ant)
        order = tour.order
        for k in range(4):
            r, s = order[k], order[(k + 1) % 4]
            assert tau[r, s] < 4.0  # pulled toward tau0, closing edge included
        assert tau[0, 2] == 4.0  # diagonal never traversed


def colony_iterations(inst: TspInstance, count: int, seed: int = 0) -> list:
    """(best, records) of a colony's first iterations; six ants with mixed settings."""
    eta = heuristic_matrix(inst)
    ants = [(eta**beta, q0, 0.1) for beta in (0.0, 2.0, 5.0) for q0 in (0.5, 0.95)]
    return list(islice(colony(inst, np.random.default_rng(seed), 0.1, lambda: iter(ants)), count))


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

    def test_frees_each_matrix_before_pulling_the_next(self, ulysses16):
        eta = heuristic_matrix(ulysses16)
        refs = []
        held = []

        def ants():
            for beta in (1.0, 2.0, 3.0):
                held.append(bool(refs) and refs[-1]() is not None)
                eta_pow = eta**beta
                refs.append(weakref.ref(eta_pow))
                yield eta_pow, 0.9, 0.1
                del eta_pow

        list(islice(colony(ulysses16, np.random.default_rng(0), 0.1, ants), 2))
        assert held == [False] * 6


class TestRunAcs:
    def test_zero_iterations_returns_greedy_tour(self, eil51):
        record = run_acs(eil51, AcsParams(), 0, np.random.default_rng(0))
        assert record.best_tour.length == EIL51_NN_LENGTH
        assert record.best_lengths == ()

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
        ant = ant_settings(ulysses16)
        alpha = AcsParams().alpha
        tau = init_pheromone(16, ant["tau0"])
        rng = np.random.default_rng(2)
        iterations = 50
        for _ in range(iterations):
            for _ in range(3):
                construct_tour(ulysses16, tau, rng, int(rng.integers(16)), **ant)
            perm = tuple(int(c) for c in rng.permutation(16))
            global_update(tau, Tour(order=perm, length=tour_length(ulysses16, perm)), alpha)
        floor = ant["tau0"] * (1.0 - alpha) ** iterations
        assert tau.min() >= floor * (1.0 - 1e-12)
        assert (tau > 0).all()
