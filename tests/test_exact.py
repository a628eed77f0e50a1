import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acsfa.exact import brute_force, held_karp
from acsfa.tsplib import TspInstance, tour_length

from conftest import random_euclidean


def explicit(weights) -> TspInstance:
    w = np.asarray(weights, dtype=np.int64)
    return TspInstance(name="w", dimension=len(w), metric="EXPLICIT", weights=w)


class TestBruteForce:
    def test_triangle(self, tiny3):
        assert brute_force(tiny3).length == 3

    def test_unit_square_perimeter(self, square4):
        tour = brute_force(square4)
        assert tour.length == 4
        assert sorted(tour.order) == [0, 1, 2, 3]

    def test_scaled_square(self, square40):
        assert brute_force(square40).length == 40

    def test_cap_enforced(self):
        rng = np.random.default_rng(0)
        inst = random_euclidean(11, rng)
        with pytest.raises(ValueError, match="capped"):
            brute_force(inst)

    def test_returned_tour_length_consistent(self):
        rng = np.random.default_rng(1)
        inst = random_euclidean(7, rng)
        tour = brute_force(inst)
        assert tour.length == tour_length(inst, tour.order)


class TestHeldKarp:
    def test_triangle(self, tiny3):
        assert held_karp(tiny3) == 3

    def test_ulysses16_published_optimum(self, ulysses16):
        assert held_karp(ulysses16) == 6859

    def test_cap_enforced(self, eil51):
        with pytest.raises(ValueError, match="capped"):
            held_karp(eil51)

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(2)
        for _ in range(8):
            n = int(rng.integers(5, 11))
            inst = random_euclidean(n, rng)
            assert held_karp(inst) == brute_force(inst).length

    def test_lower_bound_of_random_permutations(self):
        rng = np.random.default_rng(3)
        inst = random_euclidean(12, rng)
        opt = held_karp(inst)
        for _ in range(300):
            perm = rng.permutation(12)
            assert opt <= tour_length(inst, perm)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(4)
        inst = random_euclidean(9, rng)
        perm = rng.permutation(9)
        relabeled = TspInstance(
            name="relabeled",
            dimension=9,
            metric="EXPLICIT",
            weights=inst.dist[np.ix_(perm, perm)],
        )
        assert held_karp(relabeled) == held_karp(inst)
        assert brute_force(relabeled).length == brute_force(inst).length

    def test_exact_above_2_53(self):
        # path sums past 2**53 whose last bits decide the optimum
        m = 3 * 2**53
        inst = explicit([[0, m + 1, 1, m], [m + 1, 0, m, 1], [1, m, 0, m + 3], [m, 1, m + 3, 0]])
        assert held_karp(inst) == brute_force(inst).length == 2 * m + 2

    def test_memory_is_bounded(self, ulysses16):
        # the int64 table alone is 2**15 x 15 x 8 bytes = 3.9 MB; ulysses16's
        # weights fit the int32 table
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            assert held_karp(ulysses16) == 6859
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert peak < 2.5e6

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(4, 9),
        spread=st.sampled_from([3, 1000, 2**40]),
        bound=st.sampled_from(["int64", "int32", "int32 + 1"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_brute_force_near_the_int64_bound(self, n, spread, bound, seed):
        # weights up to `top`, where tour sums approach 2**63 - 1, or where
        # n * top reaches 2**31 - 1 - top, the edge of the int32 table
        top = {
            "int64": (2**63 - 1) // n,
            "int32": (2**31 - 1) // (n + 1),  # the largest top that keeps int32
            "int32 + 1": (2**31 - 1) // (n + 1) + 1,
        }[bound]
        w = np.triu(top - np.random.default_rng(seed).integers(0, min(spread, top), (n, n), endpoint=True), 1)
        w[0, n - 1] = top
        inst = explicit(w + w.T)
        assert held_karp(inst) == brute_force(inst).length
