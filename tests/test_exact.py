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


def reference_held_karp(inst: TspInstance) -> int:
    """The subset DP with one numpy ``min`` per (subset, end city)."""
    n = inst.dimension
    top = int(inst.dist.max())
    dtype = np.int32 if n * top < np.iinfo(np.int32).max - top else np.int64
    unreached = np.iinfo(dtype).max - top
    d = inst.dist.astype(dtype)
    m = n - 1
    full = 1 << m
    dp = np.full((full, m), unreached, dtype=dtype)
    dp[np.left_shift(1, np.arange(m)), np.arange(m)] = d[0, 1:]
    sub = d[1:, 1:]
    for mask in range(3, full):
        if mask & (mask - 1) == 0:  # singletons are seeded above
            continue
        row = dp[mask]
        rest = mask
        while rest:
            bit = rest & -rest
            j = bit.bit_length() - 1
            row[j] = np.min(dp[mask ^ bit] + sub[:, j])
            rest ^= bit
    return int(np.min(dp[full - 1] + d[1:, 0]))


def seeded_instance(kind: str, n: int, seed: int) -> TspInstance:
    rng = np.random.default_rng(seed)
    if kind == "EUC_2D":
        return random_euclidean(n, rng)
    if kind == "GEO":  # DDD.MM latitude and longitude, as in ulysses16
        coords = np.round(rng.uniform([-60.0, -170.0], [60.0, 170.0], (n, 2)), 2)
        return TspInstance(name="geo", dimension=n, metric="GEO", coords=coords)
    # EXPLICIT: a symmetric integer matrix; "int64" weights overflow the int32 table
    top = 2**40 if kind == "int64" else 1000
    w = np.triu(rng.integers(1, top, (n, n), endpoint=True), 1)
    return explicit(w + w.T)


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

    @pytest.mark.parametrize(
        "kind, n, seed",
        [("EUC_2D", 11, 5), ("GEO", 12, 6), ("EXPLICIT", 13, 7), ("int64", 14, 8)],
        ids=["EUC_2D n=11", "GEO n=12", "EXPLICIT n=13", "EXPLICIT int64 n=14"],
    )
    def test_matches_the_per_end_loop(self, kind, n, seed):
        # the reference takes one min per (subset, end city), held_karp one per
        # subset; both take each entry's min over the same integer sums
        inst = seeded_instance(kind, n, seed)
        needs_int64 = n * int(inst.dist.max()) >= np.iinfo(np.int32).max - int(inst.dist.max())
        assert needs_int64 == (kind == "int64")
        assert held_karp(inst) == reference_held_karp(inst)

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
