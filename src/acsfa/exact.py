"""Exact TSP solvers for small instances, used as ground truth in tests.

Both solvers fix city 0 as the tour start, which is free for a cyclic
objective. The caps keep desk-scale runtimes under a minute; held_karp's
can be raised explicitly at the caller's own risk.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from .tsplib import Tour, TspInstance

BRUTE_FORCE_MAX = 10
HELD_KARP_MAX = 18


def brute_force(inst: TspInstance) -> Tour:
    """Enumerate all (n-1)!/2 distinct cycles and return an optimal tour."""
    n = inst.dimension
    if n > BRUTE_FORCE_MAX:
        raise ValueError(f"brute force enumeration capped at {BRUTE_FORCE_MAX} cities, got {n}")
    d = inst.dist.tolist()
    d0 = d[0]
    best_len: int | None = None
    best_perm: tuple[int, ...] | None = None
    for perm in permutations(range(1, n)):
        if perm[0] > perm[-1]:  # visit each cycle in one direction only
            continue
        total = d0[perm[0]]
        prev = perm[0]
        for city in perm[1:]:
            total += d[prev][city]
            prev = city
        total += d[prev][0]
        if best_len is None or total < best_len:
            best_len = total
            best_perm = perm
    assert best_perm is not None
    return Tour(order=(0,) + best_perm, length=int(best_len))


def held_karp(inst: TspInstance, max_cities: int = HELD_KARP_MAX) -> int:
    """Exact optimal tour length via dynamic programming over city subsets.

    Memory grows as n * 2**n; the default cap of 18 cities needs ~18 MB.
    """
    n = inst.dimension
    if n > max_cities:
        raise ValueError(f"held-karp is capped at {max_cities} cities, got {n}")
    d = inst.dist.astype(float)
    m = n - 1
    full = 1 << m
    # dp[mask, j]: cheapest path from city 0 through set `mask` ending at j+1
    dp = np.full((full, m), np.inf)
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
    best = np.min(dp[full - 1] + d[1:, 0])
    return int(round(best))
