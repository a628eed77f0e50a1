"""Exact TSP solvers for small instances, used as ground truth in tests.

Both solvers fix city 0 as the tour start, which is free for a cyclic
objective. The caps keep desk-scale runtimes under a minute.
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


def held_karp(inst: TspInstance) -> int:
    """Exact optimal tour length via dynamic programming over city subsets.

    Memory grows as n * 2**n: the table is int32 while n times the largest
    weight stays below 2**31 - 1 less that weight, else int64, so the cap of
    18 cities needs ~9 MB in int32 and ~18 MB in int64.
    """
    n = inst.dimension
    if n > HELD_KARP_MAX:
        raise ValueError(f"held-karp is capped at {HELD_KARP_MAX} cities, got {n}")
    top = int(inst.dist.max())
    # a path sum is at most n * top, which TspInstance bounds by 2**63 - 1;
    # the table takes the narrower dtype whose max less top (the sentinel
    # for unreached entries) stays above that, so every real path beats the
    # sentinel and adding a weight to the sentinel cannot overflow
    dtype = np.int32 if n * top < np.iinfo(np.int32).max - top else np.int64
    unreached = np.iinfo(dtype).max - top
    d = inst.dist.astype(dtype)
    m = n - 1
    full = 1 << m
    # dp[mask, j]: cheapest path from city 0 through set `mask` ending at j+1
    dp = np.full((full, m), unreached, dtype=dtype)
    bits = np.left_shift(1, np.arange(m))
    dp[bits, np.arange(m)] = d[0, 1:]
    into = d[1:, 1:].T  # into[j, k]: the weight from city k+1 into city j+1
    for mask in range(3, full):
        if mask & (mask - 1) == 0:  # singletons are seeded above
            continue
        ends = np.flatnonzero(mask & bits)
        dp[mask, ends] = (dp[mask ^ bits[ends]] + into[ends]).min(axis=1)
    return int(np.min(dp[full - 1] + d[1:, 0]))
