"""Ant colony system engine: transition rule, pheromone updates, baseline solver.

The pheromone matrix is a plain (n, n) float array. Tour construction
mutates it in place (local updates happen as edges are traversed), so a run
owns its matrix exclusively. All randomness comes from the caller's
generator; nothing here touches global state.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from itertools import islice, repeat
from typing import TYPE_CHECKING

import numpy as np

from .tsplib import Tour, TspInstance, tour_length

if TYPE_CHECKING:
    from .firefly import ParamVector


@dataclass(frozen=True)
class AcsParams:
    """Settings of the fixed-parameter baseline solver.

    The base pheromone level tau0 is always derived from the instance (see
    :func:`compute_tau0`).
    """

    beta: float = 2.0
    rho: float = 0.1
    q0: float = 0.85
    alpha: float = 0.1
    m: int = 10

    def __post_init__(self) -> None:
        if not 0.0 <= self.beta < math.inf:
            raise ValueError(f"beta must be finite and >= 0, got {self.beta}")
        if not 0.0 < self.rho < 1.0:
            raise ValueError(f"rho must lie in (0, 1), got {self.rho}")
        if not 0.0 <= self.q0 <= 1.0:
            raise ValueError(f"q0 must lie in [0, 1], got {self.q0}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.m < 1:
            raise ValueError(f"ant count m must be >= 1, got {self.m}")


@dataclass(frozen=True)
class RunRecord:
    """Outcome of one seeded solver run.

    ``best_lengths`` traces the global best after every iteration;
    ``best_params`` is filled by the hybrid solver only.
    """

    algorithm: str
    instance: str
    best_tour: Tour
    best_lengths: tuple[int, ...]
    wall_time_s: float
    seed: int | None = None
    best_params: "ParamVector | None" = None


def nearest_neighbor_tour(inst: TspInstance, start: int = 0) -> Tour:
    """Greedy tour, always visiting the nearest unvisited city (ties: lowest index)."""
    n = inst.dimension
    if not 0 <= start < n:
        raise IndexError(f"start city {start} out of range for n={n}")
    d = inst.dist
    order = np.empty(n, dtype=np.int64)
    # +inf at visited cities; adding it to a distance row is exact (int64 -> float64)
    penalty = np.zeros(n)
    order[0] = start
    penalty[start] = np.inf
    r = start
    for k in range(1, n):
        r = int((d[r] + penalty).argmin())
        order[k] = r
        penalty[r] = np.inf
    return Tour(order=tuple(int(c) for c in order), length=tour_length(inst, order))


def compute_tau0(inst: TspInstance) -> float:
    """Initial pheromone level 1 / (n * L_nn) from the greedy tour at city 0.

    A zero-length greedy tour (all points coincide) counts as length 1.
    """
    return 1.0 / (inst.dimension * max(nearest_neighbor_tour(inst, 0).length, 1))


def init_pheromone(n: int, tau0: float) -> np.ndarray:
    """Fresh symmetric pheromone matrix at the base level everywhere."""
    if not tau0 > 0:
        raise ValueError(f"tau0 must be positive, got {tau0}")
    return np.full((n, n), float(tau0))


def _inverse_distance(dist: np.ndarray) -> np.ndarray:
    """1 / d elementwise, with zero distances counted as 1."""
    return 1.0 / np.maximum(dist.astype(float), 1.0)


def heuristic_matrix(inst: TspInstance) -> np.ndarray:
    """Inverse-distance attractiveness; zero-distance pairs count as distance 1."""
    return _inverse_distance(inst.dist)


def _heuristic_levels(inst: TspInstance) -> tuple[np.ndarray, np.ndarray]:
    """The heuristic's value per distance level and each pair's level.

    ``table[index]`` equals :func:`heuristic_matrix`. When the largest
    distance is below n * n the levels are 0..max and the index is
    ``inst.dist`` itself; otherwise they are the distinct distances.
    """
    d = inst.dist
    dmax = int(d.max())
    if dmax + 1 <= d.size:
        return _inverse_distance(np.arange(dmax + 1)), d
    levels, index = np.unique(d, return_inverse=True)
    return _inverse_distance(levels), index.reshape(d.shape)


def heuristic_power(inst: TspInstance) -> Callable[[float], np.ndarray]:
    """``beta -> heuristic_matrix(inst) ** beta``, one power per distance level.

    Distances are integers, so the heuristic takes few distinct values: on
    a random n = 1000 instance in a 1000 x 1000 square the table has 1 379
    levels (0..max) against 10^6 pairs. Each value is raised by the same
    ufunc on the same double, so the gathered matrix has the bytes of the
    full power.
    """
    table, index = _heuristic_levels(inst)
    return lambda beta: (table**beta)[index]


def _row_weights(tau_row: np.ndarray, eta_pow_row: np.ndarray, avail: np.ndarray) -> np.ndarray:
    """Transition weights tau * eta**beta over a whole row, zero at visited cities."""
    return tau_row * eta_pow_row * avail


def _choose(w: np.ndarray, avail: np.ndarray, q0: float, rng: np.random.Generator) -> int:
    """Pseudo-random-proportional rule over a masked row of weights.

    With probability q0 take the largest weight (ties: lowest index),
    otherwise sample a city with probability proportional to its weight.
    Visited cities weigh 0.0, so the cumulative sum only rises at unvisited
    ones and ``searchsorted`` can only land there. Adding 0.0 is exact, so
    the choice and the random draws equal those of the same rule applied to
    the unvisited cities alone.
    """
    if rng.random() <= q0:
        s = int(w.argmax())
        # every weight underflowed to 0.0: the lowest unvisited city
        return s if avail.item(s) else int(avail.argmax())
    c = w.cumsum()
    total = c.item(-1)
    if 0.0 < total < math.inf:
        s = int(c.searchsorted(rng.random() * total, side="right"))
        # a draw rounded up to the total: the last unvisited city
        return s if s < c.size else int(np.flatnonzero(avail)[-1])
    # weights can underflow to all-zero after very long decay: fall back to uniform
    J = np.flatnonzero(avail)
    return int(J[min(int(rng.random() * J.size), J.size - 1)])


def transition_probabilities(
    r: int,
    unvisited,
    tau: np.ndarray,
    inst: TspInstance,
    beta: float,
) -> np.ndarray:
    """Normalized choice distribution over the unvisited cities, sorted by index."""
    avail = np.zeros(inst.dimension)
    avail[np.asarray(list(unvisited), dtype=np.int64)] = 1.0
    J = np.flatnonzero(avail)
    if not J.size:
        raise ValueError("no unvisited cities to choose from")
    w = _row_weights(tau[r], _inverse_distance(inst.dist[r]) ** beta, avail)
    total = w.sum()
    if not 0.0 < total < math.inf:
        return np.full(J.size, 1.0 / J.size)
    return w[J] / total


def _evaporate(tau: np.ndarray, r: int, s: int, keep: float, add: float) -> None:
    v = keep * tau.item(r, s) + add
    tau[r, s] = v
    tau[s, r] = v


def local_update(tau: np.ndarray, r: int, s: int, rho: float, tau0: float) -> None:
    """Evaporate edge (r, s) toward the base level tau0, symmetrically."""
    _evaporate(tau, r, s, 1.0 - rho, rho * tau0)


def global_update(tau: np.ndarray, best: Tour, alpha: float) -> None:
    """Evaporate and reward the global-best tour's edges, symmetrically.

    Only edges on the best tour are touched: tau <- (1-alpha)*tau + alpha/L.
    Evaporating the whole matrix instead freezes the search within a few
    dozen iterations (cold edges decay geometrically and stop being
    sampled), which measurably destroys solution quality on small
    instances, so the update stays confined to the reinforced edges.
    """
    o = np.asarray(best.order, dtype=np.int64)
    nxt = np.roll(o, -1)
    bonus = alpha / max(best.length, 1)  # zero-length tours only on degenerate data
    tau[o, nxt] *= 1.0 - alpha
    tau[nxt, o] *= 1.0 - alpha
    tau[o, nxt] += bonus
    tau[nxt, o] += bonus


def construct_tour(
    inst: TspInstance,
    tau: np.ndarray,
    rng: np.random.Generator,
    start: int,
    *,
    eta_pow: np.ndarray,
    q0: float,
    rho: float,
    tau0: float,
) -> Tour:
    """Build one complete tour, locally updating every traversed edge.

    ``eta_pow`` is the heuristic matrix already raised to beta; the hybrid
    solver passes per-ant values of it, q0 and rho.
    """
    n = inst.dimension
    if not 0 <= start < n:
        raise IndexError(f"start city {start} out of range for n={n}")
    keep = 1.0 - rho
    add = rho * tau0

    avail = np.ones(n)
    avail[start] = 0.0
    order = [start]
    r = start
    for _ in range(n - 1):
        s = _choose(_row_weights(tau[r], eta_pow[r], avail), avail, q0, rng)
        _evaporate(tau, r, s, keep, add)
        avail[s] = 0.0
        order.append(s)
        r = s
    _evaporate(tau, r, start, keep, add)
    # the order is a permutation by construction, so skip tour_length's check
    o = np.array(order)
    length = int(inst.dist[o[:-1], o[1:]].sum()) + inst.dist.item(r, start)
    return Tour(order=tuple(order), length=length)


def colony(
    inst: TspInstance,
    rng: np.random.Generator,
    alpha: float,
    ants: Callable[[], Iterable[tuple[np.ndarray, float, float]]],
) -> Iterator[tuple[Tour, list[tuple[int, int]]]]:
    """The ACS iteration of both solvers; it runs until the caller stops.

    Each iteration, ``ants()`` hands out one ``(eta_pow, q0, rho)`` per ant
    (see :func:`construct_tour`); each ant builds a tour from a random start
    on the shared pheromone matrix, then the global best reinforces it.
    Yields the global best and the ``(ant, length)`` of each tour that was a
    new global best when built, in ant order.
    """
    n = inst.dimension
    tau0 = compute_tau0(inst)
    tau = init_pheromone(n, tau0)
    best: Tour | None = None
    while True:
        records = []
        k = 0
        for eta_pow, q0, rho in ants():
            start = int(rng.integers(n))
            tour = construct_tour(inst, tau, rng, start, eta_pow=eta_pow, q0=q0, rho=rho, tau0=tau0)
            # free this ant's matrix before ants() makes the next one; a loop
            # over enumerate(ants()) would keep it in enumerate's reused tuple
            del eta_pow
            if best is None or tour.length < best.length:
                best = tour
                records.append((k, tour.length))
            k += 1
        global_update(tau, best, alpha)
        yield best, records


def run_acs(
    inst: TspInstance,
    params: AcsParams,
    iterations: int,
    rng: np.random.Generator,
) -> RunRecord:
    """Fixed-parameter solver: m ants per iteration from random starts.

    With ``iterations=0`` the greedy tour used for tau0 is returned, so the
    contract stays total.
    """
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    t0 = time.perf_counter()
    ant = (heuristic_power(inst)(params.beta), params.q0, params.rho)
    best: Tour | None = None
    trace: list[int] = []
    for best, _ in islice(colony(inst, rng, params.alpha, lambda: repeat(ant, params.m)), iterations):
        trace.append(best.length)
    if best is None:
        best = nearest_neighbor_tour(inst, 0)
    return RunRecord(
        algorithm="acs",
        instance=inst.name,
        best_tour=best,
        best_lengths=tuple(trace),
        wall_time_s=time.perf_counter() - t0,
    )
