"""Ant colony system engine: transition rule, pheromone updates, baseline solver.

The pheromone matrix is a plain (n, n) float array. Tour construction
mutates it in place (the local update of each traversed edge, applied once
the tour is closed), so a run owns its matrix exclusively. All randomness
comes from the caller's generator; nothing here touches global state.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from itertools import chain, islice, repeat
from typing import TYPE_CHECKING

import numpy as np

from .tsplib import _BLOCK_ROWS, Tour, TspInstance, check_integer, tour_length

if TYPE_CHECKING:
    from .firefly import ParamVector


@dataclass(frozen=True)
class AcsParams:
    """The fixed-parameter baseline solver's one setting, the ant count ``m``.

    beta, rho, q0 and the global evaporation alpha are class constants; tau0
    is always derived from the instance (see :func:`compute_tau0`).
    """

    beta = 2.0
    rho = 0.1
    q0 = 0.85
    alpha = 0.1
    m: int = 10

    def __post_init__(self) -> None:
        check_integer("ant count m", self.m, 1)


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


def nearest_neighbor_tour(inst: TspInstance) -> Tour:
    """Greedy tour from city 0, always visiting the nearest unvisited city (ties: lowest index)."""
    n = inst.dimension
    d = inst.dist
    order = np.empty(n, dtype=np.int64)
    # 2**62 at visited cities: TspInstance bounds every distance by
    # (2**63 - 1) // 3 < 2**62, so the int64 sum is exact and ranks them last
    penalty = np.zeros(n, dtype=np.int64)
    order[0] = 0
    penalty[0] = 2**62
    r = 0
    for k in range(1, n):
        r = int((d[r] + penalty).argmin())
        order[k] = r
        penalty[r] = 2**62
    labels = inst._labels
    return Tour(order=tuple(labels[c] for c in order.tolist()), length=tour_length(inst, order))


def compute_tau0(inst: TspInstance) -> float:
    """Initial pheromone level 1 / (n * L_nn) from the greedy tour at city 0.

    A zero-length greedy tour (all points coincide) counts as length 1.
    """
    return 1.0 / (inst.dimension * max(nearest_neighbor_tour(inst).length, 1))


def init_pheromone(n: int, tau0: float) -> np.ndarray:
    """Fresh symmetric pheromone matrix at the base level everywhere."""
    n = check_integer("n", n, 1)
    if not 0.0 < tau0 < math.inf:
        raise ValueError(f"tau0 must be positive and finite, got {tau0}")
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
    distance is below n * n the levels are 0..max and the index is the
    instance's own distance matrix, the writeable array behind the
    read-only ``inst.dist``: numpy's ``take`` copies an index that is not
    writeable, and this one it reads in place. Otherwise the levels are the
    distinct distances. The index is never written.
    """
    d = inst._owner
    dmax = int(d.max())
    if dmax + 1 <= d.size:
        return _inverse_distance(np.arange(dmax + 1)), d
    levels, index = np.unique(d, return_inverse=True)
    return _inverse_distance(levels), index.reshape(d.shape)


def _choose(w: np.ndarray, avail: np.ndarray, exploit: bool, draw: Callable[[], float]) -> int:
    """Pseudo-random-proportional rule over a masked row of weights, once the
    first uniform has decided between its two branches.

    ``draw()`` returns the next uniform in [0, 1). When ``exploit`` (the
    caller's first uniform was at most q0) take the largest weight (ties:
    lowest index), otherwise sample a city with probability proportional to
    its weight.
    Visited cities weigh 0.0, so the cumulative sum only rises at unvisited
    ones and ``searchsorted`` can only land there. Adding 0.0 is exact, so
    the choice and the random draws equal those of the same rule applied to
    the unvisited cities alone.
    """
    if exploit:
        s = int(w.argmax())
        # every weight underflowed to 0.0: the lowest unvisited city
        return s if avail.item(s) else int(avail.argmax())
    c = w.cumsum()
    total = c.item(-1)
    if 0.0 < total < math.inf:
        s = int(c.searchsorted(draw() * total, "right"))
        # a draw rounded up to the total: the last unvisited city
        return s if s < c.size else int(np.flatnonzero(avail)[-1])
    # weights can underflow to all-zero after very long decay: fall back to uniform
    J = np.flatnonzero(avail)
    return int(J[min(int(draw() * J.size), J.size - 1)])


def _shortlist(weights: np.ndarray) -> tuple[list[int], list[int]]:
    """The cities of each row's largest and second-largest off-diagonal weight: ``(first, second)``.

    Ties go to the lowest index. Each 64-row block is copied once, with its
    diagonal and then each row's first pick set to -1.0, below any weight.
    """
    n = len(weights)
    first: list[int] = []
    second: list[int] = []
    for lo in range(0, n, _BLOCK_ROWS):
        block = weights[lo : lo + _BLOCK_ROWS].copy()
        block.reshape(-1)[lo :: n + 1] = -1.0
        top = block.argmax(axis=1)
        first += top.tolist()
        block[np.arange(len(block)), top] = -1.0
        second += block.argmax(axis=1).tolist()
    return first, second


def transition_probabilities(
    r: int,
    unvisited,
    tau: np.ndarray,
    inst: TspInstance,
    beta: float,
) -> np.ndarray:
    """Normalized choice distribution over the unvisited cities, sorted by index."""
    n = inst.dimension
    unvisited = list(unvisited)
    # a city outside 0..n-1 is an IndexError, as any index would be
    for what, city in [("city r", r)] + [("unvisited city", c) for c in unvisited]:
        if not 0 <= check_integer(what, city, -math.inf) < n:
            raise IndexError(f"{what} {city} out of range for n={n}")
    avail = np.zeros(n)
    avail[np.asarray(unvisited, dtype=np.int64)] = 1.0
    J = np.flatnonzero(avail)
    if not J.size:
        raise ValueError("no unvisited cities to choose from")
    w = tau[r] * _inverse_distance(inst.dist[r]) ** beta * avail
    total = w.sum()
    if not 0.0 < total < math.inf:
        return np.full(J.size, 1.0 / J.size)
    return w[J] / total


def local_update(tau: np.ndarray, r: int | np.ndarray, s: int | np.ndarray, rho: float, tau0: float) -> None:
    """Evaporate edge (r, s) toward the base level tau0, symmetrically.

    ``r`` and ``s`` are one edge's cities, or index arrays of distinct
    edges, none the reverse of another (a tour's, for n >= 3): each edge is
    updated from its own entry, with the bytes of one call per edge.
    """
    n = len(tau)
    fwd = r * n + s
    v = tau.take(fwd)
    v *= 1.0 - rho
    v += rho * tau0
    tau.put(fwd, v)
    tau.put(s * n + r, v)


def _tour_edges(order: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat (n, n) indices of a tour's edges (r, s) and of their reverses (s, r).

    ``order`` is one tour, or one per row: each city links to the next along
    the last axis and the last city to the first. For n >= 3 the 2n indices
    of one tour are distinct.
    """
    nxt = np.empty_like(order)
    nxt[..., :-1] = order[..., 1:]
    nxt[..., -1] = order[..., 0]
    return order * n + nxt, nxt * n + order


def global_update(tau: np.ndarray, best: Tour, alpha: float) -> None:
    """Evaporate and reward the global-best tour's edges, symmetrically.

    Only edges on the best tour are touched: tau <- (1-alpha)*tau + alpha/L.
    Evaporating the whole matrix instead freezes the search within a few
    dozen iterations (cold edges decay geometrically and stop being
    sampled), which measurably destroys solution quality on small
    instances, so the update stays confined to the reinforced edges.
    """
    # each direction from its own entry: no reliance on symmetry
    edges = np.concatenate(_tour_edges(np.array(best.order, dtype=np.intp), len(tau)))
    v = tau.take(edges)
    v *= 1.0 - alpha
    v += alpha / max(best.length, 1)  # zero-length tours only on degenerate data
    tau.put(edges, v)


def construct_tour(
    inst: TspInstance,
    tau: np.ndarray,
    rng: np.random.Generator,
    start: int,
    *,
    weights: np.ndarray,
    q0: float,
    rho: float,
    tau0: float,
) -> Tour:
    """Build one complete tour, locally updating every traversed edge.

    ``weights`` is ``tau * heuristic_matrix(inst) ** beta``, the product
    :func:`colony` keeps. The steps read only weights toward unvisited
    cities, and a local update only touches an edge between two visited
    ones, so the product taken when the ant starts stays exact for the whole
    tour; ``weights`` is not written.

    An exploiting step (first uniform at most q0) first asks the ant's
    shortlist (:func:`_shortlist`): each row's largest and second-largest
    off-diagonal weight, ties to the lowest index, taken once per ant. For
    finite weights >= 0 the masked row reads 0.0 at every visited city, so
    an unvisited ``first[r]``, or else an unvisited ``second[r]``, is its
    lowest-index maximum, the city the masked ``argmax`` would pick (when
    the row is all 0.0 it is the lowest unvisited city, as there). Only when
    both are visited does the step take :func:`_choose`'s masked row; an
    exploring step always does. The picks and the draws are those of the
    masked rule at every step.

    No step reads ``tau``, so :func:`local_update` is applied once per tour,
    after it closes, to its n edges at once. A step uses one or two
    uniforms. They are drawn in blocks: when one runs out, the next holds
    one uniform per step still to take, the current one included, so every
    block is used up and the generator ends where one draw at a time would
    leave it, for any bit generator, without its state being read or
    written.
    """
    n = inst.dimension
    # a city outside 0..n-1 is an IndexError, as any index would be
    if not 0 <= check_integer("start city", start, -math.inf) < n:
        raise IndexError(f"start city {start} out of range for n={n}")

    avail = np.empty(n)
    avail.fill(1.0)
    avail[start] = 0.0
    labels = inst._labels  # the instance's own ints: tours share them
    order = [labels[start]]
    # rng.random(k) gives the doubles of k scalar calls
    draw = chain.from_iterable(iter(lambda: rng.random(n - len(order)).tolist(), None)).__next__
    first, second = _shortlist(weights)
    free = [True] * n
    free[start] = False
    r = start
    for _ in range(n - 1):
        if draw() <= q0:
            s = first[r]
            if not free[s]:
                s = second[r]
                if not free[s]:
                    s = _choose(weights[r] * avail, avail, True, draw)
        else:
            s = _choose(weights[r] * avail, avail, False, draw)
        free[s] = False
        avail[s] = 0.0
        order.append(labels[s])
        r = s

    closed = np.array(order + [start], dtype=np.intp)
    r, s = closed[:-1], closed[1:]
    local_update(tau, r, s, rho, tau0)
    # the order is a permutation by construction, so skip tour_length's check
    return Tour(order=tuple(order), length=int(inst.dist[r, s].sum()))


class _WeightProduct:
    """``tau * table**beta[index]``, kept equal to it at every entry an ant reads.

    ``table`` and ``index`` are :func:`_heuristic_levels`, so ``powers[index]``
    has the bytes of ``heuristic_matrix(inst) ** beta``. The pheromone
    changes only along tours: call :meth:`touched` with each tour built or
    reinforced, and :meth:`sync` before the next ant reads the product.

    A new beta rebuilds the whole product. With beta unchanged, a product of
    one 64-row block (n <= 64) is rebuilt too, one ``take`` and one
    multiply; a larger one is refreshed at the 2n entries of each stale
    tour. Both write the same bytes.
    """

    def __init__(self, inst: TspInstance, tau: np.ndarray) -> None:
        self.tau = tau
        self.table, self.index = _heuristic_levels(inst)
        self.matrix = np.empty_like(tau)
        self.beta: float | None = None
        self.powers = self.table  # table ** beta from the first sync on
        self.stale: list[tuple[int, ...]] = []

    def touched(self, order: tuple[int, ...]) -> None:
        """Mark the 2n directed entries of a tour whose pheromone changed."""
        self.stale.append(order)

    def sync(self, beta: float) -> np.ndarray:
        """The product for ``beta``, current at every entry."""
        if beta != self.beta:
            self.beta = beta
            self.powers = self.table**beta
            self._rebuild()
        elif self.stale:
            if len(self.tau) <= _BLOCK_ROWS:
                self._rebuild()
            else:
                self._refresh()
        self.stale.clear()
        return self.matrix

    def _rebuild(self) -> None:
        # take() in mode "raise" buffers its whole output: gather block by block
        w, index, take = self.matrix, self.index, self.powers.take
        for lo in range(0, len(w), _BLOCK_ROWS):
            hi = lo + _BLOCK_ROWS
            take(index[lo:hi], out=w[lo:hi], mode="wrap")
        w *= self.tau

    def _refresh(self) -> None:
        # each direction from its own entries: no reliance on symmetry
        flat = np.concatenate(_tour_edges(np.array(self.stale, dtype=np.intp), len(self.tau)), axis=None)
        w = self.tau.take(flat)
        w *= self.powers.take(self.index.take(flat))
        self.matrix.put(flat, w)


def colony(
    inst: TspInstance,
    rng: np.random.Generator,
    ants: Callable[[], Iterable[tuple[float, float, float]]],
) -> Iterator[tuple[Tour, list[tuple[int, int]]]]:
    """The ACS iteration of both solvers; it runs until the caller stops.

    Each iteration, ``ants()`` hands out one ``(beta, q0, rho)`` of plain
    floats per ant, at least one; each ant builds a tour from a random start
    on the shared pheromone matrix, then the global best reinforces it with
    the fixed evaporation ``AcsParams.alpha``. Yields the global best and the
    ``(ant, length)`` of each tour that was a new global best when built, in
    ant order. An iteration with no ant raises ``ValueError``.

    The colony keeps one weight matrix, ``tau * heuristic_matrix ** beta``,
    which every ant's steps read (see :func:`construct_tour`). Before each
    ant it is rebuilt when beta has changed (``table ** beta`` is raised
    once per new beta) or when n <= 64, and otherwise brought up to date at
    the edges of the tours built or reinforced since (see
    :class:`_WeightProduct`). A run therefore holds two n x n float
    matrices: the pheromone and the weights.
    Each ant also takes its shortlist of two cities per row from the
    weights, one 64-row block copy at a time (see :func:`construct_tour`);
    its exploiting steps mostly end there, with no numpy call.
    """
    n = inst.dimension
    tau0 = compute_tau0(inst)
    tau = init_pheromone(n, tau0)
    product = _WeightProduct(inst, tau)
    best_length = math.inf  # so the first tour is a record
    while True:
        records = []
        k = 0
        for beta, q0, rho in ants():
            weights = product.sync(beta)
            start = int(rng.integers(n))
            tour = construct_tour(inst, tau, rng, start, weights=weights, q0=q0, rho=rho, tau0=tau0)
            product.touched(tour.order)
            if tour.length < best_length:
                best, best_length = tour, tour.length
                records.append((k, tour.length))
            k += 1
        if not k:
            raise ValueError("ants() handed out no ant for this iteration")
        global_update(tau, best, AcsParams.alpha)
        product.touched(best.order)
        yield best, records


def run_acs(
    inst: TspInstance,
    params: AcsParams,
    iterations: int,
    rng: np.random.Generator,
) -> RunRecord:
    """Fixed-parameter solver: m ants per iteration from random starts, for at least one iteration."""
    check_integer("iterations", iterations, 1)
    t0 = time.perf_counter()
    ant = (params.beta, params.q0, params.rho)
    trace: list[int] = []
    for best, _ in islice(colony(inst, rng, lambda: repeat(ant, params.m)), iterations):
        trace.append(best.length)
    return RunRecord("acs", inst.name, best, tuple(trace), time.perf_counter() - t0)
