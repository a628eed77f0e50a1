"""Hybrid solver: every ant carries its own parameter vector.

Ants build tours under their individual (beta, rho, q0) while sharing one
pheromone matrix; after each iteration the population of parameter vectors
takes a firefly sweep, so the solver tunes its own parameters as it runs.

The tuned ``rho`` is read as trail persistence per iteration, the meaning
rho has in the Ant System (Dorigo, Maniezzo & Colorni 1996); the local rule
that realizes it is this package's own. An edge crossed by all m ants in one
iteration keeps the fraction rho of its pheromone above tau0, so each
crossing applies the ACS local rule with decay ``1 - rho ** (1 / m)`` (0.067
at rho = 0.5, none at rho = 1). How much an edge decays therefore depends on
how many ants cross it. This rule was chosen by measurement over the plain
``decay = 1 - rho`` (see the changelog); neither source defines it.

A firefly's brightness is the inverse length of the best tour its ant has
contributed as a new global best, and zero while it has contributed none.
Only the global best reinforces the matrix, so these are the tours through
which an ant's parameters steer the colony. The length of an ant's latest
tour is not used: on a shared matrix it rewards copying the reinforced tour
(beta toward 0, q0 toward 1), which stalls the search.

A random kick moves each dimension by up to ``alpha / 2`` of its width
either way (see :func:`acsfa.firefly.move`); ``alpha`` starts at
``fa_alpha0`` and shrinks by the brightest firefly's delta after every
iteration.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .acs import RunRecord, colony, heuristic_power, nearest_neighbor_tour
from .firefly import PARAM_NAMES, ParamBounds, ParamVector, reduce_alpha, sweep
from .tsplib import Tour, TspInstance


@dataclass(frozen=True)
class HybridConfig:
    """Settings for a hybrid run; defaults follow the standard setup."""

    iterations: int = 1000
    m: int = 10
    bounds: ParamBounds = field(default_factory=ParamBounds)
    alpha: float = 0.1
    fa_alpha0: float = 2.3

    def __post_init__(self) -> None:
        if self.iterations < 0:
            raise ValueError(f"iterations must be >= 0, got {self.iterations}")
        if self.m < 1:
            raise ValueError(f"ant count m must be >= 1, got {self.m}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not 0.0 < self.fa_alpha0 < math.inf:
            raise ValueError(f"fa_alpha0 must be finite and positive, got {self.fa_alpha0}")


@dataclass(frozen=True, eq=False)
class ParameterTrace:
    """Per-iteration population statistics of the tuned parameters.

    Column order matches ``names``; one row per completed iteration. Means
    are what the usual evolution plots show, min/max are extra diagnostics.
    """

    names: tuple[str, ...]
    means: np.ndarray
    mins: np.ndarray
    maxs: np.ndarray

    def __len__(self) -> int:
        return self.means.shape[0]


def local_decay(rho: float, m: int) -> float:
    """Per-crossing decay that leaves the fraction rho after m crossings."""
    return 1.0 - rho ** (1.0 / m)


def init_population(bounds: ParamBounds, m: int, rng: np.random.Generator) -> list[ParamVector]:
    """m parameter vectors sampled uniformly within the box."""
    if m < 1:
        raise ValueError(f"population size must be >= 1, got {m}")
    sample = bounds.lows + rng.random((m, len(PARAM_NAMES))) * bounds.widths
    return [ParamVector.from_array(row) for row in sample]


def run_acsfa(
    inst: TspInstance,
    config: HybridConfig,
    rng: np.random.Generator,
) -> tuple[RunRecord, ParameterTrace]:
    """Run the self-tuning hybrid; returns the run record and parameter trace.

    Per iteration of :func:`acsfa.acs.colony`: each ant builds a tour from a
    random start under its own parameters, applying the local rule on the
    shared matrix with decay :func:`local_decay` (rho is per-iteration
    trail persistence); the global best reinforces the matrix; the firefly
    sweep evolves the parameter population with each ant's record as
    brightness (the inverse length of the best tour it built that was a new
    global best when built, zero if none); and the kick size alpha, which
    starts at ``fa_alpha0`` range widths, shrinks by the brightest
    firefly's delta. Ants keep their own vector across iterations (the sweep
    moves vectors in place rather than reassigning them by rank); that
    identity-stable pairing measurably tightens solution quality. The brightest firefly never moves, so
    ``best_params`` is the vector that built the best tour.
    """
    t0 = time.perf_counter()
    m = config.m
    eta_pow = heuristic_power(inst)
    pop = init_population(config.bounds, m, rng)
    alpha = config.fa_alpha0

    def ants():
        for v in pop:
            yield eta_pow(v.beta), v.q0, local_decay(v.rho, m)

    dims = len(PARAM_NAMES)
    means = np.empty((config.iterations, dims))
    mins = np.empty((config.iterations, dims))
    maxs = np.empty((config.iterations, dims))
    best: Tour | None = None
    trace: list[int] = []
    light = [0.0] * m

    brightest = 0
    for it, (best, records) in zip(range(config.iterations), colony(inst, rng, config.alpha, ants)):
        for k, length in records:
            light[k] = 1.0 / max(length, 1)  # zero-length tours only on degenerate data
        pop = sweep(pop, light, alpha, config.bounds, rng)
        brightest = int(np.argmax(light))  # the brightest firefly never moved
        alpha = reduce_alpha(alpha, pop[brightest].delta)
        positions = np.array(pop)
        means[it] = positions.mean(axis=0)
        mins[it] = positions.min(axis=0)
        maxs[it] = positions.max(axis=0)
        trace.append(best.length)

    best_params = pop[brightest] if config.iterations > 0 else None
    if best is None:
        best = nearest_neighbor_tour(inst, 0)
    record = RunRecord(
        algorithm="acsfa",
        instance=inst.name,
        best_tour=best,
        best_lengths=tuple(trace),
        wall_time_s=time.perf_counter() - t0,
        best_params=best_params,
    )
    return record, ParameterTrace(names=PARAM_NAMES, means=means, mins=mins, maxs=maxs)
