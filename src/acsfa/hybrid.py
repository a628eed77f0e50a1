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
either way (see :func:`acsfa.firefly.move`); ``alpha`` starts at 2.3 range
widths, fixed rather than a setting, and shrinks by the brightest firefly's
delta after every iteration.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .acs import AcsParams, RunRecord, colony
from .firefly import PARAM_NAMES, ParamBounds, ParamVector, reduce_alpha, sweep
from .tsplib import TspInstance, check_integer

_FIRST_KICK = 2.3  # the kick size alpha starts at, in range widths


@dataclass(frozen=True)
class HybridConfig:
    """Settings for a hybrid run; ``m`` defers to :class:`AcsParams`.

    The firefly box is the class constant ``bounds``, not a setting: the
    hybrid tunes its parameters within the same fixed box on every run. The
    global update's evaporation is the class constant ``AcsParams.alpha``.
    """

    bounds = ParamBounds()
    iterations: int = 1000
    m: int = AcsParams.m

    def __post_init__(self) -> None:
        check_integer("iterations", self.iterations, 1)
        AcsParams(m=self.m)  # its owner checks m


@dataclass(frozen=True, eq=False)
class ParameterTrace:
    """Per-iteration population statistics of the tuned parameters.

    Columns follow the class constant ``names``; one row per completed
    iteration. Means are what evolution plots show; min/max are diagnostics.
    """

    names = PARAM_NAMES
    means: np.ndarray
    mins: np.ndarray
    maxs: np.ndarray

    def __len__(self) -> int:
        return self.means.shape[0]


def _local_decay(rho: float, m: int) -> float:
    """Per-crossing decay that leaves the fraction rho after m crossings."""
    return 1.0 - rho ** (1.0 / m)


def init_population(bounds: ParamBounds, m: int, rng: np.random.Generator) -> list[ParamVector]:
    """m parameter vectors sampled uniformly within the box."""
    m = check_integer("population size", m, 1)
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
    shared matrix with decay :func:`_local_decay` (rho is per-iteration
    trail persistence); the global best reinforces the matrix; the firefly
    sweep evolves the parameter population with each ant's record as
    brightness (the inverse length of the best tour it built that was a new
    global best when built, zero if none); and the kick size alpha, which
    starts at 2.3 range widths, shrinks by the brightest firefly's delta. Ants
    keep their own vector across iterations (the sweep moves vectors in
    place rather than reassigning them by rank); that identity-stable
    pairing measurably tightens solution quality. The brightest firefly
    never moves, so ``best_params`` is the vector that built the best tour.
    """
    t0 = time.perf_counter()
    m = config.m
    pop = init_population(config.bounds, m, rng)
    alpha = _FIRST_KICK

    def ants():
        for v in pop:
            yield v.beta, v.q0, _local_decay(v.rho, m)

    params = ParameterTrace(*(np.empty((config.iterations, len(PARAM_NAMES))) for _ in range(3)))
    trace: list[int] = []
    light = [0.0] * m

    for it, (best, records) in zip(range(config.iterations), colony(inst, rng, ants)):
        for k, length in records:
            light[k] = 1.0 / max(length, 1)  # zero-length tours only on degenerate data
        pop = sweep(pop, light, alpha, config.bounds, rng)
        brightest = light.index(max(light))  # the brightest firefly never moved
        alpha = reduce_alpha(alpha, pop[brightest].delta)
        positions = np.array(pop)
        positions.mean(axis=0, out=params.means[it])
        positions.min(axis=0, out=params.mins[it])
        positions.max(axis=0, out=params.maxs[it])
        trace.append(best.length)

    wall_time_s = time.perf_counter() - t0
    return RunRecord("acsfa", inst.name, best, tuple(trace), wall_time_s, best_params=pop[brightest]), params
