"""Firefly moves over bounded parameter vectors.

Positions are 5-vectors (beta, rho, q0, gamma, delta): the first three feed
tour construction, the last two steer the firefly dynamics themselves.
Distances and random kicks are both measured in units of each dimension's
range width: the raw ranges differ by more than an order of magnitude, so
raw units would make the light absorption coefficient meaningless for the
narrow dimensions and would pin them to the box edges with every kick.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

PARAM_NAMES = ("beta", "rho", "q0", "gamma", "delta")

# Where each dimension's box must lie, and the test for it.
_DOMAINS = {
    "beta": ("[0, inf)", lambda low, high: low >= 0.0),
    "rho": ("(0, 1]", lambda low, high: low > 0.0 and high <= 1.0),
    "q0": ("[0, 1]", lambda low, high: low >= 0.0 and high <= 1.0),
    "gamma": ("[0, inf)", lambda low, high: low >= 0.0),
    "delta": ("[0, 1]", lambda low, high: low >= 0.0 and high <= 1.0),
}


def check_bounds(name: str, low: float, high: float) -> None:
    """Raise ValueError unless (low, high) is a finite box side within the dimension's domain."""
    if not (math.isfinite(low) and math.isfinite(high) and low < high):
        raise ValueError(f"{name} bounds must be finite with low < high, got ({low}, {high})")
    domain, inside = _DOMAINS[name]
    if not inside(low, high):
        raise ValueError(f"{name} bounds must lie in {domain}, got ({low}, {high})")


@dataclass(frozen=True)
class ParamBounds:
    """Per-dimension (low, high) box for parameter vectors, checked by :func:`check_bounds`."""

    beta: tuple[float, float] = (0.0, 8.0)
    rho: tuple[float, float] = (0.5, 1.0)
    q0: tuple[float, float] = (0.5, 1.0)
    gamma: tuple[float, float] = (0.0, 10.0)
    delta: tuple[float, float] = (0.8, 1.0)

    def __post_init__(self) -> None:
        for name in PARAM_NAMES:
            check_bounds(name, *getattr(self, name))

    @cached_property
    def sides(self) -> tuple[tuple[float, float, float], ...]:
        """(low, high, width) of each dimension as plain floats, for the scalar math in :func:`move`."""
        return tuple(
            (low, high, high - low) for low, high in (map(float, getattr(self, n)) for n in PARAM_NAMES)
        )

    def _column(self, k: int) -> np.ndarray:
        values = np.array([side[k] for side in self.sides])
        values.setflags(write=False)
        return values

    @cached_property
    def lows(self) -> np.ndarray:
        return self._column(0)

    @cached_property
    def highs(self) -> np.ndarray:
        return self._column(1)

    @cached_property
    def widths(self) -> np.ndarray:
        return self._column(2)

    def contains(self, vec: "ParamVector") -> bool:
        return all(low <= x <= high for x, (low, high, _) in zip(vec, self.sides))


class ParamVector(NamedTuple):
    """One firefly's position: a tuple of five floats in ``PARAM_NAMES`` order."""

    beta: float
    rho: float
    q0: float
    gamma: float
    delta: float

    def as_array(self) -> np.ndarray:
        return np.array(self)

    @classmethod
    def from_array(cls, values) -> "ParamVector":
        return cls(*(float(v) for v in values))


def move(
    xi: ParamVector,
    xj: ParamVector,
    alpha: float,
    gamma: float,
    bounds: ParamBounds,
    kick: Sequence[float],
) -> ParamVector:
    """Move ``xi`` toward ``xj`` with one uniform random kick per dimension.

    ``kick`` is five uniforms in [0, 1), one per dimension in
    ``PARAM_NAMES`` order (:func:`sweep` passes five values of its one
    block). ``alpha`` is the kick size in range widths: the kick in each
    dimension is ``alpha * (u - 1/2)`` times that dimension's width.
    The result is clamped to the bounds, so the step is total; a gamma that
    is negative or not finite, or a non-finite alpha, raises ``ValueError``.
    Full attraction (b == 1, e.g. gamma == 0) lands on ``xj`` exactly rather
    than within rounding error.

    The math runs on the five fields as Python floats, written out per
    dimension (about twice as fast as a loop over them, and the hybrid
    calls this ~30 times per iteration): the width-normalised distance r
    as one sum of squares from 0.0 in field order, then ``sqrt``; the
    attractiveness ``exp(-gamma * r * r)``; then ``max(low, x)`` and
    ``min(high, y)`` as the conditionals those return (np.clip's operand
    order: a tie returns the bound, which fixes the sign of a zero). These
    are the same IEEE operations in the same order as the elementwise
    array form, so the result is bit-identical to it.
    """
    if not 0 <= gamma < math.inf:
        raise ValueError(f"gamma must be finite and >= 0, got {gamma}")
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    (lo0, hi0, w0), (lo1, hi1, w1), (lo2, hi2, w2), (lo3, hi3, w3), (lo4, hi4, w4) = bounds.sides
    a0, a1, a2, a3, a4 = xi
    t0, t1, t2, t3, t4 = xj
    d0 = (a0 - t0) / w0
    d1 = (a1 - t1) / w1
    d2 = (a2 - t2) / w2
    d3 = (a3 - t3) / w3
    d4 = (a4 - t4) / w4
    r = math.sqrt(0.0 + d0 * d0 + d1 * d1 + d2 * d2 + d3 * d3 + d4 * d4)
    b = math.exp(-gamma * r * r)
    if b != 1.0:
        t0 = a0 + b * (t0 - a0)
        t1 = a1 + b * (t1 - a1)
        t2 = a2 + b * (t2 - a2)
        t3 = a3 + b * (t3 - a3)
        t4 = a4 + b * (t4 - a4)
    u0, u1, u2, u3, u4 = kick
    x0 = t0 + alpha * (u0 - 0.5) * w0
    x1 = t1 + alpha * (u1 - 0.5) * w1
    x2 = t2 + alpha * (u2 - 0.5) * w2
    x3 = t3 + alpha * (u3 - 0.5) * w3
    x4 = t4 + alpha * (u4 - 0.5) * w4
    x0 = x0 if x0 > lo0 else lo0
    x1 = x1 if x1 > lo1 else lo1
    x2 = x2 if x2 > lo2 else lo2
    x3 = x3 if x3 > lo3 else lo3
    x4 = x4 if x4 > lo4 else lo4
    return ParamVector(
        x0 if x0 < hi0 else hi0,
        x1 if x1 < hi1 else hi1,
        x2 if x2 < hi2 else hi2,
        x3 if x3 < hi3 else hi3,
        x4 if x4 < hi4 else hi4,
    )


def reduce_alpha(alpha: float, delta: float) -> float:
    """Shrink the randomization weight once: returns alpha * delta."""
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta must lie in [0, 1], got {delta}")
    return alpha * delta


def sweep(
    vecs: list[ParamVector],
    light: list[float],
    alpha: float,
    bounds: ParamBounds,
    rng: np.random.Generator,
) -> list[ParamVector]:
    """One full pairwise sweep, preserving the caller's ordering.

    Sweep order is ascending i, ascending j; ``i`` moves toward every
    strictly brighter ``j`` using j's own gamma, and updated positions take
    effect immediately within the sweep. The brightest firefly never moves.

    Brightness does not change during a sweep, so the moving pairs are known
    up front, and their kicks come from one ``rng.random(5 * pairs)`` draw:
    the doubles of that many scalar calls, handed out five per move in sweep
    order, so the generator ends where one draw per move would leave it.
    Every input is checked before that draw, a non-finite position, a
    negative gamma and a non-finite alpha included.
    """
    if not vecs or len(vecs) != len(light):
        raise ValueError("population must be non-empty with one brightness per vector")
    if not all(math.isfinite(b) for b in light):
        raise ValueError("brightness values must be finite")
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    for v in vecs:
        if not all(map(math.isfinite, v)):
            raise ValueError(f"positions must be finite, got {v}")
        if v.gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {v.gamma}")
    vecs = list(vecs)
    pairs = [(i, j) for i, li in enumerate(light) for j, lj in enumerate(light) if lj > li]
    kicks = rng.random(5 * len(pairs)).tolist()
    for k, (i, j) in enumerate(pairs):
        vecs[i] = move(vecs[i], vecs[j], alpha, vecs[j].gamma, bounds, kicks[5 * k : 5 * k + 5])
    return vecs

