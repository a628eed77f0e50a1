"""The masked full-row transition kernel against the rule it replaced.

The reference below is the gather-by-index form of the ACS rule: it
collects the unvisited cities J, applies the pseudo-random-proportional
choice to their weights only and maps the result back through J. The kernel
in ``acsfa.acs`` works on whole rows with visited cities weighted 0.0; for
any input it must pick the same city and consume the same random draws.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from acsfa.acs import _choose, _row_weights, construct_tour, heuristic_matrix
from acsfa.tsplib import TspInstance, Tour, tour_length


def reference_pick(J, w, q0, rng) -> int:
    if rng.random() <= q0:
        return int(J[int(np.argmax(w))])
    c = np.cumsum(w)
    total = float(c[-1])
    if total > 0.0 and np.isfinite(total):
        x = rng.random() * total
        return int(J[min(int(np.searchsorted(c, x, side="right")), J.size - 1)])
    return int(J[min(int(rng.random() * J.size), J.size - 1)])


def reference_construct_tour(inst, tau, rng, start, *, eta_pow, q0, rho, tau0) -> Tour:
    n = inst.dimension
    order = np.empty(n, dtype=np.int64)
    visited = np.zeros(n, dtype=bool)
    order[0] = start
    visited[start] = True
    r = start
    for k in range(1, n):
        J = np.flatnonzero(~visited)
        s = reference_pick(J, tau[r, J] * eta_pow[r, J], q0, rng)
        v = (1.0 - rho) * tau[r, s] + rho * tau0
        tau[r, s] = v
        tau[s, r] = v
        order[k] = s
        visited[s] = True
        r = s
    first = int(order[0])
    v = (1.0 - rho) * tau[r, first] + rho * tau0
    tau[r, first] = v
    tau[first, r] = v
    return Tour(order=tuple(int(c) for c in order), length=tour_length(inst, order))


class ScriptedRng:
    """Replays fixed uniform draws, which may include the endpoints 0.0 and 1.0."""

    def __init__(self, draws):
        self.draws = list(draws)
        self.used = 0

    def random(self) -> float:
        value = self.draws[self.used]
        self.used += 1
        return value


@st.composite
def weight_rows(draw):
    """A (tau row, eta**beta row, visited mask) triple, from all-underflowed to overflowing sums."""
    n = draw(st.integers(1, 40))
    # 10**-e underflows to 0.0 past e ~ 324; 10**308 overflows the cumulative sum
    scale = draw(st.sampled_from([0, 150, 300, 320, 400, -308]))
    exps = draw(st.lists(st.integers(0, 30), min_size=n, max_size=n))
    tau = 10.0 ** -(np.array(exps, dtype=float) + scale)
    dist = np.array(draw(st.lists(st.integers(1, 2000), min_size=n, max_size=n)), dtype=float)
    beta = draw(st.floats(0.0, 8.0))
    eta_pow = (1.0 / dist) ** beta
    visited = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    visited[draw(st.integers(0, n - 1))] = False  # at least one city is left
    return tau, eta_pow, visited


def _kernel_and_reference(tau, eta_pow, visited):
    J = np.flatnonzero(~visited)
    avail = (~visited).astype(float)
    return J, tau[J] * eta_pow[J], avail, _row_weights(tau, eta_pow, avail)


@settings(max_examples=400, deadline=None)
@given(
    row=weight_rows(),
    q0=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_kernel_matches_reference_on_a_generator(row, q0, seed):
    J, w_ref, avail, w = _kernel_and_reference(*row)
    ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert _choose(w, avail, q0, rng) == reference_pick(J, w_ref, q0, ref_rng)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@settings(max_examples=400, deadline=None)
@given(
    row=weight_rows(),
    q0=st.floats(0.0, 1.0),
    draws=st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)), min_size=2, max_size=2),
)
def test_kernel_matches_reference_at_draw_endpoints(row, q0, draws):
    # a draw of exactly 1.0 makes the sampled point equal the total, so the
    # end-of-range clamp must map to the last unvisited city
    J, w_ref, avail, w = _kernel_and_reference(*row)
    ref_rng, rng = ScriptedRng(draws), ScriptedRng(draws)
    assert _choose(w, avail, q0, rng) == reference_pick(J, w_ref, q0, ref_rng)
    assert rng.used == ref_rng.used


def test_underflowed_row_exploits_the_lowest_unvisited_city():
    avail = np.array([0.0, 0.0, 1.0, 1.0, 0.0])
    w = _row_weights(np.full(5, 1e-200), np.full(5, 1e-200), avail)
    assert not w.any()
    assert _choose(w, avail, 1.0, np.random.default_rng(0)) == 2


def test_draw_at_the_total_samples_the_last_unvisited_city():
    avail = np.array([1.0, 1.0, 1.0, 0.0, 0.0])
    w = _row_weights(np.ones(5), np.ones(5), avail)
    assert _choose(w, avail, 0.0, ScriptedRng([0.5, 1.0])) == 2


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(3, 14),
    beta=st.floats(0.0, 8.0),
    rho=st.floats(0.0, 1.0, exclude_max=True),
    q0=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_construct_tour_matches_reference(n, beta, rho, q0, seed):
    setup = np.random.default_rng(seed)
    inst = TspInstance(name="r", dimension=n, metric="EUC_2D", coords=setup.random((n, 2)) * 100)
    tau0 = float(setup.random()) + 1e-3
    noise = setup.random((n, n))
    tau = tau0 * (1.0 + noise + noise.T)
    ref_tau = tau.copy()
    ant = {"eta_pow": heuristic_matrix(inst) ** beta, "q0": q0, "rho": rho, "tau0": tau0}
    start = int(setup.integers(n))

    ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    expected = reference_construct_tour(inst, ref_tau, ref_rng, start, **ant)
    got = construct_tour(inst, tau, rng, start, **ant)
    assert got == expected
    assert tau.tobytes() == ref_tau.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state
