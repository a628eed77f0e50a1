"""The masked full-row transition kernel against the rule it replaced.

The reference below is the gather-by-index form of the ACS rule: it
collects the unvisited cities J, applies the pseudo-random-proportional
choice to their weights only and maps the result back through J. The kernel
in ``acsfa.acs`` works on whole rows with visited cities weighted 0.0; for
any input it must pick the same city and consume the same random draws.
"""

import warnings
from itertools import islice
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import acsfa.acs
from acsfa.acs import (
    AcsParams,
    _choose,
    _shortlist,
    colony,
    compute_tau0,
    construct_tour,
    global_update,
    heuristic_matrix,
    init_pheromone,
    run_acs,
)
from acsfa.hybrid import HybridConfig, run_acsfa
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


# weight_rows() reaches the float maximum on purpose, so the kernel's (and the
# reference's) cumulative sum overflows and numpy warns before the uniform
# fallback takes over; solver rows stay at or below 1 and never warn (see
# test_solvers_emit_no_runtime_warning)
ignore_overflow = pytest.mark.filterwarnings("ignore:overflow encountered in accumulate:RuntimeWarning")


def _kernel_and_reference(tau, eta_pow, visited):
    J = np.flatnonzero(~visited)
    avail = (~visited).astype(float)
    return J, tau[J] * eta_pow[J], avail, tau * eta_pow * avail


@ignore_overflow
@settings(max_examples=400, deadline=None)
@given(
    row=weight_rows(),
    q0=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_kernel_matches_reference_on_a_generator(row, q0, seed):
    J, w_ref, avail, w = _kernel_and_reference(*row)
    ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert _choose(w, avail, rng.random() <= q0, rng.random) == reference_pick(J, w_ref, q0, ref_rng)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@ignore_overflow
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
    assert _choose(w, avail, rng.random() <= q0, rng.random) == reference_pick(J, w_ref, q0, ref_rng)
    assert rng.used == ref_rng.used


def test_solvers_emit_no_runtime_warning(eil51):
    # both update rules keep tau <= max(tau0, 1 / L) <= 1 and eta ** beta <= 1
    # for beta >= 0, so no solver row can overflow the cumulative sum
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run_acs(eil51, AcsParams(), 20, np.random.default_rng(0))
        _, trace = run_acsfa(eil51, HybridConfig(iterations=20), np.random.default_rng(0))
    assert np.isfinite(trace.means).all()


def test_underflowed_row_exploits_the_lowest_unvisited_city():
    avail = np.array([0.0, 0.0, 1.0, 1.0, 0.0])
    w = np.full(5, 1e-200) * np.full(5, 1e-200) * avail
    assert not w.any()
    assert _choose(w, avail, True, np.random.default_rng(0).random) == 2


def test_draw_at_the_total_samples_the_last_unvisited_city():
    avail = np.array([1.0, 1.0, 1.0, 0.0, 0.0])
    w = np.ones(5) * np.ones(5) * avail
    assert _choose(w, avail, False, ScriptedRng([1.0]).random) == 2


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
    eta_pow = heuristic_matrix(inst) ** beta
    ant = {"q0": q0, "rho": rho, "tau0": tau0}
    start = int(setup.integers(n))

    ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    expected = reference_construct_tour(inst, ref_tau, ref_rng, start, eta_pow=eta_pow, **ant)
    got = construct_tour(inst, tau, rng, start, weights=tau * eta_pow, **ant)
    assert got == expected
    assert tau.tobytes() == ref_tau.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


BIT_GENERATORS = (np.random.PCG64, np.random.PCG64DXSM, np.random.MT19937, np.random.SFC64, np.random.Philox)


def same_state(a, b) -> bool:
    """Bit generator states are equal; MT19937 and Philox hold arrays in theirs."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(3, 14),
    beta=st.floats(0.0, 8.0),
    rho=st.floats(0.0, 1.0, exclude_max=True),
    q0=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    bit_generator=st.sampled_from(BIT_GENERATORS),
    seed=st.integers(0, 2**32 - 1),
)
def test_construct_tour_matches_reference_on_any_bit_generator(n, beta, rho, q0, bit_generator, seed):
    # the uniforms come in blocks sized to the steps left, so the generator
    # ends where one draw at a time leaves it; the integers() call first
    # leaves a buffered uint32 live on every generator but MT19937, as the
    # colony's random start does
    setup = np.random.default_rng(seed)
    inst = TspInstance(name="r", dimension=n, metric="EUC_2D", coords=setup.random((n, 2)) * 100)
    tau0 = float(setup.random()) + 1e-3
    noise = setup.random((n, n))
    tau = tau0 * (1.0 + noise + noise.T)
    ref_tau = tau.copy()
    eta_pow = heuristic_matrix(inst) ** beta
    ant = {"q0": q0, "rho": rho, "tau0": tau0}

    ref_rng, rng = np.random.Generator(bit_generator(seed)), np.random.Generator(bit_generator(seed))
    start = int(ref_rng.integers(n))
    assert int(rng.integers(n)) == start
    expected = reference_construct_tour(inst, ref_tau, ref_rng, start, eta_pow=eta_pow, **ant)
    got = construct_tour(inst, tau, rng, start, weights=tau * eta_pow, **ant)
    assert got == expected
    assert tau.tobytes() == ref_tau.tobytes()
    assert same_state(rng.bit_generator.state, ref_rng.bit_generator.state)
    assert rng.integers(2**40) == ref_rng.integers(2**40)


@settings(max_examples=200, deadline=None)
@given(
    n=st.one_of(st.integers(3, 20), st.integers(60, 140)),
    side=st.integers(1, 4),
    beta=st.sampled_from([0.0, 1.0, 2.0]),
    level=st.sampled_from([1.0, 1e-200]),
    q0=st.sampled_from([0.85, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_construct_tour_matches_reference_on_ties_and_zero_rows(n, side, beta, level, q0, seed):
    # integer-grid points share distances and coincide, tau is uniform and
    # beta = 0 makes every power 1, so most rows tie; at level 1e-200 every
    # off-diagonal weight underflows to 0.0; the diagonal, which no step
    # reads, is each row's largest weight; n spans one to three 64-row blocks
    setup = np.random.default_rng(seed)
    inst = TspInstance(name="g", dimension=n, metric="EUC_2D", coords=setup.integers(0, side, (n, 2), endpoint=True))
    tau = np.full((n, n), level)
    ref_tau = tau.copy()
    eta_pow = heuristic_matrix(inst) ** beta * level
    np.fill_diagonal(eta_pow, 2.0)
    weights = tau * eta_pow
    assert (weights.diagonal() > weights.max(axis=1, where=~np.eye(n, dtype=bool), initial=0.0)).all()
    assert (weights[~np.eye(n, dtype=bool)] == 0.0).all() == (level < 1.0)
    ant = {"q0": q0, "rho": 0.1, "tau0": level}
    start = int(setup.integers(n))

    ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    expected = reference_construct_tour(inst, ref_tau, ref_rng, start, eta_pow=eta_pow, **ant)
    assert construct_tour(inst, tau, rng, start, weights=weights, **ant) == expected
    assert tau.tobytes() == ref_tau.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@settings(max_examples=100, deadline=None)
@given(
    n=st.one_of(st.integers(3, 20), st.integers(60, 140)),
    levels=st.integers(1, 3),
    diagonal=st.sampled_from([0.0, 1.0, 5.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_shortlist_takes_each_rows_two_largest_off_diagonal_weights(n, levels, diagonal, seed):
    # weights of a few levels tie within rows, and zero rows occur at one level
    w = np.random.default_rng(seed).integers(0, levels, (n, n)).astype(float)
    np.fill_diagonal(w, diagonal)
    first, second = _shortlist(w)
    for r in range(n):
        ranked = sorted((j for j in range(n) if j != r), key=lambda j: (-w[r, j], j))
        assert (first[r], second[r]) == (ranked[0], ranked[1])


@pytest.mark.parametrize("n", [51, 130])
def test_construct_tour_reads_a_read_only_weight_matrix(n):
    # the shortlist copies each row block before it marks it, so a weight
    # matrix that cannot be written is read as it is and left unchanged
    setup = np.random.default_rng(n)
    inst = TspInstance(name="r", dimension=n, metric="EUC_2D", coords=setup.random((n, 2)) * 100)
    tau0 = compute_tau0(inst)
    noise = setup.random((n, n))
    tau = tau0 * (1.0 + noise + noise.T)
    ref_tau = tau.copy()
    eta_pow = heuristic_matrix(inst) ** 2.0
    weights = tau * eta_pow
    weights.setflags(write=False)
    before = weights.tobytes()
    ant = {"q0": 0.85, "rho": 0.1, "tau0": tau0}

    ref_rng, rng = np.random.default_rng(n), np.random.default_rng(n)
    expected = reference_construct_tour(inst, ref_tau, ref_rng, 3, eta_pow=eta_pow, **ant)
    assert construct_tour(inst, tau, rng, 3, weights=weights, **ant) == expected
    assert weights.tobytes() == before
    assert tau.tobytes() == ref_tau.tobytes()


class SealedPCG64(np.random.PCG64):
    """A PCG64 whose state can be neither read nor written."""

    @property
    def state(self):
        raise AssertionError("state read")

    @state.setter
    def state(self, value):
        raise AssertionError("state written")


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(3, 30),
    beta=st.floats(0.0, 8.0),
    q0=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_construct_tour_leaves_the_generator_state_alone(n, beta, q0, seed):
    # the draws alone must leave the generator where scalar draws would
    setup = np.random.default_rng(seed)
    inst = TspInstance(name="r", dimension=n, metric="EUC_2D", coords=setup.random((n, 2)) * 100)
    tau0 = float(setup.random()) + 1e-3
    tau = np.full((n, n), tau0)
    ref_tau = tau.copy()
    eta_pow = heuristic_matrix(inst) ** beta
    ant = {"q0": q0, "rho": 0.1, "tau0": tau0}

    ref_rng, rng = np.random.Generator(np.random.PCG64(seed)), np.random.Generator(SealedPCG64(seed))
    start = int(ref_rng.integers(n))
    assert int(rng.integers(n)) == start
    expected = reference_construct_tour(inst, ref_tau, ref_rng, start, eta_pow=eta_pow, **ant)
    assert construct_tour(inst, tau, rng, start, weights=tau * eta_pow, **ant) == expected
    assert tau.tobytes() == ref_tau.tobytes()
    assert rng.integers(2**40) == ref_rng.integers(2**40)
    assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
@pytest.mark.parametrize("level", [1.0, 1e-200])
def test_two_draws_per_step_use_the_whole_block(bit_generator, level):
    # q0 = 0 takes two uniforms at every step: by sampling, or, when every
    # weight underflows to 0.0, by the uniform fallback
    n = 9
    inst = TspInstance(name="r", dimension=n, metric="EUC_2D", coords=np.random.default_rng(4).random((n, 2)) * 100)
    tau = np.full((n, n), level)
    ref_tau = tau.copy()
    eta_pow = np.full((n, n), level)
    ant = {"q0": 0.0, "rho": 0.1, "tau0": 0.01}
    assert (level * level == 0.0) == (level < 1.0)
    ref_rng, rng, full = (np.random.Generator(bit_generator(3)) for _ in range(3))
    for g in (ref_rng, rng, full):
        g.integers(n)
    full.random(2 * (n - 1))
    expected = reference_construct_tour(inst, ref_tau, ref_rng, 2, eta_pow=eta_pow, **ant)
    assert construct_tour(inst, tau, rng, 2, weights=tau * eta_pow, **ant) == expected
    assert tau.tobytes() == ref_tau.tobytes()
    assert same_state(rng.bit_generator.state, ref_rng.bit_generator.state)
    assert same_state(rng.bit_generator.state, full.bit_generator.state)


def reference_colony(inst, rng, alpha, schedule):
    """The ACS iteration over a full eta ** beta matrix per ant: (every tour, tau)."""
    n = inst.dimension
    tau0 = compute_tau0(inst)
    tau = init_pheromone(n, tau0)
    eta = heuristic_matrix(inst)
    tours = []
    best = None
    for ants in schedule:
        for beta, q0, rho in ants:
            start = int(rng.integers(n))
            tour = reference_construct_tour(inst, tau, rng, start, eta_pow=eta**beta, q0=q0, rho=rho, tau0=tau0)
            tours.append(tour)
            if best is None or tour.length < best.length:
                best = tour
        global_update(tau, best, alpha)
    return tours, tau


@st.composite
def colony_instances(draw) -> TspInstance:
    """EUC_2D, GEO and EXPLICIT instances with n on both sides of the 64-city block, below which a product rebuilds."""
    n = draw(st.one_of(st.integers(5, 20), st.integers(60, 130)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    metric = draw(st.sampled_from(["EUC_2D", "GEO", "EXPLICIT"]))
    if metric == "EXPLICIT":
        # a range of 10**12 takes the distinct-level path of _heuristic_levels
        w = np.triu(rng.integers(0, draw(st.sampled_from([50, 10**12])), (n, n), endpoint=True), 1)
        return TspInstance(name="x", dimension=n, metric=metric, weights=w + w.T)
    if metric == "GEO":
        coords = np.column_stack((rng.uniform(-89.0, 89.0, n), rng.uniform(-179.0, 179.0, n)))
    else:
        coords = rng.random((n, 2)) * draw(st.sampled_from([100.0, 1e7]))
    return TspInstance(name="c", dimension=n, metric=metric, coords=coords)


SETTINGS = st.tuples(
    st.one_of(st.sampled_from([0.0, 1.0, 2.0, 3.7]), st.floats(0.0, 6.0)),
    st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    st.floats(0.0, 1.0, exclude_max=True),
)


@settings(max_examples=150, deadline=None)
@given(
    inst=colony_instances(),
    data=st.data(),
    per_ant=st.booleans(),
    iterations=st.integers(1, 4),
    m=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_colony_matches_the_reference_colony(inst, data, per_ant, iterations, m, seed):
    # fixed settings are ACS; settings per ant and per iteration are the
    # hybrid's case, with repeated betas drawn often enough to refresh
    if per_ant:
        schedule = [[data.draw(SETTINGS) for _ in range(m)] for _ in range(iterations)]
    else:
        schedule = [[data.draw(SETTINGS)] * m] * iterations
    ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    expected, ref_tau = reference_colony(inst, ref_rng, 0.1, schedule)

    tours, taus = [], []
    real_construct = acsfa.acs.construct_tour

    def spy(inst, tau, rng, start, **kwargs):
        taus.append(tau)
        tours.append(real_construct(inst, tau, rng, start, **kwargs))
        return tours[-1]

    with mock.patch.object(acsfa.acs, "construct_tour", spy):
        ants = iter(schedule)
        list(islice(colony(inst, rng, lambda: next(ants)), iterations))
    assert tours == expected
    assert taus[-1].tobytes() == ref_tau.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state
