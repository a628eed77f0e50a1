"""Acceptance suite: one test per criterion, at the stated tolerances.

The expensive solver runs are shared session fixtures; a summary PASS/FAIL
line per criterion is printed at the end of the session (see conftest).
"""

import time

import numpy as np
import pytest

from acsfa.acs import (
    AcsParams,
    compute_tau0,
    construct_tour,
    global_update,
    heuristic_matrix,
    init_pheromone,
    local_update,
    run_acs,
    transition_probabilities,
)
from acsfa.exact import brute_force, held_karp
from acsfa.firefly import ParamBounds, ParamVector, move, reduce_alpha
from acsfa.hybrid import HybridConfig, init_population, run_acsfa
from acsfa.stats import error_matrix, rcbd_anova, tukey_hsd
from acsfa.tsplib import Tour, tour_length

from conftest import random_euclidean
from test_stats import BEST_LENGTHS, OPTIMA

SEEDS = tuple(range(10))
EIL51_OPTIMUM = 426
ULYSSES16_OPTIMUM = 6859


@pytest.fixture(scope="session")
def acsfa_ulysses_runs(ulysses16):
    config = HybridConfig(iterations=200)
    return [run_acsfa(ulysses16, config, np.random.default_rng(s)) for s in SEEDS]


@pytest.fixture(scope="session")
def acsfa_eil51_runs(eil51):
    config = HybridConfig(iterations=1000)
    return [run_acsfa(eil51, config, np.random.default_rng(s)) for s in SEEDS]


@pytest.fixture(scope="session")
def acs_eil51_runs(eil51):
    return [run_acs(eil51, AcsParams(), 1000, np.random.default_rng(s)) for s in SEEDS]


def test_criterion_1_exact_optimum(ulysses16):
    start = time.perf_counter()
    optimum = held_karp(ulysses16)
    elapsed = time.perf_counter() - start
    print(f"criterion 1: held_karp(ulysses16) = {optimum} in {elapsed:.2f}s")
    assert optimum == ULYSSES16_OPTIMUM
    assert elapsed < 30.0


def test_criterion_2_anova_reproduction():
    errors = error_matrix(BEST_LENGTHS, OPTIMA)
    start = time.perf_counter()
    table = rcbd_anova(errors)
    elapsed = time.perf_counter() - start
    print(
        f"criterion 2: treatment F={table.f_treatment:.4f} p={table.p_treatment:.4f}, "
        f"block F={table.f_block:.4f} p={table.p_block:.4f} in {elapsed:.3f}s"
    )
    assert table.treatment.df == 2
    assert table.f_treatment == pytest.approx(3.00, abs=0.01)
    assert table.p_treatment == pytest.approx(0.070, abs=0.002)
    assert table.f_block == pytest.approx(2.92, abs=0.01)
    assert table.p_block == pytest.approx(0.016, abs=0.002)
    assert elapsed < 1.0


def test_criterion_3_tukey_reproduction():
    errors = error_matrix(BEST_LENGTHS, OPTIMA)
    grouping = tukey_hsd(errors, confidence=0.90)
    print(f"criterion 3: error means {grouping.means} letters {grouping.letters}")
    assert grouping.treatments == ("ACS", "PSOACS", "ACSFA")
    assert round(grouping.means[0], 2) == 1016.75
    assert round(grouping.means[1], 2) == 366.67
    assert round(grouping.means[2], 2) == 257.58
    assert grouping.letters == ("A", "AB", "B")

    best_grouping = tukey_hsd(BEST_LENGTHS, confidence=0.90)
    assert abs(best_grouping.means[0] - 19137.3) <= 0.05
    assert abs(best_grouping.means[1] - 18487.2) <= 0.05
    assert abs(best_grouping.means[2] - 18378.2) <= 0.05
    assert best_grouping.letters == ("A", "AB", "B")


def test_criterion_4_solver_quality(acsfa_ulysses_runs, acsfa_eil51_runs):
    ulysses_bests = [rec.best_tour.length for rec, _ in acsfa_ulysses_runs]
    ulysses_hits = sum(b == ULYSSES16_OPTIMUM for b in ulysses_bests)
    eil_bests = [rec.best_tour.length for rec, _ in acsfa_eil51_runs]
    eil_bar = EIL51_OPTIMUM * 1.03
    eil_hits = sum(b <= eil_bar for b in eil_bests)
    print(
        f"criterion 4: ulysses16 optimum hits {ulysses_hits}/10 {ulysses_bests}; "
        f"eil51 within 3% ({eil_bar:.2f}) hits {eil_hits}/10 {eil_bests}"
    )
    assert ulysses_hits >= 8, f"ulysses16: {ulysses_hits}/10 runs found {ULYSSES16_OPTIMUM} ({ulysses_bests})"
    assert eil_hits >= 8, f"eil51: {eil_hits}/10 runs within 3% of {EIL51_OPTIMUM} ({eil_bests})"


def test_criterion_5_hybrid_not_worse_than_baseline(acsfa_eil51_runs, acs_eil51_runs):
    acsfa_mean = float(np.mean([rec.best_tour.length for rec, _ in acsfa_eil51_runs]))
    acs_mean = float(np.mean([rec.best_tour.length for rec in acs_eil51_runs]))
    print(f"criterion 5: acsfa mean {acsfa_mean:.1f} vs acs mean {acs_mean:.1f} (+1% bar {acs_mean * 1.01:.1f})")
    assert acsfa_mean <= acs_mean * 1.01


def test_criterion_6_parameter_stabilization(acsfa_eil51_runs):
    window = 200  # 20% of the 1000 iterations
    worst = 0.0
    for rec, trace in acsfa_eil51_runs:
        early = trace.means[:window]
        late = trace.means[-window:]
        for dim, name in enumerate(trace.names):
            early_std = float(early[:, dim].std())
            late_std = float(late[:, dim].std())
            if early_std == 0.0:
                assert late_std == 0.0
                continue
            ratio = late_std / early_std
            worst = max(worst, ratio)
            assert ratio <= 0.25, f"{name} (seed {rec.seed}): late/early std ratio {ratio:.3f}"
    print(f"criterion 6: worst late/early std ratio {worst:.4f}")


class TestCriterion7Invariants:
    def test_criterion_7a_probability_normalization(self):
        rng = np.random.default_rng(100)
        inst = random_euclidean(12, rng)
        for _ in range(10_000):
            tau = rng.random((12, 12)) + 1e-12
            tau = (tau + tau.T) / 2.0
            size = int(rng.integers(1, 12))
            unvisited = rng.choice(11, size=size, replace=False) + 1
            p = transition_probabilities(0, unvisited, tau, inst, 2.0)
            assert abs(float(p.sum()) - 1.0) <= 1e-12
            assert (p >= 0.0).all()

    def test_criterion_7b_pheromone_symmetry_positivity(self):
        rng = np.random.default_rng(101)
        inst = random_euclidean(9, rng)
        rho, alpha, tau0 = 0.3, 0.2, 0.05
        tau = init_pheromone(9, tau0)
        for step in range(10_000):
            if rng.random() < 0.8:
                i, j = rng.choice(9, size=2, replace=False)
                local_update(tau, int(i), int(j), rho, tau0)
            else:
                perm = tuple(int(c) for c in rng.permutation(9))
                global_update(tau, Tour(order=perm, length=tour_length(inst, perm)), alpha)
            if step % 1000 == 0:
                assert np.array_equal(tau, tau.T)
                assert (tau > 0.0).all()
        assert np.array_equal(tau, tau.T)
        assert (tau > 0.0).all()

    def test_criterion_7c_tour_validity_under_any_params(self):
        rng = np.random.default_rng(102)
        inst = random_euclidean(8, rng)
        bounds = ParamBounds()
        tau0 = compute_tau0(inst)
        tau = init_pheromone(8, tau0)
        expected = list(range(8))
        for vector in init_population(bounds, 10_000, rng):
            tour = construct_tour(
                inst,
                tau,
                rng,
                int(rng.integers(8)),
                weights=tau * heuristic_matrix(inst) ** vector.beta,
                q0=vector.q0,
                rho=vector.rho,
                tau0=tau0,
            )
            assert sorted(tour.order) == expected

    def test_criterion_7d_firefly_clamping(self):
        rng = np.random.default_rng(103)
        bounds = ParamBounds()
        alpha = 25.0  # huge kicks so raw moves leave the box constantly
        for _ in range(10_000):
            xi = ParamVector.from_array(bounds.lows + rng.random(5) * bounds.widths)
            xj = ParamVector.from_array(bounds.lows + rng.random(5) * bounds.widths)
            moved = move(xi, xj, alpha, float(rng.random() * 10), bounds, rng.random(5))
            assert bounds.contains(moved)

    def test_criterion_7e_alpha_decay_recurrence(self):
        for delta in (0.8, 0.9, 0.97, 1.0):
            alpha = 2.3
            for t in range(1, 1001):
                alpha = reduce_alpha(alpha, delta)
                assert alpha == pytest.approx(2.3 * delta**t, rel=1e-12)

    def test_criterion_7f_fixed_seed_reproducibility(self, ulysses16):
        a = run_acs(ulysses16, AcsParams(), 50, np.random.default_rng(2024))
        b = run_acs(ulysses16, AcsParams(), 50, np.random.default_rng(2024))
        assert a.best_tour == b.best_tour
        assert a.best_lengths == b.best_lengths

        config = HybridConfig(iterations=50)
        rec_a, tr_a = run_acsfa(ulysses16, config, np.random.default_rng(2024))
        rec_b, tr_b = run_acsfa(ulysses16, config, np.random.default_rng(2024))
        assert rec_a.best_tour == rec_b.best_tour
        assert rec_a.best_lengths == rec_b.best_lengths
        assert rec_a.best_params == rec_b.best_params
        assert np.array_equal(tr_a.means, tr_b.means)


def test_criterion_8_oracle_cross_validation():
    rng = np.random.default_rng(104)
    checked = 0
    for _ in range(50):
        n = int(rng.integers(5, 11))
        inst = random_euclidean(n, rng)
        assert brute_force(inst).length == held_karp(inst)
        checked += 1
    print(f"criterion 8: {checked} random instances cross-validated")
    assert checked == 50
