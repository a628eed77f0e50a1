import re
import tracemalloc

import numpy as np
import pytest

import acsfa.acs
import acsfa.hybrid
from acsfa.acs import local_update
from acsfa.firefly import PARAM_NAMES, ParamBounds
from acsfa.hybrid import HybridConfig, _local_decay, init_population, run_acsfa
from acsfa.tsplib import TspInstance, tour_length
from conftest import random_euclidean


class TestLocalDecay:
    @pytest.mark.parametrize("rho", [0.5, 0.75, 0.9, 1.0])
    @pytest.mark.parametrize("m", [1, 4, 10])
    def test_m_crossings_keep_rho_of_the_excess(self, rho, m):
        # rho is per-iteration persistence: m local updates of one edge keep
        # the fraction rho of its pheromone above tau0
        tau0 = 0.01
        tau = np.full((3, 3), tau0)
        tau[0, 1] = tau[1, 0] = 0.5
        for _ in range(m):
            local_update(tau, 0, 1, _local_decay(rho, m), tau0)
        assert tau[0, 1] - tau0 == pytest.approx(rho * (0.5 - tau0), rel=1e-12)

    def test_default_box_maps_to_mild_decay(self):
        lo, hi = ParamBounds().rho
        assert _local_decay(hi, 10) == 0.0
        assert _local_decay(lo, 10) == pytest.approx(1.0 - 0.5**0.1)
        assert _local_decay(0.9, 1) == pytest.approx(0.1)


class TestFireflyCoupling:
    def test_local_rule_reads_rho_as_persistence(self, ulysses16, monkeypatch):
        decays = []
        real_construct = acsfa.acs.construct_tour

        def spy(inst, tau, rng, start, **kwargs):
            decays.append(kwargs["rho"])
            return real_construct(inst, tau, rng, start, **kwargs)

        monkeypatch.setattr(acsfa.acs, "construct_tour", spy)
        config = HybridConfig(iterations=5, m=4)
        run_acsfa(ulysses16, config, np.random.default_rng(0))
        assert len(decays) == 20
        assert all(0.0 <= d <= _local_decay(config.bounds.rho[0], config.m) for d in decays)

    def test_brightness_from_records_and_alpha_shrunk_every_iteration(self, ulysses16, monkeypatch):
        seen = []
        real_sweep = acsfa.hybrid.sweep
        real_reduce = acsfa.hybrid.reduce_alpha

        def spy_sweep(vecs, light, alpha, bounds, rng):
            seen.append((list(light), alpha))
            moved = real_sweep(vecs, light, alpha, bounds, rng)
            seen[-1] += (moved[int(np.argmax(light))].delta,)
            return moved

        def spy_reduce(alpha, delta):
            seen[-1] += (delta,)
            return real_reduce(alpha, delta)

        monkeypatch.setattr(acsfa.hybrid, "sweep", spy_sweep)
        monkeypatch.setattr(acsfa.hybrid, "reduce_alpha", spy_reduce)
        config = HybridConfig(iterations=30, m=5)
        record, _ = run_acsfa(ulysses16, config, np.random.default_rng(4))
        trace = record.best_lengths
        assert len(seen) == 30
        assert seen[0][1] == acsfa.hybrid._FIRST_KICK
        for it, (light, alpha, brightest_delta, shrink) in enumerate(seen):
            lit = [b for b in light if b > 0.0]
            # the brightest firefly is the ant holding the global best; the
            # others shine only with records of their own, all distinct
            assert max(light) == 1.0 / trace[it]
            assert len(set(lit)) == len(lit)
            assert all(b <= 1.0 / trace[it] for b in lit)
            # one shrink per iteration, by the brightest firefly's delta
            assert shrink == brightest_delta
            if it + 1 < len(seen):
                assert seen[it + 1][1] == alpha * shrink


class TestInitPopulation:
    def test_all_within_bounds(self):
        bounds = ParamBounds()
        rng = np.random.default_rng(0)
        pop = init_population(bounds, 10_000, rng)
        for v in pop[:100]:
            assert bounds.contains(v)
        arr = np.stack([v.as_array() for v in pop])
        assert (arr >= bounds.lows).all() and (arr <= bounds.highs).all()

    def test_means_near_midpoints(self):
        bounds = ParamBounds()
        pop = init_population(bounds, 10_000, np.random.default_rng(1))
        arr = np.stack([v.as_array() for v in pop])
        mid = (bounds.lows + bounds.highs) / 2.0
        assert np.all(np.abs(arr.mean(axis=0) - mid) <= 0.02 * bounds.widths)

    def test_narrow_dimension_stays_narrow(self):
        bounds = ParamBounds(delta=(0.9, 0.9000001))
        pop = init_population(bounds, 100, np.random.default_rng(2))
        for v in pop:
            assert v.delta == pytest.approx(0.9, abs=1e-6)

    def test_zero_population_rejected(self):
        with pytest.raises(ValueError):
            init_population(ParamBounds(), 0, np.random.default_rng(0))

    @pytest.mark.parametrize("m", [2.5, 3.0, True, "3", None])
    def test_non_integer_population_rejected(self, m):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=f"^population size must be an integer, got {re.escape(repr(m))}$"):
            init_population(ParamBounds(), m, rng)
        assert rng.bit_generator.state == state

    def test_numpy_integer_population_accepted(self):
        pop = init_population(ParamBounds(), np.int64(3), np.random.default_rng(0))
        assert pop == init_population(ParamBounds(), 3, np.random.default_rng(0))


class TestConfig:
    def test_defaults(self):
        config = HybridConfig()
        assert config.iterations == 1000
        assert config.m == 10
        assert acsfa.hybrid._FIRST_KICK == 2.3  # fixed, not a setting

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"iterations": -1},
            {"m": 0},
            {"m": -1},
            {"m": True},  # m is checked by AcsParams, bool included
            {"iterations": 2.5},
            {"m": 2.5},
            {"iterations": True},  # bool is an Integral
            {"iterations": 0},  # a run of no iteration builds no tour
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            HybridConfig(**kwargs)

    def test_box_is_a_class_constant(self):
        assert HybridConfig.bounds == ParamBounds()
        assert HybridConfig(m=3).bounds is HybridConfig.bounds
        with pytest.raises(TypeError):
            HybridConfig(bounds=ParamBounds(beta=(0.0, 4.0)))


class TestRunAcsfa:
    def test_zero_iterations(self):
        # a run of no iteration builds no tour: the config is rejected, so no run starts
        with pytest.raises(ValueError, match="^iterations must be >= 1, got 0$"):
            HybridConfig(iterations=0)

    def test_trace_shape_and_bounds(self, ulysses16):
        config = HybridConfig(iterations=40, m=6)
        record, trace = run_acsfa(ulysses16, config, np.random.default_rng(3))
        assert trace.names == PARAM_NAMES
        assert trace.means.shape == (40, 5)
        assert len(trace) == 40
        assert (trace.means >= config.bounds.lows).all()
        assert (trace.means <= config.bounds.highs).all()
        assert (trace.mins <= trace.means).all()
        assert (trace.means <= trace.maxs).all()

    def test_best_tour_valid_and_trace_non_increasing(self, ulysses16):
        record, _ = run_acsfa(ulysses16, HybridConfig(iterations=50), np.random.default_rng(1))
        assert sorted(record.best_tour.order) == list(range(16))
        assert record.best_tour.length == tour_length(ulysses16, record.best_tour.order)
        trace = record.best_lengths
        assert len(trace) == 50
        assert all(a >= b for a, b in zip(trace, trace[1:]))

    def test_best_params_within_bounds(self, ulysses16):
        config = HybridConfig(iterations=30)
        record, _ = run_acsfa(ulysses16, config, np.random.default_rng(2))
        assert config.bounds.contains(record.best_params)

    def test_single_ant_keeps_frozen_vector(self, ulysses16):
        # a singleton population never moves: the parameter trace is constant
        record, trace = run_acsfa(ulysses16, HybridConfig(iterations=25, m=1), np.random.default_rng(5))
        assert np.all(trace.means == trace.means[0])
        assert np.all(trace.mins == trace.maxs)
        assert np.array_equal(record.best_params.as_array(), trace.means[0])

    @pytest.mark.parametrize("m", [1, 3, 10])
    @pytest.mark.parametrize("iterations", [1, 63, 64, 65, 129])
    def test_trace_reduced_row_by_row_matches_each_iteration(self, iterations, m, tiny3, monkeypatch):
        # each row is its own iteration's population reduced, bit for bit,
        # on either side of 64 and 128 iterations as well
        pops = []
        real_sweep = acsfa.hybrid.sweep

        def spy(*args):
            pop = real_sweep(*args)
            pops.append(np.array(pop))
            return pop

        monkeypatch.setattr(acsfa.hybrid, "sweep", spy)
        _, trace = run_acsfa(tiny3, HybridConfig(iterations=iterations, m=m), np.random.default_rng(0))
        assert len(trace) == len(pops) == iterations
        for it, pop in enumerate(pops):
            assert trace.means[it].tobytes() == pop.mean(axis=0).tobytes()
            assert trace.mins[it].tobytes() == pop.min(axis=0).tobytes()
            assert trace.maxs[it].tobytes() == pop.max(axis=0).tobytes()

    def test_population_buffer_does_not_grow_with_iterations(self):
        # what a run keeps per iteration is its trace rows (120 bytes) and its
        # best length; a buffer of every population would add 40 * m = 800
        inst = random_euclidean(5, np.random.default_rng(1))

        def peak(iterations: int) -> int:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            run_acsfa(inst, HybridConfig(iterations=iterations, m=20), np.random.default_rng(0))
            return tracemalloc.get_traced_memory()[1] - before

        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            slope = (peak(400) - peak(100)) / 300
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert slope < 400

    def test_fixed_seed_bit_reproducible(self, ulysses16):
        config = HybridConfig(iterations=30, m=5)
        rec_a, tr_a = run_acsfa(ulysses16, config, np.random.default_rng(11))
        rec_b, tr_b = run_acsfa(ulysses16, config, np.random.default_rng(11))
        assert rec_a.best_tour == rec_b.best_tour
        assert rec_a.best_lengths == rec_b.best_lengths
        assert rec_a.best_params == rec_b.best_params
        assert np.array_equal(tr_a.means, tr_b.means)
        assert np.array_equal(tr_a.mins, tr_b.mins)
        assert np.array_equal(tr_a.maxs, tr_b.maxs)

    def test_coincident_points_give_a_zero_length_permutation(self):
        inst = TspInstance(name="coincident5", dimension=5, metric="EUC_2D", coords=np.zeros((5, 2)))
        record, trace = run_acsfa(inst, HybridConfig(iterations=5), np.random.default_rng(0))
        assert sorted(record.best_tour.order) == list(range(5))
        assert record.best_tour.length == 0
        assert record.best_lengths == (0,) * 5
        assert len(trace) == 5

    def test_all_param_vectors_stay_in_bounds_every_iteration(self, tiny3):
        # min/max rows bound every firefly, so box containment of the whole
        # population is visible from the trace
        config = HybridConfig(iterations=60, m=8)
        _, trace = run_acsfa(tiny3, config, np.random.default_rng(7))
        assert (trace.mins >= config.bounds.lows).all()
        assert (trace.maxs <= config.bounds.highs).all()

    def test_holds_the_pheromone_and_one_ant_matrix(self):
        # n x n float matrices alive at once: the pheromone and the current
        # ant's powered heuristic, with a half-matrix margin for the rest
        n = 300
        inst = random_euclidean(n, np.random.default_rng(0))
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            run_acsfa(inst, HybridConfig(iterations=2, m=3), np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert peak < 2.5 * n * n * 8
