import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import acsfa.acs
import acsfa.hybrid
from acsfa.acs import local_update
from acsfa.firefly import PARAM_NAMES, ParamBounds
from acsfa.hybrid import HybridConfig, init_population, local_decay, run_acsfa
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
            local_update(tau, 0, 1, local_decay(rho, m), tau0)
        assert tau[0, 1] - tau0 == pytest.approx(rho * (0.5 - tau0), rel=1e-12)

    def test_default_box_maps_to_mild_decay(self):
        lo, hi = ParamBounds().rho
        assert local_decay(hi, 10) == 0.0
        assert local_decay(lo, 10) == pytest.approx(1.0 - 0.5**0.1)
        assert local_decay(0.9, 1) == pytest.approx(0.1)


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
        assert all(0.0 <= d <= local_decay(config.bounds.rho[0], config.m) for d in decays)

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
        assert seen[0][1] == config.fa_alpha0
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

    def test_fa_alpha0_sets_the_kick_size(self, ulysses16):
        runs = [
            run_acsfa(ulysses16, HybridConfig(iterations=5, m=5, fa_alpha0=a0), np.random.default_rng(6))[1]
            for a0 in (0.01, 2.3)
        ]
        # same seed and start: the populations part only through their kicks
        assert not np.array_equal(runs[0].means, runs[1].means)
        spread = [float((trace.maxs - trace.mins)[-1].max()) for trace in runs]
        assert spread[0] < spread[1]


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


class TestConfig:
    def test_defaults(self):
        config = HybridConfig()
        assert config.iterations == 1000
        assert config.m == 10
        assert config.alpha == 0.1
        assert config.fa_alpha0 == 2.3

    @pytest.mark.parametrize(
        "kwargs",
        [{"iterations": -1}, {"m": 0}, {"alpha": 0.0}, {"alpha": 1.0}, {"fa_alpha0": 0.0}],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            HybridConfig(**kwargs)

    @pytest.mark.parametrize("fa_alpha0", [float("nan"), float("inf")])
    def test_non_finite_fa_alpha0_rejected(self, fa_alpha0):
        with pytest.raises(ValueError, match="fa_alpha0"):
            HybridConfig(fa_alpha0=fa_alpha0)


class TestRunAcsfa:
    def test_zero_iterations(self, tiny3):
        record, trace = run_acsfa(tiny3, HybridConfig(iterations=0), np.random.default_rng(0))
        assert record.best_tour.length == 3
        assert len(trace) == 0
        assert record.best_params is None

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

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_any_valid_box_runs_to_the_end(self, data, tiny3):
        # every box ParamBounds accepts must run without failing part-way
        domains = {
            "beta": (0.0, 20.0),
            "rho": (1e-6, 1.0),
            "q0": (0.0, 1.0),
            "gamma": (0.0, 50.0),
            "delta": (0.0, 1.0),
        }
        box = {}
        for name, (floor, ceiling) in domains.items():
            side = st.floats(floor, ceiling)
            a, b = data.draw(st.tuples(side, side).filter(lambda t: t[0] != t[1]))
            box[name] = (min(a, b), max(a, b))
        config = HybridConfig(iterations=4, m=4, bounds=ParamBounds(**box))
        record, _ = run_acsfa(tiny3, config, np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))))
        assert sorted(record.best_tour.order) == [0, 1, 2]
        assert config.bounds.contains(record.best_params)

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
