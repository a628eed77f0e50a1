import math

import numpy as np
import pytest

from acsfa.firefly import (
    PARAM_NAMES,
    FaState,
    ParamBounds,
    ParamVector,
    attractiveness,
    firefly_step,
    move,
    param_distance,
    reduce_alpha,
)

BOUNDS = ParamBounds()
LOW = ParamVector.from_array(BOUNDS.lows)
HIGH = ParamVector.from_array(BOUNDS.highs)


class TestBounds:
    def test_defaults(self):
        assert BOUNDS.beta == (0.0, 8.0)
        assert BOUNDS.rho == (0.5, 1.0)
        assert BOUNDS.q0 == (0.5, 1.0)
        assert BOUNDS.gamma == (0.0, 10.0)
        assert BOUNDS.delta == (0.8, 1.0)

    def test_inverted_bounds_rejected(self):
        with pytest.raises(ValueError, match="gamma"):
            ParamBounds(gamma=(3.0, 3.0))

    @pytest.mark.parametrize(
        "box",
        [
            {"delta": (0.8, 1.5)},  # alpha would grow; reduce_alpha rejects it mid-run
            {"rho": (-0.5, 0.2)},
            {"beta": (-3.0, -1.0)},  # inverts the heuristic
            {"q0": (0.5, 1.2)},
            {"gamma": (-1.0, 10.0)},
            {"beta": (0.0, math.inf)},
            {"q0": (math.nan, 1.0)},
        ],
        ids=lambda box: "-".join(f"{k}={v}" for k, v in box.items()),
    )
    def test_box_outside_the_domain_rejected_at_construction(self, box):
        (name,) = box
        with pytest.raises(ValueError, match=name):
            ParamBounds(**box)

    def test_domain_edges_accepted(self):
        ParamBounds(beta=(0.0, 20.0), rho=(1e-9, 1.0), q0=(0.0, 1.0), gamma=(0.0, 100.0), delta=(0.0, 1.0))

    def test_contains(self):
        assert BOUNDS.contains(LOW) and BOUNDS.contains(HIGH)
        assert not BOUNDS.contains(ParamVector(9.0, 0.6, 0.6, 5.0, 0.9))


class TestParamDistance:
    def test_identity(self):
        v = ParamVector(4.0, 0.7, 0.9, 3.0, 0.85)
        assert param_distance(v, v, BOUNDS) == 0.0

    def test_opposite_corners(self):
        assert param_distance(LOW, HIGH, BOUNDS) == pytest.approx(math.sqrt(5.0))

    def test_single_dimension_normalized(self):
        a = ParamVector(0.0, 0.5, 0.5, 0.0, 0.8)
        b = ParamVector(4.0, 0.5, 0.5, 0.0, 0.8)
        assert param_distance(a, b, BOUNDS) == pytest.approx(0.5)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a = ParamVector.from_array(BOUNDS.lows + rng.random(5) * BOUNDS.widths)
            b = ParamVector.from_array(BOUNDS.lows + rng.random(5) * BOUNDS.widths)
            assert param_distance(a, b, BOUNDS) == pytest.approx(param_distance(b, a, BOUNDS))


class TestAttractiveness:
    def test_zero_distance_gives_beta0(self):
        assert attractiveness(1.0, 3.7, 0.0) == 1.0
        assert attractiveness(2.5, 3.7, 0.0) == 2.5

    def test_zero_gamma_constant(self):
        for r in (0.0, 0.4, 2.0, 100.0):
            assert attractiveness(1.0, 0.0, r) == 1.0

    def test_unit_point(self):
        assert attractiveness(1.0, 1.0, 1.0) == pytest.approx(math.exp(-1.0))

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            attractiveness(1.0, -0.1, 1.0)
        with pytest.raises(ValueError):
            attractiveness(1.0, 1.0, -0.5)


class TestMove:
    def test_no_motion_when_colocated_and_alpha_zero(self):
        fa = FaState()
        fa.alpha = 0.0
        v = ParamVector(4.0, 0.7, 0.9, 3.0, 0.85)
        assert move(v, v, fa, 2.0, BOUNDS, np.random.default_rng(0)) == v

    def test_full_attraction_lands_exactly(self):
        fa = FaState()
        fa.alpha = 0.0
        got = move(LOW, HIGH, fa, 0.0, BOUNDS, np.random.default_rng(0))
        assert got == HIGH

    def test_half_attraction_reaches_midpoints(self):
        # gamma chosen so attractiveness at the corner distance is exactly 1/2
        fa = FaState()
        fa.alpha = 0.0
        gamma = math.log(2.0) / 5.0
        got = move(LOW, HIGH, fa, gamma, BOUNDS, np.random.default_rng(0))
        expected = (4.0, 0.75, 0.75, 5.0, 0.9)
        assert got.as_array() == pytest.approx(np.array(expected), abs=1e-12)

    def test_clamped_to_bounds(self):
        fa = FaState(alpha=50.0)
        rng = np.random.default_rng(8)
        for _ in range(200):
            got = move(LOW, HIGH, fa, 0.0, BOUNDS, rng)
            assert BOUNDS.contains(got)

    def test_kick_is_alpha_times_the_width(self):
        # colocated vectors with gamma 0: full attraction, then only the kick
        fa = FaState(alpha=0.3)
        mid = ParamVector.from_array((BOUNDS.lows + BOUNDS.highs) / 2.0)
        got = move(mid, mid, fa, 0.0, BOUNDS, np.random.default_rng(9))
        u = np.random.default_rng(9).random(5)
        kick = (got.as_array() - mid.as_array()) / BOUNDS.widths
        assert kick == pytest.approx(0.3 * (u - 0.5), abs=1e-12)

    def test_deterministic_given_seed(self):
        fa1, fa2 = FaState(), FaState()
        a = move(LOW, HIGH, fa1, 1.0, BOUNDS, np.random.default_rng(42))
        b = move(LOW, HIGH, fa2, 1.0, BOUNDS, np.random.default_rng(42))
        assert a == b


class TestReduceAlpha:
    def test_identity_at_one(self):
        fa = FaState(alpha=1.7)
        reduce_alpha(fa, 1.0)
        assert fa.alpha == 1.7

    def test_direct_arithmetic(self):
        fa = FaState(alpha=2.3)
        reduce_alpha(fa, 0.9)
        assert fa.alpha == pytest.approx(2.07)

    def test_recurrence_matches_power(self):
        fa = FaState(alpha=2.3)
        for _ in range(500):
            reduce_alpha(fa, 0.9)
        assert fa.alpha == pytest.approx(2.3 * 0.9**500, rel=1e-12)

    def test_out_of_range_delta(self):
        with pytest.raises(ValueError):
            reduce_alpha(FaState(), 1.5)
        with pytest.raises(ValueError):
            reduce_alpha(FaState(), -0.1)


class TestFireflyStep:
    def test_singleton_unchanged(self):
        fa = FaState()
        pop = [(ParamVector(4.0, 0.7, 0.9, 3.0, 0.85), 0.5)]
        assert firefly_step(pop, fa, BOUNDS, np.random.default_rng(0)) == pop

    def test_equal_brightness_no_motion(self):
        fa = FaState()
        fa.alpha = 0.0
        a = ParamVector(1.0, 0.6, 0.6, 2.0, 0.9)
        b = ParamVector(7.0, 0.9, 0.9, 8.0, 0.82)
        out = firefly_step([(a, 0.25), (b, 0.25)], fa, BOUNDS, np.random.default_rng(0))
        assert [v for v, _ in out] == [a, b]

    def test_dimmer_lands_on_brighter(self):
        fa = FaState()
        fa.alpha = 0.0
        dim = ParamVector(1.0, 0.6, 0.6, 0.0, 0.9)  # target gamma 0 -> full pull
        bright = ParamVector(7.0, 0.9, 0.9, 0.0, 0.82)
        out = firefly_step([(dim, 0.1), (bright, 0.9)], fa, BOUNDS, np.random.default_rng(0))
        assert out[0] == (bright, 0.9)  # ranked: brightest first
        assert out[1][0] == bright      # dimmer teleported onto it

    def test_brightest_is_fixed_point_with_alpha_zero(self):
        fa = FaState()
        fa.alpha = 0.0
        rng = np.random.default_rng(3)
        pop = [
            (ParamVector.from_array(BOUNDS.lows + rng.random(5) * BOUNDS.widths), float(b))
            for b in rng.random(6)
        ]
        best = max(pop, key=lambda p: p[1])
        out = firefly_step(pop, fa, BOUNDS, rng)
        assert out[0] == best

    def test_ranked_by_brightness(self):
        fa = FaState(alpha=0.5)
        rng = np.random.default_rng(4)
        pop = [
            (ParamVector.from_array(BOUNDS.lows + rng.random(5) * BOUNDS.widths), float(b))
            for b in rng.random(8)
        ]
        out = firefly_step(pop, fa, BOUNDS, rng)
        lights = [b for _, b in out]
        assert lights == sorted(lights, reverse=True)

    def test_all_results_within_bounds(self):
        fa = FaState(alpha=5.0)
        rng = np.random.default_rng(5)
        for _ in range(50):
            pop = [
                (ParamVector.from_array(BOUNDS.lows + rng.random(5) * BOUNDS.widths), float(b))
                for b in rng.random(5)
            ]
            out = firefly_step(pop, fa, BOUNDS, rng)
            assert all(BOUNDS.contains(v) for v, _ in out)

    def test_non_finite_brightness_rejected(self):
        fa = FaState()
        pop = [(LOW, 0.5), (HIGH, float("nan"))]
        with pytest.raises(ValueError, match="finite"):
            firefly_step(pop, fa, BOUNDS, np.random.default_rng(0))


def test_param_names_order():
    assert PARAM_NAMES == ("beta", "rho", "q0", "gamma", "delta")
