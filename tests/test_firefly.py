import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from acsfa.firefly import (
    PARAM_NAMES,
    ParamBounds,
    ParamVector,
    move,
    reduce_alpha,
    sweep,
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
    """The width-normalised distance inside ``move``, pinned on the array
    reference that ``test_move_matches_the_array_reference`` holds ``move`` to."""

    def test_identity(self):
        v = ParamVector(4.0, 0.7, 0.9, 3.0, 0.85)
        assert reference_distance(v, v, BOUNDS) == 0.0

    def test_opposite_corners(self):
        assert reference_distance(LOW, HIGH, BOUNDS) == pytest.approx(math.sqrt(5.0))

    def test_single_dimension_normalized(self):
        a = ParamVector(0.0, 0.5, 0.5, 0.0, 0.8)
        b = ParamVector(4.0, 0.5, 0.5, 0.0, 0.8)
        assert reference_distance(a, b, BOUNDS) == pytest.approx(0.5)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a = ParamVector.from_array(BOUNDS.lows + rng.random(5) * BOUNDS.widths)
            b = ParamVector.from_array(BOUNDS.lows + rng.random(5) * BOUNDS.widths)
            assert reference_distance(a, b, BOUNDS) == pytest.approx(reference_distance(b, a, BOUNDS))


class TestAttractiveness:
    """``move``'s pull exp(-gamma * r^2); r = 0 and gamma = 0 (full pull)
    are in ``test_move_matches_the_array_reference``'s draws."""

    def test_unit_point(self):
        # one width apart in beta alone: r = 1, so gamma 1 pulls by exp(-1)
        got = move(LOW, LOW._replace(beta=8.0), 0.0, 1.0, BOUNDS, np.random.default_rng(0).random(5))
        assert got == pytest.approx(LOW._replace(beta=8.0 * math.exp(-1.0)), abs=1e-12)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError, match="gamma"):
            move(LOW, HIGH, 0.0, -0.1, BOUNDS, np.random.default_rng(0).random(5))


class TestMove:
    def test_no_motion_when_colocated_and_alpha_zero(self):
        v = ParamVector(4.0, 0.7, 0.9, 3.0, 0.85)
        assert move(v, v, 0.0, 2.0, BOUNDS, np.random.default_rng(0).random(5)) == v

    def test_full_attraction_lands_exactly(self):
        got = move(LOW, HIGH, 0.0, 0.0, BOUNDS, np.random.default_rng(0).random(5))
        assert got == HIGH

    def test_half_attraction_reaches_midpoints(self):
        # gamma chosen so attractiveness at the corner distance is exactly 1/2
        gamma = math.log(2.0) / 5.0
        got = move(LOW, HIGH, 0.0, gamma, BOUNDS, np.random.default_rng(0).random(5))
        expected = (4.0, 0.75, 0.75, 5.0, 0.9)
        assert got.as_array() == pytest.approx(np.array(expected), abs=1e-12)

    def test_clamped_to_bounds(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            got = move(LOW, HIGH, 50.0, 0.0, BOUNDS, rng.random(5))
            assert BOUNDS.contains(got)

    def test_kick_is_alpha_times_the_width(self):
        # colocated vectors with gamma 0: full attraction, then only the kick
        mid = ParamVector.from_array((BOUNDS.lows + BOUNDS.highs) / 2.0)
        got = move(mid, mid, 0.3, 0.0, BOUNDS, np.random.default_rng(9).random(5))
        u = np.random.default_rng(9).random(5)
        kick = (got.as_array() - mid.as_array()) / BOUNDS.widths
        assert kick == pytest.approx(0.3 * (u - 0.5), abs=1e-12)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_non_finite_alpha_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha must be finite"):
            move(LOW, HIGH, alpha, 1.0, BOUNDS, np.random.default_rng(0).random(5))

    @pytest.mark.parametrize("gamma", [math.nan, math.inf])
    def test_non_finite_gamma_rejected(self, gamma):
        # a NaN pull once sent xi to the box's low corner, as did inf at r = 0
        with pytest.raises(ValueError, match=f"gamma must be finite and >= 0, got {gamma}"):
            move(HIGH, HIGH, 0.1, gamma, BOUNDS, np.random.default_rng(0).random(5))

    def test_deterministic_given_seed(self):
        a = move(LOW, HIGH, 2.3, 1.0, BOUNDS, np.random.default_rng(42).random(5))
        b = move(LOW, HIGH, 2.3, 1.0, BOUNDS, np.random.default_rng(42).random(5))
        assert a == b


class TestReduceAlpha:
    def test_identity_at_one(self):
        assert reduce_alpha(1.7, 1.0) == 1.7

    def test_direct_arithmetic(self):
        assert reduce_alpha(2.3, 0.9) == pytest.approx(2.07)

    def test_recurrence_matches_power(self):
        alpha = 2.3
        for _ in range(500):
            alpha = reduce_alpha(alpha, 0.9)
        assert alpha == pytest.approx(2.3 * 0.9**500, rel=1e-12)

    def test_out_of_range_delta(self):
        with pytest.raises(ValueError):
            reduce_alpha(2.3, 1.5)
        with pytest.raises(ValueError):
            reduce_alpha(2.3, -0.1)


def random_vectors(rng, count):
    return [ParamVector.from_array(BOUNDS.lows + rng.random(5) * BOUNDS.widths) for _ in range(count)]


class TestFireflyStep:
    """One step of the firefly algorithm: one call of ``sweep``."""

    def test_singleton_unchanged(self):
        v = ParamVector(4.0, 0.7, 0.9, 3.0, 0.85)
        assert sweep([v], [0.5], 2.3, BOUNDS, np.random.default_rng(0)) == [v]

    def test_equal_brightness_no_motion(self):
        a = ParamVector(1.0, 0.6, 0.6, 2.0, 0.9)
        b = ParamVector(7.0, 0.9, 0.9, 8.0, 0.82)
        assert sweep([a, b], [0.25, 0.25], 0.0, BOUNDS, np.random.default_rng(0)) == [a, b]

    def test_dimmer_lands_on_brighter(self):
        dim = ParamVector(1.0, 0.6, 0.6, 0.0, 0.9)
        bright = ParamVector(7.0, 0.9, 0.9, 0.0, 0.82)  # its gamma 0 -> full pull
        out = sweep([dim, bright], [0.1, 0.9], 0.0, BOUNDS, np.random.default_rng(0))
        assert out == [bright, bright]  # caller's order kept, dimmer moved onto the brighter

    def test_brightest_is_fixed_point_with_alpha_zero(self):
        rng = np.random.default_rng(3)
        pop = random_vectors(rng, 6)
        light = [float(b) for b in rng.random(6)]
        brightest = int(np.argmax(light))
        out = sweep(pop, light, 0.0, BOUNDS, rng)
        assert out[brightest] == pop[brightest]

    def test_all_results_within_bounds(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            out = sweep(random_vectors(rng, 5), [float(b) for b in rng.random(5)], 5.0, BOUNDS, rng)
            assert all(BOUNDS.contains(v) for v in out)

    def test_non_finite_brightness_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            sweep([LOW, HIGH], [0.5, float("nan")], 2.3, BOUNDS, np.random.default_rng(0))

    def test_negative_gamma_rejected_before_any_draw(self):
        # the last firefly is the brightest, so the others' moves come first
        pop = [LOW, HIGH, ParamVector(4.0, 0.7, 0.9, -1.0, 0.85)]
        given_pop = list(pop)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="gamma"):
            sweep(pop, [0.1, 0.2, 0.9], 2.3, BOUNDS, rng)
        assert rng.bit_generator.state == state
        assert pop == given_pop

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", PARAM_NAMES)
    def test_non_finite_position_rejected_before_any_draw(self, bad, field):
        # a NaN gamma once sent the dimmer firefly to the box's low corner
        brighter = ParamVector(5.0, 0.8, 0.7, 3.0, 0.9)._replace(**{field: bad})
        pop = [ParamVector(4.0, 0.7, 0.9, 3.0, 0.85), brighter]
        given_pop = list(pop)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="positions must be finite"):
            sweep(pop, [0.1, 0.9], 0.0, ParamBounds(), rng)
        assert rng.bit_generator.state == state
        assert len(pop) == 2 and all(a is b for a, b in zip(pop, given_pop))  # NaN != NaN


    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("size", [1, 3])
    def test_non_finite_alpha_rejected_before_any_draw(self, alpha, size):
        # a NaN or infinite kick once clamped every mover to the box's low corner
        pop = random_vectors(np.random.default_rng(6), size)
        given_pop = list(pop)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="alpha must be finite"):
            sweep(pop, [0.1, 0.5, 0.9][:size], alpha, BOUNDS, rng)
        assert rng.bit_generator.state == state
        assert pop == given_pop


class TestParamVector:
    def test_array_round_trip(self):
        v = ParamVector(2.661202117368, 0.7, 0.9, 3.0, 0.85)
        assert ParamVector.from_array(v.as_array()) == v
        assert v.as_array().tobytes() == np.array([2.661202117368, 0.7, 0.9, 3.0, 0.85]).tobytes()
        assert all(type(x) is float for x in ParamVector.from_array(np.arange(5.0)))

    def test_immutable(self):
        v = ParamVector(4.0, 0.7, 0.9, 3.0, 0.85)
        with pytest.raises(AttributeError):
            v.beta = 1.0


def _array(v: ParamVector) -> np.ndarray:
    return np.array([v.beta, v.rho, v.q0, v.gamma, v.delta])


def reference_distance(xi, xj, bounds) -> float:
    diff = (_array(xi) - _array(xj)) / (bounds.highs - bounds.lows)
    return float(math.sqrt(float((diff * diff).sum())))


def reference_move(xi, xj, alpha, gamma, bounds, kick) -> np.ndarray:
    """The elementwise array form of the firefly move that the float form replaced."""
    lows, highs = bounds.lows, bounds.highs
    widths = highs - lows
    a, t = _array(xi), _array(xj)
    r = reference_distance(xi, xj, bounds)
    b = math.exp(-gamma * r * r)
    attracted = t if b == 1.0 else a + b * (t - a)
    x = attracted + alpha * (kick - 0.5) * widths
    return np.clip(x, lows, highs)


# finite box sides within each dimension's domain, in PARAM_NAMES order
_DOMAIN_SPANS = ((0.0, 50.0), (1e-9, 1.0), (0.0, 1.0), (0.0, 50.0), (0.0, 1.0))


def draw_box(draw) -> ParamBounds:
    sides = []
    for lo, hi in _DOMAIN_SPANS:
        # -0.0 passes a ">= 0" domain check; a clamp onto it must keep its sign
        edges = st.sampled_from([lo, hi, -0.0] if lo == 0.0 else [lo, hi])
        a, b = draw(st.lists(st.one_of(st.floats(lo, hi), edges), min_size=2, max_size=2, unique=True))
        sides.append((min(a, b), max(a, b)))
    return ParamBounds(**dict(zip(PARAM_NAMES, sides)))


def draw_point(draw, bounds: ParamBounds) -> ParamVector:
    """A position given as fractions of each width; fraction 0 on a gamma side from 0 gives gamma 0."""
    fractions = st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)), min_size=5, max_size=5)
    return ParamVector.from_array(bounds.lows + np.array(draw(fractions)) * bounds.widths)


@st.composite
def boxes_and_points(draw):
    """Bounds, then two positions in them (xj may equal xi)."""
    bounds = draw_box(draw)
    xi = draw_point(draw, bounds)
    xj = xi if draw(st.booleans()) else draw_point(draw, bounds)
    return bounds, xi, xj


@settings(max_examples=500, deadline=None)
@given(
    case=boxes_and_points(),
    gamma=st.one_of(st.just(0.0), st.floats(0.0, 100.0)),
    alpha=st.one_of(st.floats(1e-12, 10.0), st.floats(10.0, 1e6)),  # past ~2 widths every dimension clamps
    seed=st.integers(0, 2**32 - 1),
)
# a kick that underflows to zero leaves 0.0 on the side -0.0, where the clamp's tie picks the sign
@example(
    case=(ParamBounds(beta=(-0.0, 8.0)),) + (ParamVector(0.0, 0.6, 0.6, 1.0, 0.9),) * 2,
    gamma=0.0, alpha=5e-324, seed=0,
)
# full attraction lands on xj, where xi + 1.0 * (xj - xi) would round 1e-17 to 0.0
@example(
    case=(BOUNDS, ParamVector(1.0, 0.6, 0.6, 1.0, 0.9), ParamVector(1e-17, 0.6, 0.6, 1.0, 0.9)),
    gamma=0.0, alpha=5e-324, seed=0,
)
def test_move_matches_the_array_reference(case, gamma, alpha, seed):
    bounds, xi, xj = case
    ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    expected = reference_move(xi, xj, alpha, gamma, bounds, ref_rng.random(5))
    got = move(xi, xj, alpha, gamma, bounds, rng.random(5))
    assert np.array(got).tobytes() == expected.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def reference_sweep(vecs, light, alpha, bounds, rng) -> list[ParamVector]:
    """The nested loop of ``sweep`` over the array-form move: ascending i,
    ascending j, i moves toward every strictly brighter j with j's gamma,
    drawing each move's kick as it comes."""
    vecs = list(vecs)
    for i in range(len(vecs)):
        for j in range(len(vecs)):
            if light[j] > light[i]:
                moved = reference_move(vecs[i], vecs[j], alpha, vecs[j].gamma, bounds, rng.random(5))
                vecs[i] = ParamVector.from_array(moved)
    return vecs


@st.composite
def populations(draw):
    """Bounds, 1-12 positions in them (repeats allowed) and a brightness each, with ties and zeros."""
    bounds = draw_box(draw)
    m = draw(st.integers(1, 12))
    vecs = [draw_point(draw, bounds) for _ in range(m)]
    vecs = [draw(st.sampled_from(vecs[:k])) if k and draw(st.booleans()) else v for k, v in enumerate(vecs)]
    brightness = st.one_of(st.sampled_from([0.0, 0.25, 1.0]), st.floats(0.0, 1.0))
    light = draw(st.lists(brightness, min_size=m, max_size=m))
    return bounds, vecs, light


@settings(max_examples=300, deadline=None)
@given(
    case=populations(),
    alpha=st.one_of(st.just(0.0), st.floats(1e-12, 10.0), st.floats(10.0, 1e6)),
    seed=st.integers(0, 2**32 - 1),
)
# the -0.0 side again, now reached through a brighter firefly whose own gamma is 0
@example(
    case=(ParamBounds(beta=(-0.0, 8.0)), [ParamVector(0.0, 0.6, 0.6, 0.0, 0.9)] * 2, [0.0, 1.0]),
    alpha=5e-324, seed=0,
)
# gamma 0 on the default box: every dimmer firefly lands on a brighter one, then is kicked
@example(
    case=(BOUNDS, [ParamVector(1.0, 0.6, 0.6, 0.0, 0.9), ParamVector(7.0, 0.9, 0.9, 0.0, 0.82), LOW],
          [0.5, 1.0, 0.0]),
    alpha=0.0, seed=1,
)
def test_sweep_matches_the_reference_loop(case, alpha, seed):
    bounds, vecs, light = case
    ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    expected = reference_sweep(vecs, light, alpha, bounds, ref_rng)
    got = sweep(vecs, light, alpha, bounds, rng)
    assert [np.array(v).tobytes() for v in got] == [np.array(v).tobytes() for v in expected]
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_param_names_order():
    assert PARAM_NAMES == ("beta", "rho", "q0", "gamma", "delta")
