"""Velocity/probability calculus: examples, invariants, group laws."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from zittersim import (
    IndeterminateComposition,
    InvalidBeta,
    InvalidDistribution,
    LightSpeedSingularity,
    SimConfig,
    compose_probabilities_array,
    compose_velocity_via_probabilities_array,
    direction_probabilities_array,
    entropy_from_probabilities_array,
    observe_from_moving_frame,
    rapidity_from_beta_array,
    velocity_addition_array,
)
from zittersim.kinematics import _beta

BETAS = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
SUBLUMINAL = st.floats(min_value=-0.98, max_value=0.98, allow_nan=False)


class TestBeta:
    """``_beta``, the one-velocity check of SimConfig, observe and the CLI."""

    @pytest.mark.parametrize("v", [-1.0, -0.5, 0.0, 0.25, 1.0])
    def test_accepts_physical_range(self, v):
        assert _beta(v) == v

    @pytest.mark.parametrize("v", [1.0000000001, -1.1, 2.0, math.inf, -math.inf, math.nan])
    def test_rejects_out_of_range(self, v):
        with pytest.raises(InvalidBeta):
            _beta(v)

    def test_rejects_non_numbers(self):
        with pytest.raises(InvalidBeta):
            _beta("0.5")

    def test_float_conversion(self):
        assert _beta(np.float32(0.25)) == 0.25 and type(_beta(np.int64(1))) is float

    @pytest.mark.parametrize("v", ["0.5", True, None])
    def test_velocity_arguments_reject_non_numbers(self, v):
        # every entry point validates through _betas, never through float()
        with pytest.raises(InvalidBeta):
            direction_probabilities_array(v)
        with pytest.raises(InvalidBeta):
            velocity_addition_array(v, 0.1)
        with pytest.raises(InvalidBeta):
            compose_probabilities_array(0.1, v)


class TestDirectionDistribution:
    def test_rest_is_fifty_fifty(self):
        assert direction_probabilities_array(0.0) == (0.5, 0.5)

    def test_light_speed_is_certain(self):
        assert direction_probabilities_array(1.0) == (1.0, 0.0)
        assert direction_probabilities_array(-1.0) == (0.0, 1.0)

    def test_probabilities_from_velocity(self):
        # (1 + 0.6)/2 = 0.8, (1 - 0.6)/2 = 0.2
        p_right, p_left = direction_probabilities_array(0.6)
        assert p_right == pytest.approx(0.8, abs=1e-15)
        assert p_left == pytest.approx(0.2, abs=1e-15)

    @given(v=BETAS)
    def test_normalization_is_exact(self, v):
        p_right, p_left = direction_probabilities_array(v)
        assert p_right + p_left == 1.0
        assert p_right >= 0.0 and p_left >= 0.0

    def test_normalization_exact_on_grid(self):
        p_right, p_left = direction_probabilities_array(np.linspace(-1.0, 1.0, 1001))
        assert p_right.shape == p_left.shape == (1001,)
        assert np.all(p_right + p_left == 1.0)

    # A law that comes from outside is checked where it is consumed: by
    # entropy_from_probabilities_array.
    def test_rejects_negative_probability(self):
        with pytest.raises(InvalidDistribution):
            entropy_from_probabilities_array(1.2, -0.2)

    def test_rejects_unnormalized(self):
        with pytest.raises(InvalidDistribution):
            entropy_from_probabilities_array(0.6, 0.5)

    def test_accepts_within_sum_tolerance(self):
        entropy_from_probabilities_array(0.6, 0.4 + 5e-13)

    @pytest.mark.parametrize("pair", [("a", 0.5), (0.5, "b"), (True, False), (None, 1.0)])
    def test_rejects_non_numbers(self, pair):
        with pytest.raises(InvalidDistribution):
            entropy_from_probabilities_array(*pair)


class TestBetaFromDistribution:
    """beta = Pr(R) - Pr(L) recovers the velocity a distribution was built from."""

    def test_round_trip_on_grid(self):
        grid = np.linspace(-1.0, 1.0, 1001)
        p_right, p_left = direction_probabilities_array(grid)
        assert np.max(np.abs((p_right - p_left) - grid)) <= 1e-15

    @given(v=BETAS)
    def test_round_trip_property(self, v):
        p_right, p_left = direction_probabilities_array(v)
        assert p_right - p_left == pytest.approx(v, abs=1e-15)


class TestComposeFrames:
    """``compose_probabilities_array(u, v)``: the particle's law at v seen by
    an observer at u, the normalized pointwise product."""

    def test_rest_with_rest(self):
        assert compose_probabilities_array(0.0, 0.0) == (0.5, 0.5)

    @pytest.mark.parametrize("q", [0.1, 0.5, 0.9, 1.0])
    def test_light_speed_is_absorbing(self, q):
        # an observer whose own law is (q, 1 - q) sees a lightlike particle
        assert compose_probabilities_array(2.0 * q - 1.0, 1.0) == (1.0, 0.0)

    def test_product_rule(self):
        # 0.75^2 / (0.75^2 + 0.25^2) = 0.5625 / 0.625 = 0.9
        p_right, p_left = compose_probabilities_array(0.5, 0.5)
        assert p_right == pytest.approx(0.9, abs=1e-15)
        assert p_left == pytest.approx(0.1, abs=1e-15)

    def test_antipodal_light_speed_raises(self):
        with pytest.raises(IndeterminateComposition):
            compose_probabilities_array(-1.0, 1.0)
        with pytest.raises(IndeterminateComposition):
            compose_probabilities_array(1.0, -1.0)

    def test_normalized_on_grid(self):
        grid = np.linspace(-1.0, 1.0, 41)
        u, v = grid[1:-1, None], grid[None, :]
        p_right, p_left = compose_probabilities_array(u, v)
        assert p_right.shape == p_left.shape == (39, 41)
        assert np.max(np.abs(p_right + p_left - 1.0)) <= 1e-15
        assert np.all(p_right >= 0.0) and np.all(p_left >= 0.0)


class TestVelocityAddition:
    def test_identity_element(self):
        assert velocity_addition_array(0.0, 0.3) == 0.3
        assert velocity_addition_array(0.3, 0.0) == 0.3

    def test_half_plus_half(self):
        assert velocity_addition_array(0.5, 0.5) == pytest.approx(0.8, abs=1e-15)

    def test_light_speed_is_absorbing(self):
        assert velocity_addition_array(1.0, 0.3) == 1.0
        assert velocity_addition_array(-1.0, 0.3) == -1.0
        assert velocity_addition_array(1.0, 1.0) == 1.0

    def test_inverse_element(self):
        assert abs(velocity_addition_array(0.4, -0.4)) <= 1e-15

    @pytest.mark.parametrize("u,v", [(1.0, -1.0), (-1.0, 1.0)])
    def test_antipodal_pair_raises(self, u, v):
        with pytest.raises(IndeterminateComposition):
            velocity_addition_array(u, v)

    @given(u=BETAS, v=BETAS)
    def test_bounded_by_light_speed(self, u, v):
        if (u == 1.0 and v == -1.0) or (u == -1.0 and v == 1.0):
            return
        assert abs(velocity_addition_array(u, v)) <= 1.0

    @given(u=BETAS, v=BETAS)
    def test_commutativity_exact(self, u, v):
        if abs(u) == 1.0 and v == -u:
            return
        assert velocity_addition_array(u, v) == velocity_addition_array(v, u)

    @given(u=SUBLUMINAL)
    def test_identity_exact(self, u):
        assert velocity_addition_array(u, 0.0) == u

    @given(u=BETAS)
    def test_magnitude_one_iff_light_speed(self, u):
        if abs(u) < 1.0:
            assert abs(velocity_addition_array(u, 1.0)) == 1.0
            assert abs(velocity_addition_array(u, -1.0)) == 1.0

    @given(u=SUBLUMINAL, v=SUBLUMINAL)
    def test_strictly_subluminal_inside(self, u, v):
        assert abs(velocity_addition_array(u, v)) < 1.0

    @given(
        u=st.floats(min_value=-0.9, max_value=0.9, allow_nan=False),
        v1=st.floats(min_value=-0.999, max_value=0.999, allow_nan=False),
        gap=st.floats(min_value=1e-6, max_value=0.5, allow_nan=False),
    )
    def test_strictly_increasing_in_v(self, u, v1, gap):
        # strict ordering holds while w stays clear of float saturation at 1;
        # clamping v1 first keeps the two velocities a full gap apart
        v1 = min(v1, 0.999 - gap)
        v2 = v1 + gap
        assert velocity_addition_array(u, v1) < velocity_addition_array(u, v2)

    @given(
        u=st.floats(min_value=-0.9, max_value=0.9, allow_nan=False),
        v1=st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
        v2=st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
    )
    def test_weakly_increasing_up_to_boundary(self, u, v1, v2):
        lo, hi = min(v1, v2), max(v1, v2)
        assert velocity_addition_array(u, lo) <= velocity_addition_array(u, hi)


class TestProbabilityRoute:
    def test_matches_closed_form_example(self):
        assert compose_velocity_via_probabilities_array(0.5, 0.5) == pytest.approx(
            0.8, abs=1e-15
        )

    @pytest.mark.parametrize("v", [-1.0, -0.7, 0.0, 0.123, 1.0])
    def test_rest_observer_changes_nothing(self, v):
        assert compose_velocity_via_probabilities_array(0.0, v) == pytest.approx(
            v, abs=1e-15
        )

    def test_inverse_element(self):
        assert abs(compose_velocity_via_probabilities_array(0.9, -0.9)) <= 1e-15

    @pytest.mark.parametrize("u,v", [(1.0, -1.0), (-1.0, 1.0)])
    def test_antipodal_pair_raises(self, u, v):
        with pytest.raises(IndeterminateComposition):
            compose_velocity_via_probabilities_array(u, v)

    def test_is_the_difference_of_the_composed_law(self):
        grid = np.linspace(-1.0, 1.0, 41)
        u, v = grid[1:-1, None], grid[None, :]
        p_right, p_left = compose_probabilities_array(u, v)
        assert np.array_equal(compose_velocity_via_probabilities_array(u, v), p_right - p_left)

    def test_agrees_with_closed_form_on_grid(self):
        grid = np.linspace(-0.98, 0.98, 99)
        u, v = grid[:, None], grid[None, :]
        closed = velocity_addition_array(u, v)
        via = compose_velocity_via_probabilities_array(u, v)
        assert np.max(np.abs(closed - via)) <= 1e-12

    @given(u=SUBLUMINAL, v=SUBLUMINAL)
    def test_agrees_with_closed_form_property(self, u, v):
        closed = velocity_addition_array(u, v)
        via = compose_velocity_via_probabilities_array(u, v)
        assert abs(closed - via) <= 1e-12


class TestRapidity:
    def test_rest_has_zero_rapidity(self):
        assert rapidity_from_beta_array(0.0) == 0.0

    @pytest.mark.parametrize("v", [1.0, -1.0])
    def test_light_speed_raises(self, v):
        with pytest.raises(LightSpeedSingularity):
            rapidity_from_beta_array(v)

    def test_round_trip_on_grid(self):
        grid = np.linspace(-0.999, 0.999, 501)
        assert np.tanh(rapidity_from_beta_array(grid)) == pytest.approx(grid, abs=1e-14)

    def test_additive_under_composition(self):
        # atanh(0.5) + atanh(0.8) must match atanh((0.5+0.8)/(1+0.4))
        w = velocity_addition_array(0.5, 0.8)
        total = rapidity_from_beta_array(0.5) + rapidity_from_beta_array(0.8)
        assert rapidity_from_beta_array(w) == pytest.approx(total, abs=1e-10)

    @given(
        u=st.floats(min_value=-0.99, max_value=0.99, allow_nan=False),
        v=st.floats(min_value=-0.99, max_value=0.99, allow_nan=False),
    )
    def test_additivity_property(self, u, v):
        w = velocity_addition_array(u, v)
        total = rapidity_from_beta_array(u) + rapidity_from_beta_array(v)
        assert rapidity_from_beta_array(w) == pytest.approx(total, abs=1e-10)

    def test_associativity_through_rapidity(self):
        triples = [(-0.9, 0.3, 0.7), (0.5, 0.5, 0.5), (-0.2, 0.8, -0.6)]
        for u, v, x in triples:
            left = velocity_addition_array(velocity_addition_array(u, v), x)
            right = velocity_addition_array(u, velocity_addition_array(v, x))
            assert left == pytest.approx(right, abs=1e-10)


class TestArrayCalculus:
    GRID = np.linspace(-1.0, 1.0, 41)

    def test_velocity_addition_matches_scalar_bitwise(self):
        u, v = self.GRID[1:-1, None], self.GRID[None, :]
        w = velocity_addition_array(u, v)
        assert w.shape == compose_velocity_via_probabilities_array(u, v).shape == (39, 41)
        for i, ui in enumerate(u[:, 0]):
            for j, vj in enumerate(v[0]):
                assert w[i, j] == velocity_addition_array(ui, vj)

    def test_scalar_api_returns_python_floats(self):
        assert type(_beta(np.float64(0.25))) is float
        assert type(SimConfig(beta=np.float64(0.25), ticks=1, seed=0).beta) is float

    @pytest.mark.parametrize(
        "call",
        [
            lambda: _beta([0.5]),
            lambda: _beta(np.array([0.5, 0.2])),
            lambda: SimConfig(beta=[0.5], ticks=1, seed=0),
            lambda: observe_from_moving_frame(np.array([0.5, 0.2]), 0.0, ticks=1, seed=0),
        ],
    )
    def test_scalar_api_rejects_sequences(self, call):
        with pytest.raises(InvalidBeta, match=r"real number, got (\[0\.5\]|array)"):
            call()

    def test_accepts_numpy_scalars_and_zero_dim_arrays(self):
        w = velocity_addition_array(np.float64(0.5), np.array(0.5))
        assert w.ndim == 0 and w == velocity_addition_array(0.5, 0.5)

    @pytest.mark.parametrize(
        "fn",
        [velocity_addition_array, compose_velocity_via_probabilities_array,
         compose_probabilities_array],
    )
    def test_invalid_entry_named(self, fn):
        with pytest.raises(InvalidBeta, match=r"got 1\.5$"):
            fn(np.array([0.1, 1.5, -2.0]), 0.0)
        with pytest.raises(InvalidBeta, match=r"got nan$"):
            fn(0.0, [0.0, math.nan])
        # malformed arrays are input errors too, not numpy's bare ValueError
        with pytest.raises(InvalidBeta, match=r"got \[\[0\.1, 0\.2\], \[0\.3\]\]$"):
            fn([[0.1, 0.2], [0.3]], 0.1)
        with pytest.raises(InvalidBeta, match=r"shapes \(3,\) and \(4,\)$"):
            fn(np.zeros(3), np.zeros(4))

    @pytest.mark.parametrize(
        "bad", [["0.5"], [True, False], "0.5", [0.5j], [[0.1, 0.2], [0.3]]]
    )
    def test_non_numbers_rejected(self, bad):
        with pytest.raises(InvalidBeta):
            velocity_addition_array(bad, 0.0)
        with pytest.raises(InvalidBeta):
            direction_probabilities_array(bad)

    @pytest.mark.parametrize(
        "fn", [velocity_addition_array, compose_velocity_via_probabilities_array]
    )
    def test_antipodal_entry_named(self, fn):
        u = np.array([0.2, -1.0, 1.0])
        with pytest.raises(IndeterminateComposition, match=r"u = -1 and v = \+1"):
            fn(u, -u)
        # light speed composes with anything but its opposite
        assert fn(u, u).tolist() == [fn(0.2, 0.2), -1.0, 1.0]

    def test_light_speed_rapidity_entry_named(self):
        with pytest.raises(LightSpeedSingularity, match=r"beta = -1$"):
            rapidity_from_beta_array([0.0, -1.0, 1.0])

    def test_empty_arrays(self):
        assert velocity_addition_array([], []).shape == (0,)
        assert rapidity_from_beta_array([]).shape == (0,)
