"""Observer-dependent entropy: boundary values, identities, both units."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from zittersim import (
    LightSpeedSingularity,
    InvalidBeta,
    InvalidDistribution,
    direction_probabilities_array,
    entropy_from_beta_array,
    entropy_from_probabilities_array,
    entropy_relativistic_form_array,
    lorentz_gamma_array,
    rapidity_from_beta_array,
    redshift_factor_array,
)

LN2 = math.log(2.0)
# -0.8 ln 0.8 - 0.2 ln 0.2, evaluated at 50-digit precision and rounded.
S_POINT_SIX_NATS = 0.5004024235381879

BETAS = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
INTERIOR = st.floats(min_value=-0.999, max_value=0.999, allow_nan=False)


class TestEntropyFromDistribution:
    """``entropy_from_probabilities_array``: the entropy of a direction law."""

    def test_rest_is_maximal(self):
        nats, bits = entropy_from_probabilities_array(0.5, 0.5)
        assert nats == pytest.approx(LN2, abs=1e-15)
        assert bits == pytest.approx(1.0, abs=1e-15)

    def test_certainty_is_zero(self):
        for pair in [(1.0, 0.0), (0.0, 1.0)]:
            for s in entropy_from_probabilities_array(*pair):
                assert s == 0.0 and not np.signbit(s)

    def test_skewed_distribution(self):
        nats, _ = entropy_from_probabilities_array(0.8, 0.2)
        assert nats == pytest.approx(S_POINT_SIX_NATS, abs=1e-15)

    def test_elementwise_over_broadcast_pairs(self):
        p_right = np.array([[0.5], [0.8]])
        pair = entropy_from_probabilities_array(p_right, 1.0 - p_right)
        for unit, s in enumerate(pair):
            assert s.shape == (2, 1)
            assert s.ravel().tolist() == [
                entropy_from_probabilities_array(0.5, 0.5)[unit].item(),
                entropy_from_probabilities_array(0.8, 1.0 - 0.8)[unit].item(),
            ]

    def test_invalid_pair_named(self):
        with pytest.raises(InvalidDistribution, match=r"got \(0\.7, 0\.2\)$"):
            entropy_from_probabilities_array([0.5, 0.7, 0.2], [0.5, 0.2, -0.1])
        with pytest.raises(InvalidDistribution, match=r"got \(nan, 0\.5\)$"):
            entropy_from_probabilities_array([0.5, math.nan], 0.5)
        with pytest.raises(InvalidDistribution, match=r"got \(inf, -inf\)$"):
            entropy_from_probabilities_array(math.inf, -math.inf)

    @pytest.mark.parametrize(
        "pair",
        [(np.zeros(3), np.zeros(4)), ([[0.5], [0.5, 0.5]], 0.5), (0.5j, 0.5)],
        ids=["shapes", "ragged", "complex"],
    )
    def test_malformed_pairs_raise_invalid_distribution(self, pair):
        with pytest.raises(InvalidDistribution):
            entropy_from_probabilities_array(*pair)


class TestEntropyFromBeta:
    def test_rest_is_log2(self):
        nats, bits = entropy_from_beta_array(0.0)
        assert nats == pytest.approx(LN2, abs=1e-15)
        assert bits == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("v", [1.0, -1.0])
    def test_light_speed_is_exactly_zero(self, v):
        assert entropy_from_beta_array(v) == (0.0, 0.0)

    def test_matches_distribution_route(self):
        via_beta = entropy_from_beta_array(0.6)
        via_dist = entropy_from_probabilities_array(0.8, 0.2)
        assert via_beta == pytest.approx(via_dist, abs=1e-14)

    @given(v=BETAS)
    def test_agrees_with_distribution_route(self, v):
        via_beta = entropy_from_beta_array(v)
        via_dist = entropy_from_probabilities_array(*direction_probabilities_array(v))
        assert via_beta == pytest.approx(via_dist, abs=1e-14)

    @given(v=BETAS)
    def test_symmetry_is_exact(self, v):
        assert entropy_from_beta_array(v) == entropy_from_beta_array(-v)

    def test_strictly_decreasing_in_speed(self):
        speeds = np.linspace(0.0, 1.0, 101)
        for values in entropy_from_beta_array(speeds):
            for lo, hi in zip(values[1:], values[:-1]):
                assert lo < hi

    @given(v=BETAS)
    def test_bounded_by_log2(self, v):
        nats, bits = entropy_from_beta_array(v)
        assert 0.0 <= nats <= LN2 + 1e-15
        assert 0.0 <= bits <= 1.0 + 1e-15


class TestRelativisticFactors:
    def test_rest_frame(self):
        assert lorentz_gamma_array(0.0) == 1.0
        assert redshift_factor_array(0.0) == 1.0

    def test_known_values(self):
        assert lorentz_gamma_array(0.6) == pytest.approx(1.25, abs=1e-15)
        assert redshift_factor_array(0.6) == pytest.approx(2.0, abs=1e-15)
        assert lorentz_gamma_array(0.8) == pytest.approx(5.0 / 3.0, abs=1e-15)

    @pytest.mark.parametrize("v", [1.0, -1.0])
    def test_light_speed_raises(self, v):
        with pytest.raises(LightSpeedSingularity):
            lorentz_gamma_array(v)
        with pytest.raises(LightSpeedSingularity):
            redshift_factor_array(v)

    @given(v=INTERIOR)
    def test_gamma_at_least_one(self, v):
        assert lorentz_gamma_array(v) >= 1.0

    @given(v=INTERIOR)
    def test_redshift_reciprocal_symmetry(self, v):
        product = redshift_factor_array(v) * redshift_factor_array(-v)
        assert product == pytest.approx(1.0, rel=1e-12)

    @given(v=INTERIOR)
    def test_log_redshift_is_rapidity(self, v):
        assert math.log(redshift_factor_array(v)) == pytest.approx(
            rapidity_from_beta_array(v), abs=1e-12
        )


class TestRelativisticEntropyForm:
    def test_rest_reduces_to_log2(self):
        assert entropy_relativistic_form_array(0.0) == pytest.approx(LN2, abs=1e-15)

    def test_known_value(self):
        # log 2.5 - 0.6 log 2
        s = entropy_relativistic_form_array(0.6)
        assert s == pytest.approx(S_POINT_SIX_NATS, abs=1e-12)

    def test_symmetric_in_beta(self):
        assert entropy_relativistic_form_array(-0.6) == pytest.approx(
            entropy_relativistic_form_array(0.6), abs=1e-12
        )

    @pytest.mark.parametrize("v", [1.0, -1.0])
    def test_light_speed_raises(self, v):
        with pytest.raises(LightSpeedSingularity):
            entropy_relativistic_form_array(v)

    def test_identity_on_grid(self):
        grid = np.linspace(-0.999, 0.999, 999)
        nats, _ = entropy_from_beta_array(grid)
        worst = np.max(np.abs(nats - entropy_relativistic_form_array(grid)))
        assert worst <= 1e-12

    @given(v=INTERIOR)
    def test_identity_property(self, v):
        direct, _ = entropy_from_beta_array(v)
        decomposed = entropy_relativistic_form_array(v)
        assert abs(direct - decomposed) <= 1e-12


class TestUnits:
    @given(v=BETAS)
    def test_bits_times_ln2_is_nats(self, v):
        nats, bits = entropy_from_beta_array(v)
        assert bits * LN2 == pytest.approx(nats, abs=1e-15)

    @given(p_right=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=8))
    def test_probability_route_bits_are_nats_over_ln2(self, p_right):
        p_right = np.array(p_right)
        p_left = 1.0 - p_right
        nats, bits = entropy_from_probabilities_array(p_right, p_left)
        assert np.all(np.abs(bits - nats / LN2) <= 1e-15)
        # each element is the value of its own point, bit for bit
        points = [entropy_from_probabilities_array(p, q) for p, q in zip(p_right, p_left)]
        assert nats.tolist() == [s.item() for s, _ in points]
        assert bits.tolist() == [s.item() for _, s in points]


class TestArrayForms:
    GRID = np.linspace(-1.0, 1.0, 201)

    # one case per element of the (nats, bits) pair; the ids are the names
    # the cases had when the unit was an enum argument
    @pytest.mark.parametrize("unit", [0, 1], ids=["EntropyUnit.NATS", "EntropyUnit.BITS"])
    def test_entropy_matches_scalar_bitwise(self, unit):
        points = [entropy_from_beta_array(b) for b in self.GRID]
        s = entropy_from_beta_array(self.GRID)[unit]
        assert s.tolist() == [pair[unit].item() for pair in points]
        assert s[0] == s[-1] == 0.0 and not np.signbit(s[0])

    FACTORS = [lorentz_gamma_array, redshift_factor_array, entropy_relativistic_form_array]

    @pytest.mark.parametrize("array_fn", FACTORS)
    def test_factors_match_scalar_bitwise(self, array_fn):
        # a point's value does not depend on the array it sits in: the one-row
        # `entropy --beta` and the `--grid` slices rely on it
        inside = self.GRID[1:-1]
        assert array_fn(inside).tolist() == [array_fn(b).item() for b in inside]

    @pytest.mark.parametrize("bad", ["0.5", True, None, [[0.1], [0.2, 0.3]]])
    @pytest.mark.parametrize("fn", [entropy_from_beta_array, *FACTORS])
    def test_non_numbers_rejected(self, fn, bad):
        with pytest.raises(InvalidBeta):
            fn(bad)

    def test_scalar_input_gives_zero_dim_array(self):
        values = [fn(np.float64(0.6)) for fn in self.FACTORS]
        values += [*entropy_from_beta_array(np.float64(0.6))]
        values += [*entropy_from_probabilities_array(0.8, 0.2)]
        for s in values:
            assert s.ndim == 0 and type(s.item()) is float

    @pytest.mark.parametrize("fn", FACTORS)
    def test_light_speed_entry_named(self, fn):
        with pytest.raises(LightSpeedSingularity, match=r"beta = \+1$"):
            fn([0.5, 1.0, -1.0])

    def test_invalid_entry_named(self):
        with pytest.raises(InvalidBeta, match=r"got -1\.25$"):
            entropy_from_beta_array([0.5, -1.25, 3.0])
        with pytest.raises(InvalidBeta, match=r"got \[\[0\.1\], \[0\.2, 0\.3\]\]$"):
            entropy_from_beta_array([[0.1], [0.2, 0.3]])
