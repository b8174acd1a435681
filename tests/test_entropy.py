"""Observer-dependent entropy: boundary values, identities, units."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from zittersim import (
    DirectionDistribution,
    EntropyUnit,
    EntropyValue,
    LightSpeedSingularity,
    InvalidBeta,
    InvalidEntropy,
    ZitterError,
    entropy_from_beta,
    entropy_from_distribution,
    entropy_relativistic_form,
    lorentz_gamma,
    rapidity_from_beta_array,
    redshift_factor,
)
from zittersim.entropy import (
    entropy_from_beta_array,
    entropy_relativistic_form_array,
    lorentz_gamma_array,
    redshift_factor_array,
)

LN2 = math.log(2.0)
# -0.8 ln 0.8 - 0.2 ln 0.2, evaluated at 50-digit precision and rounded.
S_POINT_SIX_NATS = 0.5004024235381879

BETAS = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
INTERIOR = st.floats(min_value=-0.999, max_value=0.999, allow_nan=False)


class TestEntropyFromDistribution:
    def test_rest_is_maximal(self):
        s = entropy_from_distribution(DirectionDistribution(0.5, 0.5))
        assert s.value == pytest.approx(LN2, abs=1e-15)
        assert entropy_from_distribution(
            DirectionDistribution(0.5, 0.5), EntropyUnit.BITS
        ).value == pytest.approx(1.0, abs=1e-15)

    def test_certainty_is_zero(self):
        s = entropy_from_distribution(DirectionDistribution(1.0, 0.0))
        assert s.value == 0.0

    def test_skewed_distribution(self):
        s = entropy_from_distribution(DirectionDistribution(0.8, 0.2))
        assert s.value == pytest.approx(S_POINT_SIX_NATS, abs=1e-15)


class TestEntropyFromBeta:
    def test_rest_is_log2(self):
        assert entropy_from_beta(0.0).value == pytest.approx(LN2, abs=1e-15)

    @pytest.mark.parametrize("v", [1.0, -1.0])
    def test_light_speed_is_exactly_zero(self, v):
        assert entropy_from_beta(v).value == 0.0

    def test_matches_distribution_route(self):
        via_beta = entropy_from_beta(0.6).value
        via_dist = entropy_from_distribution(DirectionDistribution(0.8, 0.2)).value
        assert via_beta == pytest.approx(via_dist, abs=1e-14)

    @given(v=BETAS)
    def test_agrees_with_distribution_route(self, v):
        from zittersim import direction_distribution_from_beta

        via_beta = entropy_from_beta(v).value
        via_dist = entropy_from_distribution(direction_distribution_from_beta(v)).value
        assert via_beta == pytest.approx(via_dist, abs=1e-14)

    @given(v=BETAS)
    def test_symmetry_is_exact(self, v):
        assert entropy_from_beta(v).value == entropy_from_beta(-v).value

    def test_strictly_decreasing_in_speed(self):
        speeds = np.linspace(0.0, 1.0, 101)
        values = [entropy_from_beta(v).value for v in speeds]
        for lo, hi in zip(values[1:], values[:-1]):
            assert lo < hi

    @given(v=BETAS)
    def test_bounded_by_log2(self, v):
        s = entropy_from_beta(v).value
        assert 0.0 <= s <= LN2 + 1e-15


class TestRelativisticFactors:
    def test_rest_frame(self):
        assert lorentz_gamma(0.0) == 1.0
        assert redshift_factor(0.0) == 1.0

    def test_known_values(self):
        assert lorentz_gamma(0.6) == pytest.approx(1.25, abs=1e-15)
        assert redshift_factor(0.6) == pytest.approx(2.0, abs=1e-15)
        assert lorentz_gamma(0.8) == pytest.approx(5.0 / 3.0, abs=1e-15)

    @pytest.mark.parametrize("v", [1.0, -1.0])
    def test_light_speed_raises(self, v):
        with pytest.raises(LightSpeedSingularity):
            lorentz_gamma(v)
        with pytest.raises(LightSpeedSingularity):
            redshift_factor(v)

    @given(v=INTERIOR)
    def test_gamma_at_least_one(self, v):
        assert lorentz_gamma(v) >= 1.0

    @given(v=INTERIOR)
    def test_redshift_reciprocal_symmetry(self, v):
        assert redshift_factor(v) * redshift_factor(-v) == pytest.approx(1.0, rel=1e-12)

    @given(v=INTERIOR)
    def test_log_redshift_is_rapidity(self, v):
        assert math.log(redshift_factor(v)) == pytest.approx(
            rapidity_from_beta_array(v), abs=1e-12
        )


class TestRelativisticEntropyForm:
    def test_rest_reduces_to_log2(self):
        assert entropy_relativistic_form(0.0).value == pytest.approx(LN2, abs=1e-15)

    def test_known_value(self):
        # log 2.5 - 0.6 log 2
        s = entropy_relativistic_form(0.6)
        assert s.unit is EntropyUnit.NATS
        assert s.value == pytest.approx(S_POINT_SIX_NATS, abs=1e-12)

    def test_symmetric_in_beta(self):
        assert entropy_relativistic_form(-0.6).value == pytest.approx(
            entropy_relativistic_form(0.6).value, abs=1e-12
        )

    @pytest.mark.parametrize("v", [1.0, -1.0])
    def test_light_speed_raises(self, v):
        with pytest.raises(LightSpeedSingularity):
            entropy_relativistic_form(v)

    def test_identity_on_grid(self):
        worst = 0.0
        for v in np.linspace(-0.999, 0.999, 999):
            direct = entropy_from_beta(v).value
            decomposed = entropy_relativistic_form(v).value
            worst = max(worst, abs(direct - decomposed))
        assert worst <= 1e-12

    @given(v=INTERIOR)
    def test_identity_property(self, v):
        direct = entropy_from_beta(v).value
        decomposed = entropy_relativistic_form(v).value
        assert abs(direct - decomposed) <= 1e-12


class TestUnits:
    @given(v=BETAS)
    def test_bits_times_ln2_is_nats(self, v):
        nats = entropy_from_beta(v, EntropyUnit.NATS).value
        bits = entropy_from_beta(v, EntropyUnit.BITS).value
        assert bits * LN2 == pytest.approx(nats, abs=1e-15)

    def test_value_range_is_validated(self):
        with pytest.raises(InvalidEntropy):
            EntropyValue(-0.1, EntropyUnit.NATS)
        with pytest.raises(InvalidEntropy):
            EntropyValue(LN2 + 1e-6, EntropyUnit.NATS)
        with pytest.raises(InvalidEntropy):
            EntropyValue(1.1, EntropyUnit.BITS)
        EntropyValue(1.0, EntropyUnit.BITS)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: entropy_from_beta(0.5, "bits"),
            lambda: entropy_from_beta_array([0.5], "bits"),
            lambda: entropy_from_distribution(DirectionDistribution(0.5, 0.5), "nats"),
            lambda: EntropyValue(0.5, "nats"),
            lambda: EntropyValue(math.nan, EntropyUnit.BITS),
            lambda: EntropyValue("0.5", EntropyUnit.NATS),
        ],
    )
    def test_bad_unit_or_value_raises_invalid_entropy(self, call):
        with pytest.raises(InvalidEntropy) as info:
            call()
        assert isinstance(info.value, ZitterError) and isinstance(info.value, ValueError)


class TestArrayForms:
    GRID = np.linspace(-1.0, 1.0, 201)

    @pytest.mark.parametrize("unit", list(EntropyUnit))
    def test_entropy_matches_scalar_bitwise(self, unit):
        s = entropy_from_beta_array(self.GRID, unit)
        assert s.tolist() == [entropy_from_beta(b, unit).value for b in self.GRID]
        assert s[0] == s[-1] == 0.0 and not np.signbit(s[0])

    @pytest.mark.parametrize(
        "array_fn,scalar_fn",
        [
            (lorentz_gamma_array, lorentz_gamma),
            (redshift_factor_array, redshift_factor),
            (entropy_relativistic_form_array, lambda b: entropy_relativistic_form(b).value),
        ],
    )
    def test_factors_match_scalar_bitwise(self, array_fn, scalar_fn):
        inside = self.GRID[1:-1]
        assert array_fn(inside).tolist() == [scalar_fn(b) for b in inside]

    @pytest.mark.parametrize(
        "fn,bad",
        [(fn, [0.5]) for fn in (entropy_from_beta, lorentz_gamma, redshift_factor,
                                entropy_relativistic_form)]
        + [(lorentz_gamma, bad) for bad in ("0.5", True, None)],
    )
    def test_scalar_api_rejects_non_scalars(self, fn, bad):
        with pytest.raises(InvalidBeta):
            fn(bad)

    def test_scalar_api_returns_python_floats(self):
        b = np.float64(0.6)
        assert type(lorentz_gamma(b)) is float and type(redshift_factor(b)) is float
        assert type(entropy_from_beta(b).value) is float
        assert type(entropy_relativistic_form(b).value) is float
        d = DirectionDistribution(0.8, 0.2)
        assert type(entropy_from_distribution(d).value) is float

    @pytest.mark.parametrize(
        "fn", [lorentz_gamma_array, redshift_factor_array, entropy_relativistic_form_array]
    )
    def test_light_speed_entry_named(self, fn):
        with pytest.raises(LightSpeedSingularity, match=r"beta = \+1$"):
            fn([0.5, 1.0, -1.0])

    def test_invalid_entry_named(self):
        with pytest.raises(InvalidBeta, match=r"got -1\.25$"):
            entropy_from_beta_array([0.5, -1.25, 3.0])
