"""Mass to tick frequency / characteristic length mapping."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from zittersim import (
    HBAR,
    SPEED_OF_LIGHT,
    NonPositiveMass,
    UnknownParticle,
    ZitterError,
    ParticleScale,
    named_particles,
    particle_mass,
    scale_for_particle,
)

ELECTRON_MASS = 9.1093837015e-31
# 2 m c^2 / hbar and hbar / (2 m c) for the electron, from the pinned constants
ELECTRON_OMEGA = 1.552688142210022e21
ELECTRON_LAMBDA = 1.9307963386214167e-13

MASSES = st.floats(min_value=1e-31, max_value=1e-25, allow_nan=False)


def omega(mass):
    return ParticleScale.from_mass(mass).omega_rad_per_s


def length(mass):
    return ParticleScale.from_mass(mass).length_m


class TestFrequency:
    def test_electron_value(self):
        assert omega(ELECTRON_MASS) == pytest.approx(ELECTRON_OMEGA, rel=1e-12)
        assert 1.0e21 <= omega(ELECTRON_MASS) <= 2.0e21

    def test_linear_in_mass(self):
        assert omega(2.0 * ELECTRON_MASS) == 2.0 * omega(ELECTRON_MASS)

    @pytest.mark.parametrize("mass", [0.0, -1.0, math.nan])
    def test_rejects_non_positive_mass(self, mass):
        with pytest.raises(NonPositiveMass):
            omega(mass)


class TestLength:
    def test_electron_value(self):
        assert length(ELECTRON_MASS) == pytest.approx(ELECTRON_LAMBDA, rel=1e-12)
        assert 1.5e-13 <= length(ELECTRON_MASS) <= 2.5e-13

    def test_inverse_in_mass(self):
        assert length(2.0 * ELECTRON_MASS) == 0.5 * length(ELECTRON_MASS)

    @pytest.mark.parametrize("mass", [0.0, -3.0])
    def test_rejects_non_positive_mass(self, mass):
        with pytest.raises(NonPositiveMass):
            length(mass)

    def test_largest_mass_has_finite_scales(self):
        # 2 m c^2 / hbar overflows a float above ~1.0547e257 kg
        scale = ParticleScale.from_mass(1.05e257)
        fields = (scale.omega_rad_per_s, scale.length_m, scale.frequency_hz, scale.tick_duration_s)
        assert all(0.0 < x < math.inf for x in fields)
        for mass in (1.06e257, 1e300):
            with pytest.raises(NonPositiveMass, match="at most ~1.05e257 kg"):
                ParticleScale.from_mass(mass)

    @given(mass=MASSES)
    def test_length_times_frequency_is_c(self, mass):
        product = length(mass) * omega(mass)
        assert abs(product - SPEED_OF_LIGHT) / SPEED_OF_LIGHT <= 1e-12


@pytest.mark.parametrize(
    "fn,mass",
    [
        (ParticleScale.from_mass, mass)
        for mass in ("x", "1e-30", True, None, [1e-30], [[1e-30], [1e-30, 2e-30]])
    ],
)
def test_non_number_mass_raises_non_positive_mass(fn, mass):
    with pytest.raises(NonPositiveMass):
        fn(mass)


class TestParticleScale:
    def test_from_mass_consistency(self):
        scale = ParticleScale.from_mass(ELECTRON_MASS)
        assert scale.mass_kg == ELECTRON_MASS
        # bit for bit the closed forms 2 m c^2 / hbar and hbar / (2 m c)
        assert scale.omega_rad_per_s == ELECTRON_OMEGA
        assert scale.length_m == ELECTRON_LAMBDA
        assert scale.frequency_hz == pytest.approx(
            scale.omega_rad_per_s / (2.0 * math.pi), rel=1e-15
        )
        assert scale.tick_duration_s == pytest.approx(1.0 / scale.omega_rad_per_s, rel=1e-15)

    def test_constants_are_pinned(self):
        assert SPEED_OF_LIGHT == 299_792_458.0
        assert HBAR == 1.054571817e-34


class TestNamedParticles:
    def test_table_contents(self):
        assert set(named_particles()) == {"electron", "muon", "proton"}
        assert particle_mass("electron") == ELECTRON_MASS
        assert particle_mass("muon") == 1.883531627e-28
        assert particle_mass("proton") == 1.67262192369e-27

    def test_lookup_is_case_insensitive(self):
        assert particle_mass("Electron") == ELECTRON_MASS

    def test_unknown_particle(self):
        with pytest.raises(KeyError):
            particle_mass("tachyon")

    @pytest.mark.parametrize("name", ["tau", "", None, 5])
    def test_unknown_particle_is_typed(self, name):
        with pytest.raises(UnknownParticle) as info:
            particle_mass(name)
        assert isinstance(info.value, ZitterError) and isinstance(info.value, KeyError)
        assert str(info.value) == f"unknown particle {name!r}; known: electron, muon, proton"

    def test_scale_for_particle(self):
        scale = scale_for_particle("electron")
        assert scale.mass_kg == ELECTRON_MASS
        assert 1.0e21 <= scale.omega_rad_per_s <= 2.0e21
        assert 1.5e-13 <= scale.length_m <= 2.5e-13
