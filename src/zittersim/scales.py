"""Physical scales of the light-speed tick motion for a massive particle.

A particle of mass m reverses direction at the angular frequency

    omega = 2 m c^2 / hbar        (~1e21 rad/s for the electron),

twice the de Broglie clock rate, and the distance covered per tick is the
characteristic length

    lambda = c / omega = hbar / (2 m c)    (~1e-13 m for the electron),

half the reduced Compton wavelength.  SI in, SI out; the constants used are
pinned below and echoed in CLI output so results are auditable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import PARTICLES
from .errors import NonPositiveMass, UnknownParticle
from .kinematics import _is_real

__all__ = [
    "SPEED_OF_LIGHT",
    "HBAR",
    "ParticleScale",
    "particle_mass",
    "scale_for_particle",
]

# Exact SI value of c and the 2018 CODATA reduced Planck constant.
SPEED_OF_LIGHT = 299_792_458.0  # m/s
HBAR = 1.054571817e-34  # J s


@dataclass(frozen=True)
class ParticleScale:
    """Mass with its derived tick frequency and characteristic length."""

    mass_kg: float
    omega_rad_per_s: float
    length_m: float

    @classmethod
    def from_mass(cls, mass_kg: float) -> "ParticleScale":
        """Tick angular frequency 2 m c^2 / hbar in rad/s and characteristic
        length hbar / (2 m c) = c / omega in meters of the mass ``mass_kg``."""
        if not (_is_real(mass_kg) and 0.0 < mass_kg < math.inf):
            raise NonPositiveMass(f"mass must be a positive number of kg, got {mass_kg!r}")
        m = float(mass_kg)
        omega = 2.0 * m * SPEED_OF_LIGHT**2 / HBAR
        if not math.isfinite(omega):
            raise NonPositiveMass(f"mass must be at most ~1.05e257 kg for a finite omega, got {m!r}")
        return cls(mass_kg=m, omega_rad_per_s=omega, length_m=HBAR / (2.0 * m * SPEED_OF_LIGHT))

    @property
    def frequency_hz(self) -> float:
        """Cyclic tick frequency omega / 2 pi, for rad/s vs Hz clarity."""
        return self.omega_rad_per_s / (2.0 * math.pi)

    @property
    def tick_duration_s(self) -> float:
        """Duration of one tick, 1 / omega."""
        return 1.0 / self.omega_rad_per_s


def particle_mass(name: str) -> float:
    """Rest mass in kg for a named particle (electron, muon, proton);
    raises UnknownParticle, a KeyError, for any other name."""
    mass = PARTICLES.get(name.lower()) if isinstance(name, str) else None
    if mass is None:
        raise UnknownParticle(f"unknown particle {name!r}; known: {', '.join(PARTICLES)}")
    return mass


def scale_for_particle(name: str) -> ParticleScale:
    return ParticleScale.from_mass(particle_mass(name))
