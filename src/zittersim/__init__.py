"""zittersim: statistics of light-speed tick motion in 1+1 dimensions.

A particle that only ever moves at +c or -c has every finite velocity,
including rest, as a long-run average of its tick directions.  This package
provides the exact probability calculus of such motion (velocity addition
through composed direction distributions, observer-dependent entropy), a
seeded Monte Carlo simulator that reproduces those laws, and the physical
tick scales for massive particles.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .errors import (
    EmptyPath,
    IndeterminateComposition,
    InvalidBeta,
    InvalidConfig,
    InvalidDistribution,
    LightSpeedRapidity,
    LightSpeedSingularity,
    NoAcceptedTicks,
    NonPositiveMass,
    ZitterError,
)
from .kinematics import (
    Beta,
    DirectionDistribution,
    Rapidity,
    as_beta,
    beta_from_direction_distribution,
    beta_from_rapidity,
    compose_frames,
    compose_velocity_via_probabilities,
    direction_distribution_from_beta,
    rapidity_from_beta,
    velocity_addition,
)
from .entropy import (
    EntropyUnit,
    EntropyValue,
    RelativisticFactors,
    entropy_from_beta,
    entropy_from_distribution,
    entropy_relativistic_form,
    lorentz_gamma,
    redshift_factor,
    relativistic_factors,
)
from .simulate import (
    DriftEstimate,
    EnsembleResult,
    FrameObservation,
    SimConfig,
    ZitterPath,
    derive_seed,
    estimate_drift,
    generate_path,
    observe_from_moving_frame,
    run_ensemble,
    simulate_drift,
    write_path_csv,
)
from .scales import (
    HBAR,
    SPEED_OF_LIGHT,
    ParticleScale,
    named_particles,
    particle_mass,
    scale_for_particle,
    zitter_frequency,
    zitter_length,
)
from .verification import run_verification

__all__ = [
    "__version__",
    # errors
    "ZitterError",
    "InvalidBeta",
    "InvalidDistribution",
    "IndeterminateComposition",
    "LightSpeedRapidity",
    "LightSpeedSingularity",
    "NonPositiveMass",
    "InvalidConfig",
    "EmptyPath",
    "NoAcceptedTicks",
    # kinematics
    "Beta",
    "DirectionDistribution",
    "Rapidity",
    "as_beta",
    "direction_distribution_from_beta",
    "beta_from_direction_distribution",
    "compose_frames",
    "velocity_addition",
    "compose_velocity_via_probabilities",
    "rapidity_from_beta",
    "beta_from_rapidity",
    # entropy
    "EntropyUnit",
    "EntropyValue",
    "RelativisticFactors",
    "entropy_from_distribution",
    "entropy_from_beta",
    "lorentz_gamma",
    "redshift_factor",
    "relativistic_factors",
    "entropy_relativistic_form",
    # simulation
    "SimConfig",
    "ZitterPath",
    "DriftEstimate",
    "FrameObservation",
    "EnsembleResult",
    "derive_seed",
    "generate_path",
    "estimate_drift",
    "observe_from_moving_frame",
    "run_ensemble",
    "simulate_drift",
    "write_path_csv",
    # scales
    "SPEED_OF_LIGHT",
    "HBAR",
    "ParticleScale",
    "zitter_frequency",
    "zitter_length",
    "named_particles",
    "particle_mass",
    "scale_for_particle",
    # verification
    "run_verification",
]
