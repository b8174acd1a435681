"""Every public callable that takes numbers returns, or raises a ZitterError.

The CLI's own property (``test_cli.TestNoTraceback``) only sees what argparse
lets through: floats and ints.  A library caller can pass anything, so each
argument here is drawn from valid values and from junk: None, bools, strings,
ragged lists, nan, +/-inf, 1e300, negatives and 400-digit ints.  Valid tick
and replicate counts stay <= 10**4, so that no draw starts a long run.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from zittersim import (
    ParticleScale,
    SimConfig,
    ZitterError,
    compose_probabilities_array,
    compose_velocity_via_probabilities_array,
    derive_seed,
    direction_probabilities_array,
    entropy,
    entropy_from_beta_array,
    entropy_from_probabilities_array,
    entropy_relativistic_form_array,
    kinematics,
    lorentz_gamma_array,
    observe_from_moving_frame,
    particle_mass,
    rapidity_from_beta_array,
    redshift_factor_array,
    run_ensemble,
    velocity_addition_array,
)
from zittersim.simulate import DYNAMICS

JUNK = st.sampled_from([
    None, True, False, "0.5", "", [[0.5], [0.5, 0.5]], [[1e-30], [1e-30, 2e-30]],
    math.nan, math.inf, -math.inf, 1e300, -1e300, -1, -0.5, 10**400, -(10**400),
    np.array(0.5), np.array([0.5, 0.5]),
])


def _mostly(valid: st.SearchStrategy) -> st.SearchStrategy:
    """Draws from ``valid``, with one draw in three from ``JUNK``."""
    return st.integers(min_value=0, max_value=2).flatmap(lambda i: JUNK if i == 2 else valid)


_BETA = st.sampled_from([-1.0, 0.0, 1.0]) | st.floats(min_value=-1.0, max_value=1.0)
BETA = _mostly(_BETA)
BETAS = _mostly(_BETA | st.lists(_BETA, max_size=3) | st.lists(_BETA, max_size=3).map(np.array))
PROBABILITY = _mostly(st.floats(min_value=0.0, max_value=1.0) | st.sampled_from([0, 1]))
TICKS = _mostly(st.integers(min_value=1, max_value=10_000) | st.sampled_from([0, 2**63]))
SEED = _mostly(st.integers(min_value=0, max_value=2**64 - 1) | st.just(np.uint64(2**64 - 1)))
INDEX = _mostly(st.integers(min_value=0, max_value=10**6))
DYNAMICS_NAME = _mostly(st.sampled_from([*DYNAMICS, "levy"]))
FLIPS = _mostly(st.none() | st.tuples(PROBABILITY, PROBABILITY))
STEP = _mostly(st.floats(min_value=1e-300, max_value=1e300) | st.just(1))
REPLICATES = _mostly(st.integers(min_value=1, max_value=10) | st.just(2**63))
# Masses from the lightest to beyond the ~1.05e257 kg whose omega overflows.
MASS = _mostly(st.floats(min_value=1e-320, max_value=1e300) | st.sampled_from([1.05e257, 1.06e257]))
NAME = _mostly(st.sampled_from(["electron", "Muon", "proton", "tau"]))
CONFIG = st.builds(
    SimConfig, beta=_BETA, ticks=st.integers(min_value=1, max_value=1_000),
    seed=st.integers(min_value=0, max_value=2**64 - 1), dynamics=st.sampled_from(DYNAMICS),
)

# Each public callable that takes numbers and the strategies of its arguments.
CALLS = {
    "SimConfig": (SimConfig, [BETA, TICKS, SEED, DYNAMICS_NAME, FLIPS, STEP]),
    "observe_from_moving_frame": (observe_from_moving_frame, [BETA, BETA, TICKS, SEED]),
    "run_ensemble": (run_ensemble, [CONFIG, REPLICATES]),
    "derive_seed": (derive_seed, [SEED, INDEX]),
    "ParticleScale.from_mass": (ParticleScale.from_mass, [MASS]),
    "particle_mass": (particle_mass, [NAME]),
    "direction_probabilities_array": (direction_probabilities_array, [BETAS]),
    "compose_probabilities_array": (compose_probabilities_array, [BETAS, BETAS]),
    "velocity_addition_array": (velocity_addition_array, [BETAS, BETAS]),
    "compose_velocity_via_probabilities_array": (
        compose_velocity_via_probabilities_array, [BETAS, BETAS]
    ),
    "rapidity_from_beta_array": (rapidity_from_beta_array, [BETAS]),
    "entropy_from_probabilities_array": (entropy_from_probabilities_array, [PROBABILITY, PROBABILITY]),
    "entropy_from_beta_array": (entropy_from_beta_array, [BETAS]),
    "lorentz_gamma_array": (lorentz_gamma_array, [BETAS]),
    "redshift_factor_array": (redshift_factor_array, [BETAS]),
    "entropy_relativistic_form_array": (entropy_relativistic_form_array, [BETAS]),
}


def test_every_array_function_is_covered():
    arrays = {name for m in (kinematics, entropy) for name in m.__all__ if name.endswith("_array")}
    assert arrays == {name for name in CALLS if name.endswith("_array")}
    assert len(arrays) == 10


# Inputs that once escaped as numpy's bare ValueError, as an infinite scale or
# as a 0/0 warning; every run tries them first.
NEAR_C = 1.0 - 2.0**-53  # its Pr(L) rounds to 0
KNOWN = {
    "SimConfig": [
        (0.0, 10, 1, "iid", None, [[1.0], [1.0, 2.0]]),
        (-1.0, 1, 1, np.array([0.5, 0.5]), None, 1),
    ],
    "ParticleScale.from_mass": [([[1e-30], [1e-30, 2e-30]],), (1e300,)],
    "compose_probabilities_array": [(NEAR_C, -1.0), (-1.0, NEAR_C)],
    "compose_velocity_via_probabilities_array": [(NEAR_C, -1.0), (-1.0, NEAR_C)],
}


@pytest.mark.parametrize("name", list(CALLS))
def test_returns_or_raises_a_zitter_error(name):
    fn, strategies = CALLS[name]

    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(args=st.tuples(*strategies))
    def returns_or_raises_a_zitter_error(args):
        try:
            result = fn(*args)
        except ZitterError:
            return
        if isinstance(result, ParticleScale):
            fields = (result.mass_kg, result.omega_rad_per_s, result.length_m,
                      result.frequency_hz, result.tick_duration_s)
            assert all(math.isfinite(x) and x > 0.0 for x in fields), result

    for args in KNOWN.get(name, []):
        returns_or_raises_a_zitter_error = example(args=args)(returns_or_raises_a_zitter_error)
    returns_or_raises_a_zitter_error()
