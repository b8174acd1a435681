"""Self-verification suite: invariant checks runnable from the CLI.

Each check returns the observed deviation next to the tolerance it was held
to, so a report is auditable rather than a bare pass/fail.  Tolerances live
in module-level constants and are looked up at call time; ``LEVELS`` gives
each level's Monte Carlo ticks per check.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import LEVELS
from . import entropy as ent
from . import kinematics as kin
from .errors import InvalidConfig
from .scales import SPEED_OF_LIGHT, ParticleScale, scale_for_particle
from .simulate import SimConfig, observe_from_moving_frame, simulate_drift

__all__ = ["CheckResult", "VerificationReport", "run_verification", "LEVELS"]

# Exact-arithmetic identities.
COMMUTATIVITY_TOL = 0.0
IDENTITY_TOL = 0.0
INVERSE_TOL = 1e-15
# Chained floating-point identities.
VELOCITY_GRID_TOL = 1e-12
ENTROPY_IDENTITY_TOL = 1e-12
ENTROPY_REST_TOL = 1e-15
SCALES_REL_TOL = 1e-12
# Transcendental route.
ASSOCIATIVITY_TOL = 1e-10
# Monte Carlo bound, in standard errors.
SIGMA_BOUND = 5.0

_GRID = np.linspace(-0.98, 0.98, 99)


@dataclass(frozen=True)
class CheckResult:
    name: str
    tolerance: float
    observed: float
    passed: bool
    detail: str = ""


@dataclass
class VerificationReport:
    level: str
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, observed: float, tolerance: float, detail: str = "") -> None:
        self.checks.append(CheckResult(name, tolerance, observed, observed <= tolerance, detail))

    def to_dict(self) -> dict:
        return {
            "level": self.level,
            "passed": self.passed,
            "checks": [asdict(c) for c in self.checks],
        }


def _max_abs(x: np.ndarray) -> float:
    return float(np.max(np.abs(x)))


def _check_velocity_grid(report: VerificationReport) -> None:
    u, v = _GRID[:, None], _GRID[None, :]
    w = kin.velocity_addition_array(u, v)
    report.add(
        "velocity_addition_equals_probability_route",
        _max_abs(w - kin.compose_velocity_via_probabilities_array(u, v)),
        VELOCITY_GRID_TOL,
        f"max |closed form - probability route| on the {_GRID.size}x{_GRID.size} grid"
        " of [-0.98, 0.98]^2",
    )
    phi = kin.rapidity_from_beta_array(_GRID)
    assoc = kin.rapidity_from_beta_array(w) - (phi[:, None] + phi[None, :])
    comm = w - kin.velocity_addition_array(v, u)
    ident = kin.velocity_addition_array(_GRID, 0.0) - _GRID
    inv = kin.velocity_addition_array(_GRID, -_GRID)
    report.add("group_law_commutativity", _max_abs(comm), COMMUTATIVITY_TOL)
    report.add("group_law_identity", _max_abs(ident), IDENTITY_TOL)
    report.add("group_law_inverse", _max_abs(inv), INVERSE_TOL)
    report.add(
        "group_law_associativity_via_rapidity",
        _max_abs(assoc),
        ASSOCIATIVITY_TOL,
        "max |rapidity(u (+) v) - (rapidity(u) + rapidity(v))| on the grid",
    )


def _check_entropy_identity(report: VerificationReport) -> None:
    b = np.linspace(-0.999, 0.999, 999)
    report.add(
        "entropy_identity_relativistic_form",
        _max_abs(ent.entropy_from_beta_array(b)[0] - ent.entropy_relativistic_form_array(b)),
        ENTROPY_IDENTITY_TOL,
        f"max |velocity route - log(2 gamma) - beta log(1+z) route| on {b.size} points",
    )
    rest, right, left = ent.entropy_from_beta_array([0.0, 1.0, -1.0])[0].tolist()
    report.add("entropy_at_rest_is_log2", abs(rest - math.log(2.0)), ENTROPY_REST_TOL)
    report.add("entropy_at_light_speed_is_zero", max(right, left), 0.0)


def _check_monte_carlo_drift(report: VerificationReport, ticks: int) -> None:
    worst_sigmas = 0.0
    for i, beta in enumerate((-0.9, -0.5, 0.0, 0.5, 0.9)):
        cfg = SimConfig(beta=beta, ticks=ticks, seed=20_000 + i)
        est = simulate_drift(cfg)
        bound = math.sqrt((1.0 - beta * beta) / ticks)
        worst_sigmas = max(worst_sigmas, abs(est.mean - beta) / bound)
    report.add(
        "monte_carlo_drift_within_5_sigma",
        worst_sigmas,
        SIGMA_BOUND,
        f"worst |sample mean - beta| / sqrt((1-beta^2)/n) at n = {ticks}",
    )


def _check_frame_transform(report: VerificationReport, ticks: int) -> None:
    worst_drift = 0.0
    worst_accept = 0.0
    values = (-0.8, -0.4, 0.0, 0.4, 0.8)
    seed = 77_000
    for u in values:
        for v in values:
            seed += 1
            obs = observe_from_moving_frame(u, v, ticks=ticks, seed=seed)
            expected = kin.velocity_addition_array(u, v).item()
            worst_drift = max(
                worst_drift, abs(obs.estimate.mean - expected) / obs.estimate.std_error
            )
            z = 0.5 * (1.0 + u * v)
            sigma = math.sqrt(z * (1.0 - z) / ticks)
            worst_accept = max(worst_accept, abs(obs.acceptance_rate - z) / sigma)
    report.add(
        "frame_transform_drift_within_5_sigma",
        worst_drift,
        SIGMA_BOUND,
        f"worst deviation from (u+v)/(1+uv) in estimated std errors, {ticks} ticks/pair",
    )
    report.add(
        "frame_transform_acceptance_rate_within_5_sigma",
        worst_accept,
        SIGMA_BOUND,
        "worst deviation of the retained fraction from (1+uv)/2 in binomial sigmas",
    )


def _check_telegraph_consistency(report: VerificationReport, ticks: int) -> None:
    beta = 0.3
    iid_est = simulate_drift(SimConfig(beta=beta, ticks=ticks, seed=505))
    tg_est = simulate_drift(SimConfig(beta=beta, ticks=ticks, seed=606, dynamics="telegraph"))
    report.add(
        "telegraph_iid_drift_consistency",
        abs(tg_est.mean - iid_est.mean) / math.hypot(iid_est.std_error, tg_est.std_error),
        SIGMA_BOUND,
        f"|telegraph mean - iid mean| over combined sigma at matched beta = {beta}",
    )


def _check_determinism(report: VerificationReport) -> None:
    cfg = SimConfig(beta=0.25, ticks=10_000, seed=99)
    identical = simulate_drift(cfg) == simulate_drift(cfg)
    report.add(
        "determinism_same_config_same_estimate",
        0.0 if identical else 1.0,
        0.0,
        "two runs with one config and seed must match bitwise",
    )


def _check_scales(report: VerificationReport) -> None:
    electron = scale_for_particle("electron")
    in_range = (
        1.0e21 <= electron.omega_rad_per_s <= 2.0e21
        and 1.5e-13 <= electron.length_m <= 2.5e-13
    )
    report.add(
        "electron_scales_in_expected_orders",
        0.0 if in_range else 1.0,
        0.0,
        f"omega = {electron.omega_rad_per_s:.6e} rad/s, lambda = {electron.length_m:.6e} m",
    )
    worst = 0.0
    for exponent in range(-31, -24):
        scale = ParticleScale.from_mass(10.0**exponent)
        c = scale.omega_rad_per_s * scale.length_m
        worst = max(worst, abs(c - SPEED_OF_LIGHT) / SPEED_OF_LIGHT)
    report.add(
        "length_times_frequency_is_c",
        worst,
        SCALES_REL_TOL,
        "relative |omega * lambda - c| over masses 1e-31..1e-25 kg",
    )


def run_verification(level: str = "fast") -> VerificationReport:
    """Run the invariant suite at ``LEVELS[level]`` Monte Carlo ticks per check."""
    if not isinstance(level, str) or level not in LEVELS:  # [] or {} would raise TypeError
        raise InvalidConfig(f"level must be one of {tuple(LEVELS)}, got {level!r}")
    mc_ticks = LEVELS[level]
    report = VerificationReport(level=level)
    _check_velocity_grid(report)
    _check_entropy_identity(report)
    _check_monte_carlo_drift(report, mc_ticks)
    _check_frame_transform(report, mc_ticks)
    _check_telegraph_consistency(report, mc_ticks)
    _check_determinism(report)
    _check_scales(report)
    return report
