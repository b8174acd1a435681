"""Exact velocity/probability calculus for light-speed tick motion in 1+1D.

A particle whose instantaneous velocity is always exactly +c or -c has its
finite average velocity ``beta`` fully described by the pair of direction
probabilities

    Pr(R) = (1 + beta) / 2,      Pr(L) = (1 - beta) / 2,

with Pr(R) + Pr(L) = 1 and beta = Pr(R) - Pr(L).  Composing the view of a
second, drifting observer multiplies the direction probabilities pointwise
and renormalizes; written back in velocities this is the relativistic
addition rule

    w = (u + v) / (1 + u v)        (natural units, |c| = 1).

This module implements that calculus two independent ways (closed form and
the probability route) plus the rapidity parametrization under which the
composition is plain addition.  Each formula is one numpy expression: the
``*_array`` functions take scalars or (broadcasting) arrays, validate each
input in one pass and raise on the first offending value;
``velocity_addition`` wraps the closed form for one pair and returns a
``Beta``.  All functions are pure and thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import (
    IndeterminateComposition,
    InvalidBeta,
    InvalidDistribution,
    LightSpeedRapidity,
)

__all__ = [
    "Beta",
    "BetaLike",
    "DirectionDistribution",
    "direction_distribution_from_beta",
    "compose_frames",
    "velocity_addition",
    "velocity_addition_array",
    "compose_velocity_via_probabilities_array",
    "rapidity_from_beta_array",
]

# Direction probabilities must sum to one within this additive tolerance.
DISTRIBUTION_SUM_TOL = 1e-12


@dataclass(frozen=True)
class Beta:
    """Signed average velocity in natural units, constrained to [-1, +1].

    Out-of-range or non-finite values are rejected, never clamped: a speed
    beyond c is meaningless in this model.
    """

    value: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", _scalar(_betas(self.value), self.value))

    def __float__(self) -> float:
        return self.value


BetaLike = Union[Beta, float, int]


@dataclass(frozen=True)
class DirectionDistribution:
    """Probabilities of instantaneous rightward/leftward light-speed motion."""

    p_right: float
    p_left: float

    def __post_init__(self) -> None:
        pr, pl = self.p_right, self.p_left
        if not (_is_real(pr) and _is_real(pl) and math.isfinite(pr) and math.isfinite(pl)):
            raise InvalidDistribution(
                f"probabilities must be finite real numbers, got ({pr!r}, {pl!r})"
            )
        if pr < 0.0 or pl < 0.0:
            raise InvalidDistribution(
                f"probabilities must be nonnegative, got ({pr!r}, {pl!r})"
            )
        if abs((pr + pl) - 1.0) > DISTRIBUTION_SUM_TOL:
            raise InvalidDistribution(
                f"probabilities must sum to 1 within {DISTRIBUTION_SUM_TOL}, "
                f"got {pr!r} + {pl!r} = {pr + pl!r}"
            )


def direction_distribution_from_beta(v: BetaLike) -> DirectionDistribution:
    """Direction probabilities ((1+v)/2, (1-v)/2) for average velocity v.

    The left probability is evaluated as the complement of the right one,
    which makes p_right + p_left == 1.0 hold exactly in floating point.
    """
    b = Beta(v).value
    p_right = 0.5 * (1.0 + b)
    return DirectionDistribution(p_right=p_right, p_left=1.0 - p_right)


def _first(values: np.ndarray, bad: np.ndarray) -> float:
    """The first entry of ``values`` (broadcast to ``bad``) where ``bad`` holds."""
    return float(np.broadcast_to(values, bad.shape).flat[np.argmax(bad)])


def _is_real(value: object) -> bool:
    """Whether ``value`` is one real number: a Python or numpy int or float,
    not a bool, a string or an array."""
    arr = np.asarray(value)
    return arr.ndim == 0 and arr.dtype.kind in "iuf"


def _betas(v: np.typing.ArrayLike) -> np.ndarray:
    """``v`` as a float64 array of velocities, validated in one pass.

    Raises InvalidBeta, naming the first offender, unless every entry is a
    real number in [-1, +1] (bools and strings are not numbers here).
    """
    arr = np.asarray(v.value if isinstance(v, Beta) else v)
    if arr.dtype.kind not in "iuf":
        raise InvalidBeta(f"beta must be a real number, got {v!r}")
    arr = arr.astype(np.float64, copy=False)
    bad = ~(np.abs(arr) <= 1.0)  # NaN included
    if bad.any():
        raise InvalidBeta(f"beta must lie in [-1, +1], got {_first(arr, bad)!r}")
    return arr


def _scalar(result: np.ndarray, *betas: BetaLike) -> float:
    """The 0-d ``result`` of a scalar call as a Python float; raises
    InvalidBeta, naming the first input that was not a single number."""
    if result.ndim:
        bad = next(b for b in betas if np.ndim(b))
        raise InvalidBeta(f"beta must be a real number, got {bad!r}")
    return float(result)


def _reject_antipodal(u: np.ndarray, v: np.ndarray) -> None:
    """Raise IndeterminateComposition at the first opposite light-speed pair."""
    bad = (np.abs(u) == 1.0) & (u == -v)
    if bad.any():
        raise IndeterminateComposition(
            f"velocity composition of u = {_first(u, bad):+g} and "
            f"v = {_first(v, bad):+g} is indeterminate: opposite light-speed "
            "motions give 0/0"
        )


def _reject_light_speed(b: np.ndarray, error: type, message: str) -> None:
    """Raise ``error`` at the first |beta| = 1 entry of validated ``b``."""
    at_c = np.abs(b) == 1.0
    if at_c.any():
        raise error(f"{message} at beta = {_first(b, at_c):+g}")


def _normalized_product(p_right, p_left, q_right, q_left):
    """Pointwise product of two direction laws, renormalized (arrays or floats)."""
    num_right = p_right * q_right
    num_left = p_left * q_left
    z = num_right + num_left
    if np.any(z == 0.0):
        raise IndeterminateComposition(
            "composition is 0/0: particle and observer move at the speed of "
            "light in opposite directions (the antipodal pair u = +/-1, "
            "v = -/+1)"
        )
    return num_right / z, num_left / z


def compose_frames(
    particle_in_o: DirectionDistribution,
    observer_prime_in_o: DirectionDistribution,
) -> DirectionDistribution:
    """Direction distribution of the particle as seen by a drifting observer.

    Given the particle's distribution and the observer's own distribution,
    both relative to the same base frame, the composed law is the pointwise
    product renormalized:

        Pr'(R) = Pr(R) q(R) / Z,   Pr'(L) = Pr(L) q(L) / Z,
        Z = Pr(R) q(R) + Pr(L) q(L).

    Raises IndeterminateComposition when Z = 0, which happens exactly when
    particle and observer move at the speed of light in opposite directions.
    """
    p, q = particle_in_o, observer_prime_in_o
    p_right, p_left = _normalized_product(p.p_right, p.p_left, q.p_right, q.p_left)
    return DirectionDistribution(p_right=float(p_right), p_left=float(p_left))


def velocity_addition_array(u: np.typing.ArrayLike, v: np.typing.ArrayLike) -> np.ndarray:
    """Relativistic velocity addition w = (u + v) / (1 + u v), closed form,
    elementwise over broadcast ``u`` and ``v``.

    Defined for every pair in [-1, +1]^2 except the antipodal light-speed
    pair (+1, -1) / (-1, +1), which raises IndeterminateComposition.
    """
    u, v = _betas(u), _betas(v)
    _reject_antipodal(u, v)
    # |w| <= 1 holds in exact arithmetic; absorb a final-ulp rounding excursion
    # so the bound survives floating point.
    return np.minimum(np.maximum((u + v) / (1.0 + u * v), -1.0), 1.0)


def velocity_addition(u: BetaLike, v: BetaLike) -> Beta:
    """``velocity_addition_array`` of two scalars, as a ``Beta``."""
    return Beta(_scalar(velocity_addition_array(u, v), u, v))


def compose_velocity_via_probabilities_array(
    u: np.typing.ArrayLike, v: np.typing.ArrayLike
) -> np.ndarray:
    """Velocity composition computed strictly through direction probabilities,
    elementwise over broadcast ``u`` and ``v``.

    Forms the particle's law from v and the observer's from u, composes the
    frames by the normalized product and reads the resulting average velocity
    Pr'(R) - Pr'(L) back.  Serves as the independent route that must agree
    with ``velocity_addition_array``.
    """
    u, v = _betas(u), _betas(v)
    _reject_antipodal(u, v)
    p, q = 0.5 * (1.0 + v), 0.5 * (1.0 + u)
    p_right, p_left = _normalized_product(p, 1.0 - p, q, 1.0 - q)
    return p_right - p_left


def rapidity_from_beta_array(v: np.typing.ArrayLike) -> np.ndarray:
    """Elementwise rapidity atanh(v); raises LightSpeedRapidity at |v| = 1."""
    b = _betas(v)
    _reject_light_speed(b, LightSpeedRapidity, "rapidity diverges")
    return np.arctanh(b)
