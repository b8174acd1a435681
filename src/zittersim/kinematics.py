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
composition is plain addition.  Each formula is one numpy expression in an
``*_array`` function: it takes scalars or (broadcasting) arrays, validates
each input in one pass and raises a typed error naming the first offending
value; a scalar input gives a 0-d array.  The direction laws are returned as
(Pr(R), Pr(L)) pairs of arrays.  All functions are pure and thread-safe.
"""

from __future__ import annotations

import numpy as np

from .errors import IndeterminateComposition, InvalidBeta, LightSpeedSingularity

__all__ = [
    "direction_probabilities_array",
    "compose_probabilities_array",
    "velocity_addition_array",
    "compose_velocity_via_probabilities_array",
    "rapidity_from_beta_array",
]


def _first(values: np.ndarray, bad: np.ndarray) -> float:
    """The first entry of ``values`` (broadcast to ``bad``) where ``bad`` holds."""
    return float(np.broadcast_to(values, bad.shape).flat[np.argmax(bad)])


def _is_real(value: object) -> bool:
    """Whether ``value`` is one real number: a Python or numpy int or float,
    not a bool, a string, an array or a ragged sequence."""
    try:
        arr = np.asarray(value)
    except ValueError:
        return False
    return arr.ndim == 0 and arr.dtype.kind in "iuf"


def _betas(v: np.typing.ArrayLike) -> np.ndarray:
    """``v`` as a float64 array of velocities, validated in one pass.

    Raises InvalidBeta, naming the first offender, unless every entry is a
    real number in [-1, +1] (bools and strings are not numbers here) and
    ``v`` is not a ragged sequence.
    """
    try:
        arr = np.asarray(v)
    except ValueError:
        raise InvalidBeta(f"beta must be a real number or an array of them, got {v!r}") from None
    if arr.dtype.kind not in "iuf":
        raise InvalidBeta(f"beta must be a real number, got {v!r}")
    arr = arr.astype(np.float64, copy=False)
    bad = ~(np.abs(arr) <= 1.0)  # NaN included
    if bad.any():
        raise InvalidBeta(f"beta must lie in [-1, +1], got {_first(arr, bad)!r}")
    return arr


def _beta(v: object) -> float:
    """One velocity as a Python float, validated by ``_betas``; InvalidBeta
    for a sequence."""
    b = _betas(v)
    if b.ndim:
        raise InvalidBeta(f"beta must be a real number, got {v!r}")
    return float(b)


def _reject_antipodal(u: np.ndarray, v: np.ndarray) -> None:
    """Raise InvalidBeta if ``u`` and ``v`` do not broadcast, and
    IndeterminateComposition at their first opposite light-speed pair."""
    try:
        np.broadcast_shapes(np.shape(u), np.shape(v))
    except ValueError:
        shapes = f"{np.shape(u)} and {np.shape(v)}"
        raise InvalidBeta(f"u and v must broadcast, got shapes {shapes}") from None
    bad = (np.abs(u) == 1.0) & (u == -v)
    if bad.any():
        raise IndeterminateComposition(
            f"velocity composition of u = {_first(u, bad):+g} and "
            f"v = {_first(v, bad):+g} is indeterminate: opposite light-speed "
            "motions give 0/0"
        )


def _reject_light_speed(b: np.ndarray, message: str) -> None:
    """Raise LightSpeedSingularity at the first |beta| = 1 entry of validated ``b``."""
    at_c = np.abs(b) == 1.0
    if at_c.any():
        raise LightSpeedSingularity(f"{message} at beta = {_first(b, at_c):+g}")


def direction_probabilities_array(v: np.typing.ArrayLike) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise direction law (Pr(R), Pr(L)) = ((1+v)/2, (1-v)/2).

    Pr(L) is evaluated as the complement of Pr(R), which makes
    Pr(R) + Pr(L) == 1.0 hold exactly in floating point.
    """
    p_right = 0.5 * (1.0 + _betas(v))
    return p_right, 1.0 - p_right


def compose_probabilities_array(
    u: np.typing.ArrayLike, v: np.typing.ArrayLike
) -> tuple[np.ndarray, np.ndarray]:
    """Direction law (Pr'(R), Pr'(L)) of a particle at velocity v seen by an
    observer at velocity u, elementwise over broadcast ``u`` and ``v``: the
    pointwise product of the particle's and the observer's laws, renormalized.
    Raises IndeterminateComposition for the antipodal light-speed pair, where
    the normalizer is 0.
    """
    u, v = _betas(u), _betas(v)
    _reject_antipodal(u, v)
    p_right, p_left = direction_probabilities_array(v)
    q_right, q_left = direction_probabilities_array(u)
    num_right, num_left = p_right * q_right, p_left * q_left
    # Both products are also 0 where one input is -1 and the other's Pr(L)
    # rounds to 0 (it is 1 - 2**-53): the composed law there is (0, 1), w = -1.
    num_left = num_left + (num_right + num_left == 0.0)
    z = num_right + num_left
    return num_right / z, num_left / z


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


def compose_velocity_via_probabilities_array(
    u: np.typing.ArrayLike, v: np.typing.ArrayLike
) -> np.ndarray:
    """Velocity composition strictly through direction probabilities:
    Pr'(R) - Pr'(L) of ``compose_probabilities_array(u, v)``, the independent
    route that must agree with ``velocity_addition_array``."""
    p_right, p_left = compose_probabilities_array(u, v)
    return p_right - p_left


def rapidity_from_beta_array(v: np.typing.ArrayLike) -> np.ndarray:
    """Elementwise rapidity atanh(v) = log(1+z); raises LightSpeedSingularity
    at |v| = 1."""
    b = _betas(v)
    _reject_light_speed(b, "rapidity diverges")
    return np.arctanh(b)
