"""Observer-dependent Shannon entropy of the direction distribution.

The entropy of the binary right/left law is

    S = -Pr(R) log Pr(R) - Pr(L) log Pr(L),

maximal (log 2) for a particle at rest and zero at light speed, where the
motion is certain.  Because the direction probabilities depend on the
observer, so does S.  For |beta| < 1 the same quantity decomposes into
special-relativistic factors,

    S = log(2 gamma) - beta log(1 + z),

with gamma = (1 - beta^2)^(-1/2) and 1 + z = sqrt((1+beta)/(1-beta)).

Logarithm base only changes the unit; nats are the default, bits optional.
As in ``kinematics``, each formula is one numpy expression behind an
``*_array`` function, and the scalar functions wrap it.  All functions are
pure and thread-safe.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidEntropy, LightSpeedSingularity
from .kinematics import (
    BetaLike, DirectionDistribution, _betas, _is_real, _reject_light_speed, _scalar,
)

__all__ = [
    "EntropyUnit",
    "EntropyValue",
    "entropy_from_distribution",
    "entropy_from_beta",
    "entropy_from_beta_array",
    "lorentz_gamma",
    "lorentz_gamma_array",
    "redshift_factor",
    "redshift_factor_array",
    "entropy_relativistic_form",
    "entropy_relativistic_form_array",
]

# Upper-bound slack: rounding may land a hair above log 2 near beta = 0.
_RANGE_SLACK = 1e-12


class EntropyUnit(enum.Enum):
    NATS = "nats"
    BITS = "bits"

    @property
    def log(self) -> np.ufunc:
        return np.log if self is EntropyUnit.NATS else np.log2

    @property
    def max_value(self) -> float:
        """Entropy of the fair coin, log 2 in this unit's base."""
        return math.log(2.0) if self is EntropyUnit.NATS else 1.0


@dataclass(frozen=True)
class EntropyValue:
    """A Shannon entropy together with its unit; bounded by [0, log 2]."""

    value: float
    unit: EntropyUnit

    def __post_init__(self) -> None:
        max_value = _require_unit(self.unit).max_value
        # NaN fails the comparison too.
        if not (_is_real(self.value) and 0.0 <= self.value <= max_value + _RANGE_SLACK):
            raise InvalidEntropy(
                f"entropy of a binary law must lie in [0, log 2] "
                f"({max_value} {self.unit.value}), got {self.value!r}"
            )

    def __float__(self) -> float:
        return self.value


def _require_unit(unit: object) -> EntropyUnit:
    """``unit`` if it is an ``EntropyUnit``; InvalidEntropy otherwise, for
    the strings "nats" and "bits" too."""
    if not isinstance(unit, EntropyUnit):
        raise InvalidEntropy(f"unit must be an EntropyUnit, got {unit!r}")
    return unit


def _binary_entropy(p, q, unit: EntropyUnit) -> np.ndarray:
    # 0 log 0 = 0 by convention: log is only taken where the probability is
    # positive and is 0 elsewhere.  Each term is >= 0, so S >= 0 exactly.
    log = _require_unit(unit).log
    t_right = p * log(p, out=np.zeros_like(p), where=p > 0.0)
    t_left = q * log(q, out=np.zeros_like(q), where=q > 0.0)
    # "+ 0.0" normalizes -0.0 at the certainty boundary.
    return -(t_right + t_left) + 0.0


def entropy_from_distribution(
    d: DirectionDistribution, unit: EntropyUnit = EntropyUnit.NATS
) -> EntropyValue:
    """Shannon entropy -p log p - q log q of a direction distribution."""
    return EntropyValue(float(_binary_entropy(d.p_right, d.p_left, unit)), unit)


def entropy_from_beta_array(
    v: np.typing.ArrayLike, unit: EntropyUnit = EntropyUnit.NATS
) -> np.ndarray:
    """Elementwise entropy of the direction law of each velocity in ``v``.

    Evaluates S = -(1+v)/2 log((1+v)/2) - (1-v)/2 log((1-v)/2) with both
    probabilities formed symmetrically from v, so S(v) == S(-v) holds exactly
    in floating point.
    """
    b = _betas(v)
    return _binary_entropy(0.5 * (1.0 + b), 0.5 * (1.0 - b), unit)


def entropy_from_beta(
    v: BetaLike, unit: EntropyUnit = EntropyUnit.NATS
) -> EntropyValue:
    """Entropy written directly in terms of the average velocity."""
    return EntropyValue(_scalar(entropy_from_beta_array(v, unit), v), unit)


def lorentz_gamma_array(v: np.typing.ArrayLike) -> np.ndarray:
    """Elementwise Lorentz factor (1 - beta^2)^(-1/2); raises
    LightSpeedSingularity at |beta| = 1, where it diverges.

    Evaluated as 1/sqrt((1-beta)(1+beta)) to avoid the cancellation that
    squaring beta causes near light speed.
    """
    b = _betas(v)
    _reject_light_speed(b, LightSpeedSingularity, "Lorentz factor diverges")
    return 1.0 / np.sqrt((1.0 - b) * (1.0 + b))


def lorentz_gamma(v: BetaLike) -> float:
    """Lorentz factor (1 - beta^2)^(-1/2); diverges at |beta| = 1."""
    return _scalar(lorentz_gamma_array(v), v)


def redshift_factor_array(v: np.typing.ArrayLike) -> np.ndarray:
    """Elementwise collinear Doppler factor 1 + z = sqrt((1+beta)/(1-beta)),
    which equals exp(rapidity); raises LightSpeedSingularity at |beta| = 1."""
    b = _betas(v)
    _reject_light_speed(b, LightSpeedSingularity, "redshift factor is singular")
    return np.sqrt((1.0 + b) / (1.0 - b))


def redshift_factor(v: BetaLike) -> float:
    """Collinear Doppler factor 1 + z; singular at |beta| = 1."""
    return _scalar(redshift_factor_array(v), v)


def entropy_relativistic_form_array(v: np.typing.ArrayLike) -> np.ndarray:
    """Elementwise entropy via S = log(2 gamma) - beta log(1+z), in nats.

    Term-by-term this diverges at |beta| = 1 even though S itself tends to 0
    there, so light speed raises LightSpeedSingularity; use
    ``entropy_from_beta_array`` at the boundary instead.
    """
    b = _betas(v)
    s = np.log(2.0 * lorentz_gamma_array(b)) - b * np.log(redshift_factor_array(b))
    # Rounding of the difference may dip microscopically below zero near the
    # (excluded) boundary; the value is an entropy, keep it in range.
    return np.maximum(s, 0.0)


def entropy_relativistic_form(v: BetaLike) -> EntropyValue:
    """Entropy via the decomposition S = log(2 gamma) - beta log(1+z), nats."""
    return EntropyValue(_scalar(entropy_relativistic_form_array(v), v), EntropyUnit.NATS)
