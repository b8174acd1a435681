"""Observer-dependent Shannon entropy of the direction distribution.

The entropy of the binary right/left law is

    S = -Pr(R) log Pr(R) - Pr(L) log Pr(L),

maximal (log 2) for a particle at rest and zero at light speed, where the
motion is certain.  Because the direction probabilities depend on the
observer, so does S.  For |beta| < 1 the same quantity decomposes into
special-relativistic factors,

    S = log(2 gamma) - beta log(1 + z),

with gamma = (1 - beta^2)^(-1/2) and 1 + z = sqrt((1+beta)/(1-beta)).

Logarithm base only changes the unit, so each entropy function returns the
pair (S in nats, S in bits), as ``kinematics`` returns a direction law as the
pair (Pr(R), Pr(L)); the relativistic form is in nats.  As in
``kinematics``, each formula is one numpy expression behind an ``*_array``
function; S is available from direction laws (Pr(R), Pr(L)) or from
velocities.  All functions are pure and thread-safe.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidDistribution
from .kinematics import _betas, _first, _reject_light_speed

__all__ = [
    "entropy_from_probabilities_array",
    "entropy_from_beta_array",
    "lorentz_gamma_array",
    "redshift_factor_array",
    "entropy_relativistic_form_array",
]

# Direction probabilities must sum to one within this additive tolerance.
DISTRIBUTION_SUM_TOL = 1e-12


def _binary_entropy(p, q) -> tuple[np.ndarray, np.ndarray]:
    """(-p log p - q log q) in nats and in bits."""
    def entropy(log: np.ufunc) -> np.ndarray:
        # 0 log 0 = 0 by convention: log is only taken where the probability
        # is positive and is 0 elsewhere.  Each term is >= 0, so S >= 0 exactly.
        t_right = p * log(p, out=np.zeros_like(p), where=p > 0.0)
        t_left = q * log(q, out=np.zeros_like(q), where=q > 0.0)
        # "+ 0.0" normalizes -0.0 at the certainty boundary.
        return -(t_right + t_left) + 0.0
    return entropy(np.log), entropy(np.log2)


def entropy_from_probabilities_array(
    p_right: np.typing.ArrayLike, p_left: np.typing.ArrayLike
) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise Shannon entropy -p log p - q log q of the direction laws
    (``p_right``, ``p_left``), broadcast against each other, as the pair
    (nats, bits).  Raises InvalidDistribution, naming the first offending
    pair, unless every pair is real, finite, nonnegative and sums to 1 within
    ``DISTRIBUTION_SUM_TOL``."""
    try:
        p, q = np.broadcast_arrays(p_right, p_left)
        real = p.dtype.kind in "iuf" and q.dtype.kind in "iuf"
    except ValueError:  # ragged, or shapes that do not broadcast
        real = False
    if not real:
        raise InvalidDistribution(
            f"probabilities must be real numbers that broadcast, got ({p_right!r}, {p_left!r})"
        )
    p, q = p.astype(np.float64), q.astype(np.float64)
    with np.errstate(invalid="ignore"):  # inf + -inf; NaN and inf fail the sum test
        bad = ~((p >= 0.0) & (q >= 0.0) & (np.abs((p + q) - 1.0) <= DISTRIBUTION_SUM_TOL))
    if bad.any():
        raise InvalidDistribution(
            "probabilities must be finite, nonnegative and sum to 1 within "
            f"{DISTRIBUTION_SUM_TOL}, got ({_first(p, bad)!r}, {_first(q, bad)!r})"
        )
    return _binary_entropy(p, q)


def entropy_from_beta_array(v: np.typing.ArrayLike) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise entropy of the direction law of each velocity in ``v``, as
    the pair (nats, bits).

    Evaluates S = -(1+v)/2 log((1+v)/2) - (1-v)/2 log((1-v)/2) with both
    probabilities formed symmetrically from v, so S(v) == S(-v) holds exactly
    in floating point.
    """
    b = _betas(v)
    return _binary_entropy(0.5 * (1.0 + b), 0.5 * (1.0 - b))


def lorentz_gamma_array(v: np.typing.ArrayLike) -> np.ndarray:
    """Elementwise Lorentz factor (1 - beta^2)^(-1/2); raises
    LightSpeedSingularity at |beta| = 1, where it diverges.

    Evaluated as 1/sqrt((1-beta)(1+beta)) to avoid the cancellation that
    squaring beta causes near light speed.
    """
    b = _betas(v)
    _reject_light_speed(b, "Lorentz factor diverges")
    return 1.0 / np.sqrt((1.0 - b) * (1.0 + b))


def redshift_factor_array(v: np.typing.ArrayLike) -> np.ndarray:
    """Elementwise collinear Doppler factor 1 + z = sqrt((1+beta)/(1-beta)),
    which equals exp(rapidity); raises LightSpeedSingularity at |beta| = 1."""
    b = _betas(v)
    _reject_light_speed(b, "redshift factor is singular")
    return np.sqrt((1.0 + b) / (1.0 - b))


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
