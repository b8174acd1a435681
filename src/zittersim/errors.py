"""Exception hierarchy for zittersim.

Every error the package raises deliberately derives from ``ZitterError`` so
callers can catch domain failures without also swallowing programming errors.
Errors that signal invalid user input additionally derive from ``ValueError``.
The CLI prints a ``ZitterError`` as one ``error:`` line and exits with its
class's ``exit_code``; any other exception is a defect and ends in a traceback.
"""

from __future__ import annotations

__all__ = [
    "ZitterError", "InvalidBeta", "InvalidDistribution", "IndeterminateComposition",
    "LightSpeedSingularity", "NonPositiveMass", "UnknownParticle", "InvalidConfig",
    "NoAcceptedTicks", "UnwritableOutput",
]


class ZitterError(Exception):
    """Base class for all zittersim errors; exit code 2, invalid input."""

    exit_code = 2


class InvalidBeta(ZitterError, ValueError):
    """Average velocity outside [-1, +1] (or not a finite number)."""


class InvalidDistribution(ZitterError, ValueError):
    """Direction probabilities are negative or do not sum to one."""


class IndeterminateComposition(ZitterError):
    """Frame composition is 0/0: particle and observer move at the speed
    of light in opposite directions, so the normalizer vanishes."""

    exit_code = 3


class LightSpeedSingularity(ZitterError, ValueError):
    """Lorentz factor, redshift factor 1 + z or rapidity log(1 + z)
    requested at |beta| = 1, where each diverges."""


class NonPositiveMass(ZitterError, ValueError):
    """Particle mass that is not a positive number, or so large (above
    ~1.05e257 kg) that its tick frequency 2 m c^2 / hbar overflows."""


class UnknownParticle(ZitterError, KeyError):
    """Particle name missing from the particle table."""

    # KeyError's str() quotes its message; print the message itself.
    __str__ = Exception.__str__


class InvalidConfig(ZitterError, ValueError):
    """Simulation configuration violates its invariants."""


class NoAcceptedTicks(ZitterError):
    """Rejection-sampled frame transform retained zero ticks, so no
    drift estimate exists for this run."""

    exit_code = 1


class UnwritableOutput(ZitterError):
    """An output (stdout, a ``--path`` or ``--csv`` file) refused a write."""

    exit_code = 1
