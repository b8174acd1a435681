"""zittersim: statistics of light-speed tick motion in 1+1 dimensions.

A particle that only ever moves at +c or -c has every finite velocity,
including rest, as a long-run average of its tick directions.  This package
provides the exact probability calculus of such motion (velocity addition
through composed direction distributions, observer-dependent entropy), a
seeded Monte Carlo simulator that reproduces those laws, and the physical
tick scales for massive particles.

The package exports exactly the public names of its modules, as listed in
each module's ``__all__``.
"""

from __future__ import annotations

__version__ = "0.1.0"

from . import entropy, errors, kinematics, scales, simulate, verification
from .entropy import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .kinematics import *  # noqa: F401,F403
from .scales import *  # noqa: F401,F403
from .simulate import *  # noqa: F401,F403
from .verification import *  # noqa: F401,F403

__all__ = ["__version__"]
for _module in (errors, kinematics, entropy, simulate, scales, verification):
    __all__ += _module.__all__
del _module
