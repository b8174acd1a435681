"""zittersim: statistics of light-speed tick motion in 1+1 dimensions.

A particle that only ever moves at +c or -c has every finite velocity,
including rest, as a long-run average of its tick directions.  This package
provides the exact probability calculus of such motion (velocity addition
through composed direction distributions, observer-dependent entropy), a
seeded Monte Carlo simulator that reproduces those laws, and the physical
tick scales for massive particles.

The package exports exactly the public names of its modules, as listed in
each module's ``__all__``.  Names resolve on first use: ``import zittersim``
imports no module, and reading a module or a name it exports imports it.
"""

from __future__ import annotations

__version__ = "0.1.0"

# Read by the CLI's parser and the run manifests before a command is known.
DYNAMICS = ("iid", "telegraph")
LEVELS = {"fast": 10**5, "full": 10**6}  # verify's Monte Carlo ticks per check
# Version of the order in which the samplers draw from the PCG64 stream;
# 4 reads every iid tick and telegraph flip from a 16-bit digit of it.
STREAM_LAYOUT = 4

_MODULES = ("errors", "kinematics", "entropy", "scales", "simulate", "verification")  # import order


def __getattr__(name: str) -> object:
    if name in _MODULES:
        __import__(f"{__name__}.{name}")  # binds the module here, as an import statement does
        return globals()[name]
    if name == "__all__":
        return ["__version__", *(n for m in _MODULES for n in __getattr__(m).__all__)]
    for module in map(__getattr__, () if name.startswith("_") else _MODULES):
        if name in module.__all__:
            return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__getattr__("__all__")})
