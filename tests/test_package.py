"""The package namespace is the union of its modules' public names."""

from __future__ import annotations

import zittersim
from zittersim import entropy, errors, kinematics, scales, simulate, verification

MODULES = (errors, kinematics, entropy, simulate, scales, verification)


def test_all_is_version_plus_the_modules_all():
    names = {"__version__"}.union(*(m.__all__ for m in MODULES))
    assert sorted(zittersim.__all__) == sorted(names)


def test_every_exported_name_resolves():
    owner = {name: m for m in MODULES for name in m.__all__}
    for name in zittersim.__all__:
        value = getattr(zittersim, name)
        if name != "__version__":
            assert value is getattr(owner[name], name), name
