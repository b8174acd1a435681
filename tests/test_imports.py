"""Which modules an entry imports, each case in a fresh interpreter.

``import zittersim`` loads no module, and a CLI command loads only the
modules it runs: the sampler (``zittersim.simulate``, and with it
``numpy.random``) only for ``simulate`` and ``observe``, the verify suite
only for ``verify``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
SAMPLER = ("zittersim.simulate", "numpy.random")
VERIFY = ("zittersim.verification",)

# Runs the CLI as the process entry does, then lists the loaded modules on stderr.
CLI = (
    "import sys\n"
    "from zittersim.cli import main\n"
    "code = main()\n"
    "print(*sorted(sys.modules), file=sys.stderr)\n"
    "sys.exit(code)\n"
)


def _child(code: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, env=env, text=True, timeout=120
    )


def _loaded_by(*argv: str) -> set[str]:
    done = _child(CLI, *argv)
    assert done.returncode == 0, done.stderr
    json.loads(done.stdout)
    return set(done.stderr.split())


@pytest.mark.parametrize(
    "argv",
    [
        ("compose", "--u", "0.5", "--v", "-0.3"),
        ("entropy", "--beta", "0.7"),
        ("entropy", "--grid", "-0.99:0.99:11", "--csv", os.devnull),
        ("scales", "--mass-kg", "9.1e-31"),
        ("scales", "--particle", "muon"),
    ],
    ids=["compose", "entropy-beta", "entropy-grid", "scales-mass", "scales-particle"],
)
def test_calculus_commands_load_neither_sampler_nor_verify_suite(argv):
    loaded = _loaded_by(*argv)
    assert {"zittersim.cli", "zittersim.kinematics", "zittersim.entropy"} <= loaded
    assert loaded.isdisjoint(SAMPLER + VERIFY)


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--beta", "0.2", "--ticks", "1000", "--seed", "1"),
        ("simulate", "--beta", "0.2", "--ticks", "100", "--seed", "1", "--replicates", "3",
         "--dynamics", "telegraph"),
        ("observe", "--u", "0.4", "--v", "0.5", "--ticks", "1000", "--seed", "2"),
    ],
    ids=["simulate", "simulate-ensemble", "observe"],
)
def test_sampling_commands_load_the_sampler_only(argv):
    loaded = _loaded_by(*argv)
    assert set(SAMPLER) <= loaded
    assert loaded.isdisjoint(VERIFY)


def test_verify_loads_the_verify_suite():
    assert set(SAMPLER + VERIFY) <= _loaded_by("verify", "--level", "fast")


def test_bare_import_loads_no_module():
    done = _child("import sys, zittersim; print(*sorted(sys.modules))")
    assert done.returncode == 0, done.stderr
    assert [m for m in done.stdout.split() if m.startswith("zittersim.")] == []


def test_dir_lists_every_exported_name():
    done = _child("import zittersim; print(sorted(set(zittersim.__all__) - set(dir(zittersim))))")
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr


def test_star_import_binds_every_exported_name():
    code = (
        "from zittersim import *\n"
        "import zittersim\n"
        "print(sorted(n for n in zittersim.__all__ if globals().get(n) is not getattr(zittersim, n)))\n"
    )
    done = _child(code)
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr
