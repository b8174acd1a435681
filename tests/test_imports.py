"""Which modules an entry imports, each case in a fresh interpreter.

``import zittersim`` loads no module, and a CLI command loads only the
modules it runs: the sampler (``zittersim.simulate``, and with it
``numpy.random``) only for ``simulate`` and ``observe``, the verify suite
only for ``verify``, the CSV formatter only for ``--grid`` and ``--path``,
``zittersim.entropy`` only for ``compose``, ``entropy`` and ``verify``, and
``zittersim.scales`` (and with it ``dataclasses``) only for ``scales`` and
``verify``.  Each argv runs in one child, shared by the tests that read it.
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
SAMPLER = ("zittersim.simulate", "numpy.random")
VERIFY = ("zittersim.verification",)
FORMATTER = "zittersim._format"
ENTROPY = "zittersim.entropy"
SCALES = ("zittersim.scales", "dataclasses")

# Runs main on sys.argv, as the process entry does before its os._exit, then
# lists the loaded modules on stderr.
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


@functools.cache
def _loaded_by(*argv: str) -> frozenset[str]:
    done = _child(CLI, *argv)
    assert done.returncode == 0, done.stderr
    json.loads(done.stdout)
    return frozenset(done.stderr.split())


COMPOSE = ("compose", "--u", "0.5", "--v", "-0.3")
ENTROPY_BETA = ("entropy", "--beta", "0.7")
ENTROPY_GRID = ("entropy", "--grid", "-0.99:0.99:11", "--csv", os.devnull)
SCALES_MASS = ("scales", "--mass-kg", "9.1e-31")
SCALES_PARTICLE = ("scales", "--particle", "muon")


@pytest.mark.parametrize(
    "argv",
    [COMPOSE, ENTROPY_BETA, ENTROPY_GRID, SCALES_MASS, SCALES_PARTICLE],
    ids=["compose", "entropy-beta", "entropy-grid", "scales-mass", "scales-particle"],
)
def test_calculus_commands_load_neither_sampler_nor_verify_suite(argv):
    loaded = _loaded_by(*argv)
    assert {"zittersim.cli", "zittersim.kinematics"} <= loaded
    assert loaded.isdisjoint(SAMPLER + VERIFY)


@pytest.mark.parametrize(
    "argv", [COMPOSE, ENTROPY_BETA, ENTROPY_GRID], ids=["compose", "entropy-beta", "entropy-grid"]
)
def test_compose_and_entropy_load_neither_scales_nor_dataclasses(argv):
    loaded = _loaded_by(*argv)
    assert ENTROPY in loaded
    assert loaded.isdisjoint(SCALES)


@pytest.mark.parametrize("argv", [SCALES_MASS, SCALES_PARTICLE], ids=["mass", "particle"])
def test_scales_loads_the_scales_but_not_the_entropy(argv):
    loaded = _loaded_by(*argv)
    assert set(SCALES) <= loaded
    assert ENTROPY not in loaded


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
    assert loaded.isdisjoint(VERIFY + (ENTROPY, "zittersim.scales"))


@pytest.mark.parametrize(
    "argv,writes_csv",
    [
        (ENTROPY_GRID, True),
        (("simulate", "--beta", "0.2", "--ticks", "100", "--seed", "1", "--path", os.devnull), True),
        (ENTROPY_BETA, False),
        (("simulate", "--beta", "0.2", "--ticks", "100", "--seed", "1"), False),
    ],
    ids=["entropy-grid", "simulate-path", "entropy-beta", "simulate"],
)
def test_only_the_csv_writers_load_the_formatter(argv, writes_csv):
    assert (FORMATTER in _loaded_by(*argv)) == writes_csv


def test_verify_loads_the_verify_suite():
    assert set(SAMPLER + VERIFY + SCALES + (ENTROPY,)) <= _loaded_by("verify", "--level", "fast")


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
