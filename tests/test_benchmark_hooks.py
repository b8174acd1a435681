"""The benchmark harness in ``perfbench/`` reaches package names by name.

These guards fail as soon as one of those names is renamed or deleted,
without running the harness's own, much slower, test suite.
"""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from zittersim import cli, entropy, kinematics, scales, simulate, verification

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# Every namespace the tracer patches.
PATCHED = (cli, entropy, kinematics, scales, simulate, verification, scales.ParticleScale)


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("spans"), importlib.import_module("run")


def test_tracer_install_and_uninstall_restore_every_name(perfbench):
    spans, _ = perfbench
    before = [dict(vars(owner)) for owner in PATCHED]
    expected = scales.ParticleScale.from_mass(1e-30)
    tracer = spans.Tracer()
    tracer.install()
    try:
        # the tracer re-wraps from_mass as a classmethod and records its span
        assert scales.ParticleScale.from_mass(1e-30) == expected
        assert [span[3] for span in tracer.spans] == ["scales"]
    finally:
        tracer.uninstall()
    assert [dict(vars(owner)) for owner in PATCHED] == before


def test_peak_bytes_per_tick_imports_resolve(perfbench):
    _, run = perfbench
    tree = ast.parse(inspect.getsource(run.peak_bytes_per_tick))
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
