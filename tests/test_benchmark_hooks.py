"""The benchmark harness in ``perfbench/`` reaches package names by name.

These guards fail as soon as one of those names is renamed or deleted,
without running the harness's own, much slower, test suite.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import io
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


def test_tracer_counts_the_whole_path_calls(perfbench):
    # the tracer links an estimate to its path through a weakref and counts
    # CSV rows with len(path), so the path record must support both
    spans, _ = perfbench
    # seed 58 draws a mean of exactly beta, where the tracer's exact standard
    # error at beta and the estimate's at the sample mean coincide
    cfg = simulate.SimConfig(beta=0.2, ticks=1_000, seed=58, dynamics="telegraph")
    stream = io.StringIO()
    tracer = spans.Tracer()
    tracer.install()
    try:
        path = simulate.generate_path(cfg)
        simulate.estimate_drift(path)
        simulate.write_path_csv(path, stream)
    finally:
        tracer.uninstall()
    assert tracer.counts["simulate.telegraph.ticks"] == cfg.ticks
    assert tracer.se_ratio() == pytest.approx(1.0, abs=1e-12)
    assert tracer.counts["simulate.csv.rows"] == stream.getvalue().count("\n") - 1 == cfg.ticks
    assert tracer.counts["simulate.csv.bytes"] == len(stream.getvalue().encode())


def test_peak_bytes_per_tick_imports_resolve(perfbench):
    _, run = perfbench
    tree = ast.parse(inspect.getsource(run.peak_bytes_per_tick))
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
