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
    stream = io.BytesIO()
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
    assert tracer.counts["simulate.csv.rows"] == stream.getvalue().count(b"\n") - 1 == cfg.ticks
    assert tracer.counts["simulate.csv.bytes"] == len(stream.getvalue())


@pytest.mark.parametrize(
    "argv, span",
    [
        (["simulate", "--beta", "0.1", "--ticks", "64", "--seed", "3", "--replicates", "2"],
         "simulate.ensemble"),
        (["observe", "--u", "0.1", "--v", "0.2", "--ticks", "1000", "--seed", "3"], "simulate.observe"),
        (["verify", "--level", "fast"], "verification"),
    ],
    ids=["ensemble", "observe", "verify"],
)
def test_tracer_sees_the_commands_call_time_imports(perfbench, capsys, argv, span):
    # the CLI imports the sampler and the verify suite inside its commands,
    # so it reaches the tracer's wrappers through those modules' attributes
    spans, _ = perfbench
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.run_command(0, cli.main, argv) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert span in [s[3] for s in tracer.spans]


def test_peak_bytes_per_tick_imports_resolve(perfbench):
    _, run = perfbench
    tree = ast.parse(inspect.getsource(run.peak_bytes_per_tick))
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
