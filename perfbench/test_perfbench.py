"""Tests of the benchmark itself:  python3 -m pytest perfbench"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run
import spans
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = 0.001


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_reports_every_metric(workload, trace):
    doc = run.run(workload, seed=7, seconds=0, trace=trace, scale=TINY)
    result = doc["result"]
    wanted = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if not trace:
        assert all(result["metrics"][name]["value"] > 0 for name in wanted)
    for key in ("commit", "seed", "python", "numpy", "nproc", "cpu_model", "l3_cache",
                "ticks_per_round", "csv_rows_per_round"):
        assert key in doc["provenance"]


def test_wrong_outputs_count_in_fail_ratio(monkeypatch):
    real = workloads.WORKLOADS["calculus_cli"]

    def corrupted(rng, out, scale):
        cmds = real(rng, out, scale)
        i = next(i for i, c in enumerate(cmds) if c.argv[0] == "compose")
        wrong_u = {**cmds[i].params, "u": cmds[i].params["u"] + 0.01}
        cmds[i] = dataclasses.replace(cmds[i], params=wrong_u)
        cmds.append(dataclasses.replace(cmds[i], argv=("compose", "--u", "2", "--v", "0")))
        return cmds

    monkeypatch.setitem(workloads.WORKLOADS, "calculus_cli", corrupted)
    doc = run.run("calculus_cli", seed=7, seconds=0, trace=False, scale=TINY)
    errors = [s["error"] for s in doc["samples"] if s["error"]]
    assert len(errors) == 2
    assert any(e.startswith("w = ") for e in errors)
    assert "exit code 2" in errors
    assert doc["result"]["failed"] == 2 and not doc["result"]["correct"]
    assert doc["fail_ratio"] == 2 / doc["result"]["attempted"]


def _span(i, parent, name, start, end):
    return spans.Span((i, parent, 0, name, start, end))


def test_self_time_subtracts_children_on_nested_spans():
    recorded = [
        _span(0, spans.NO_PARENT, "a", 0, 100),
        _span(1, 0, "b", 10, 40),
        _span(2, 1, "c", 15, 25),
        _span(3, 0, "b", 50, 90),
        _span(4, spans.NO_PARENT, "a", 200, 210),
    ]
    own = spans.self_times(recorded)
    assert own == pytest.approx({"a": 40e-9, "b": 60e-9, "c": 10e-9})
    assert sum(own.values()) == pytest.approx(110e-9)


def test_tracer_links_parents_and_passes_same_layer_calls_through():
    tracer = spans.Tracer()
    inner = tracer.wrap("kinematics", lambda x: x + 1)
    nested = tracer.wrap("kinematics", lambda x: inner(x) * 2)
    outer = tracer.wrap("simulate.iid", lambda x: nested(x) + inner(x))
    assert tracer.run_command(3, outer, 1) == 6
    names = [(s[3], s[1], s[2]) for s in tracer.spans]
    assert names == [("cli", -1, 3), ("simulate.iid", 0, 3),
                     ("kinematics", 1, 3), ("kinematics", 1, 3)]
    assert all(s[5] >= s[4] for s in tracer.spans)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc_iid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
