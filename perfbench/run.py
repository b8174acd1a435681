"""zittersim benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload mc_iid --seed 1 --seconds 30 --trace 0

``--trace 0`` runs the workload's commands as real ``zittersim`` CLI child
processes, one at a time, for ``--seconds`` seconds of whole rounds, checks
every output and reports the end-to-end metrics: medians, in seconds at
the reference machine's speed (see REF_CAL_S).
``--trace 1`` replays the same command lists in this process through
``zittersim.cli.main`` and reports per-layer span self times and counters.

Run from anywhere; the package is taken from ``src/`` next to this
directory.  Outputs land in ``.perfbench_out/``.  The last line of stdout is
the result: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict, dataclass
from pathlib import Path

import checks
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 9
IMPORT_PROBES = 5
# The machine's speed drifts by tens of percent over seconds to minutes, far
# more than the change a benchmark should resolve.  Each timed child is
# therefore bracketed by calibration children, which start an interpreter and
# spin a bytecode loop, the two costs this program's commands are made of, and
# run no zittersim code.  Its time is scaled by REF_CAL_S / (their mean time):
# seconds at the speed of the reference machine (2 vCPU Intel Xeon, Python
# 3.11, numpy 2.4), on which a calibration child takes REF_CAL_S.
CAL_CODE = "for i in range(500_000): pass"
REF_CAL_S = 0.11
SETUP_CODE = (
    "import time, numpy, zittersim.cli as cli; cli.build_parser(); "
    "print(time.perf_counter_ns(), numpy.__version__)"
)

END_TO_END_UNITS = {
    "wall_s": "s",
    "ticks_per_s": "1/s",
    "rows_per_s": "1/s",
    "short_cmd_p50_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class BenchmarkError(Exception):
    """The program cannot be set up or run at all; no result is printed."""


@dataclass
class Sample:
    """One command's run: its timing, memory, work and check outcome."""

    argv: list[str]
    kind: str
    wall_s: float
    rss_mb: float
    ticks: int
    rows: int
    stdout_bytes: int
    error: str | None
    cal_s: float = REF_CAL_S

    @property
    def norm_s(self) -> float:
        """Wall time at the reference machine's speed."""
        return self.wall_s * REF_CAL_S / self.cal_s


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def evaluate(cmd: workloads.Command, exit_code: int, stdout: str) -> str | None:
    """None when the command exited 0 and its output passed its check."""
    try:
        if exit_code != 0:
            return f"exit code {exit_code}"
        doc = json.loads(stdout) if cmd.json_output else None
        cmd.check(doc, cmd.params)
        return None
    except checks.CheckFailed as exc:
        return str(exc)
    except (ValueError, KeyError, TypeError, IndexError, OSError) as exc:
        return f"malformed output: {exc!r}"
    finally:
        if cmd.csv:
            Path(cmd.csv).unlink(missing_ok=True)


def run_child(cmd: workloads.Command, env: dict[str, str]) -> Sample:
    """Spawn ``python -m zittersim.cli``, wait for it with ``os.wait4`` for
    its own peak RSS, and check its output."""
    with open(OUT / "stdout", "w+b") as out, open(OUT / "stderr", "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "zittersim.cli", *cmd.argv], stdout=out, stderr=err, env=env
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read().decode()
    return Sample(list(cmd.argv), cmd.kind, wall, usage.ru_maxrss / 1024.0, cmd.ticks,
                  cmd.rows, len(stdout), evaluate(cmd, proc.returncode, stdout))


def run_in_process(cmd: workloads.Command, main, tracer: spans.Tracer | None = None,
                   index: int = 0) -> Sample:
    """Replay one command through ``zittersim.cli.main``, optionally traced."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                code = main(list(cmd.argv))
            else:
                code = tracer.run_command(index, main, list(cmd.argv))
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code if isinstance(exc.code, int) else 2
        wall = time.perf_counter() - t0
    text = stdout.getvalue()
    if tracer is not None and code != 0:
        tracer.counts["cli.errors"] += 1
    return Sample(list(cmd.argv), cmd.kind, wall, 0.0, cmd.ticks, cmd.rows,
                  len(text.encode()), evaluate(cmd, code, text))


# -- end-to-end run ------------------------------------------------------------


def calibrate(env: dict[str, str]) -> float:
    """Spawn-to-exit seconds of the calibration child."""
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", CAL_CODE], env=env, capture_output=True, timeout=60)
    if done.returncode != 0:
        raise BenchmarkError(f"calibration failed:\n{done.stderr.decode()}")
    return time.perf_counter() - t0


def setup_probe(env: dict[str, str]) -> tuple[float, str]:
    """Seconds from spawn to ``zittersim.cli`` imported and its parser built,
    read from the child's monotonic clock, plus the child's numpy version."""
    t0 = time.perf_counter_ns()
    done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env,
                          capture_output=True, text=True, timeout=60)
    if done.returncode != 0:
        raise BenchmarkError(f"cannot import zittersim.cli:\n{done.stderr}")
    stamp, numpy_version = done.stdout.split()
    return (int(stamp) - t0) / 1e9, numpy_version


def _rate(samples: list[Sample], kind: str, work: str, time_attr: str) -> float:
    chosen = [s for s in samples if s.kind == kind]
    return sum(getattr(s, work) for s in chosen) / sum(getattr(s, time_attr) for s in chosen)


def end_to_end_metrics(rounds: list[list[Sample]], setup: list[Sample],
                       time_attr: str = "norm_s") -> dict[str, float]:
    median = statistics.median
    return {
        "wall_s": median(sum(getattr(s, time_attr) for s in r) for r in rounds),
        "ticks_per_s": median(_rate(r, "mc", "ticks", time_attr) for r in rounds),
        "rows_per_s": median(_rate(r, "csv", "rows", time_attr) for r in rounds),
        "short_cmd_p50_s": median(getattr(s, time_attr) for r in rounds for s in r
                                  if s.kind == "short"),
        "peak_rss_mb": median(max(s.rss_mb for s in r) for r in rounds),
        "setup_s": median(getattr(s, time_attr) for s in setup),
    }


def run_end_to_end(workload: str, seed: int, seconds: float, scale: float = 1.0) -> dict:
    env = child_env()
    # Every probe and command is scaled by the mean of the calibrations run
    # just before and just after it.
    cal = calibrate(env)
    setup = []
    for _ in range(SETUP_PROBES):
        wall, numpy_version = setup_probe(env)
        after = calibrate(env)
        setup.append(Sample(["setup"], "setup", wall, 0.0, 0, 0, 0, None, (cal + after) / 2))
        cal = after
    rounds: list[list[Sample]] = []
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        samples = []
        for cmd in workloads.commands(workload, seed, len(rounds), OUT, scale):
            samples.append(run_child(cmd, env))
            after = calibrate(env)
            samples[-1].cal_s = (cal + after) / 2
            cal = after
        rounds.append(samples)
    return {
        "rounds": rounds,
        "metrics": end_to_end_metrics(rounds, setup),
        "raw_metrics": end_to_end_metrics(rounds, setup, "wall_s"),
        "units": END_TO_END_UNITS,
        "setup_samples": setup,
        "numpy": numpy_version,
        "short_cmd_samples": sum(s.kind == "short" for r in rounds for s in r),
    }


# -- traced run ----------------------------------------------------------------


def import_times(env: dict[str, str]) -> dict[str, float]:
    """Median cumulative import seconds of numpy and of zittersim on top of
    it, from ``python -X importtime``."""
    numpy_s, zitter_s = [], []
    for _ in range(IMPORT_PROBES):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import numpy, zittersim.cli"],
                              env=env, capture_output=True, text=True, timeout=60)
        if done.returncode != 0:
            raise BenchmarkError(f"cannot import zittersim.cli:\n{done.stderr}")
        cumulative = {}
        for line in done.stderr.splitlines():
            if line.startswith("import time:") and "|" in line:
                _, cum, name = line.split("|")
                if cum.strip().isdigit():
                    cumulative.setdefault(name.strip(), int(cum) / 1e6)
        numpy_s.append(cumulative["numpy"])
        zitter_s.append(cumulative["zittersim.cli"])
    return {"import.numpy_s": statistics.median(numpy_s),
            "import.zittersim_s": statistics.median(zitter_s)}


def peak_bytes_per_tick(cmds: list[workloads.Command]) -> float:
    """Largest tracemalloc peak across generate and reduce, per tick, over
    the round's single-path Monte Carlo commands at their full size."""
    from zittersim.simulate import SimConfig, estimate_drift, generate_path, observe_from_moving_frame

    worst = 0.0
    for cmd in cmds:
        p = cmd.params
        if cmd.kind == "short" or cmd.argv[0] not in ("simulate", "observe") or p.get("replicates", 1) > 1:
            continue
        tracemalloc.start()
        try:
            if cmd.argv[0] == "observe":
                observe_from_moving_frame(p["u"], p["v"], ticks=p["ticks"], seed=p["seed"])
            else:
                cfg = SimConfig(beta=p["beta"], ticks=p["ticks"], seed=p["seed"],
                                dynamics=p["dynamics"], flip_asymmetry=p["flips"])
                estimate_drift(generate_path(cfg))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        worst = max(worst, peak / p["ticks"])
    return worst


def write_spans(path: Path, recorded: list[spans.Span]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "parent", "command", "name", "start_ns", "end_ns"])
        writer.writerows(recorded)


def run_traced(workload: str, seed: int, seconds: float, scale: float = 1.0) -> dict:
    env = child_env()
    imports = import_times(env)
    sys.path.insert(0, str(SRC))
    import numpy
    from zittersim.cli import main

    rounds: list[list[Sample]] = []
    plain_walls: list[float] = []
    traced: list[tuple[float, dict[str, float]]] = []
    first_spans: list[spans.Span] = []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        cmds = workloads.commands(workload, seed, len(traced), OUT, scale)
        # Alternate which pass goes first so warm caches favour neither.
        for traced_pass in (False, True) if len(traced) % 2 == 0 else (True, False):
            if not traced_pass:
                samples = [run_in_process(c, main) for c in cmds]
                plain_walls.append(sum(s.wall_s for s in samples))
                rounds.append(samples)
                continue
            tracer = spans.Tracer()
            tracer.install()
            try:
                samples = [run_in_process(c, main, tracer, i) for i, c in enumerate(cmds)]
            finally:
                tracer.uninstall()
            rounds.append(samples)
            wall = sum(s.wall_s for s in samples)
            metrics = spans.layer_metrics(tracer.spans, tracer.counts, tracer.se_ratio())
            metrics["cli.stdout_bytes"] = sum(s.stdout_bytes for s in samples)
            metrics["trace.unattributed_s"] = wall - sum(
                v for k, v in metrics.items() if k.endswith(".self_s"))
            traced.append((wall, metrics))
            first_spans = first_spans or tracer.spans

    # Report the median traced round whole, so its parts add up to its wall.
    wall, metrics = sorted(traced, key=lambda t: t[0])[len(traced) // 2]
    metrics.update(imports)
    metrics["simulate.peak_bytes_per_tick"] = peak_bytes_per_tick(cmds)
    metrics["trace.wall_s"] = imports["import.numpy_s"] + imports["import.zittersim_s"] + wall
    metrics["trace.overhead_ratio"] = (
        statistics.median(t[0] for t in traced) / statistics.median(plain_walls))
    write_spans(OUT / f"spans-{workload}-seed{seed}.csv", first_spans)
    return {"rounds": rounds, "metrics": metrics, "units": PER_LAYER_UNITS,
            "numpy": numpy.__version__, "spans": len(first_spans)}


PER_LAYER_UNITS = {
    "import.numpy_s": "s", "import.zittersim_s": "s",
    "cli.self_s": "s", "cli.stdout_bytes": "bytes",
    "kinematics.self_s": "s", "kinematics.calls": "count",
    "entropy.self_s": "s", "entropy.calls": "count",
    "scales.self_s": "s",
    "simulate.iid.self_s": "s", "simulate.iid.ticks": "count",
    "simulate.reduce.self_s": "s",
    "simulate.observe.self_s": "s", "simulate.observe.ticks": "count",
    "simulate.observe.acceptance": "ratio",
    "simulate.telegraph.self_s": "s", "simulate.telegraph.ticks": "count",
    "simulate.telegraph.se_ratio": "ratio",
    "simulate.ensemble.self_s": "s",
    "simulate.csv.self_s": "s", "simulate.csv.rows": "count", "simulate.csv.bytes": "bytes",
    "simulate.peak_bytes_per_tick": "B/tick",
    "verification.self_s": "s", "verification.checks": "count", "verification.failed": "count",
    **{f"{layer}.errors": "count"
       for layer in ("cli", "kinematics", "entropy", "scales", "simulate", "verification")},
    "trace.wall_s": "s", "trace.unattributed_s": "s", "trace.overhead_ratio": "ratio",
}


# -- provenance and result -----------------------------------------------------


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text()
    except OSError:
        return None


def provenance(workload: str, seed: int, numpy_version: str, rounds: list[list[Sample]]) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=60)
            commit = done.stdout.strip() or None
        except OSError:  # no git on this machine
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "zittersim").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode() + path.read_bytes())
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), None)
    l3 = None
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        if (_read(str(index / "level")) or "").strip() == "3":
            l3 = (_read(str(index / "size")) or "").strip() or None
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "l3_cache": l3,
        "rounds": len(rounds),
        "ticks_per_round": sum(s.ticks for s in rounds[0]),
        "csv_rows_per_round": sum(s.rows for s in rounds[0]),
        "commands_per_round": len(rounds[0]),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, scale: float = 1.0) -> dict:
    """Run one workload and return the result document; raises
    BenchmarkError when the program is missing or cannot be imported."""
    if not (SRC / "zittersim" / "cli.py").is_file():
        raise BenchmarkError(f"no zittersim sources under {SRC}")
    OUT.mkdir(exist_ok=True)
    body = (run_traced if trace else run_end_to_end)(workload, seed, seconds, scale)
    samples = [s for r in body["rounds"] for s in r]
    failed = sum(s.error is not None for s in samples)
    return {
        "provenance": provenance(workload, seed, body["numpy"], body["rounds"]),
        "fail_ratio": failed / len(samples),
        "short_cmd_samples": body.get("short_cmd_samples"),
        "raw_metrics": body.get("raw_metrics"),
        "spans": body.get("spans"),
        "samples": [asdict(s) for s in samples],
        "setup_samples": [asdict(s) for s in body.get("setup_samples", [])],
        "result": {
            "correct": failed == 0,
            "attempted": len(samples),
            "failed": failed,
            "metrics": {name: {"value": value, "unit": body["units"][name]}
                        for name, value in body["metrics"].items()},
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        doc = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    for sample in doc["samples"]:
        if sample["error"]:
            print(f"FAILED {' '.join(sample['argv'])}: {sample['error']}", file=sys.stderr)
    print(json.dumps({"provenance": doc["provenance"]}))
    print(f"fail_ratio {doc['fail_ratio']}  short_cmd_samples {doc['short_cmd_samples']}  "
          f"spans {doc['spans']}  details {path.relative_to(ROOT)}")
    print(json.dumps(doc["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
