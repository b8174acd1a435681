"""The benchmark's workloads: seeded lists of zittersim CLI commands.

A workload is rebuilt for every measured round from (workload, seed, round),
so the same seed always gives the same commands, while rounds differ in the
RNG seeds and the small jitter on velocities.  Sizes are fixed per workload so
that every round does the same amount of work.

Every end-to-end metric has to be defined on every workload, so each workload
carries a small share of each kind of command: a few ``short`` commands for
start-up latency, a command that writes ``csv`` rows and some ``mc``
commands with Monte Carlo ticks.  Apart from that share, each workload
stresses the layers its description names and leaves the others alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks

# Telegraph runs pass explicit flip probabilities s * (1 - p, s * p) so the
# checks know (a, b) without reading the package.  s = 0.5 is the package's
# default scale: lag-1 correlation 0.5, variance inflation 3.
FLIP_SCALE = 0.5


@dataclass(frozen=True)
class Command:
    """One CLI invocation, what it counts towards, and how to check it."""

    argv: tuple[str, ...]
    kind: str  # "mc", "csv", "short" or "other"
    check: Callable[[dict | None, dict], None]
    params: dict = field(default_factory=dict)
    ticks: int = 0  # Monte Carlo ticks the arguments require
    rows: int = 0  # CSV data rows the command writes
    json_output: bool = True

    @property
    def csv(self) -> str | None:
        return self.params.get("csv")


def _jitter(rng: random.Random, centre: float, width: float = 0.05) -> float:
    return round(centre + rng.uniform(-width, width), 6)


def _seed(rng: random.Random) -> int:
    return rng.getrandbits(63)


def _flips(beta: float) -> tuple[float, float]:
    p = 0.5 * (1.0 + beta)
    return (FLIP_SCALE * (1.0 - p), FLIP_SCALE * p)


def simulate(
    rng: random.Random, kind: str, beta: float, ticks: int, dynamics: str = "iid",
    replicates: int = 1, csv: str | None = None,
) -> Command:
    seed = _seed(rng)
    argv = ["simulate", "--beta", repr(beta), "--ticks", str(ticks), "--seed", str(seed)]
    params = {"beta": beta, "ticks": ticks, "seed": seed, "dynamics": dynamics,
              "replicates": replicates, "flips": None}
    if dynamics == "telegraph":
        params["flips"] = _flips(beta)
        argv += ["--dynamics", "telegraph", "--flip-asymmetry", *map(repr, params["flips"])]
    if replicates > 1:
        argv += ["--replicates", str(replicates)]
        check = checks.check_ensemble
    elif csv is not None:
        params["csv"] = csv
        argv += ["--path", csv]
        check = checks.check_path_csv
    else:
        check = checks.check_simulate
    rows = ticks if csv is not None else 0
    return Command(tuple(argv), kind, check, params, ticks=ticks * replicates, rows=rows)


def observe(rng: random.Random, kind: str, u: float, v: float, ticks: int) -> Command:
    seed = _seed(rng)
    argv = ("observe", "--u", repr(u), "--v", repr(v), "--ticks", str(ticks), "--seed", str(seed))
    params = {"u": u, "v": v, "ticks": ticks, "seed": seed}
    return Command(argv, kind, checks.check_observe, params, ticks=ticks)


def entropy_grid(count: int, csv: str, start: float = -0.99, stop: float = 0.99) -> Command:
    argv = ("entropy", "--grid", f"{start!r}:{stop!r}:{count}", "--csv", csv)
    params = {"start": start, "stop": stop, "count": count, "csv": csv}
    return Command(argv, "csv", checks.check_entropy_grid, params, rows=count, json_output=False)


def compose(u: float, v: float) -> Command:
    argv = ("compose", "--u", repr(u), "--v", repr(v))
    return Command(argv, "short", checks.check_compose, {"u": u, "v": v})


def entropy_beta(beta: float) -> Command:
    argv = ("entropy", "--beta", repr(beta))
    return Command(argv, "short", checks.check_entropy_beta, {"beta": beta})


def scales(mass_kg: float) -> Command:
    argv = ("scales", "--mass-kg", repr(mass_kg))
    return Command(argv, "short", checks.check_scales, {"mass_kg": mass_kg})


def verify() -> Command:
    return Command(("verify", "--level", "fast"), "other", checks.check_verify)


def _n(size: int, scale: float) -> int:
    return max(10, int(size * scale))


def mc_iid(rng: random.Random, out: Path, scale: float) -> list[Command]:
    """Large iid paths, a large frame transform and an iid ensemble: the
    sampler, the reductions and the rejection filter.  Peak memory grows with
    ticks.  No telegraph loop, no path CSV."""
    return [
        simulate(rng, "mc", _jitter(rng, 0.3), _n(20_000_000, scale)),
        observe(rng, "mc", _jitter(rng, 0.4), _jitter(rng, 0.5), _n(10_000_000, scale)),
        simulate(rng, "mc", _jitter(rng, -0.4), _n(2_000_000, scale), replicates=8),
        *(simulate(rng, "short", _jitter(rng, 0.2), 1_000) for _ in range(3)),
        entropy_grid(_n(1_000, scale), str(out / "grid.csv")),
    ]


def mc_telegraph_csv(rng: random.Random, out: Path, scale: float) -> list[Command]:
    """The two per-element Python loops: the telegraph sampler and the path
    CSV writer, the write-side twin of mc_iid's read-only reductions."""
    return [
        simulate(rng, "mc", _jitter(rng, 0.3), _n(1_000_000, scale), dynamics="telegraph"),
        simulate(rng, "mc", _jitter(rng, -0.5), _n(250_000, scale), dynamics="telegraph",
                 replicates=4),
        *(simulate(rng, "csv", _jitter(rng, beta), _n(100_000, scale), csv=str(out / "path.csv"))
          for beta in (0.6, -0.2, 0.1)),
        *(simulate(rng, "short", _jitter(rng, 0.2), 1_000, dynamics="telegraph")
          for _ in range(2)),
    ]


def calculus_cli(rng: random.Random, out: Path, scale: float) -> list[Command]:
    """Validated scalar calculus and process start-up: the verify suite,
    entropy sweeps and a batch of short commands.  Monte Carlo work is tiny."""
    return [
        verify(),
        *(entropy_grid(_n(10_000, scale), str(out / "grid.csv"), start, stop)
          for start, stop in ((-0.99, 0.99), (-0.5, 0.95), (-0.95, 0.5), (-0.9, 0.9))),
        *(compose(_jitter(rng, u, 0.1), _jitter(rng, v, 0.1)) for u, v in ((0.5, 0.5), (-0.3, 0.8))),
        *(entropy_beta(_jitter(rng, b, 0.1)) for b in (-0.6, 0.7)),
        scales(9.1e-31 * (1.0 + rng.uniform(-0.1, 0.1))),
        simulate(rng, "mc", _jitter(rng, 0.1), _n(1_000_000, scale)),
        observe(rng, "mc", _jitter(rng, -0.2), _jitter(rng, 0.6), _n(1_000_000, scale)),
    ]


WORKLOADS = {"mc_iid": mc_iid, "mc_telegraph_csv": mc_telegraph_csv, "calculus_cli": calculus_cli}


def commands(workload: str, seed: int, round_index: int, out: Path, scale: float = 1.0) -> list[Command]:
    """The commands of one round; ``scale`` shrinks the sizes for tests."""
    rng = random.Random(f"{workload}/{seed}/{round_index}")
    return WORKLOADS[workload](rng, out, scale)
