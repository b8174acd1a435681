"""Output checks for the benchmark's commands.

Each check recomputes the expected answer from the command's own inputs with
the standard library only, never from zittersim, and raises ``CheckFailed``
when the program's output disagrees.  Monte Carlo results are held to
5 sigma, with sigma worked out here from the input parameters.
"""

from __future__ import annotations

import math
from pathlib import Path

SIGMA_BOUND = 5.0
EXACT_TOL = 1e-12
# The package pins the 2018 CODATA hbar to ten digits; the exact value below
# differs from it by about 6e-10 relative.
SCALES_REL_TOL = 1e-8
SPEED_OF_LIGHT = 299_792_458.0
HBAR = 6.62607015e-34 / (2.0 * math.pi)
PATH_CSV_HEADER = "tick,direction,position"
GRID_CSV_HEADER = "beta,S_nats,S_bits,gamma,one_plus_z"


class CheckFailed(Exception):
    """A command's output disagrees with the independently computed answer."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _close(name: str, got: float, want: float, tol: float, relative: bool = False) -> None:
    scale = abs(want) if relative else 1.0
    _require(
        isinstance(got, (int, float)) and abs(got - want) <= tol * scale,
        f"{name} = {got!r}, expected {want!r} within {tol:g}{' relative' if relative else ''}",
    )


def telegraph_inflation(flips: tuple[float, float]) -> float:
    """Variance inflation (1 + rho)/(1 - rho) of a telegraph chain's mean,
    where rho = 1 - a - b is the lag-1 correlation of the two-state chain."""
    rho = 1.0 - flips[0] - flips[1]
    return (1.0 + rho) / (1.0 - rho)


def telegraph_std_error(beta: float, n: int, flips: tuple[float, float]) -> float:
    """Exact standard error of the mean of n stationary telegraph ticks."""
    rho = 1.0 - flips[0] - flips[1]
    factor = (1.0 + rho) / (1.0 - rho) - 2.0 * rho * (1.0 - rho**n) / (n * (1.0 - rho) ** 2)
    return math.sqrt((1.0 - beta * beta) / n * factor)


def _drift(doc: dict, beta: float, n: int, inflation: float, label: str) -> None:
    _require(doc.get("n") == n, f"{label}: n = {doc.get('n')!r}, expected {n}")
    sigma = math.sqrt((1.0 - beta * beta) / n * inflation)
    deviation = abs(doc["mean"] - beta)
    _require(
        deviation <= SIGMA_BOUND * sigma,
        f"{label}: mean {doc['mean']!r} is {deviation / sigma:.2f} sigma from {beta!r}",
    )


def check_simulate(doc: dict, p: dict) -> None:
    """Single-path drift within 5 sigma of beta; telegraph sigma carries the
    exact inflation rather than the reported std_error."""
    inflation = telegraph_inflation(p["flips"]) if p["dynamics"] == "telegraph" else 1.0
    _drift(doc, p["beta"], p["ticks"], inflation, "simulate")


def check_ensemble(doc: dict, p: dict) -> None:
    """Every replicate and the pooled estimate within 5 sigma; pooled n is
    ticks x replicates and the pooled mean is the tick-weighted mean."""
    inflation = telegraph_inflation(p["flips"]) if p["dynamics"] == "telegraph" else 1.0
    reps = doc["replicates"]
    _require(len(reps) == p["replicates"], f"{len(reps)} replicates, expected {p['replicates']}")
    for i, rep in enumerate(reps):
        _drift(rep, p["beta"], p["ticks"], inflation, f"replicate {i}")
    total = p["ticks"] * p["replicates"]
    _drift(doc["pooled"], p["beta"], total, inflation, "pooled")
    weighted = sum(rep["mean"] * rep["n"] for rep in reps) / total
    _close("pooled mean", doc["pooled"]["mean"], weighted, EXACT_TOL)


def check_observe(doc: dict, p: dict) -> None:
    """Retained-tick drift within 5 sigma of (u+v)/(1+uv) and acceptance
    within 5 sigma of (1+uv)/2."""
    u, v, ticks = p["u"], p["v"], p["ticks"]
    w = (u + v) / (1.0 + u * v)
    accept = 0.5 * (1.0 + u * v)
    _require(doc.get("ticks_total") == ticks, f"ticks_total = {doc.get('ticks_total')!r}")
    _drift(doc, w, doc["n"], 1.0, "observe")
    sigma = math.sqrt(accept * (1.0 - accept) / ticks)
    deviation = abs(doc["acceptance_rate"] - accept)
    _require(
        deviation <= SIGMA_BOUND * sigma,
        f"acceptance {doc['acceptance_rate']!r} is {deviation / sigma:.2f} sigma from {accept!r}",
    )


def _last_line(path: Path) -> str:
    with open(path, "rb") as fh:
        fh.seek(0, 2)
        fh.seek(max(0, fh.tell() - 256))
        return fh.read().decode().rstrip("\n").rsplit("\n", 1)[-1]


def _count_lines(path: Path) -> int:
    lines = 0
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            lines += chunk.count(b"\n")
    return lines


def check_path_csv(doc: dict, p: dict) -> None:
    """The drift check, then the dumped path: ticks + 1 lines and a last
    position equal to n * mean."""
    check_simulate(doc, p)
    path = Path(p["csv"])
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
    _require(header == PATH_CSV_HEADER, f"path CSV header {header!r}")
    lines = _count_lines(path)
    _require(lines == p["ticks"] + 1, f"path CSV has {lines} lines, expected {p['ticks'] + 1}")
    tick, direction, position = _last_line(path).split(",")
    _require(int(tick) == p["ticks"] - 1, f"last tick {tick}")
    _require(direction in ("+1", "-1"), f"last direction {direction!r}")
    _close("last position", float(position), doc["n"] * doc["mean"], 1e-6)


def _entropy_nats(beta: float) -> float:
    p, q = 0.5 * (1.0 + beta), 0.5 * (1.0 - beta)
    return -sum(x * math.log(x) for x in (p, q) if x > 0.0)


def _relativistic(beta: float) -> tuple[float, float, float]:
    """(log(2 gamma) - beta log(1+z), gamma, 1+z) for |beta| < 1."""
    gamma = 1.0 / math.sqrt((1.0 - beta) * (1.0 + beta))
    one_plus_z = math.sqrt((1.0 + beta) / (1.0 - beta))
    return math.log(2.0 * gamma) - beta * math.log(one_plus_z), gamma, one_plus_z


def check_entropy_grid(doc: None, p: dict) -> None:
    """Every grid row: beta on the inclusive grid, S_nats matching
    log(2 gamma) - beta log(1+z), S_bits = S_nats / log 2, gamma and 1+z."""
    start, stop, count = p["start"], p["stop"], p["count"]
    with open(p["csv"]) as fh:
        header = fh.readline().rstrip("\n")
        _require(header == GRID_CSV_HEADER, f"grid CSV header {header!r}")
        rows = 0
        for i, line in enumerate(fh):
            beta, s_nats, s_bits, gamma, one_plus_z = map(float, line.split(","))
            _close(f"row {i} beta", beta, start + (stop - start) * i / (count - 1), EXACT_TOL)
            s_rel, gamma_want, z_want = _relativistic(beta)
            _close(f"row {i} S_nats", s_nats, s_rel, EXACT_TOL)
            _close(f"row {i} S_bits", s_bits, s_nats / math.log(2.0), EXACT_TOL)
            _close(f"row {i} gamma", gamma, gamma_want, EXACT_TOL, relative=True)
            _close(f"row {i} one_plus_z", one_plus_z, z_want, EXACT_TOL, relative=True)
            rows += 1
    _require(rows == count, f"grid CSV has {rows} rows, expected {count}")


def check_compose(doc: dict, p: dict) -> None:
    """w and the composed beta match (u+v)/(1+uv); each distribution is
    ((1+beta)/2, (1-beta)/2) with its binary entropy."""
    u, v = p["u"], p["v"]
    w = (u + v) / (1.0 + u * v)
    _close("w", doc["w"], w, EXACT_TOL)
    for key, beta in (("observer", u), ("particle", v), ("composed", w)):
        part = doc[key]
        _close(f"{key} beta", part["beta"], beta, EXACT_TOL)
        _close(f"{key} p_right", part["distribution"]["p_right"], 0.5 * (1.0 + beta), EXACT_TOL)
        _close(f"{key} entropy", part["entropy"], _entropy_nats(beta), EXACT_TOL)


def check_entropy_beta(doc: dict, p: dict) -> None:
    """S by the direct formula and by log(2 gamma) - beta log(1+z)."""
    beta = p["beta"]
    s_rel, gamma, one_plus_z = _relativistic(beta)
    _close("S_nats", doc["S_nats"], _entropy_nats(beta), EXACT_TOL)
    _close("S_relativistic_nats", doc["S_relativistic_nats"], s_rel, EXACT_TOL)
    _close("S_bits", doc["S_bits"], doc["S_nats"] / math.log(2.0), EXACT_TOL)
    _close("gamma", doc["gamma"], gamma, EXACT_TOL, relative=True)
    _close("one_plus_z", doc["one_plus_z"], one_plus_z, EXACT_TOL, relative=True)


def check_scales(doc: dict, p: dict) -> None:
    """omega = 2 m c^2 / hbar, lambda = c / omega, tick = 1 / omega."""
    mass = p["mass_kg"]
    omega = 2.0 * mass * SPEED_OF_LIGHT**2 / HBAR
    _close("mass_kg", doc["mass_kg"], mass, EXACT_TOL, relative=True)
    _close("omega", doc["omega_rad_per_s"], omega, SCALES_REL_TOL, relative=True)
    w = doc["omega_rad_per_s"]
    _close("lambda", doc["lambda_m"], SPEED_OF_LIGHT / w, EXACT_TOL, relative=True)
    _close("frequency", doc["frequency_hz"], w / (2.0 * math.pi), EXACT_TOL, relative=True)
    _close("tick_duration", doc["tick_duration_s"], 1.0 / w, EXACT_TOL, relative=True)


def check_verify(doc: dict, p: dict) -> None:
    """The report passed and so did each of its checks."""
    _require(doc.get("passed") is True, "verify reported passed != true")
    checks = doc.get("checks") or []
    _require(len(checks) > 0, "verify reported no checks")
    failed = [c["name"] for c in checks if not c["passed"]]
    _require(not failed, f"verify checks failed: {failed}")
