"""Command-line surface: compose, simulate, observe, entropy, scales, verify.

Results are JSON on stdout (full float precision, as Python's repr emits);
bulk series go to CSV.  Every result embeds a run manifest with the resolved
parameters, seed, constants, version and RNG stream provenance, so a run can
be reproduced from its own output.  Each ``cmd_*`` returns its payload, its
manifest parameters and its seed; ``main`` adds the manifest and writes the
JSON.  Exit codes: 0 success, 1 verification/run failure or an output file
(``--path``, ``--csv``) that cannot be written, 2 invalid input,
3 indeterminate composition.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from typing import Iterator, Optional, Sequence

import numpy as np

from . import __version__
from . import entropy as ent
from . import kinematics as kin
from .errors import IndeterminateComposition, NoAcceptedTicks, ZitterError
from .scales import (
    HBAR, SPEED_OF_LIGHT, ParticleScale, named_particles, scale_for_particle,
)
from .simulate import (
    _CSV_ROWS,
    DYNAMICS,
    STREAM_LAYOUT,
    SimConfig,
    observe_from_moving_frame,
    run_ensemble,
    simulate_drift,
)
from .verification import LEVELS, run_verification

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_INVALID_INPUT = 2
EXIT_INDETERMINATE = 3

# What a ``cmd_*`` hands to ``main``: JSON payload, manifest parameters, seed;
# None when the command wrote its result itself (``entropy --grid``).
Result = Optional[tuple[dict, dict, Optional[int]]]


def _manifest(command: str, parameters: dict, seed: Optional[int]) -> dict:
    """Everything needed to audit and re-run a CLI invocation."""
    return {
        "command": command,
        "parameters": parameters,
        "seed": seed,
        "constants": {
            "speed_of_light_m_per_s": SPEED_OF_LIGHT,
            "hbar_J_s": HBAR,
        },
        "version": __version__,
        "rng": {"numpy": np.__version__, "bit_generator": "PCG64", "stream_layout": STREAM_LAYOUT},
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def _parse_grid(raw: str) -> tuple[float, float, int]:
    """Parse and validate ``start:stop:count`` of an endpoint-inclusive grid."""
    malformed = ValueError(f"grid must be start:stop:count with integer count >= 1, got {raw!r}")
    try:
        start, stop, count = raw.split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError:
        raise malformed from None
    if count < 1:
        raise malformed
    return kin.Beta(start).value, kin.Beta(stop).value, count


def _grid_slices(start: float, stop: float, count: int) -> Iterator[np.ndarray]:
    """``np.linspace(start, stop, count)`` bit for bit, in slices of
    ``_CSV_ROWS`` points: index * step + start, the last point set to stop."""
    div = count - 1
    delta = stop - start
    step = delta / div if div else 0.0
    for lo in range(0, count, _CSV_ROWS):
        y = np.arange(lo, min(lo + _CSV_ROWS, count), dtype=np.float64)
        # linspace scales by delta / div, or, for one point or a step that
        # underflows to 0, divides by div before multiplying by delta.
        y = y * step if step else y / max(div, 1) * delta
        y += start
        if div and lo + y.size == count:
            y[-1] = stop
        yield y


def _entropy_columns(b: np.ndarray) -> tuple[np.ndarray, ...]:
    """The entropy table at velocities ``b``: beta, S in nats, S in bits,
    gamma and 1+z, the last two nan at light speed."""
    inside = np.abs(b) < 1.0
    gamma, one_plus_z = np.full((2, b.size), np.nan)
    gamma[inside] = ent.lorentz_gamma_array(b[inside])
    one_plus_z[inside] = ent.redshift_factor_array(b[inside])
    s_nats = ent.entropy_from_beta_array(b, ent.EntropyUnit.NATS)
    s_bits = ent.entropy_from_beta_array(b, ent.EntropyUnit.BITS)
    return b, s_nats, s_bits, gamma, one_plus_z


def cmd_compose(args: argparse.Namespace) -> Result:
    unit = ent.EntropyUnit(args.unit)
    u, v = args.u, args.v
    w = kin.velocity_addition_array(u, v).item()
    u_dist = kin.direction_distribution_from_beta(u)
    v_dist = kin.direction_distribution_from_beta(v)
    composed = kin.compose_frames(v_dist, u_dist)
    payload = {"w": w, "unit": unit.value}
    roles = (("observer", u, u_dist), ("particle", v, v_dist), ("composed", w, composed))
    for role, beta, dist in roles:
        payload[role] = {
            "beta": beta,
            "distribution": asdict(dist),
            "entropy": ent.entropy_from_distribution(dist, unit),
        }
    return payload, {"u": u, "v": v, "unit": unit.value}, None


def _build_config(args: argparse.Namespace) -> SimConfig:
    scale = scale_for_particle(args.particle) if args.particle else None
    flip = tuple(args.flip_asymmetry) if args.flip_asymmetry else None
    return SimConfig(
        beta=args.beta,
        ticks=args.ticks,
        seed=args.seed,
        dynamics=args.dynamics,
        flip_asymmetry=flip,
        tick_duration=args.tick_duration,
        scale=scale,
    )


def cmd_simulate(args: argparse.Namespace) -> Result:
    cfg = _build_config(args)
    parameters = {
        "beta": cfg.beta,
        "ticks": cfg.ticks,
        "dynamics": cfg.dynamics,
        "flip_asymmetry": list(cfg.flip_asymmetry) if cfg.flip_asymmetry else None,
        "tick_duration": cfg.resolved_tick_duration,
        "particle": args.particle,
        "replicates": args.replicates,
    }
    if args.replicates != 1:
        if args.path:
            raise ValueError("--path dumps a single path; drop --replicates")
        return asdict(run_ensemble(cfg, args.replicates)), parameters, cfg.seed
    csv_file = open(args.path, "w", newline="") if args.path else contextlib.nullcontext()
    with csv_file as fh:
        estimate = simulate_drift(cfg, fh)
    return asdict(estimate), parameters, cfg.seed


def cmd_observe(args: argparse.Namespace) -> Result:
    obs = asdict(observe_from_moving_frame(args.u, args.v, ticks=args.ticks, seed=args.seed))
    # The estimate's fields come first, then the frame's own.
    payload = {**obs.pop("estimate"), **obs}
    return payload, {"u": args.u, "v": args.v, "ticks": args.ticks}, args.seed


def cmd_entropy(args: argparse.Namespace) -> Result:
    if (args.beta is None) == (args.grid is None):
        raise ValueError("provide exactly one of --beta or --grid")
    if args.csv is not None and args.grid is None:
        raise ValueError("--csv writes the --grid sweep; use it with --grid")
    if args.grid is not None:
        grid = _parse_grid(args.grid)
        target = open(args.csv, "w", newline="") if args.csv else contextlib.nullcontext(sys.stdout)
        with target as fh:
            fh.write("beta,S_nats,S_bits,gamma,one_plus_z\n")
            for b in _grid_slices(*grid):
                columns = (c.tolist() for c in _entropy_columns(b))
                fh.write("".join(map("{!r},{!r},{!r},{!r},{!r}\n".format, *columns)))
        return None
    # The --grid beta:beta:1 row, with JSON null where the row has nan.
    b = np.array([kin.Beta(args.beta).value])
    row = [None if math.isnan(x) else x for x in np.concatenate(_entropy_columns(b)).tolist()]
    beta, s_nats, s_bits, gamma, one_plus_z = row
    s_relativistic = None if gamma is None else ent.entropy_relativistic_form_array(b).item()
    payload = {
        "beta": beta,
        "S_nats": s_nats,
        "S_bits": s_bits,
        "S_relativistic_nats": s_relativistic,
        "gamma": gamma,
        "one_plus_z": one_plus_z,
    }
    return payload, {"beta": beta}, None


def cmd_scales(args: argparse.Namespace) -> Result:
    if (args.particle is None) == (args.mass_kg is None):
        raise ValueError("provide exactly one of --particle or --mass-kg")
    if args.particle is not None:
        scale = scale_for_particle(args.particle)
    else:
        scale = ParticleScale.from_mass(args.mass_kg)
    payload = {
        "particle": args.particle,
        "mass_kg": scale.mass_kg,
        "omega_rad_per_s": scale.omega_rad_per_s,
        "frequency_hz": scale.frequency_hz,
        "lambda_m": scale.length_m,
        "tick_duration_s": scale.tick_duration_s,
    }
    return payload, {"particle": args.particle, "mass_kg": scale.mass_kg}, None


def cmd_verify(args: argparse.Namespace) -> Result:
    return run_verification(args.level).to_dict(), {"level": args.level}, None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zittersim",
        description="Probability calculus and Monte Carlo simulator for "
        "light-speed tick motion in 1+1 dimensions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compose", help="relativistic velocity addition, both routes")
    p.add_argument("--u", type=float, required=True, help="observer velocity in [-1, 1]")
    p.add_argument("--v", type=float, required=True, help="particle velocity in [-1, 1]")
    p.add_argument(
        "--unit", choices=[u.value for u in ent.EntropyUnit], default="nats",
        help="entropy unit of the JSON result (default: nats)",
    )
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("simulate", help="seeded +/-c tick process and drift estimate")
    p.add_argument("--beta", type=float, required=True, help="target drift in [-1, 1]")
    p.add_argument("--ticks", type=int, required=True, help="number of ticks >= 1")
    p.add_argument("--seed", type=int, required=True, help="64-bit unsigned seed")
    p.add_argument(
        "--dynamics", choices=DYNAMICS, default="iid",
        help="per-tick law (default: iid)",
    )
    p.add_argument(
        "--flip-asymmetry", type=float, nargs=2, metavar=("FROM_RIGHT", "FROM_LEFT"),
        help="telegraph flip probabilities; must keep Pr(R) = (1+beta)/2",
    )
    p.add_argument("--tick-duration", type=float, help="seconds per tick")
    p.add_argument(
        "--particle", choices=named_particles(),
        help="attach a physical scale (tick duration defaults to 1/omega)",
    )
    p.add_argument("--path", metavar="CSV", help="also dump the path as tick CSV")
    p.add_argument("--replicates", type=int, default=1, help="independent replicates")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("observe", help="rejection-sampled drift from a moving frame")
    p.add_argument("--u", type=float, required=True, help="observer velocity in [-1, 1]")
    p.add_argument("--v", type=float, required=True, help="particle velocity in [-1, 1]")
    p.add_argument("--ticks", type=int, required=True, help="total ticks to sample")
    p.add_argument("--seed", type=int, required=True, help="64-bit unsigned seed")
    p.set_defaults(func=cmd_observe)

    p = sub.add_parser("entropy", help="observer-dependent entropy of the motion")
    p.add_argument("--beta", type=float, help="average velocity in [-1, 1]")
    p.add_argument(
        "--grid", metavar="START:STOP:COUNT",
        help="sweep an inclusive grid and emit CSV, with S in both nats and bits, instead of JSON",
    )
    p.add_argument("--csv", metavar="PATH", help="write grid CSV to PATH (default stdout)")
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("scales", help="tick frequency and length for a mass")
    p.add_argument("--particle", help=f"named particle: {', '.join(named_particles())}")
    p.add_argument("--mass-kg", type=float, help="mass in kilograms")
    p.set_defaults(func=cmd_scales)

    p = sub.add_parser("verify", help="run the invariant suite and report")
    p.add_argument("--level", choices=list(LEVELS), default="fast")
    p.set_defaults(func=cmd_verify)

    return parser


def _join_grid_value(argv: Sequence[str]) -> list[str]:
    # argparse mistakes "-0.99:0.99:199" for an option; fold it into --grid=.
    out: list[str] = []
    tokens = iter(argv)
    for token in tokens:
        if token == "--grid":
            value = next(tokens, None)
            out.append(token if value is None else f"--grid={value}")
        else:
            out.append(token)
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_join_grid_value(argv))
    try:
        result = args.func(args)
        if result is None:
            return EXIT_OK
        payload, parameters, seed = result
        payload["manifest"] = _manifest(args.command, parameters, seed)
        # A result that overflowed to inf or nan raises ValueError, not "Infinity".
        sys.stdout.write(json.dumps(payload, indent=2, allow_nan=False) + "\n")
        return EXIT_FAILURE if args.command == "verify" and not payload["passed"] else EXIT_OK
    except BrokenPipeError:
        # downstream consumer (head, etc.) closed the pipe; not an error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except IndeterminateComposition as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INDETERMINATE
    except (NoAcceptedTicks, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except (ZitterError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
