"""Command-line surface: compose, simulate, observe, entropy, scales, verify.

Results are JSON on stdout (full float precision, as Python's repr emits);
bulk series go to CSV.  Every result embeds a run manifest: the options as
parsed (null where not given), the version, the constants and RNG provenance
where the command read them, and under ``run`` what varies between runs, so
a run can be replayed from its own output.  Each ``cmd_*`` returns its
payload; ``main`` adds the manifest and writes the JSON.  Each command
imports only the modules it runs: the calculus for ``compose`` and
``entropy``, the scales for ``scales`` and the constants block, the sampler
and the verify suite for the commands that sample or verify.  An error exits
with its ``ZitterError.exit_code``, a failed ``verify`` with 1.  The process
entry, ``entry``, ends with ``os._exit`` once ``main`` has flushed the
result, so a command pays no interpreter finalization.
"""

from __future__ import annotations

import gc

if __name__ == "__main__":
    # No collection over the import heap: ``entry`` freezes it, then enables gc.
    gc.disable()

import argparse
import errno
import json
import math
import os
import signal
import stat
import sys
from contextlib import contextmanager, suppress
from datetime import datetime, timezone
from typing import BinaryIO, Iterator, NoReturn, Optional, Sequence

import numpy as np

from . import DYNAMICS, LEVELS, MAX_TICKS, PARTICLES, STREAM_LAYOUT, __version__
from .errors import InvalidConfig, UnwritableOutput, ZitterError

EXIT_OK = 0
EXIT_FAILURE = 1


@contextmanager
def _writing(target: str) -> Iterator[None]:
    """Re-raise the block's ``OSError`` as ``UnwritableOutput`` naming ``target``,
    ``--path 'p.csv'`` or ``stdout``; a ``BrokenPipeError`` on stdout, from a
    reader that left early, passes to ``main``.  A process started with fd 1
    closed has ``sys.stdout`` None, where ``print`` writes nothing: an error here."""
    try:
        if target == "stdout" and sys.stdout is None:
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        yield
    except OSError as exc:
        if target == "stdout" and isinstance(exc, BrokenPipeError):
            raise
        raise UnwritableOutput(f"{target}: {exc}") from exc


@contextmanager
def _output(option: str, path: str) -> Iterator[BinaryIO]:
    """``path`` opened for bytes, the one place an output file opens, with
    ``_writing``'s errors.  A failure, an interrupt too, removes ``path`` if it
    names the regular file written: a file exists only if its run finished,
    and a device, a FIFO or a symlink's target is never removed."""
    with _writing(f"{option} {path!r}"), open(path, "wb") as fh:
        try:
            yield fh
            fh.flush()
        except BaseException:
            with suppress(OSError):
                written = os.fstat(fh.fileno())
                if stat.S_ISREG(written.st_mode) and os.path.samestat(written, os.lstat(path)):
                    os.remove(path)
            raise


def _manifest(args: argparse.Namespace) -> dict:
    """Everything needed to audit and re-run a CLI invocation: its options in
    parser order, the blocks it ``reads`` and, under ``run``, what varies by run."""
    manifest = {
        "command": args.command,
        "parameters": {
            k: v for k, v in vars(args).items() if k not in ("command", "func", "reads")
        },
    }
    if "constants" in args.reads:
        from .scales import HBAR, SPEED_OF_LIGHT
        manifest["constants"] = {"speed_of_light_m_per_s": SPEED_OF_LIGHT, "hbar_J_s": HBAR}
    manifest["version"] = __version__
    if "rng" in args.reads:
        manifest["rng"] = {
            "numpy": np.__version__, "bit_generator": "PCG64", "stream_layout": STREAM_LAYOUT
        }
    manifest["run"] = {"timestamp": datetime.now(timezone.utc).isoformat()}
    return manifest


def _parse_grid(raw: str) -> tuple[float, float, int]:
    """Parse and validate ``start:stop:count`` of an endpoint-inclusive grid."""
    malformed = InvalidConfig(
        f"grid must be start:stop:count with integer count in [1, {MAX_TICKS}), got {raw!r}"
    )
    try:
        start, stop, count = raw.split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError:
        raise malformed from None
    if not 1 <= count < MAX_TICKS:
        raise malformed
    from .kinematics import _beta
    return _beta(start), _beta(stop), count


# Points per --grid slice: few enough that formatting one slice's CSV keeps
# its arrays in cache.
_GRID_ROWS = 1 << 10


def _grid_slices(start: float, stop: float, count: int) -> Iterator[np.ndarray]:
    """``np.linspace(start, stop, count)`` bit for bit, in slices of
    ``_GRID_ROWS`` points: index * step + start, the last point set to stop."""
    div = count - 1
    delta = stop - start
    step = delta / div if div else 0.0
    for lo in range(0, count, _GRID_ROWS):
        y = np.arange(lo, min(lo + _GRID_ROWS, count), dtype=np.float64)
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
    from . import entropy as ent
    inside = np.abs(b) < 1.0
    gamma, one_plus_z = np.full((2, b.size), np.nan)
    gamma[inside] = ent.lorentz_gamma_array(b[inside])
    one_plus_z[inside] = ent.redshift_factor_array(b[inside])
    return b, *ent.entropy_from_beta_array(b), gamma, one_plus_z


def cmd_compose(args: argparse.Namespace) -> dict:
    from . import entropy as ent
    from . import kinematics as kin
    u, v = args.u, args.v
    w = kin.velocity_addition_array(u, v).item()
    payload = {"w": w}
    roles = (
        ("observer", u, kin.direction_probabilities_array(u)),
        ("particle", v, kin.direction_probabilities_array(v)),
        ("composed", w, kin.compose_probabilities_array(u, v)),
    )
    for role, beta, law in roles:
        s_nats, s_bits = ent.entropy_from_probabilities_array(*law)
        payload[role] = {
            "beta": beta,
            "distribution": {"p_right": law[0].item(), "p_left": law[1].item()},
            "entropy": s_nats.item(),
            "entropy_bits": s_bits.item(),
        }
    return payload


def cmd_simulate(args: argparse.Namespace) -> dict:
    from dataclasses import asdict
    from .simulate import SimConfig, _validate_replicates, run_ensemble, simulate_drift
    cfg = SimConfig(args.beta, args.ticks, args.seed, args.dynamics, args.flip_asymmetry)
    # A bad count is the error to report, whatever else the command asks for.
    _validate_replicates(cfg, args.replicates)
    if args.replicates != 1:
        if args.path is not None:
            raise InvalidConfig("--path dumps a single path; drop --replicates")
        return asdict(run_ensemble(cfg, args.replicates))
    if args.path is None:
        return asdict(simulate_drift(cfg))
    with _output("--path", args.path) as fh:
        return asdict(simulate_drift(cfg, fh))


def cmd_observe(args: argparse.Namespace) -> dict:
    from dataclasses import asdict
    from .simulate import observe_from_moving_frame
    obs = asdict(observe_from_moving_frame(args.u, args.v, ticks=args.ticks, seed=args.seed))
    # The estimate's fields come first, then the frame's own.
    return {**obs.pop("estimate"), **obs}


def cmd_entropy(args: argparse.Namespace) -> dict:
    if (args.grid is None) != (args.csv is None):
        raise InvalidConfig("--grid writes its sweep to --csv PATH; give both or neither")
    if args.grid is not None:
        start, stop, count = _parse_grid(args.grid)
        from ._format import repr_csv
        with _output("--csv", args.csv) as fh:
            fh.write(b"beta,S_nats,S_bits,gamma,one_plus_z\n")
            for b in _grid_slices(start, stop, count):
                fh.write(repr_csv(np.column_stack(_entropy_columns(b))))
        return {"rows": count}
    # The --grid beta:beta:1 row, with JSON null where the row has nan.
    from . import entropy as ent
    from .kinematics import _beta
    b = np.array([_beta(args.beta)])
    row = [None if math.isnan(x) else x for x in np.concatenate(_entropy_columns(b)).tolist()]
    beta, s_nats, s_bits, gamma, one_plus_z = row
    s_relativistic = None if gamma is None else ent.entropy_relativistic_form_array(b).item()
    return {
        "beta": beta,
        "S_nats": s_nats,
        "S_bits": s_bits,
        "S_relativistic_nats": s_relativistic,
        "gamma": gamma,
        "one_plus_z": one_plus_z,
    }


def cmd_scales(args: argparse.Namespace) -> dict:
    from .scales import ParticleScale, scale_for_particle
    particle = args.particle
    scale = ParticleScale.from_mass(args.mass_kg) if particle is None else scale_for_particle(particle)
    return {
        "particle": particle,
        "mass_kg": scale.mass_kg,
        "omega_rad_per_s": scale.omega_rad_per_s,
        "frequency_hz": scale.frequency_hz,
        "lambda_m": scale.length_m,
        "tick_duration_s": scale.tick_duration_s,
    }


def cmd_verify(args: argparse.Namespace) -> dict:
    from .verification import run_verification
    return run_verification(args.level).to_dict()


class _Parser(argparse.ArgumentParser):
    """argparse with one rule for dash-led tokens.  Every option is long, so a
    token of one dash and a non-dash (``-1e-05``, ``-0.99:0.99:199``, ``-inf``)
    is a value, unless it is one of the parser's own option strings (``-h``);
    plain argparse reads only ``-1`` and ``-.5`` shapes so.  The rule overrides
    argparse's private ``_parse_optional``, whose ``None`` means "a value" on
    every supported Python (CI runs each); subparsers inherit the class."""

    def print_help(self, file=None) -> None:
        # argparse's own print ignores a failed write; main reports this one
        with _writing("stdout"):
            print(self.format_help(), end="", file=file, flush=True)

    def _parse_optional(self, arg_string: str):
        dash_led = arg_string[:1] == "-" and arg_string[1:2] != "-"
        if dash_led and arg_string not in self._option_string_actions:
            return None
        return super()._parse_optional(arg_string)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="zittersim",
        description="Probability calculus and Monte Carlo simulator for "
        "light-speed tick motion in 1+1 dimensions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compose", help="relativistic velocity addition, both routes")
    p.add_argument("--u", type=float, required=True, help="observer velocity in [-1, 1]")
    p.add_argument("--v", type=float, required=True, help="particle velocity in [-1, 1]")
    p.set_defaults(func=cmd_compose, reads=())

    p = sub.add_parser("simulate", help="seeded +/-c tick process and drift estimate")
    p.add_argument("--beta", type=float, required=True, help="target drift in [-1, 1]")
    p.add_argument("--ticks", type=int, required=True, help="number of ticks >= 1")
    p.add_argument("--seed", type=int, required=True, help="64-bit unsigned seed")
    p.add_argument(
        "--dynamics", choices=DYNAMICS, default="iid",
        help="per-tick law (default: %(default)s)",
    )
    p.add_argument(
        "--flip-asymmetry", type=float, nargs=2, metavar=("FROM_RIGHT", "FROM_LEFT"),
        help="telegraph flip probabilities; must keep Pr(R) = (1+beta)/2",
    )
    p.add_argument("--path", metavar="CSV", help="also dump the path as CSV; positions count ticks")
    p.add_argument("--replicates", type=int, default=1, help="independent replicates")
    p.set_defaults(func=cmd_simulate, reads=("rng",))

    p = sub.add_parser("observe", help="rejection-sampled drift from a moving frame")
    p.add_argument("--u", type=float, required=True, help="observer velocity in [-1, 1]")
    p.add_argument("--v", type=float, required=True, help="particle velocity in [-1, 1]")
    p.add_argument("--ticks", type=int, required=True, help="total ticks to sample")
    p.add_argument("--seed", type=int, required=True, help="64-bit unsigned seed")
    p.set_defaults(func=cmd_observe, reads=("rng",))

    p = sub.add_parser("entropy", help="observer-dependent entropy of the motion")
    pick = p.add_mutually_exclusive_group(required=True)
    pick.add_argument("--beta", type=float, help="average velocity in [-1, 1]")
    pick.add_argument(
        "--grid", metavar="START:STOP:COUNT",
        help="sweep an inclusive grid to the --csv file, with S in both nats and bits",
    )
    p.add_argument("--csv", metavar="PATH", help="write the --grid sweep to PATH")
    p.set_defaults(func=cmd_entropy, reads=())

    p = sub.add_parser("scales", help="tick frequency and length for a mass")
    pick = p.add_mutually_exclusive_group(required=True)
    pick.add_argument("--particle", help=f"named particle: {', '.join(PARTICLES)}")
    pick.add_argument("--mass-kg", type=float, help="mass in kilograms")
    p.set_defaults(func=cmd_scales, reads=("constants",))

    p = sub.add_parser("verify", help="run the invariant suite and report")
    sizes = ", ".join(f"{n:.0e} ticks at {lv}".replace("e+0", "e") for lv, n in LEVELS.items())
    p.add_argument(
        "--level", choices=list(LEVELS), default="fast",
        help=f"each Monte Carlo check runs {sizes} (default: %(default)s)",
    )
    p.set_defaults(func=cmd_verify, reads=("constants", "rng"))

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command on ``argv`` (default ``sys.argv[1:]``); return its exit
    code, or raise argparse's ``SystemExit`` after ``--help`` or a usage error.
    Each write to stdout is flushed at once, so a failed one is an error here,
    not at the exit.  ``entry`` is this function plus the exit."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        payload = args.func(args)
        payload["manifest"] = _manifest(args)
        with _writing("stdout"):
            # No payload holds inf or nan; one that did is a defect, not "Infinity".
            print(json.dumps(payload, indent=2, allow_nan=False), flush=True)
        return EXIT_FAILURE if args.command == "verify" and not payload["passed"] else EXIT_OK
    except BrokenPipeError:
        # downstream consumer (head, etc.) closed the pipe; not an error
        return EXIT_OK
    except ZitterError as exc:
        with suppress(OSError):
            print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


class _Terminated(BaseException):
    """SIGTERM, raised where the process is, so that it unwinds as Ctrl-C does."""


def _terminate(signum: int, frame: object) -> NoReturn:
    raise _Terminated


def entry() -> NoReturn:
    """The process entry of ``python -m zittersim.cli`` and the ``zittersim``
    script: ``main()``, or argparse's ``SystemExit`` after ``--help`` or a
    usage error, then ``os._exit`` with its code.  The process skips
    interpreter finalization (atexit handlers, the shutdown flush of stdout and
    stderr and gc's collections over the imported heap); whatever stdout or
    stderr could not take is discarded, so a full disk does not change the
    code.  Ctrl-C exits 130 (``main`` lets it pass), and SIGTERM is raised
    as an exception that unwinds the same way and exits 143, unless the
    process inherited it ignored; a traceback leaves as usual.

    ``main`` runs under normal collection, but never over the import heap:
    this call freezes every object that exists, then enables gc.  Under
    ``python -m zittersim.cli`` the module disables gc before its first
    import, so importing numpy and this package runs no collection.  The
    ``zittersim`` script imports this module before it calls ``entry``, so
    there gc still collects during the imports."""
    gc.freeze()
    gc.enable()
    if signal.getsignal(signal.SIGTERM) != signal.SIG_IGN:
        signal.signal(signal.SIGTERM, _terminate)
    stop = None
    try:
        code = main()
    except SystemExit as exc:
        code = exc.code
    except KeyboardInterrupt:
        code, stop = 130, "interrupted"  # 128 + SIGINT, as a shell reports it
    except _Terminated:
        code, stop = 143, "terminated"  # 128 + SIGTERM
    with suppress(OSError):
        if stop:
            print(f"error: {stop}", file=sys.stderr)
        sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
