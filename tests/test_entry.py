"""The real process entry: ``python -m zittersim.cli`` in a child process.

Each child runs with ``src/`` on its path and ``PYTHONUNBUFFERED`` removed,
so stdout is block-buffered as it is under a pipe or a file redirect, unless a
test sets it.  The entry ends the process with no shutdown flush, so a result
reaches the reader only through ``main``'s own flush, and a result that cannot
be written fails inside ``main``.
"""

from __future__ import annotations

import gc
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from zittersim.cli import build_parser, main

SRC = Path(__file__).resolve().parents[1] / "src"


def _env(**extra: str) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return {**env, **extra}


def _run(args: list[str], stdout=subprocess.PIPE, stderr=subprocess.PIPE, **env: str):
    return subprocess.run(
        [sys.executable, *args], stdout=stdout, stderr=stderr, env=_env(**env),
        text=True, timeout=120,
    )


def _cli(*argv: str, stdout=subprocess.PIPE, stderr=subprocess.PIPE, **env: str):
    return _run(["-m", "zittersim.cli", *argv], stdout, stderr, **env)


# One command per route to an exit code: each ZitterError.exit_code, with the
# start of its one stderr line.
EXIT_CODES = {
    "ok": (("compose", "--u", "0.5", "--v", "0.5"), 0, ""),
    "run-failure": (
        ("observe", "--u", "0.9999999999999999", "--v", "-1", "--ticks", "1000", "--seed", "1"), 1,
        "error: 0 of 1000 ticks retained",
    ),
    "unwritable-output": (
        ("simulate", "--beta", "0", "--ticks", "10", "--seed", "1", "--path", ""), 1,
        "error: --path ",
    ),
    "invalid-input": (("compose", "--u", "2", "--v", "0"), 2, "error: beta must lie in"),
    "indeterminate": (("compose", "--u", "1", "--v", "-1"), 3, "error: velocity composition"),
}
# Output the pipe must carry whole: a result larger than its 64 KiB buffer
# (~122 kB), and argparse's --help.
PIPED = {
    "json-over-pipe-buffer": (
        ("simulate", "--beta", "0.3", "--ticks", "10", "--seed", "1", "--replicates", "1000"), 0, "",
    ),
    "help": (("--help",), 0, ""),
}


@pytest.mark.parametrize("argv,code,error", [*EXIT_CODES.values(), *PIPED.values()],
                         ids=[*EXIT_CODES, *PIPED])
def test_exit_codes(argv, code, error, monkeypatch):
    # argparse wraps --help to COLUMNS, in the child as in this process.
    monkeypatch.setenv("COLUMNS", "80")
    done = _cli(*argv)
    assert done.returncode == code
    if argv == ("--help",):
        assert (done.stdout, done.stderr) == (build_parser().format_help(), "")
    elif code == 0:
        assert json.loads(done.stdout)["manifest"]["command"] == argv[0]
        assert done.stderr == ""
    else:
        assert done.stdout == ""
        assert done.stderr.startswith(error) and done.stderr.count("\n") == 1


# A JSON result that fits stdout's 8 kB buffer, so the final flush fails; one
# that does not (12.8 kB), so the write itself fails; and argparse's --help.
OUTPUTS = {
    "json": ("compose", "--u", "0.5", "--v", "0.5"),
    "json-over-buffer": (
        "simulate", "--beta", "0.3", "--ticks", "10", "--seed", "1", "--replicates", "100",
    ),
    "help": ("--help",),
}
# Each of them with stdout block-buffered (the bare id) and unbuffered, where
# every write reaches the file at once and argparse's own write would fail.
STDOUTS = [
    pytest.param(argv, env, id=name + suffix)
    for suffix, env in (("", {}), ("-unbuffered", {"PYTHONUNBUFFERED": "1"}))
    for name, argv in OUTPUTS.items()
]


@pytest.mark.parametrize("argv,env", STDOUTS)
def test_closed_pipe_exits_0_silently(argv, env):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = _cli(*argv, stdout=write_end, **env)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (0, "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv,env", STDOUTS)
def test_full_disk_exits_1_with_one_error_line(argv, env):
    with open("/dev/full", "w") as full:
        done = _cli(*argv, stdout=full, **env)
    assert done.returncode == 1
    assert done.stderr.startswith("error: stdout: [Errno 28]") and done.stderr.count("\n") == 1


@pytest.mark.parametrize("argv,env", STDOUTS)
def test_closed_stdout_exits_1_with_one_error_line(argv, env):
    # started with fd 1 closed, as the shell's >&- does: Python sets sys.stdout
    # to None, and print to None writes nothing
    done = subprocess.run(
        [sys.executable, "-m", "zittersim.cli", *argv], stderr=subprocess.PIPE,
        env=_env(**env), text=True, timeout=120, preexec_fn=lambda: os.close(1),
    )
    assert done.returncode == 1
    assert done.stderr == "error: stdout: [Errno 9] Bad file descriptor\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv,code",
    [(argv, code) for argv, code, _ in EXIT_CODES.values()] + [(("compose", "--u"), 2)],
    ids=[*EXIT_CODES, "usage-error"],
)
def test_full_disk_on_stderr_keeps_the_exit_code(argv, code):
    with open("/dev/full", "w") as full:
        assert _cli(*argv, stderr=full).returncode == code


def test_help_in_process_exits_0(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: zittersim")


def test_main_with_argv_returns_each_exit_code():
    for argv, code, _ in EXIT_CODES.values():
        assert main(list(argv)) == code


def test_entry_ends_without_finalization():
    code = (
        "import atexit, sys\n"
        "from zittersim import cli\n"
        "atexit.register(lambda: print('atexit ran', file=sys.stderr))\n"
        "sys.argv = ['zittersim', 'compose', '--u', '0.5', '--v', '0.5']\n"
        "cli.entry()\n"
    )
    done = _run(["-c", code])
    assert (done.returncode, done.stderr) == (0, "")
    assert json.loads(done.stdout)["w"] == 0.8


def _signal_mid_dump(target: Path, signum: int) -> tuple[int, str, str]:
    """Send ``signum`` to a child once its ``--path`` dump holds 1 MiB; return
    its exit code, stdout and stderr."""
    argv = ["simulate", "--beta", "0", "--ticks", "1000000000", "--seed", "1", "--path"]

    def default_handlers() -> None:
        # a runner that ignores a signal would pass that on to the child
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)

    with subprocess.Popen(
        [sys.executable, "-m", "zittersim.cli", *argv, str(target)], stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, env=_env(), text=True, preexec_fn=default_handlers,
    ) as child:
        try:
            deadline = time.monotonic() + 60
            while not (target.exists() and target.stat().st_size > 1 << 20):
                assert child.poll() is None and time.monotonic() < deadline
                time.sleep(0.01)
            child.send_signal(signum)
            out, err = child.communicate(timeout=60)
        finally:
            child.kill()
    return child.returncode, out, err


def test_interrupt_exits_130_with_one_line_and_no_file(tmp_path):
    # Ctrl-C mid-dump: the interrupt unwinds through the output file, which goes
    target = tmp_path / "p.csv"
    assert _signal_mid_dump(target, signal.SIGINT) == (130, "", "error: interrupted\n")
    assert not target.exists()


def test_terminate_exits_143_with_one_line_and_no_file(tmp_path):
    # SIGTERM (timeout, kill) mid-dump unwinds as Ctrl-C does
    target = tmp_path / "p.csv"
    assert _signal_mid_dump(target, signal.SIGTERM) == (143, "", "error: terminated\n")
    assert not target.exists()


# Reports, at the entry's os._exit, whether gc is enabled and SIGTERM's handler.
AT_EXIT = (
    "import gc, os, signal, sys\n"
    "exit = os._exit\n"
    "def report(code):\n"
    "    handler = signal.getsignal(signal.SIGTERM)\n"
    "    name = handler.name if isinstance(handler, signal.Handlers) else handler.__name__\n"
    "    os.write(2, f'{gc.isenabled()} {name}\\n'.encode())\n"
    "    exit(code)\n"
    "os._exit = report\n"
)


def test_no_collection_scans_the_import_heap():
    # Run as python -m does: the module disables gc before it imports numpy,
    # and the entry freezes the import heap, then enables gc for main.
    code = AT_EXIT + (
        "import runpy\n"
        "def watch(phase, info):\n"
        "    if phase == 'start' and 'numpy' in sys.modules and not gc.get_freeze_count():\n"
        "        os.write(2, b'collection over the import heap\\n')\n"
        "gc.callbacks.append(watch)\n"
        "sys.argv = ['zittersim', 'compose', '--u', '0.5', '--v', '0.5']\n"
        "runpy.run_module('zittersim.cli', run_name='__main__', alter_sys=True)\n"
    )
    done = _run(["-c", code])
    assert (done.returncode, done.stderr) == (0, "True _terminate\n")
    assert json.loads(done.stdout)["w"] == 0.8


def test_an_inherited_ignored_sigterm_stays_ignored():
    code = AT_EXIT + (
        "from zittersim import cli\n"
        "signal.signal(signal.SIGTERM, signal.SIG_IGN)\n"
        "sys.argv = ['zittersim', 'compose', '--u', '0.5', '--v', '0.5']\n"
        "cli.entry()\n"
    )
    done = _run(["-c", code])
    assert (done.returncode, done.stderr) == (0, "True SIG_IGN\n")


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-enabled", "gc-disabled"])
def test_main_in_process_leaves_the_gc_state(enabled):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        frozen = gc.get_freeze_count()
        for argv, code, _ in EXIT_CODES.values():
            assert main(list(argv)) == code
            assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
    finally:
        (gc.enable if was else gc.disable)()
