"""The real process entry: ``python -m zittersim.cli`` in a child process.

Each child runs with ``src/`` on its path and ``PYTHONUNBUFFERED`` removed,
so stdout is block-buffered as it is under a pipe or a file redirect, unless a
test sets it.  The entry ends the process with no shutdown flush, so a result
reaches the reader only through ``main``'s own flush, and a result that cannot
be written fails inside ``main``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from zittersim.cli import build_parser, main

SRC = Path(__file__).resolve().parents[1] / "src"


def _env(**extra: str) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return {**env, **extra}


def _run(args: list[str], stdout=subprocess.PIPE, **env: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE, env=_env(**env),
        text=True, timeout=120,
    )


def _cli(*argv: str, stdout=subprocess.PIPE, **env: str) -> subprocess.CompletedProcess:
    return _run(["-m", "zittersim.cli", *argv], stdout, **env)


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
