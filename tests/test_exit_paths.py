"""Every exit route of a fresh `python -m statesieve` process.

A process ends through `run` (in `_front`, re-exported as `cli.run`): it
flushes stdout and stderr and calls os._exit, skipping the interpreter's
teardown.  These tests run each route with PYTHONUNBUFFERED removed, where a
missing flush would lose bytes, and set to 1, where a write to a closed stream
fails at once, and check the exit code, the stderr text and stdout bytes
against `cli.main` run in this process.  A write to a stream whose reader has
gone ends with 141 in either mode; a route that writes nothing to the closed
stream keeps its own code.
"""

import contextlib
import errno
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from statesieve import cli

ROOT = Path(__file__).resolve().parent.parent
PARITY_N3 = str(ROOT / "tests" / "golden" / "parity_n3.json")

ROUTES = {
    "ok": (["verify", "--n", "3"], cli.EXIT_OK),
    "property": (["verify", "--file", PARITY_N3], cli.EXIT_PROPERTY_VIOLATION),
    "usage": (["verify", "--tol", "x"], cli.EXIT_USAGE),
    "validation": (["simulate", "--n", "30", "--index", "1"], cli.EXIT_VALIDATION),
    "help": (["--help"], cli.EXIT_OK),
    # about 163 kB and 57 kB: stdout is written in many buffer-sized pieces
    "large": (["transform", "--n", "9", "--emit", "partitions,meet,codes"], cli.EXIT_OK),
    "enumerate": (["enumerate", "--n", "2"], cli.EXIT_OK),
}
ERROR_ROUTES = ("usage", "validation")  # these write to stderr, the others to stdout
PARSED = ["verify"]  # argv that parses, so `run` hands it on to `cli._execute`
MODES = ("buffered", "unbuffered")


def child_env(mode: str) -> dict:
    """The environment of a child whose stdout is block-buffered when not a terminal,
    or, unbuffered, written through on every write."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONUNBUFFERED", "SIEVE_TOL")}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONIOENCODING="utf-8", COLUMNS="80")
    if mode == "unbuffered":
        env["PYTHONUNBUFFERED"] = "1"
    return env


def in_process(argv, monkeypatch) -> tuple[int, bytes, str]:
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help and usage to the terminal
    monkeypatch.delenv("SIEVE_TOL", raising=False)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:  # argparse's --help and usage errors
            code = e.code
    return code, out.getvalue().encode(), err.getvalue()


def fresh(entry: list[str], argv: list[str], stdout, stderr=subprocess.PIPE,
          mode: str = "buffered") -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *entry, *argv], stdout=stdout, stderr=stderr,
                          env=child_env(mode), cwd=ROOT, timeout=120, check=False)


def closed_pipe(run):
    """run(fd) with fd the write end of a pipe whose reader is already gone."""
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to the pipe now fails with EPIPE
    try:
        return run(write_end)
    finally:
        os.close(write_end)


def with_closed(stream: str, argv: list[str], mode: str) -> subprocess.CompletedProcess:
    """`python -m statesieve argv` with stdout or stderr a pipe whose reader has gone."""
    if stream == "stdout":
        return closed_pipe(lambda fd: fresh(["-m", "statesieve"], argv, fd, mode=mode))
    return closed_pipe(lambda fd: fresh(["-m", "statesieve"], argv, subprocess.PIPE, fd, mode))


def console_script() -> list[str]:
    """What the `statesieve` script that pip generates from pyproject.toml runs."""
    text = (ROOT / "pyproject.toml").read_text()
    module, func = re.search(r'^statesieve = "([\w.]+):(\w+)"$', text, re.M).groups()
    return ["-c", f"import sys; from {module} import {func}; sys.exit({func}())"]


@pytest.mark.parametrize("sink", ["pipe", "file"])
@pytest.mark.parametrize("route", list(ROUTES))
def test_a_fresh_process_prints_what_main_prints(route, sink, tmp_path, monkeypatch):
    argv, expected = ROUTES[route]
    code, out, err = in_process(argv, monkeypatch)
    assert code == expected
    for mode in MODES:
        if sink == "pipe":
            proc = fresh(["-m", "statesieve"], argv, subprocess.PIPE, mode=mode)
            stdout = proc.stdout
        else:
            path = tmp_path / f"stdout_{mode}"
            with open(path, "wb") as fh:
                proc = fresh(["-m", "statesieve"], argv, fh, mode=mode)
            stdout = path.read_bytes()
        assert proc.returncode == expected, mode
        assert proc.stderr.decode() == err, mode
        assert stdout == out, mode


@pytest.mark.parametrize("route", [r for r in ROUTES if r not in ERROR_ROUTES])
def test_a_stdout_closed_before_the_first_write_ends_quietly_with_141(route):
    for mode in MODES:
        proc = with_closed("stdout", ROUTES[route][0], mode)
        assert (proc.returncode, proc.stderr) == (cli.EXIT_BROKEN_PIPE, b""), mode
    assert cli.EXIT_BROKEN_PIPE == 141


@pytest.mark.parametrize("route", ERROR_ROUTES)
def test_an_error_into_a_closed_stderr_ends_with_141(route):
    for mode in MODES:
        proc = with_closed("stderr", ROUTES[route][0], mode)
        assert (proc.returncode, proc.stdout) == (cli.EXIT_BROKEN_PIPE, b""), mode


@pytest.mark.parametrize("route", list(ROUTES))
def test_a_closed_stream_that_nothing_is_written_to_keeps_the_routes_code(route, monkeypatch):
    argv, expected = ROUTES[route]
    _, out, err = in_process(argv, monkeypatch)
    for mode in MODES:
        if route in ERROR_ROUTES:
            proc = with_closed("stdout", argv, mode)
            assert (proc.returncode, proc.stderr.decode()) == (expected, err), mode
        else:
            proc = with_closed("stderr", argv, mode)
            assert (proc.returncode, proc.stdout) == (expected, out), mode


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a full device")
@pytest.mark.parametrize("route", ["ok", "help"])
def test_output_into_a_full_device_is_a_resource_error(route):
    for mode in MODES:
        with open("/dev/full", "wb") as fh:
            proc = fresh(["-m", "statesieve"], ROUTES[route][0], fh, mode=mode)
        assert proc.returncode == cli.EXIT_VALIDATION, mode
        assert json.loads(proc.stderr)["error"]["type"] == "OSError", mode


@pytest.mark.parametrize("entry", [["-m", "statesieve"], ["-m", "statesieve.cli"],
                                   console_script()],
                         ids=["__main__", "cli", "console-script"])
def test_every_entry_point_ends_through_run(entry, monkeypatch):
    # the interpreter's own exit path gives 120 here, not 141: stdout is flushed at teardown
    for mode in MODES:
        proc = closed_pipe(lambda fd: fresh(entry, ["--help"], fd, mode=mode))
        assert (proc.returncode, proc.stderr) == (cli.EXIT_BROKEN_PIPE, b""), mode

    argv, expected = ROUTES["usage"]
    code, _, err = in_process(argv, monkeypatch)
    proc = fresh(entry, argv, subprocess.PIPE)
    assert (proc.returncode, proc.stderr.decode(), proc.stdout) == (expected, err, b"")


class ExitCalled(Exception):
    pass


@pytest.fixture
def exit_code(monkeypatch):
    """os._exit replaced by a recorder, so `cli.run` can be called in this process."""
    codes = []

    def fake_exit(code):
        codes.append(code)
        raise ExitCalled

    monkeypatch.setattr(os, "_exit", fake_exit)
    return codes


def test_run_exits_with_the_code_main_returns(exit_code, capsys):
    with pytest.raises(ExitCalled):
        cli.run(["verify", "--file", PARITY_N3])
    assert exit_code == [cli.EXIT_PROPERTY_VIOLATION]
    assert '"certified": false' in capsys.readouterr().out


@pytest.mark.parametrize("raised, code", [(SystemExit(None), 0), (SystemExit(2), 2)])
def test_run_exits_with_the_code_of_a_system_exit(raised, code, exit_code, monkeypatch):
    def execute(args):
        raise raised

    monkeypatch.setattr(cli, "_execute", execute)
    with pytest.raises(ExitCalled):
        cli.run(PARSED)
    assert exit_code == [code]


@pytest.mark.parametrize("raised", [RuntimeError("boom"), SystemExit("a message")])
def test_run_lets_any_other_exception_through(raised, exit_code, monkeypatch):
    def execute(args):
        raise raised

    monkeypatch.setattr(cli, "_execute", execute)
    with pytest.raises(type(raised)):
        cli.run(PARSED)
    assert exit_code == []


class ClosedStream(io.StringIO):
    """A stream whose reader has gone: every write or flush raises BrokenPipeError."""

    def write(self, text=""):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    flush = write


@pytest.mark.parametrize("argv", [ROUTES["ok"][0], ["--help"]])
def test_main_lets_a_broken_pipe_through(argv, monkeypatch):
    monkeypatch.setattr(sys, "stdout", ClosedStream())
    with pytest.raises(BrokenPipeError):
        cli.main(argv)


@pytest.mark.parametrize("where", ["main", "flush"])
def test_run_ends_a_broken_pipe_with_141(where, exit_code, monkeypatch):
    def execute(args):
        if where == "main":
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")
        return cli.EXIT_OK

    monkeypatch.setattr(cli, "_execute", execute)
    if where == "flush":
        monkeypatch.setattr(sys, "stdout", ClosedStream())
    with pytest.raises(ExitCalled):
        cli.run(PARSED)
    assert exit_code == [cli.EXIT_BROKEN_PIPE]


def test_a_missing_numpy_is_a_resource_error():
    # the commands cannot load: one JSON error line and 3, not a traceback and 1
    script = ("import sys; sys.modules['numpy'] = None\n"
              "from statesieve._front import run; run(['verify', '--n', '3'])")
    proc = fresh(["-c", script], [], subprocess.PIPE)
    assert (proc.returncode, proc.stdout) == (cli.EXIT_VALIDATION, b"")
    [line] = proc.stderr.decode().splitlines()
    assert json.loads(line)["error"]["type"] == "ModuleNotFoundError"


def test_run_reads_another_failed_write_as_a_resource_error(exit_code, monkeypatch, capsys):
    def execute(args):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(cli, "_execute", execute)
    with pytest.raises(ExitCalled):
        cli.run(PARSED)
    assert exit_code == [cli.EXIT_VALIDATION]
    assert json.loads(capsys.readouterr().err) == {"error": {
        "type": "OSError", "message": "[Errno 28] No space left on device"}}
