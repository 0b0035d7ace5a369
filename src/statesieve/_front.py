"""The `statesieve` entry point, `run`, and its argument parser, in a module that
loads no numpy: `--help` and usage errors end here.  Only a command that parsed
imports `cli`, which runs it.

Exit codes: 0 success, 1 a verified property failed, 2 usage errors,
3 validation/resource errors, 141 stdout or stderr closed by its reader.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import NoReturn, Sequence

from ._catalog import BASIS_KEYS

EXIT_OK = 0
EXIT_PROPERTY_VIOLATION = 1
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE: how a C tool ends when its reader goes away


def _tolerance(text: str, source: str) -> float:
    """Parse a tolerance, which must be a finite number >= 0."""
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"{source} must be a finite number >= 0, got {text!r}")
    return tol


def _tol_arg(text: str) -> float:
    try:
        return _tolerance(text, "--tol")
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _count_arg(flag: str):
    """An argparse type for `flag`: an integer >= 0, else a usage error naming the flag."""
    def parse(text: str) -> int:
        if not text.strip().isdecimal():
            raise argparse.ArgumentTypeError(f"{flag} must be an integer >= 0, got {text!r}")
        return int(text)
    return parse


class _Parser(argparse.ArgumentParser):
    """Help and usage text let a failed write through to `run`, as command output
    does; argparse's own drops it on 3.11.  Subparsers are of the same class."""

    def _print_message(self, message, file=None):
        if message:
            (file or sys.stderr).write(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="statesieve",
        description="Construct, verify, transform, enumerate, and simulate "
                    "minimal yes-no proposition systems over 2^n states.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default="json")
    common.add_argument("--tol", type=_tol_arg, default=None,
                        help="comparison tolerance (default 1e-10 or SIEVE_TOL)")
    common.add_argument("--force", action="store_true",
                        help="override resource guards")

    def sized_parent(n: int | None) -> argparse.ArgumentParser:
        """--n (default n) and --basis; subparsers share a parent's actions, defaults too."""
        parent = argparse.ArgumentParser(add_help=False)
        parent.add_argument("--n", type=int, default=n, help="number of particles")
        parent.add_argument("--basis", choices=BASIS_KEYS, default="standard")
        return parent

    sized = sized_parent(3)

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", parents=[common, sized],
                       help="construct a proposition system")
    p.add_argument("--perm", help="comma list: 1-based target position of each column")

    p = sub.add_parser("verify", parents=[common, sized_parent(None)],
                       help="certify projectors, requirements, separation")
    p.add_argument("--perm")
    p.add_argument("--file", help="verify a system from a JSON file instead")

    p = sub.add_parser("transform", parents=[common, sized],
                       help="conjugate the system into a named basis")
    p.add_argument("--perm")
    p.add_argument("--emit", default="projectors,partitions",
                   help="comma list from projectors,partitions,codes,basis,unitary,meet")

    p = sub.add_parser("enumerate", parents=[common],
                       help="stream the N! equivalent diagonal systems")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--limit", type=_count_arg("--limit"), default=None)
    p.add_argument("--count-only", action="store_true")

    p = sub.add_parser("partition", parents=[common, sized],
                       help="partitions induced on the basis, their meet "
                            "(transform --emit partitions,meet)")
    p.add_argument("--perm")
    p.set_defaults(emit="partitions,meet")

    p = sub.add_parser("simulate", parents=[common, sized],
                       help="route a basis state or measure an arbitrary one")
    p.add_argument("--index", type=int, help="1-based basis state to route")
    p.add_argument("--state", help="JSON vector file to measure")
    p.add_argument("--sample", type=_count_arg("--sample"), default=0,
                   help="also draw this many sequential-measurement samples")
    p.add_argument("--seed", type=_count_arg("--seed"), default=0)

    p = sub.add_parser("stats", parents=[common],
                       help="question counts: naive strategy vs the sieve")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--trials", type=_count_arg("--trials"), default=10000)
    p.add_argument("--seed", type=_count_arg("--seed"), default=0)
    p.add_argument("--infer-last", action="store_true",
                   help="do not count the logically forced final question")

    p = sub.add_parser("pauli", parents=[common],
                       help="sigma-product propositions from an axis string")
    which = p.add_mutually_exclusive_group()
    which.add_argument("--axes", help="one of x/y/z per particle, e.g. xyy")
    which.add_argument("--cereceda", action="store_true",
                       help="emit the permuted xyy/yxy/yyx triple")

    p = sub.add_parser("minimality", parents=[common],
                       help="why n-1 propositions cannot separate 2^n states")
    p.add_argument("--n", type=int, default=2)

    return parser


def run(argv: Sequence[str] | None = None) -> NoReturn:
    """Parse argv once and run the command as `cli.main` does; end the process with
    its code, or that of argparse's SystemExit for --help and usage errors, once the
    output is flushed: os._exit skips the interpreter's teardown, so atexit handlers
    do not run (statesieve has none).  Any write to a stream whose reader has gone
    ends it with 141, any other failed write (a full disk) with 3; other exceptions
    propagate as usual."""
    try:
        try:
            args = build_parser().parse_args(argv)
            from . import cli  # the commands, and numpy
            code = cli._execute(args)
        except SystemExit as e:
            if not (e.code is None or isinstance(e.code, int)):
                raise
            code = e.code or EXIT_OK
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:
        code = EXIT_BROKEN_PIPE
    except OSError as e:
        from .cli import _report
        code = _report(e)
    os._exit(code)
