"""Command-line front end: build, verify, transform, enumerate, partition,
simulate, stats, and pauli subcommands with JSON (default) or text output.

Exit codes: 0 success, 1 a verified property failed, 2 usage errors,
3 validation/resource errors, 141 stdout closed by its reader.  SIEVE_TOL
overrides the default tolerance; an explicit --tol wins over the environment.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import TYPE_CHECKING, Any, Sequence

from ._catalog import BASIS_KEYS
# linalg loads numpy, which benchmarks/run.py times inside `import statesieve.cli`
from .linalg import DEFAULT_TOL

if TYPE_CHECKING:
    from .bases import Basis, NamedUnitary
    from .systems import PropositionSystem

# Each command imports the modules it calls when it runs, so a process pays
# only for those: `--help` loads no library module but linalg, `verify` no
# sieve or paulis, `stats` no bases or paulis.

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


def _resolve_tol(args) -> float:
    if args.tol is not None:
        return args.tol
    env = os.environ.get("SIEVE_TOL")
    if env:
        return _tolerance(env, "SIEVE_TOL")
    return DEFAULT_TOL


def _count_arg(flag: str):
    """An argparse type for `flag`: an integer >= 0, else a usage error naming the flag."""
    def parse(text: str) -> int:
        if not text.strip().isdecimal():
            raise argparse.ArgumentTypeError(f"{flag} must be an integer >= 0, got {text!r}")
        return int(text)
    return parse


def _read_json(path: str, decode):
    """decode(the JSON value in path); nesting too deep to parse is a ValueError naming it."""
    try:
        with open(path) as fh:
            return decode(json.load(fh))
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply to decode") from None


def _parse_perm(text: str) -> list[int]:
    try:
        targets = [int(x) for x in text.split(",")]
    except ValueError as e:
        raise ValueError(f"--perm must be a comma list of integers: {text!r}") from e
    return [t - 1 for t in targets]  # CLI positions are 1-based


def _build_system(args, tol: float) -> tuple[PropositionSystem, Basis, NamedUnitary | None]:
    """Diagonal (optionally permuted) system in the chosen basis, the basis, its unitary."""
    from .bases import named_basis, transformed_system
    from .systems import permute_system, standard_system
    basis, unitary = named_basis(args.basis, args.n, tol, force=args.force)
    system = standard_system(args.n, force=args.force)
    if getattr(args, "perm", None):
        system = permute_system(system, _parse_perm(args.perm), tol)
    if unitary is not None:
        system = transformed_system(unitary, system, tol)
    return system, basis, unitary


def _check_dense_limit(args, n: int) -> None:
    """pauli and minimality build dense matrices, and --force does not lift their
    n <= MAX_N guard: name that limit rather than advise --force."""
    from .systems import MAX_N
    if n > MAX_N:
        raise ValueError(f"{args.command} is limited to n <= {MAX_N}, even with --force; "
                         f"got n = {n}")


def _fmt_complex(z: complex) -> str:
    if z.imag == 0:
        return f"{z.real:.6g}"
    return f"{z.real:.6g}{z.imag:+.6g}i"


def _render_text(obj: Any, indent: str = "") -> str:
    """Aligned-text rendering of the JSON structures this tool emits."""
    if isinstance(obj, dict):
        if set(obj) == {"rows", "cols", "data"}:
            from . import jsonio
            m = jsonio.matrix_from_json(obj)
            cells = [[_fmt_complex(m[r, c]) for c in range(m.shape[1])]
                     for r in range(m.shape[0])]
            width = max((len(s) for row in cells for s in row), default=1)
            return "\n".join(
                indent + "  ".join(s.rjust(width) for s in row) for row in cells)
        if set(obj) == {"ground", "blocks"}:
            return indent + " ".join(
                "{" + ",".join(str(i) for i in b) + "}" for b in obj["blocks"])
        lines = []
        for key, value in obj.items():
            if isinstance(value, (dict, list)):
                lines.append(f"{indent}{key}:")
                lines.append(_render_text(value, indent + "  "))
            else:
                lines.append(f"{indent}{key}: {value}")
        return "\n".join(lines)
    if isinstance(obj, list):
        if all(isinstance(x, str) for x in obj):  # one per line; an empty list reads []
            return "\n".join(indent + x for x in obj) or indent + "[]"
        if all(not isinstance(x, (dict, list)) for x in obj):
            return indent + " ".join(str(x) for x in obj)
        return "\n\n".join(_render_text(x, indent + "  ") for x in obj)
    return indent + str(obj)


def _emit(args, payload: Any) -> None:
    if args.format == "text":
        print(_render_text(payload))
    else:
        print(json.dumps(payload, indent=2, allow_nan=False))


def _cmd_build(args) -> int:
    from . import jsonio
    tol = _resolve_tol(args)
    system, _, _ = _build_system(args, tol)
    payload = jsonio.system_to_json(system)
    payload["basis"] = args.basis
    _emit(args, payload)
    return EXIT_OK


def _cmd_verify(args) -> int:
    from . import jsonio
    from .bases import standard_basis
    from .systems import verify_system
    tol = _resolve_tol(args)
    if args.file:
        system = _read_json(args.file, jsonio.system_from_json)
        basis = standard_basis(system.n, force=args.force)
    else:
        # named_basis certifies a catalog unitary at tol; the standard basis is exact
        system, basis, _ = _build_system(args, tol)

    failures, report, separating = verify_system(system, basis, tol)
    payload = jsonio.requirement_report_to_json(report) if report is not None else {}
    payload["certified"] = not failures
    payload["separates"] = separating
    payload["failures"] = failures
    _emit(args, payload)
    return EXIT_OK if not failures else EXIT_PROPERTY_VIOLATION


def _cmd_transform(args) -> int:
    from . import jsonio
    from .partitions import Partition, is_atomic
    from .systems import answer_codes
    tol = _resolve_tol(args)
    system, basis, unitary = _build_system(args, tol)
    wanted = [w.strip() for w in args.emit.split(",") if w.strip()]
    known = {"projectors", "partitions", "codes", "basis", "unitary", "meet"}
    unknown = set(wanted) - known
    if unknown:
        raise ValueError(f"unknown --emit items {sorted(unknown)}; choose from {sorted(known)}")
    if not wanted:
        raise ValueError(f"--emit needs at least one of {sorted(known)}")
    payload: dict[str, Any] = {"n": args.n, "basis": args.basis}
    if "projectors" in wanted:
        payload["projectors"] = [jsonio.matrix_to_json(p) for p in system.projectors]
    if {"partitions", "meet", "codes"} & set(wanted):
        codes = answer_codes(system, basis, tol)
    if "partitions" in wanted:
        payload["partitions"] = [jsonio.partition_to_json(Partition.from_codes(column))
                                 for column in codes.T]
    if "meet" in wanted:
        m = Partition.from_codes(codes)
        payload["meet"] = jsonio.partition_to_json(m)
        payload["atomic"] = is_atomic(m)
    if "codes" in wanted:
        payload["codes"] = [{"state": k, "bits": bits}
                            for k, bits in enumerate(codes.tolist(), start=1)]
    if "basis" in wanted:
        payload["basis_states"] = jsonio.basis_to_json(basis)
    if "unitary" in wanted:
        payload["unitary"] = (jsonio.matrix_to_json(unitary.matrix)
                              if unitary is not None else None)
    _emit(args, payload)
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    from .systems import count_systems, enumerate_systems
    if args.count_only:
        payload: dict[str, Any] = {
            "n": args.n, "count": count_systems(args.n, limit=args.limit, force=args.force)}
    else:
        from . import jsonio
        systems_json = [jsonio.system_to_json(system) for system in
                        enumerate_systems(args.n, limit=args.limit, force=args.force)]
        payload = {"n": args.n, "count": len(systems_json), "systems": systems_json}
    _emit(args, payload)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    from . import jsonio
    from .sieve import measure_and_sample, measure_state, route_basis_state, sample_detections
    tol = _resolve_tol(args)
    system, basis, _ = _build_system(args, tol)
    if (args.index is None) == (args.state is None):
        raise ValueError("simulate needs exactly one of --index or --state")
    if args.index is not None:
        if not 1 <= args.index <= basis.size:
            raise ValueError(f"--index must be in 1..{basis.size}, got {args.index}")
        state = basis.vector(args.index)
        outcome = route_basis_state(system, basis, args.index, tol)
        payload: dict[str, Any] = jsonio.outcome_to_json(outcome)
        payload["state"] = basis.labels[args.index - 1]
        if args.sample:
            counts = sample_detections(system, state, args.sample, args.seed, tol)
    else:
        state = _read_json(args.state, jsonio.vector_from_json)
        if args.sample:  # one branch-weight tree for both
            dist, counts = measure_and_sample(system, state, args.sample, args.seed, tol)
        else:
            dist = measure_state(system, state, tol)
        payload = jsonio.distribution_to_json(dist)
    if args.sample:
        payload["sample"] = {"trials": args.sample, "seed": args.seed,
                             "counts": counts}
    _emit(args, payload)
    return EXIT_OK


def _cmd_stats(args) -> int:
    from . import jsonio
    from .sieve import question_count_stats
    summary = question_count_stats(args.n, args.trials, args.seed,
                                   infer_last=args.infer_last, force=args.force)
    _emit(args, [jsonio.stats_to_json(summary.naive),
                 jsonio.stats_to_json(summary.sieve)])
    return EXIT_OK


def _cmd_pauli(args) -> int:
    from . import jsonio
    from .paulis import CERECEDA_AXES, cereceda_system, normalize_axes, sigma_product_proposition
    from .systems import certify_system
    tol = _resolve_tol(args)
    if args.cereceda:
        system = cereceda_system()
        payload = jsonio.system_to_json(system)
        payload["axes"] = list(CERECEDA_AXES)
        failures = certify_system(system, tol)
        payload["certified"] = not failures
        _emit(args, payload)
        return EXIT_OK if not failures else EXIT_PROPERTY_VIOLATION
    if not args.axes:
        raise ValueError("pauli needs --axes or --cereceda")
    axes = normalize_axes(args.axes)
    _check_dense_limit(args, len(axes))
    p = sigma_product_proposition(axes)
    payload = {"axes": args.axes, "proposition": jsonio.matrix_to_json(p)}
    _emit(args, payload)
    return EXIT_OK


def _cmd_minimality(args) -> int:
    from . import jsonio
    from .systems import minimality_certificate
    _check_dense_limit(args, args.n)
    report = minimality_certificate(args.n)
    _emit(args, jsonio.minimality_report_to_json(report))
    return EXIT_OK if report.ok else EXIT_PROPERTY_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="statesieve",
        description="Construct, verify, transform, enumerate, and simulate "
                    "minimal yes-no proposition systems over 2^n states.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default="json")
    common.add_argument("--tol", type=_tol_arg, default=None,
                        help="comparison tolerance (default 1e-10 or SIEVE_TOL)")
    common.add_argument("--force", action="store_true",
                        help="override resource guards")

    sized = argparse.ArgumentParser(add_help=False)
    sized.add_argument("--n", type=int, default=3, help="number of particles")
    sized.add_argument("--basis", choices=BASIS_KEYS, default="standard")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", parents=[common, sized],
                       help="construct a proposition system")
    p.add_argument("--perm", help="comma list: 1-based target position of each column")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("verify", parents=[common, sized],
                       help="certify projectors, requirements, separation")
    p.add_argument("--perm")
    p.add_argument("--file", help="verify a system from a JSON file instead")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("transform", parents=[common, sized],
                       help="conjugate the system into a named basis")
    p.add_argument("--perm")
    p.add_argument("--emit", default="projectors,partitions",
                   help="comma list from projectors,partitions,codes,basis,unitary,meet")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("enumerate", parents=[common],
                       help="stream the N! equivalent diagonal systems")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--limit", type=_count_arg("--limit"), default=None)
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("partition", parents=[common, sized],
                       help="partitions induced on the basis, their meet "
                            "(transform --emit partitions,meet)")
    p.add_argument("--perm")
    p.set_defaults(func=_cmd_transform, emit="partitions,meet")

    p = sub.add_parser("simulate", parents=[common, sized],
                       help="route a basis state or measure an arbitrary one")
    p.add_argument("--index", type=int, help="1-based basis state to route")
    p.add_argument("--state", help="JSON vector file to measure")
    p.add_argument("--sample", type=_count_arg("--sample"), default=0,
                   help="also draw this many sequential-measurement samples")
    p.add_argument("--seed", type=_count_arg("--seed"), default=0)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("stats", parents=[common],
                       help="question counts: naive strategy vs the sieve")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--trials", type=_count_arg("--trials"), default=10000)
    p.add_argument("--seed", type=_count_arg("--seed"), default=0)
    p.add_argument("--infer-last", action="store_true",
                   help="do not count the logically forced final question")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("pauli", parents=[common],
                       help="sigma-product propositions from an axis string")
    p.add_argument("--axes", help="one of x/y/z per particle, e.g. xyy")
    p.add_argument("--cereceda", action="store_true",
                   help="emit the permuted xyy/yxy/yyx triple")
    p.set_defaults(func=_cmd_pauli)

    p = sub.add_parser("minimality", parents=[common],
                       help="why n-1 propositions cannot separate 2^n states")
    p.add_argument("--n", type=int, default=2)
    p.set_defaults(func=_cmd_minimality)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that closed the pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # what is still buffered goes nowhere, so the flush at exit raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (ValueError, OSError, MemoryError) as e:
        error = {"error": {"type": type(e).__name__, "message": str(e)}}
        print(json.dumps(error), file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
