"""Command-line front end: build, verify, transform, enumerate, partition,
simulate, stats, and pauli subcommands with JSON (default) or text output.

`main` resolves the tolerance once for every command: --tol, else SIEVE_TOL,
else DEFAULT_TOL.  `main(argv)` returns the exit code; the parser, the codes, the
error line and the entry point `run` live in the numpy-free `_front`, re-exported here.
"""

from __future__ import annotations

import json
import os
import sys
from typing import TYPE_CHECKING, Any, Sequence

from ._catalog import EMIT_ITEMS
from ._front import (EXIT_BROKEN_PIPE, EXIT_OK, EXIT_PROPERTY_VIOLATION,  # noqa: F401
                     EXIT_USAGE, EXIT_VALIDATION, _report, _tolerance, build_parser, run)

# OpenBLAS's idle workers spin 2^28 cycles before they sleep; 2^20 is enough. A set value wins.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "20")
# only so that `import statesieve.cli` loads numpy, which benchmarks/run.py times in it
from .linalg import DEFAULT_TOL

if TYPE_CHECKING:
    from .bases import Basis, NamedUnitary
    from .systems import PropositionSystem

# Each command imports the modules it calls when it runs, so a process pays
# only for those: `verify` loads no sieve or paulis, `stats` no bases or paulis.
# `--help` and usage errors end in `_front`, before this module and numpy load.


def _read_json(path: str, decode):
    """decode(the JSON value in path); UTF-8 text that does not parse is a ValueError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return decode(json.load(fh))
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply to decode") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise ValueError(f"{path}: not valid JSON: {e}") from None


def _parse_perm(text: str, dim: int) -> list[int]:
    """The 0-based targets of a --perm list, which must name each of 1..dim once."""
    try:
        targets = [int(x) for x in text.split(",")]
    except ValueError as e:
        raise ValueError(f"--perm must be a comma list of integers: {text!r}") from e
    seen = set()
    for t in targets:
        if not 1 <= t <= dim:
            raise ValueError(f"--perm targets must be in 1..{dim}, got {t}")
        if t in seen:
            raise ValueError(f"--perm repeats target {t}; each of 1..{dim} must appear once")
        seen.add(t)
    if len(targets) != dim:
        raise ValueError(f"--perm must list {dim} targets, got {len(targets)}")
    return [t - 1 for t in targets]  # CLI positions are 1-based


def _build_system(args) -> tuple[PropositionSystem, Basis, NamedUnitary | None]:
    """Diagonal (optionally permuted) system in the chosen basis, the basis, its unitary."""
    from .bases import named_basis, transformed_system
    from .systems import permute_system, standard_system
    basis, unitary = named_basis(args.basis, args.n, args.tol, force=args.force)
    system = standard_system(args.n, force=args.force)
    if getattr(args, "perm", None) is not None:
        system = permute_system(system, _parse_perm(args.perm, system.dim), args.tol)
    if unitary is not None:
        system = transformed_system(unitary, system, args.tol)
    return system, basis, unitary


def _check_dense(n: int) -> None:
    """Refuse an output of N x N numbers past MAX_N, --force or not, with no override hint."""
    from .systems import _check_n
    _check_n(n, force=True, ceiling="MAX_N")


def _fmt_complex(re: float, im: float) -> str:
    if im == 0:
        return f"{re:.6g}"
    return f"{re:.6g}{im:+.6g}i"


def _render_text(obj: Any, indent: str = "") -> str:
    """Aligned-text rendering of the JSON structures this tool emits."""
    if isinstance(obj, dict):
        if set(obj) == {"rows", "cols", "data"}:  # row-major [re, im] pairs
            cells = [_fmt_complex(re, im) for re, im in obj["data"]]
            width = max(map(len, cells))
            cols = obj["cols"]
            return "\n".join(indent + "  ".join(s.rjust(width) for s in cells[r:r + cols])
                             for r in range(0, len(cells), cols))
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


def _render(args, payload: Any) -> str:
    if args.format == "text":
        return _render_text(payload)
    return json.dumps(payload, indent=2, allow_nan=False)


def _cmd_build(args) -> tuple[Any, int]:
    from . import jsonio
    _check_dense(args.n)
    system, _, _ = _build_system(args)
    return {**jsonio.system_to_json(system), "basis": args.basis}, EXIT_OK


def _cmd_verify(args) -> tuple[Any, int]:
    from . import jsonio
    from .bases import standard_basis
    from .systems import verify_system
    if args.file:
        for flag, given in (("--n", args.n is not None), ("--perm", args.perm is not None),
                            ("--basis", args.basis != "standard")):
            if given:
                raise ValueError(f"verify --file takes no {flag}: it verifies the file's "
                                 "system as stored, in the standard basis")
        system = _read_json(args.file, jsonio.system_from_json)
        basis = standard_basis(system.n, force=args.force)
    else:
        if args.n is None:  # None only so that --file can refuse a given --n
            args.n = 3
        # named_basis certifies a catalog unitary at tol; the standard basis is exact
        system, basis, _ = _build_system(args)

    failures, report, separating = verify_system(system, basis, args.tol)
    payload = jsonio.requirement_report_to_json(report) if report is not None else {}
    payload.update(certified=not failures, separates=separating, failures=failures)
    return payload, EXIT_OK if not failures else EXIT_PROPERTY_VIOLATION


def _cmd_transform(args) -> tuple[Any, int]:
    from . import jsonio
    from .systems import _code_blocks, answer_codes
    wanted = [w.strip() for w in args.emit.split(",") if w.strip()]
    unknown = sorted(set(wanted).difference(EMIT_ITEMS))
    if unknown:
        raise ValueError(f"unknown --emit items {unknown}; choose from {sorted(EMIT_ITEMS)}")
    if not wanted:
        raise ValueError(f"--emit needs at least one of {sorted(EMIT_ITEMS)}")
    if {"projectors", "basis"} & set(wanted):  # N x N amplitudes each
        _check_dense(args.n)
    system, basis, unitary = _build_system(args)
    payload: dict[str, Any] = {"n": args.n, "basis": args.basis}
    if "projectors" in wanted:
        payload["projectors"] = [jsonio.matrix_to_json(p) for p in system.projectors]
    if {"partitions", "meet", "codes"} & set(wanted):
        codes = answer_codes(system, basis, args.tol)
    if "partitions" in wanted:
        payload["partitions"] = [jsonio.partition_to_json(len(codes), _code_blocks(column))
                                 for column in codes.T]
    if "meet" in wanted:
        payload["meet"] = jsonio.partition_to_json(len(codes), _code_blocks(codes))
        payload["atomic"] = len(payload["meet"]["blocks"]) == len(codes)
    if "codes" in wanted:
        payload["codes"] = [{"state": k, "bits": bits}
                            for k, bits in enumerate(codes.tolist(), start=1)]
    if "basis" in wanted:
        payload["basis_states"] = jsonio.basis_to_json(basis)
    if "unitary" in wanted:
        payload["unitary"] = (jsonio.matrix_to_json(unitary.matrix)
                              if unitary is not None else None)
    return payload, EXIT_OK


def _cmd_enumerate(args) -> tuple[Any, int]:
    from .systems import count_systems, enumerate_systems
    if args.count_only:
        payload: dict[str, Any] = {
            "n": args.n, "count": count_systems(args.n, limit=args.limit, force=args.force)}
    else:
        from . import jsonio
        _check_dense(args.n)
        systems_json = [jsonio.system_to_json(system) for system in
                        enumerate_systems(args.n, limit=args.limit, force=args.force)]
        payload = {"n": args.n, "count": len(systems_json), "systems": systems_json}
    return payload, EXIT_OK


def _cmd_simulate(args) -> tuple[Any, int]:
    from . import jsonio
    from .sieve import measure_and_sample, measure_state, route_basis_state, sample_detections
    if (args.index is None) == (args.state is None):
        raise ValueError("simulate needs exactly one of --index or --state")
    system, basis, _ = _build_system(args)
    if args.index is not None:
        if not 1 <= args.index <= basis.size:
            raise ValueError(f"--index must be in 1..{basis.size}, got {args.index}")
        outcome = route_basis_state(system, basis, args.index, args.tol)
        payload: dict[str, Any] = jsonio.outcome_to_json(outcome)
        payload["state"] = basis.label(args.index)
        if args.sample:
            counts = sample_detections(system, basis.vector(args.index), args.sample, args.seed)
    else:
        state = _read_json(args.state, jsonio.vector_from_json)
        if args.sample:  # one branch-weight tree for both
            dist, counts = measure_and_sample(system, state, args.sample, args.seed, args.tol)
        else:
            dist = measure_state(system, state, args.tol)
        payload = jsonio.distribution_to_json(dist)
    if args.sample:
        payload["sample"] = {"trials": args.sample, "seed": args.seed,
                             "counts": counts}
    return payload, EXIT_OK


def _cmd_stats(args) -> tuple[Any, int]:
    from . import jsonio
    from .sieve import question_count_stats
    summary = question_count_stats(args.n, args.trials, args.seed,
                                   infer_last=args.infer_last, force=args.force)
    return [jsonio.stats_to_json(summary.naive), jsonio.stats_to_json(summary.sieve)], EXIT_OK


def _cmd_pauli(args) -> tuple[Any, int]:
    from . import jsonio
    from .paulis import CERECEDA_AXES, cereceda_system, normalize_axes, sigma_product_proposition
    from .systems import certify_system
    if args.cereceda:
        system = cereceda_system()
        failures = certify_system(system, args.tol)
        payload = {**jsonio.system_to_json(system), "axes": list(CERECEDA_AXES),
                   "certified": not failures}
        return payload, EXIT_OK if not failures else EXIT_PROPERTY_VIOLATION
    if args.axes is None:
        raise ValueError("pauli needs --axes or --cereceda")
    axes = normalize_axes(args.axes)
    _check_dense(len(axes))
    p = sigma_product_proposition(axes)
    return {"axes": args.axes, "proposition": jsonio.matrix_to_json(p)}, EXIT_OK


def _cmd_minimality(args) -> tuple[Any, int]:
    from . import jsonio
    from .systems import minimality_certificate
    _check_dense(args.n)
    report = minimality_certificate(args.n)
    return (jsonio.minimality_report_to_json(report),
            EXIT_OK if report.ok else EXIT_PROPERTY_VIOLATION)



_COMMANDS = {"build": _cmd_build, "verify": _cmd_verify, "transform": _cmd_transform,
             "enumerate": _cmd_enumerate, "partition": _cmd_transform,
             "simulate": _cmd_simulate, "stats": _cmd_stats, "pauli": _cmd_pauli,
             "minimality": _cmd_minimality}


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command; an error writing its output (BrokenPipeError too) propagates."""
    return _execute(build_parser().parse_args(argv))


def _execute(args) -> int:
    """main's work once argv has parsed; `run` calls it too."""
    try:
        if args.tol is None:
            env = os.environ.get("SIEVE_TOL")
            args.tol = _tolerance(env, "SIEVE_TOL") if env else DEFAULT_TOL
        payload, code = _COMMANDS[args.command](args)
        text = _render(args, payload)  # a NaN in the payload is a ValueError here
    except (ValueError, OSError, MemoryError) as e:
        return _report(e)
    print(text)  # the one write of command output
    return code


if __name__ == "__main__":  # so that `run` finds this module and does not load it again
    sys.modules["statesieve.cli"] = sys.modules[__name__]
    run()
