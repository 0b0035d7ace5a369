#!/usr/bin/env python3
"""Time the sieve's layers in-process and its CLI commands as fresh processes.

    python scripts/bench.py --label baseline            # n = 3, 8 and 10
    python scripts/bench.py --label smoke --n 2 --repeat 1 --out /tmp/BENCH_smoke.json

Layer cases call the library (and `cli.main`) in this process: question
counts, sampling an eigenstate and a random state, measuring a random state,
the enumeration count, the answer codes of the standard system, routing a
standard basis state, `verify` and `simulate --state --sample`.  Once per
run come `verify --n 16 --force`, past the dense-size guard,
`question_count_stats` at n = 3 with 50000 trials (the slowest `stats`
command of the cascade_sample workload), `sample_detections` of a random
n = 3 state with 5 trials, where the fixed cost of seeding a call shows, the
n = 10 sigma-product proposition of `xyyxyyxyyx`, and the CLI case `--help`,
the start-up alone that the benchmark's setup_s times.  CLI cases run the
matching commands as `python -m statesieve ...`, start-up included.  Each
case runs once to warm up, then --repeat times; the best and the median wall
time are recorded with the sha256 of the case's output, which must be the
same on every run.  A layer case then runs once more under tracemalloc, which
records its peak of traced memory in MB (2^20 bytes); that run is not timed.

The result goes to BENCH_<label>.json in the repository root (or --out),
with the machine and software records of benchmarks/run.py.  Two files
taken on two commits compare both speed and sameness.  The script measures
the checkout it sits in: it imports statesieve from that checkout's src/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

import numpy as np  # noqa: E402

import run as harness  # noqa: E402  (benchmarks/run.py)
from statesieve import (answer_codes, measure_state, question_count_stats,  # noqa: E402
                        route_basis_state, sample_detections, sigma_product_proposition,
                        standard_basis, standard_system)
from statesieve.cli import main as cli_main  # noqa: E402

STATS_TRIALS = 2000
SAMPLE_TRIALS = 1000
ENUM_LIMIT = 1000     # n > 3 is enumerated only with a limit
SEED = 42
FORCE_N = 16          # `verify --force` here builds no 2^n x 2^n array
LONG_STATS_TRIALS = 50000
SHORT_SAMPLE_TRIALS = 5
PAULI_AXES = "xyyxyyxyyx"  # the permuted triple's pattern at n = 10


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _random_state(n: int) -> np.ndarray:
    rng = np.random.default_rng(n)
    v = rng.standard_normal(2 ** n) + 1j * rng.standard_normal(2 ** n)
    return v / np.linalg.norm(v)


def _cli_stdout(argv: list[str]) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(argv)
    return f"{code}\n{out.getvalue()}".encode()


def _subprocess_stdout(argv: list[str]) -> bytes:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env.pop("SIEVE_TOL", None)
    proc = subprocess.run([sys.executable, "-m", "statesieve", *argv], env=env,
                          capture_output=True, check=False)
    return f"{proc.returncode}\n".encode() + proc.stdout


def _commands(n: int, state_path: str) -> dict[str, list[str]]:
    limit = [] if n <= 3 else ["--limit", str(ENUM_LIMIT)]
    return {
        "enumerate count": ["enumerate", "--n", str(n), "--count-only", *limit],
        "stats": ["stats", "--n", str(n), "--trials", str(STATS_TRIALS), "--seed", str(SEED)],
        "simulate state sample": ["simulate", "--n", str(n), "--state", state_path,
                                  "--sample", str(SAMPLE_TRIALS), "--seed", str(SEED)],
        "verify": ["verify", "--n", str(n)],
    }


def cases(n: int, state_path: str):
    """(kind, name, function returning the output bytes) for one n."""
    system, dim = standard_system(n), 2 ** n
    eigenstate = np.eye(dim)[dim // 3]
    state = _random_state(n)
    commands = _commands(n, state_path)
    yield "layer", "question_count_stats", lambda: repr(
        question_count_stats(n, STATS_TRIALS, SEED)).encode()
    yield "layer", "sample_detections eigenstate", lambda: json.dumps(
        sample_detections(system, eigenstate, SAMPLE_TRIALS, SEED)).encode()
    yield "layer", "sample_detections random", lambda: json.dumps(
        sample_detections(system, state, SAMPLE_TRIALS, SEED)).encode()
    yield "layer", "measure_state random", lambda: np.array(
        measure_state(system, state).probabilities).tobytes()
    yield "layer", "answer_codes", lambda: answer_codes(system, standard_basis(n)).tobytes()
    yield "layer", "route_basis_state", lambda: repr(
        route_basis_state(system, standard_basis(n), dim // 3 + 1)).encode()
    for name in ("enumerate count", "verify", "simulate state sample"):
        yield "layer", f"cli.main {name}", lambda argv=commands[name]: _cli_stdout(argv)
    for name, argv in commands.items():
        yield "cli", name, lambda argv=argv: _subprocess_stdout(argv)


def peak_mb(fn) -> float:
    """Peak traced memory of one run of fn, in MB (2^20 bytes)."""
    tracemalloc.start()
    try:
        fn()
        return round(tracemalloc.get_traced_memory()[1] / 2 ** 20, 3)
    finally:
        tracemalloc.stop()


def measure(kind: str, fn, repeat: int) -> dict:
    digest = _sha(fn())  # warm-up run
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        out = fn()
        times.append((time.perf_counter() - start) * 1e3)
        if _sha(out) != digest:
            raise RuntimeError("output changed between runs")
    result = {"best_ms": round(min(times), 3), "median_ms": round(statistics.median(times), 3),
              "sha256": digest}
    if kind == "layer":
        result["peak_mb"] = peak_mb(fn)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", default="run")
    parser.add_argument("--n", type=int, nargs="+", default=[3, 8, 10])
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--out", help="output file (default BENCH_<label>.json in the root)")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")

    results = []

    def run_case(kind, name, n, fn):
        result = {"kind": kind, "name": name, "n": n, **measure(kind, fn, args.repeat)}
        results.append(result)
        peak = f"peak {result['peak_mb']:8.3f} MB" if "peak_mb" in result else " " * 16
        size = "-" if n is None else n
        print(f"{kind:5} n={size:<2} {name:30} best {result['best_ms']:10.3f} ms  "
              f"median {result['median_ms']:10.3f} ms  {peak}  {result['sha256'][:12]}")

    with tempfile.TemporaryDirectory() as work:
        for n in args.n:
            path = Path(work) / f"state_n{n}.json"
            path.write_text(json.dumps({"rows": 2 ** n, "cols": 1, "data": [
                [z.real, z.imag] for z in _random_state(n).tolist()]}))
            for kind, name, fn in cases(n, str(path)):
                run_case(kind, name, n, fn)
    run_case("layer", "cli.main verify --force", FORCE_N,
             lambda: _cli_stdout(["verify", "--n", str(FORCE_N), "--force"]))
    system, state = standard_system(3), _random_state(3)
    run_case("layer", f"question_count_stats {LONG_STATS_TRIALS} trials", 3,
             lambda: repr(question_count_stats(3, LONG_STATS_TRIALS, SEED)).encode())
    run_case("layer", f"sample_detections {SHORT_SAMPLE_TRIALS} trials", 3,
             lambda: json.dumps(sample_detections(system, state, SHORT_SAMPLE_TRIALS,
                                                  SEED)).encode())
    run_case("layer", f"sigma_product_proposition {PAULI_AXES}", len(PAULI_AXES),
             lambda: sigma_product_proposition(PAULI_AXES).tobytes())
    run_case("cli", "--help", None, lambda: _subprocess_stdout(["--help"]))

    record = {"label": args.label, "repeat": args.repeat, "ns": args.n,
              "machine": harness.machine_record(), "software": harness.software_record(),
              "cases": results}
    out = Path(args.out) if args.out else ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
