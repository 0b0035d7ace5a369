#!/usr/bin/env python3
"""Time the sieve's layers in-process and its CLI commands as fresh processes.

    python scripts/bench.py --label baseline            # n = 3, 8 and 10
    python scripts/bench.py --label smoke --n 2 --repeat 1 --out /tmp/BENCH_smoke.json
    python scripts/bench.py --label pair --against HEAD~1  # CLI cases on both trees

Layer cases call the library (and `cli.main`) in this process: question
counts, sampling an eigenstate and a random state, measuring a random state,
the enumeration count, the answer codes of the standard system, routing a
standard basis state, `verify`, `simulate --state --sample`, `partition`
and `transform --emit partitions,meet,codes`, the two commands that print
partitions.  Once per run come `verify --n 16 --force` and
`verify --n 18 --force`, past the
dense-size guard, `simulate --n 16 --force --index 777`, which prints one of
65536 labels, `question_count_stats` at n = 3 with 50000 trials (the
slowest `stats` command of the cascade_sample workload), `sample_detections`
of a random n = 3 state with 5 trials, where the fixed cost of seeding a call
shows, the n = 10 sigma-product proposition of `xyyxyyxyyx`,
`transformed_system` of the n = 8 standard system by a seeded random
256 x 256 unitary, its dense projectors built by the warm-up run, and three CLI
cases: `--help`, the start-up alone that the benchmark's setup_s times,
`verify --tol x`, a usage error (exit 2, nothing on stdout), and
`verify --n 3`, a real command from start to exit.  CLI cases run the
matching commands as `python -m statesieve ...`, start-up included.  Each
case runs once to warm up, then --repeat times; the best and the median wall
time are recorded with the sha256 of the case's output, which must be the
same on every run.  A CLI case also records the best and the median CPU time
(user + sys) of its child process, from getrusage(RUSAGE_CHILDREN) before and
after each run, which a busy host inflates less than wall time.  A layer case
then runs once more under tracemalloc, which records its peak of traced
memory in MB (2^20 bytes); that run is not timed.

The result goes to BENCH_<label>.json in the repository root (or --out),
with the machine and software records of benchmarks/run.py.  The script
measures the checkout it sits in: it imports statesieve from that checkout's
src/.  With --against REV, every CLI case also runs on REV's src/, extracted
by `git archive` into a temporary directory: each round runs both trees, REV
first in even rounds and last in odd ones (A, B, B, A, ...), so drift in the
host's speed falls on both alike.  Such a case keeps this checkout's figures,
adds REV's under "against", the ratios this/REV of the median wall and CPU
times, and whether both printed the same bytes (same_sha256, else OUTPUT
DIFFERS on its line).  Layer cases run on this checkout only.  An A/A run,
--against HEAD on an unchanged tree, shows how far the ratios wander when
nothing changed: a claimed gain must exceed that.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import os
import resource
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
                        standard_basis, standard_system, transformed_system)
from statesieve.cli import main as cli_main  # noqa: E402

STATS_TRIALS = 2000
SAMPLE_TRIALS = 1000
ENUM_LIMIT = 1000     # n > 3 is enumerated only with a limit
SEED = 42
FORCE_N = 16          # `verify --force` here builds no 2^n x 2^n array
LARGE_FORCE_N = 18
FORCE_INDEX = 777
LONG_STATS_TRIALS = 50000
SHORT_SAMPLE_TRIALS = 5
PAULI_AXES = "xyyxyyxyyx"  # the permuted triple's pattern at n = 10
TRANSFORM_N = 8
EMIT = "partitions,meet,codes"  # what certify_dense's transform commands print


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _random_state(n: int) -> np.ndarray:
    rng = np.random.default_rng(n)
    v = rng.standard_normal(2 ** n) + 1j * rng.standard_normal(2 ** n)
    return v / np.linalg.norm(v)


def _random_unitary(n: int) -> np.ndarray:
    rng = np.random.default_rng(n)
    z = rng.standard_normal((2 ** n, 2 ** n)) + 1j * rng.standard_normal((2 ** n, 2 ** n))
    return np.linalg.qr(z)[0]


def _cli_stdout(argv: list[str]) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(argv)
    return f"{code}\n{out.getvalue()}".encode()


def _subprocess_stdout(argv: list[str], src: Path) -> bytes:
    env = {**os.environ, "PYTHONPATH": str(src)}
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
    yield "layer", "cli.main partition", lambda: _cli_stdout(["partition", "--n", str(n)])
    yield "layer", f"cli.main transform --emit {EMIT}", lambda: _cli_stdout(
        ["transform", "--n", str(n), "--emit", EMIT])
    for name, argv in commands.items():
        yield "cli", name, functools.partial(_subprocess_stdout, argv)


def peak_mb(fn) -> float:
    """Peak traced memory of one run of fn, in MB (2^20 bytes)."""
    tracemalloc.start()
    try:
        fn()
        return round(tracemalloc.get_traced_memory()[1] / 2 ** 20, 3)
    finally:
        tracemalloc.stop()


def child_cpu_ms() -> float:
    """User + sys CPU time of this process's waited-for children so far, in ms."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (usage.ru_utime + usage.ru_stime) * 1e3


def measure(kind: str, fns: list, repeat: int) -> list[dict]:
    """One result per function: a warm-up run, then repeat rounds that run
    them in turn, in the order A, B in even rounds and B, A in odd ones."""
    digests = [_sha(fn()) for fn in fns]  # warm-up runs
    times, cpu = [[] for _ in fns], [[] for _ in fns]
    for r in range(repeat):
        for i in (range(len(fns)) if r % 2 == 0 else reversed(range(len(fns)))):
            cpu_start, start = child_cpu_ms(), time.perf_counter()
            out = fns[i]()
            times[i].append((time.perf_counter() - start) * 1e3)
            cpu[i].append(child_cpu_ms() - cpu_start)
            if _sha(out) != digests[i]:
                raise RuntimeError("output changed between runs")
    results = []
    for fn, digest, wall, child in zip(fns, digests, times, cpu):
        result = {"best_ms": round(min(wall), 3), "median_ms": round(statistics.median(wall), 3),
                  "sha256": digest}
        if kind == "layer":
            result["peak_mb"] = peak_mb(fn)
        else:
            result.update(cpu_best_ms=round(min(child), 3),
                          cpu_median_ms=round(statistics.median(child), 3))
        results.append(result)
    return results


def extract_src(rev: str, dest: Path) -> tuple[str, Path]:
    """The commit that rev names, and its src/ tree extracted into dest by git archive."""
    def git(*argv: str) -> bytes:
        return subprocess.run(["git", "-C", str(ROOT), *argv], capture_output=True,
                              check=True).stdout
    commit = git("rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}").decode().strip()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=git("archive", commit, "src"),
                   check=True)
    return commit, dest / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", default="run")
    parser.add_argument("--n", type=int, nargs="+", default=[3, 8, 10])
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--out", help="output file (default BENCH_<label>.json in the root)")
    parser.add_argument("--against", metavar="REV",
                        help="also run every CLI case on REV's src/, paired with this checkout")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")

    results = []
    with tempfile.TemporaryDirectory() as work:
        sources = [ROOT / "src"]
        against = None
        if args.against:
            try:
                commit, src = extract_src(args.against, Path(work))
            except subprocess.CalledProcessError:
                parser.error(f"--against {args.against}: not a commit of {ROOT}")
            against = {"rev": args.against, "commit": commit}
            sources.insert(0, src)

        def run_case(kind, name, n, fn):
            """Time fn; a cli case's fn takes the src/ to run, once per tree in sources."""
            fns = [fn] if kind == "layer" else [functools.partial(fn, src) for src in sources]
            *paired, result = measure(kind, fns, args.repeat)
            result = {"kind": kind, "name": name, "n": n, **result}
            if paired:
                a = paired[0]
                result.update(against=a,
                              median_ratio=round(result["median_ms"] / a["median_ms"], 3),
                              cpu_median_ratio=round(result["cpu_median_ms"]
                                                     / a["cpu_median_ms"], 3),
                              same_sha256=result["sha256"] == a["sha256"])
            results.append(result)
            peak = (f"peak {result['peak_mb']:8.3f} MB" if "peak_mb" in result
                    else f"cpu {result['cpu_median_ms']:9.3f} ms")
            size = "-" if n is None else n
            print(f"{kind:5} n={size:<2} {name:30} best {result['best_ms']:10.3f} ms  "
                  f"median {result['median_ms']:10.3f} ms  {peak}  {result['sha256'][:12]}")
            if paired:
                print(f"{'':10} against {a['median_ms']:10.3f} ms median, ratio "
                      f"{result['median_ratio']:.3f} wall, {result['cpu_median_ratio']:.3f} cpu"
                      + ("" if result["same_sha256"] else "  OUTPUT DIFFERS"))

        for n in args.n:
            path = Path(work) / f"state_n{n}.json"
            path.write_text(json.dumps({"rows": 2 ** n, "cols": 1, "data": [
                [z.real, z.imag] for z in _random_state(n).tolist()]}))
            for kind, name, fn in cases(n, str(path)):
                run_case(kind, name, n, fn)
        run_case("layer", "cli.main verify --force", FORCE_N,
                 lambda: _cli_stdout(["verify", "--n", str(FORCE_N), "--force"]))
        run_case("layer", f"cli.main verify --n {LARGE_FORCE_N} --force", LARGE_FORCE_N,
                 lambda: _cli_stdout(["verify", "--n", str(LARGE_FORCE_N), "--force"]))
        simulate = ["simulate", "--n", str(FORCE_N), "--force", "--index", str(FORCE_INDEX)]
        run_case("layer", f"cli.main {' '.join(simulate)}", FORCE_N,
                 lambda: _cli_stdout(simulate))
        system, state = standard_system(3), _random_state(3)
        run_case("layer", f"question_count_stats {LONG_STATS_TRIALS} trials", 3,
                 lambda: repr(question_count_stats(3, LONG_STATS_TRIALS, SEED)).encode())
        run_case("layer", f"sample_detections {SHORT_SAMPLE_TRIALS} trials", 3,
                 lambda: json.dumps(sample_detections(system, state, SHORT_SAMPLE_TRIALS,
                                                      SEED)).encode())
        run_case("layer", f"sigma_product_proposition {PAULI_AXES}", len(PAULI_AXES),
                 lambda: sigma_product_proposition(PAULI_AXES).tobytes())
        dense, u = standard_system(TRANSFORM_N), _random_unitary(TRANSFORM_N)
        run_case("layer", "transformed_system random unitary", TRANSFORM_N,
                 lambda: b"".join(p.tobytes() for p in transformed_system(u, dense).projectors))
        for name, n in (("--help", None), ("verify --tol x", None), ("verify --n 3", 3)):
            run_case("cli", name, n, functools.partial(_subprocess_stdout, name.split()))

    record = {"label": args.label, "repeat": args.repeat, "ns": args.n,
              "machine": harness.machine_record(), "software": harness.software_record(),
              "against": against, "cases": results}
    out = Path(args.out) if args.out else ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
