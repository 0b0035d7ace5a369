"""Closed-loop end-to-end benchmark of the statesieve CLI.

Run from the repository root:

    python3 benchmarks/run.py --workload certify_dense --seed 1 --seconds 30 --trace 0

One client runs a workload's command list in passes.  Every command is a
fresh `python -m statesieve ...` process, and the next one starts only after
the previous one exits, as a researcher or script waiting for each verdict
would.  Every command's exit code and stdout are checked by an oracle that
does not use statesieve (see oracles.py).

--trace 0 reports the end-to-end metrics, with tracing off:
  setup_s      median wall time of a fresh `python -m statesieve --help`,
               sampled before timing and between commands throughout the run
  wall_s       median over passes of the summed wall times of a pass's commands
  cmd_p50_ms   median over commands of each command's median wall time
  cmd_tail_ms  the highest percentile of those per-command times that has at
               least 10 commands above it (percentile and count are printed)
  peak_rss_mb  largest peak RSS of any child process in a pass (median over passes)
  failed_frac  failed commands / attempted commands (printed and recorded;
               the result line carries it as `failed` and `attempted`)

--trace 1 runs one untraced pass for reference hashes, then replays the same
commands in this process through statesieve.cli.main with every public
function wrapped (see spans.py), and reports the per-layer metrics.  Each
replayed command's stdout must hash equal to its untraced run.
trace.overhead_frac is the replay time over the untraced pass time less one
start-up (setup_s) per command, minus 1; it is negative when running in one
process saves more than start-up and tracing costs.  The run record also
holds each layer's share of traced self time and start-up's share of wall_s.

Inputs are generated from --seed under .bench_build/statesieve/, and a run
record (seed, commands, stdout hashes, machine and library versions, all
metrics) is written to .bench_build/statesieve/records/.  The last line of
stdout is the JSON result.  `--scale tiny` shrinks every workload to n <= 3
for the harness self-test (test_harness.py).
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "statesieve"
WORK = ROOT / ".bench_build" / "statesieve"
SETUP_RUNS = 3        # `--help` samples before timing starts ...
SETUP_EVERY = 4       # ... and one before every 4th command, so they span the run
IMPORT_RUNS = 3
COMMAND_TIMEOUT_S = 60    # far above any command today; keeps a hung run under 180 s
TAIL_ABOVE = 10       # samples the tail percentile must leave above it


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("SIEVE_TOL", "PYTHONPATH")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONIOENCODING"] = "utf-8"
    return env


def run_child(argv: list[str], out_path: Path, env: dict) -> dict:
    """Run one process to completion; wall time, exit code and its own peak RSS."""
    with open(out_path, "wb") as out, open(out_path.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=env)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": elapsed, "exit": proc.returncode,
            "timed_out": elapsed >= COMMAND_TIMEOUT_S,
            "rss_mb": usage.ru_maxrss / 1024.0}   # ru_maxrss is in KiB on Linux


def statesieve_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "statesieve", *args]


def run_pass(commands, scratch: Path, env: dict, setup: list[float]) -> dict:
    """One closed-loop pass; each command is checked against its oracle.
    Appends set-up samples to `setup` along the way."""
    results = []
    start = time.perf_counter()
    for i, cmd in enumerate(commands):
        if i % SETUP_EVERY == 0:
            setup.append(help_wall(scratch, env))
        out_path = scratch / f"{cmd.id}.out"
        r = run_child(statesieve_argv(cmd.argv), out_path, env)
        data = out_path.read_bytes()
        errors = []
        if r["timed_out"]:
            errors.append(f"timed out after {COMMAND_TIMEOUT_S} s")
        elif r["exit"] != cmd.exit_code:
            stderr = out_path.with_suffix(".err").read_text(errors="replace")[-300:]
            errors.append(f"exit {r['exit']}, expected {cmd.exit_code}: {stderr}")
        else:
            try:
                errors += cmd.check(data.decode())
            except Exception as e:  # a malformed output must fail its oracle, not the harness
                errors.append(f"oracle raised {type(e).__name__}: {e}")
        r.update(id=cmd.id, sha256=hashlib.sha256(data).hexdigest(),
                 stdout_bytes=len(data), errors=errors)
        results.append(r)
    return {"wall_s": sum(r["wall_s"] for r in results), "commands": results,
            "elapsed_s": time.perf_counter() - start}


def help_wall(scratch: Path, env: dict) -> float:
    """Wall time of a fresh `--help` process: interpreter, imports, parser."""
    return run_child(statesieve_argv(["--help"]), scratch / "help.out", env)["wall_s"]


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_ABOVE samples above."""
    ordered = sorted(values)
    m = len(ordered)
    if m <= TAIL_ABOVE:
        raise ValueError(f"need more than {TAIL_ABOVE} samples for a tail, got {m}")
    return ordered[m - TAIL_ABOVE - 1], 100.0 * (m - TAIL_ABOVE) / m


def end_to_end(passes: list[dict], setup: list[float]) -> tuple[dict, dict]:
    ids = [c["id"] for c in passes[0]["commands"]]
    per_cmd = [statistics.median(p["commands"][i]["wall_s"] for p in passes)
               for i in range(len(ids))]
    tail_s, tail_pct = tail(per_cmd)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "cmd_p50_ms": (statistics.median(per_cmd) * 1e3, "ms"),
        "cmd_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (statistics.median(max(c["rss_mb"] for c in p["commands"])
                                          for p in passes), "MB"),
    }
    extra = {"tail_percentile": tail_pct, "commands_per_pass": len(ids),
             "passes": len(passes),
             "per_command_median_ms": dict(zip(ids, (t * 1e3 for t in per_cmd)))}
    return metrics, extra


def failures(passes: list[dict]) -> dict[str, list[str]]:
    """Oracle failures, plus any command whose stdout changed between passes,
    keyed by the failed command execution."""
    out = {}
    first = {c["id"]: c["sha256"] for c in passes[0]["commands"]}
    for k, p in enumerate(passes):
        for c in p["commands"]:
            errors = list(c["errors"])
            if c["sha256"] != first[c["id"]]:
                errors.append("stdout differs from pass 0")
            if errors:
                out[f"pass {k} {c['id']}"] = errors
    return out


def import_times(env: dict) -> dict:
    """Median cumulative import time (ms) of numpy, and of statesieve without numpy."""
    samples = {"numpy": [], "statesieve": []}
    for _ in range(IMPORT_RUNS):
        err = subprocess.run([sys.executable, "-X", "importtime", "-c", "import statesieve.cli"],
                             cwd=ROOT, env=env, capture_output=True, text=True, check=True).stderr
        cumulative = {}
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) / 1e3
        samples["numpy"].append(cumulative["numpy"])
        samples["statesieve"].append(cumulative["statesieve"] + cumulative["statesieve.cli"]
                                     - cumulative["numpy"])
    return {k: statistics.median(v) for k, v in samples.items()}


def machine_record() -> dict:
    def read(path, default=None):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return default

    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind = read(f"{index}/level"), read(f"{index}/type")
        if level in ("2", "3") and kind != "Instruction":
            caches[f"L{level}"] = read(f"{index}/size")
    cpu = next((line.split(":", 1)[1].strip() for line in (read("/proc/cpuinfo", "")).splitlines()
                if line.startswith("model name")), platform.processor())
    mem = next((line.split(":", 1)[1].strip() for line in (read("/proc/meminfo", "")).splitlines()
                if line.startswith("MemTotal")), None)
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu, "caches": caches,
            "ram": mem, "platform": platform.platform()}


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, left at its default."""
    import ctypes
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def software_record() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = None
    return {"python": sys.version, "numpy": np.__version__, "blas": blas,
            "blas_threads": blas_threads()}


def trace_run(commands, reference: dict, env: dict, seconds: float, started: float,
              setup_s: float, spans_path: Path) -> tuple[dict, dict, dict[str, list[str]], int]:
    """Traced in-process replays until the time is used.  Returns per-layer
    metrics (medians over replays; computed counts must repeat exactly),
    layer shares, failures and the number of commands replayed."""
    sys.path.insert(0, str(ROOT / "src"))
    import statesieve

    failed, replays, per_replay = {}, [], []
    while not replays or time.perf_counter() - started + 0.5 * statistics.median(replays) <= seconds:
        tracer = spans.Tracer()
        results, elapsed = spans.replay(commands, statesieve, tracer)
        for r in results:
            ref = reference[r["id"]]
            if r["error"] or r["exit"] != ref["exit"] or r["sha256"] != ref["sha256"]:
                failed[f"replay {len(replays)} {r['id']}"] = [
                    f"exit {r['exit']} (untraced {ref['exit']}), stdout "
                    f"{'equal' if r['sha256'] == ref['sha256'] else 'differs'}, {r['error']}"]
        replays.append(elapsed)
        per_replay.append(spans.layer_metrics(tracer, commands))
        if len(per_replay) == 1:
            spans.write_spans(tracer, spans_path)
    for m in per_replay[1:]:
        for k in spans.COUNTED:
            if m[k] != per_replay[0][k]:
                failed[f"replay count {k}"] = [f"changed between replays: {per_replay[0][k]} vs {m[k]}"]
    metrics = {k: statistics.median(m[k] for m in per_replay) for k in per_replay[0]}
    metrics["cli.stdout_bytes"] = sum(r["stdout_bytes"] for r in reference.values())
    imports = import_times(env)
    metrics["import.numpy_ms"] = imports["numpy"]
    metrics["import.statesieve_ms"] = imports["statesieve"]
    untraced_s = sum(r["wall_s"] for r in reference.values())
    metrics["trace.overhead_frac"] = (statistics.median(replays)
                                      / (untraced_s - setup_s * len(commands)) - 1)
    shares = {"startup.wall_share": setup_s * len(commands) / untraced_s}
    total = sum(metrics[f"layer.{layer}.self_ms"] for layer in spans.LAYERS)
    for layer in spans.LAYERS:
        shares[f"layer.{layer}.self_share"] = metrics[f"layer.{layer}.self_ms"] / total
    shares["trace.replays"] = len(replays)
    return metrics, shares, failed, len(replays) * len(commands)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    if not (PACKAGE / "cli.py").is_file():
        print(f"statesieve sources not found at {PACKAGE.relative_to(ROOT)}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    label = f"{args.workload}-s{args.seed}-t{args.trace}" + ("-tiny" if args.scale == "tiny" else "")
    scratch = WORK / label
    records = WORK / "records"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    records.mkdir(parents=True, exist_ok=True)
    try:
        commands = workloads.build(args.workload, args.seed, scratch,
                                   str(scratch.relative_to(ROOT)), args.scale == "tiny")
        env = child_env()
        help_wall(scratch, env)  # compiles the bytecode once
        setup = [help_wall(scratch, env) for _ in range(SETUP_RUNS)]
        machine, software = machine_record(), software_record()
        if software["blas_threads"] and software["blas_threads"] > machine["nproc"]:
            print(f"warning: BLAS uses {software['blas_threads']} threads on "
                  f"{machine['nproc']} CPUs", file=sys.stderr)

        started = time.perf_counter()
        passes = [run_pass(commands, scratch, env, setup)]
        if args.trace == 0:
            while (time.perf_counter() - started
                   + 0.5 * statistics.median(p["elapsed_s"] for p in passes)) <= args.seconds:
                passes.append(run_pass(commands, scratch, env, setup))
        failed = failures(passes)
        attempted = sum(len(p["commands"]) for p in passes)
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "scale": args.scale,
                  "machine": machine, "software": software,
                  "setup_runs_s": setup,
                  "commands": [{"id": c.id, "argv": c.argv, "expect_exit": c.exit_code,
                                "sha256": r["sha256"], "stdout_bytes": r["stdout_bytes"]}
                               for c, r in zip(commands, passes[0]["commands"])]}
        if args.trace == 0:
            metrics, extra = end_to_end(passes, setup)
            result = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
            record.update(extra, end_to_end=result, failed_frac=len(failed) / attempted,
                          pass_walls_s=[p["wall_s"] for p in passes],
                          pass_command_walls_s=[[c["wall_s"] for c in p["commands"]]
                                                for p in passes])
            print(f"{args.workload} seed {args.seed}: {extra['passes']} passes of "
                  f"{extra['commands_per_pass']} commands; cmd_tail_ms is the "
                  f"p{extra['tail_percentile']:.1f} of per-command medians")
            for k, (v, u) in metrics.items():
                print(f"  {k:<12} {v:12.4f} {u}")
            print(f"  {'failed_frac':<12} {len(failed) / attempted:12.4f} "
                  f"({len(failed)} of {attempted} commands)")
        else:
            spans_path = records / f"{label}.spans.jsonl"
            layer, shares, trace_failed, replayed = trace_run(
                commands, {r["id"]: r for r in passes[0]["commands"]}, env,
                args.seconds, started, statistics.median(setup), spans_path)
            failed.update(trace_failed)
            attempted += replayed
            result = {k: {"value": layer[k], "unit": unit} for k, (unit, _) in spans.METRICS.items()}
            record.update(per_layer=result, shares=shares,
                          spans=str(spans_path.relative_to(ROOT)))
            print(f"{args.workload} seed {args.seed}: {shares['trace.replays']} traced replays "
                  f"of {len(commands)} commands; spans in {spans_path.relative_to(ROOT)}")
            for k, v in shares.items():
                print(f"  {k:<32} {v:8.4f}")
        record["failures"] = failed
        record_path = records / f"{label}.json"
        record_path.write_text(json.dumps(record, indent=1))
        print(f"run record: {record_path.relative_to(ROOT)}")
        for key, errors in list(failed.items())[:20]:
            print(f"FAILED {key}: {'; '.join(errors)}", file=sys.stderr)
        print(json.dumps({"correct": not failed, "attempted": attempted,
                          "failed": min(len(failed), attempted), "metrics": result}))
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
