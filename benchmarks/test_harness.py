"""Self-test of the benchmark harness at tiny scale (n <= 3, few trials).

Run from the repository root (about a minute; not part of the tier-1 suite):

    python -m pytest benchmarks/test_harness.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_reports_every_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in SPEC["per_layer"]] == list(spans.METRICS)


def test_inputs_repeat_for_a_seed(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    first.mkdir()
    second.mkdir()
    for workload in workloads.WORKLOADS:
        a = workloads.build(workload, 5, first, "x", tiny=True)
        b = workloads.build(workload, 5, second, "x", tiny=True)
        assert [c.argv for c in a] == [c.argv for c in b]
    for path in first.iterdir():
        assert path.read_bytes() == (second / path.name).read_bytes()


def test_oracles_reject_wrong_answers():
    n, perm = 2, [2, 0, 3, 1]
    good = {"partitions": oracles.expected_partitions(n, perm),
            "meet": oracles.atomic_partition(4), "atomic": True,
            "codes": [{"state": k + 1, "bits": bits}
                      for k, bits in enumerate(oracles.code_bits(n, perm))]}
    assert oracles.transform(json.dumps(good), n, perm) == []
    swapped = dict(good, codes=[dict(c) for c in good["codes"]])
    swapped["codes"][0]["bits"], swapped["codes"][1]["bits"] = (
        swapped["codes"][1]["bits"], swapped["codes"][0]["bits"])
    assert oracles.transform(json.dumps(swapped), n, perm)
    stats = [{"strategy": "naive", "n": 3, "trials": 100, "seed": 0, "mean": 7.5, "max": 8},
             {"strategy": "sieve", "n": 3, "trials": 100, "seed": 0, "mean": 3.0, "max": 3}]
    assert oracles.stats(json.dumps(stats), 3, 100, 0)


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "paper_small", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
