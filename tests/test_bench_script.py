"""scripts/bench.py runs end to end at n = 2 and writes a complete record."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "bench.py"


def bench(out: Path, *extra: str) -> dict:
    proc = subprocess.run([sys.executable, str(SCRIPT), "--label", "smoke", "--n", "2",
                           "--repeat", "1", "--out", str(out), *extra],
                          capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text())


def test_bench_script_at_n_2(tmp_path):
    record = bench(tmp_path / "BENCH_smoke.json")
    assert record["against"] is None
    assert record["label"] == "smoke" and record["ns"] == [2]
    assert {"nproc", "cpu_model"} <= record["machine"].keys()
    assert {"python", "numpy"} <= record["software"].keys()
    cases = {(c["kind"], c["name"]): c for c in record["cases"]}
    assert len(cases) == len(record["cases"]) == 25
    assert all(c["best_ms"] > 0 and len(c["sha256"]) == 64 for c in cases.values())
    assert all(("peak_mb" in c) == (c["kind"] == "layer") for c in cases.values())
    # a cli case's child CPU time (user + sys) comes from getrusage(RUSAGE_CHILDREN)
    for c in cases.values():
        has_cpu = {"cpu_best_ms", "cpu_median_ms"} <= c.keys()
        assert has_cpu == (c["kind"] == "cli")
        assert not has_cpu or 0 < c["cpu_best_ms"] <= c["cpu_median_ms"]
    assert cases["layer", "cli.main verify --force"]["n"] == 16
    assert cases["layer", "cli.main verify --n 18 --force"]["n"] == 18
    assert cases["layer", "cli.main simulate --n 16 --force --index 777"]["n"] == 16
    assert cases["layer", "question_count_stats 50000 trials"]["n"] == 3
    assert cases["layer", "sample_detections 5 trials"]["n"] == 3
    assert cases["layer", "sigma_product_proposition xyyxyyxyyx"]["n"] == 10
    assert cases["layer", "transformed_system random unitary"]["n"] == 8
    assert cases["cli", "--help"]["n"] is None
    # a usage error: exit code 2 and nothing on stdout
    assert cases["cli", "verify --tol x"]["sha256"] == hashlib.sha256(b"2\n").hexdigest()
    assert cases["cli", "verify --n 3"]["n"] == 3
    assert cases["layer", "cli.main partition"]["n"] == 2
    assert cases["layer", "cli.main transform --emit partitions,meet,codes"]["n"] == 2
    # a command prints the same bytes in-process and as a fresh process
    for name in ("enumerate count", "verify", "simulate state sample"):
        assert cases["layer", f"cli.main {name}"]["sha256"] == cases["cli", name]["sha256"]


def test_bench_script_against_head_pairs_every_cli_case(tmp_path):
    if subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                      capture_output=True, check=False).returncode:
        pytest.skip("not a git checkout")
    record = bench(tmp_path / "BENCH_aa.json", "--against", "HEAD")
    assert record["against"]["rev"] == "HEAD" and len(record["against"]["commit"]) == 40
    assert len(record["cases"]) == 25
    for c in record["cases"]:
        if c["kind"] == "layer":  # layer cases run on this checkout only
            assert "against" not in c
            continue
        a = c["against"]
        assert 0 < a["best_ms"] <= a["median_ms"] and 0 < a["cpu_best_ms"]
        assert c["median_ratio"] == round(c["median_ms"] / a["median_ms"], 3)
        assert c["cpu_median_ratio"] > 0
        # the same source on both sides prints the same bytes: the ratios are the noise floor
        assert c["same_sha256"] and a["sha256"] == c["sha256"], c["name"]
