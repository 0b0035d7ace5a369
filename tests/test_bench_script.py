"""scripts/bench.py runs end to end at n = 2 and writes a complete record."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench.py"


def test_bench_script_at_n_2(tmp_path):
    out = tmp_path / "BENCH_smoke.json"
    proc = subprocess.run([sys.executable, str(SCRIPT), "--label", "smoke", "--n", "2",
                           "--repeat", "1", "--out", str(out)],
                          capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(out.read_text())
    assert record["label"] == "smoke" and record["ns"] == [2]
    assert {"nproc", "cpu_model"} <= record["machine"].keys()
    assert {"python", "numpy"} <= record["software"].keys()
    cases = {(c["kind"], c["name"]): c for c in record["cases"]}
    assert len(cases) == len(record["cases"]) == 18
    assert all(c["best_ms"] > 0 and len(c["sha256"]) == 64 for c in cases.values())
    assert all(("peak_mb" in c) == (c["kind"] == "layer") for c in cases.values())
    assert cases["layer", "cli.main verify --force"]["n"] == 16
    assert cases["layer", "question_count_stats 50000 trials"]["n"] == 3
    assert cases["layer", "sample_detections 5 trials"]["n"] == 3
    assert cases["layer", "sigma_product_proposition xyyxyyxyyx"]["n"] == 10
    assert cases["cli", "--help"]["n"] is None
    # a command prints the same bytes in-process and as a fresh process
    for name in ("enumerate count", "verify", "simulate state sample"):
        assert cases["layer", f"cli.main {name}"]["sha256"] == cases["cli", name]["sha256"]
