"""Tiny-size smoke run of every workload through the benchmark harness."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402

SPECS = harness.metric_specs()


@pytest.mark.parametrize("workload", sorted(harness.WORKLOADS))
def test_every_metric_printed_with_unit_and_no_errors(workload, tmp_path):
    out = harness.measure(workload, 0, 0.2, False, scale="tiny", workdir=tmp_path / "w")
    result = out["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == SPECS["end_to_end"]
    assert all(v["value"] > 0 for v in result["metrics"].values())
    lines = out["lines"]
    assert "# reference recorded for this seed" in lines
    assert any(line.startswith("error_rate: 0.0000 ") for line in lines)
    for name, unit in SPECS["end_to_end"].items():
        assert any(line.startswith(f"{name}: ") and line.endswith(f" {unit}") for line in lines)


@pytest.mark.parametrize("workload", sorted(harness.WORKLOADS))
def test_traced_run_reports_layers_and_repeatable_counts(workload, tmp_path):
    runs = [harness.measure(workload, 0, 0.2, True, scale="tiny", workdir=tmp_path / f"w{k}")
            for k in range(2)]
    for out in runs:
        assert out["result"]["correct"]
        assert {k: v["unit"] for k, v in out["result"]["metrics"].items()} == SPECS["per_layer"]
    counts = [{k: v["value"] for k, v in out["result"]["metrics"].items() if v["unit"] == "count"}
              for out in runs]
    assert counts[0] == counts[1]
    assert counts[0]["trace.spans"] > 0
    assert (tmp_path / "traces" / f"{workload}-seed0.jsonl.gz").is_file()


def test_refuses_to_run_without_the_program_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ccm_pairs", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
    with pytest.raises(json.JSONDecodeError):
        json.loads(proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "")
