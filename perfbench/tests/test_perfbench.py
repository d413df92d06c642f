"""The benchmark's own tests, at tiny sizes.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
import workloads
from matdisc import cli

BENCH = Path(__file__).resolve().parents[1]
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def tiny(name: str) -> workloads.Workload:
    """One block of items, and ladders that start at n = 2 and stop near
    30 reference units."""
    w = workloads.WORKLOADS[name]
    return dataclasses.replace(w, pool_blocks=1, trace_blocks=1, ladder_floor=2, ladder_budget_ref=30.0)


def run_tiny(name, tmp_path, trace=False, seed=3):
    return harness.run(tiny(name), seed, 0.01, trace, tmp_path, setup_reps=1)


def test_workloads_match_spec():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_smoke(name, tmp_path):
    result, record = run_tiny(name, tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for key, metric in result["metrics"].items():
        assert metric["unit"] == units[key]
        assert metric["value"] > 0
    assert record["items"] >= tiny(name).block
    assert len(record["inputs_sha256"]) == 64
    assert record["ladder"][-1]["status"] != "failed"


@pytest.mark.parametrize("name", NAMES)
def test_traced_counts_repeat(name, tmp_path):
    first, _ = run_tiny(name, tmp_path, trace=True)
    second, _ = run_tiny(name, tmp_path, trace=True)
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    counts = [
        {k: v["value"] for k, v in r["metrics"].items() if k.endswith((".calls", ".matrices"))}
        for r in (first, second)
    ]
    assert counts[0] == counts[1]
    assert sum(counts[0].values()) > 0
    assert (tmp_path / f"spans-{name}-s3.jsonl.gz").is_file()


@pytest.mark.parametrize("mode", ["raises", "report_fails"])
def test_failing_item_is_counted(mode, tmp_path, monkeypatch):
    items, _ = workloads.WORKLOADS["sweep"].make_items(3, 1, tmp_path)
    target = items[1]
    real = cli.verify_thm13

    def broken(seed=0, count=300, **kw):
        report = real(seed=seed, count=count, **kw)
        if seed == target:
            if mode == "raises":
                raise RuntimeError("forced failure")
            report["pass"] = False
        return report

    monkeypatch.setattr(cli, "verify_thm13", broken)
    result, record = run_tiny("sweep", tmp_path)
    assert result["failed"] == 1
    assert not result["correct"]
    assert record["failed_ratio"] == 1 / result["attempted"]
    assert record["items"] == len(workloads.SWEEP_CELLS)


def test_refuses_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
