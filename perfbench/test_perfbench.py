"""Tests of the benchmark itself:  python3 -m pytest perfbench -q

- smoke: a tiny run of every workload, plain and traced, emits every
  metric of BENCHMARK.json with its unit, and no op fails on this code;
- negative control: one deliberately wrong expected answer is counted
  as a failed op;
- count repeatability: every count and count-derived ratio of the traced
  run repeats exactly on a second traced run of the same seed.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def bench(workload: str, trace: int, seed: int = 7) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    return {w: bench(w, 1) for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_end_to_end(workload):
    out = bench(workload, 0)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert out["metrics"]["success_ratio"]["value"] == 1.0
    for name, m in out["metrics"].items():
        assert m["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_per_layer(workload, traced):
    out = traced[workload]
    assert out["correct"] is True and out["failed"] == 0
    want = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert 0 < out["metrics"]["trace.overhead_ratio"]["value"]


def test_each_layer_is_reached(traced):
    # Every per-layer metric is nonzero on at least one workload.
    names = [m["name"] for m in BENCH["per_layer"]]
    dead = [n for n in names
            if not any(traced[w]["metrics"][n]["value"] for w in WORKLOADS)]
    assert dead == []


@pytest.mark.parametrize("workload", WORKLOADS)
def test_negative_control_counts_a_failure(workload):
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.1", "--mode", "measure", "--corrupt"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""})
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["bad"].count(True) == 1 and len(out["bad"]) > 1
    assert "want <object object" in out["errors"][0]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_for_a_seed(workload, traced):
    again = bench(workload, 1)
    first = traced[workload]["metrics"]
    counts = [name for name, m in first.items()
              if m["unit"] in ("count", "ratio") and not name.startswith("trace.")]
    assert counts
    for name in counts:
        assert again["metrics"][name]["value"] == first[name]["value"], name
