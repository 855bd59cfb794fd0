"""Smoke test of the benchmark itself, at tiny input sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric named in BENCHMARK.json is emitted, that the span
self-times of each traced operation sum to no more than its wall time, that
the per-layer counts repeat exactly across two runs with the same seed, and
that the benchmark refuses to run without the package sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# cold-design is runnable but not in BENCHMARK.json (see NOTES.md).
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["cold-design"]
REPEATED_COUNTS = ("kalman.riccati_map.calls", "bounds.feasibility_check.calls",
                   "linmodel.solve_discounted_lyapunov.calls", "channel.RngStream.constructed")


def run(workload: str, trace: int, out: Path, cwd: Path = ROOT, seed: int = 5):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "tiny", "--out", str(out)],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted(workload, tmp_path):
    res = result(run(workload, 0, tmp_path))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert got["value"] > 0.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_trace_counts_repeat_and_self_times_fit(workload, tmp_path):
    first = result(run(workload, 1, tmp_path / "a"))
    second = result(run(workload, 1, tmp_path / "b"))
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert first["metrics"][m["name"]]["unit"] == m["unit"]
    for name, m in first["metrics"].items():
        if m["unit"] == "count":
            assert m["value"] == second["metrics"][name]["value"], name
    assert sum(first["metrics"][name]["value"] for name in REPEATED_COUNTS) > 0

    spans = np.load(tmp_path / "a" / f"spans-{workload}.npz")
    self_time = spans["end"] - spans["start"] - spans["child"]
    per_op = np.bincount(spans["op"][spans["op"] >= 0],
                         weights=self_time[spans["op"] >= 0])
    traced_ops = spans["ops"][spans["ops"]["traced"]]
    assert len(traced_ops) > 0
    for op, t0, t1, _ in traced_ops:
        spent = per_op[op] if op < len(per_op) else 0.0
        assert spent <= (t1 - t0) + 1e-9, (op, spent, t1 - t0)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(WORKLOADS[0], 0, tmp_path / "out", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
