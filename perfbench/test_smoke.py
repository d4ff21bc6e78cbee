"""Smoke test of the benchmark at tiny input sizes.

    python3 -m pytest perfbench/test_smoke.py

Checks that every metric BENCHMARK.json names is printed with its unit,
that two traced runs of one seed give identical digests and per-layer
counts, and that the benchmark refuses to run without the program sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _fp:
    BENCH = json.load(_fp)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run_bench(workload: str, trace: int, cwd: str = ROOT):
    cmd = BENCH["command"][1:] + [
        "--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", str(trace), "--tiny",
    ]
    return subprocess.run([sys.executable] + cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), [line for line in lines if line.startswith("digest ")]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_printed_with_its_unit(workload):
    result, digests = parse(run_bench(workload, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert digests
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_of_one_seed_repeat_exactly(workload):
    first, first_digests = parse(run_bench(workload, 1))
    second, second_digests = parse(run_bench(workload, 1))
    units = {name: m["unit"] for name, m in first["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert first_digests and first_digests == second_digests
    for name, unit in units.items():
        if unit in ("count", "ratio"):
            assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["inference.windows"]["value"] > 0
    assert first["metrics"]["trackeval.nw_cells"]["value"] > 0


def test_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(WORKLOADS[0], 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
