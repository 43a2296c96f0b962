"""Smoke test of the benchmark: each workload at tiny size, in both modes.

    python3 -m pytest bench/test_smoke.py      # from the root of a checkout

Checks the shape of a result, not its numbers: every metric named in
BENCHMARK.json is emitted with its unit, outputs match the seed code,
operation counts do not depend on the seed, and a directory without the
sources is refused.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd: Path, workload: str, trace: int, seed: int = 7) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace):
    done = run_bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], done.stderr
    assert result["attempted"] >= 1
    # Only the 1e18 probe of the screen workload may fail.
    assert result["failed"] <= (1 if workload == "screen" and not trace else 0), done.stderr
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]


def test_operation_counts_do_not_depend_on_the_seed():
    # attempted and failed count operations, so every seed fails the same share.
    counts = set()
    for seed in (7, 8):
        done = run_bench(ROOT, "screen", 0, seed)
        result = json.loads(done.stdout.splitlines()[-1])
        counts.add((result["attempted"], result["failed"]))
    assert len(counts) == 1, counts


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(tmp_path, WORKLOADS[0], 0)
    assert done.returncode != 0
    assert done.stdout == ""
