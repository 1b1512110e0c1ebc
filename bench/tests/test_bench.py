"""Smoke tests for the benchmark itself.

Run from the repository root:  python3 -m pytest bench/tests -q

They run shrunken (``--tiny``) versions of every workload in both modes,
check the shape of the last output line against BENCHMARK.json, and
check the comparison rule of compare.py on made-up numbers.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_workload_passes_every_check(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed}
    for m in result["metrics"].values():
        assert type(m["value"]) in (int, float)
        if not trace:
            assert m["value"] > 0


def test_trace_reproduces_known_hot_spots():
    proc = bench("--workload", "dhcp-churn", "--seed", "3", "--seconds", "1",
                 "--trace", "1", "--tiny")
    metrics = {k: v["value"] for k, v in json.loads(proc.stdout.splitlines()[-1])["metrics"].items()}
    # Every event is DHCP, so the anomaly layer never evaluates a baseline.
    assert metrics["anomaly.exceeded_calls"] == 0
    assert metrics["dhcp.decode_message_calls"] > 0
    assert metrics["pipeline.fingerprint_calls"] > 0


def test_metric_and_workload_names_are_plain():
    listed = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"] + SPEC["workloads"]]
    assert len(listed) == len(set(listed))
    names = listed + list(run.E2E_METRICS) + list(run.LAYER_METRICS)
    assert all(NAME.fullmatch(name) for name in names)


def test_benchmark_json_matches_the_workload_table():
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "mixed-600", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_compare_verdicts():
    parent = [100.0 + i for i in range(10)]
    assert compare.verdict(parent, [v * 1.5 for v in parent], "higher", 0.1)[0] == "improved"
    assert compare.verdict(parent, [v * 0.5 for v in parent], "higher", 0.1)[0] == "worse"
    assert compare.verdict(parent, [v * 1.01 for v in parent], "higher", 0.1)[0] == "unchanged"
    noisy = [50.0, 150.0] * 5
    assert compare.verdict(noisy, [v * 0.95 for v in noisy], "higher", 0.1)[0] == "unresolved"
    # A lower-is-better count that drops in every pair is an improvement.
    assert compare.verdict([10.0] * 10, [5.0] * 10, "lower", None) == ("improved", 10)
