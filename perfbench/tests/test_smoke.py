"""Smoke test of the benchmark at a tiny size.

Run from the checkout root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable, "perfbench/run.py",
            "--workload", workload, "--seed", "3", "--seconds", "1",
            "--trace", str(trace), "--tiny",
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_listed_metric_is_printed_with_its_unit(workload, trace):
    done = _run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    record = json.loads(lines[-1])
    assert set(record) == {"correct", "attempted", "failed", "metrics"}
    assert record["correct"] is True, lines
    assert record["failed"] == 0
    assert record["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in listed}
    assert {
        name: value["unit"] for name, value in record["metrics"].items()
    } == units
    for name, unit in units.items():
        value = record["metrics"][name]["value"]
        assert isinstance(value, (int, float))
        assert any(
            line.startswith(f"{workload}: {name} = ") and line.endswith(f" {unit}")
            for line in lines
        ), name


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = _run(tmp_path, WORKLOADS[0], 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
