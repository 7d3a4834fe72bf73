"""Unit tests for the CI perf-regression gate (benchmarks/perf_gate.py)."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

GATE = Path(__file__).resolve().parents[1] / "benchmarks" / "perf_gate.py"


def run_gate(tmp_path, baseline, measured, field, extra=()):
    base_path = tmp_path / "baseline.json"
    meas_path = tmp_path / "measured.json"
    base_path.write_text(json.dumps(baseline), encoding="utf-8")
    meas_path.write_text(json.dumps(measured), encoding="utf-8")
    proc = subprocess.run(
        [
            sys.executable,
            str(GATE),
            "--baseline",
            str(base_path),
            "--measured",
            str(meas_path),
            "--field",
            field,
            *extra,
        ],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout


class TestPerfGate:
    def test_within_tolerance_passes(self, tmp_path):
        code, out = run_gate(
            tmp_path, {"speedup": 4.0}, {"speedup": 3.2}, "speedup"
        )
        assert code == 0
        assert "OK" in out

    def test_improvement_passes(self, tmp_path):
        code, _ = run_gate(
            tmp_path, {"speedup": 4.0}, {"speedup": 9.0}, "speedup"
        )
        assert code == 0

    def test_regression_fails(self, tmp_path):
        code, out = run_gate(
            tmp_path, {"speedup": 4.0}, {"speedup": 2.9}, "speedup"
        )
        assert code == 1
        assert "REGRESSION" in out

    def test_tolerance_is_configurable(self, tmp_path):
        code, _ = run_gate(
            tmp_path,
            {"speedup": 4.0},
            {"speedup": 2.9},
            "speedup",
            extra=("--tolerance", "0.5"),
        )
        assert code == 0

    def test_dotted_field_path(self, tmp_path):
        code, _ = run_gate(
            tmp_path,
            {"after": {"encode_fps": 100.0}},
            {"after": {"encode_fps": 95.0}},
            "after.encode_fps",
        )
        assert code == 0

    def test_missing_field_is_a_config_error(self, tmp_path):
        code, out = run_gate(tmp_path, {"speedup": 4.0}, {}, "speedup")
        assert code == 2
        assert "could not compare" in out

    def test_ceiling_skip_when_baseline_unreachable(self, tmp_path):
        """A 4x baseline cannot regress on a 1-core host: skip, not fail."""
        code, out = run_gate(
            tmp_path,
            {"speedup_vs_serial": {"4": 3.8}},
            {"speedup_vs_serial": {"4": 1.0}, "parallel_ceiling": {"4": 1}},
            "speedup_vs_serial.4",
            extra=("--ceiling-field", "parallel_ceiling.4"),
        )
        assert code == 0
        assert "SKIP" in out

    def test_ceiling_within_reach_still_gates(self, tmp_path):
        code, out = run_gate(
            tmp_path,
            {"speedup_vs_serial": {"4": 3.8}},
            {"speedup_vs_serial": {"4": 1.1}, "parallel_ceiling": {"4": 4}},
            "speedup_vs_serial.4",
            extra=("--ceiling-field", "parallel_ceiling.4"),
        )
        assert code == 1
        assert "REGRESSION" in out

    def test_missing_ceiling_field_is_a_config_error(self, tmp_path):
        code, out = run_gate(
            tmp_path,
            {"speedup": 4.0},
            {"speedup": 4.0},
            "speedup",
            extra=("--ceiling-field", "parallel_ceiling.4"),
        )
        assert code == 2
        assert "could not compare" in out

    def test_committed_baselines_carry_the_gated_fields(self):
        repo = GATE.parents[1]
        entropy = json.loads(
            (repo / "BENCH_entropy.json").read_text(encoding="utf-8")
        )
        blocks = json.loads(
            (repo / "BENCH_blocks.json").read_text(encoding="utf-8")
        )
        assert entropy["combined_encode_decode_speedup"] > 0
        assert entropy["vld_speedup_vs_sequential"] > 1.0
        assert blocks["combined_block_speedup"] > 0
        grid = json.loads(
            (repo / "BENCH_grid.json").read_text(encoding="utf-8")
        )
        assert grid["cells_per_unique_encode"] >= 4.0
        assert grid["results_identical"] is True
        runner = json.loads(
            (repo / "BENCH_runner.json").read_text(encoding="utf-8")
        )
        for workers, speedup in runner["speedup_vs_serial"].items():
            # committed ratios honor the clamp: no speedup above the
            # host's physical parallelism ceiling
            assert speedup <= runner["parallel_ceiling"][workers]
