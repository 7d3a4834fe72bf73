"""Encode-work reduction from the grid runner's encoded-stream cache.

The paper's figures replicate every (scheme, PLR) cell over several
channel seeds, and the channel only ever sees the *encoded* stream —
so a grid of S schemes x K seeds needs S encodes, not S*K.  This
benchmark runs the replication grid used by ``BENCH_runner.json``
(4 schemes x 4 channel seeds on AKIYO) through the runner's stream
cache and, as the unshared baseline, one plain :func:`run_job` per cell
(no stream cache: the full pipeline), and records:

* the structural reduction — cells per unique encode key, a
  deterministic property of the grid (16 cells / 4 keys = 4.0 here),
  which is what the CI perf gate tracks because it is host-independent;
* measured cold wall times (shared vs unshared) and a warm pass over a
  populated stream cache, for the curious — absolute times do not
  transfer across hosts;
* a results-identical check: sharing must not change a single metric.

Entry points mirror the other benchmarks: run standalone with
``python benchmarks/bench_grid_reuse.py [--out BENCH_grid.json]``, or
under pytest for the reduced-grid correctness checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time

from repro.api import (
    EncodedStreamCache,
    RunnerOptions,
    encode_content_hash,
    run_grid,
    run_job,
)

try:
    from benchmarks.bench_runner_scaling import scaling_grid
except ImportError:  # standalone: python benchmarks/bench_grid_reuse.py
    from bench_runner_scaling import scaling_grid

DEFAULT_FRAMES = 24


def unique_encode_keys(jobs) -> int:
    """Distinct encode-phase cache keys in the grid (deterministic)."""
    return len({encode_content_hash(spec) for spec in jobs})


def _timed_run(jobs, stream_cache) -> tuple[float, list]:
    """The grid through the runner, sharing encodes via ``stream_cache``."""
    start = time.perf_counter()
    outcomes = run_grid(
        jobs,
        options=RunnerOptions(jobs=1, use_cache=False),
        stream_cache=stream_cache,
    )
    elapsed = time.perf_counter() - start
    failures = [o for o in outcomes if not o.ok]
    if failures:
        raise RuntimeError(
            f"{len(failures)} grid cells failed: "
            f"{failures[0].error_type}: {failures[0].message}"
        )
    return elapsed, [o.result for o in outcomes]


def _timed_unshared(jobs) -> tuple[float, list]:
    """The baseline: every cell encodes (run_job without a stream cache)."""
    start = time.perf_counter()
    results = [run_job(spec) for spec in jobs]
    return time.perf_counter() - start, results


def _metrics(results) -> list:
    return [(r.average_psnr_decoder, r.counters, r.energy) for r in results]


def measure(n_frames: int = DEFAULT_FRAMES) -> dict:
    """Unshared baseline, then the shared grid cold, then warm."""
    jobs = scaling_grid(n_frames=n_frames)
    unique = unique_encode_keys(jobs)

    unshared_s, unshared = _timed_unshared(jobs)

    with tempfile.TemporaryDirectory() as tmp:
        cache = EncodedStreamCache(tmp, max_entries=max(unique, 8))
        cold_s, shared = _timed_run(jobs, stream_cache=cache)
        cold_encodes = cache.encodes
        cold_hits = cache.hits
        warm_cache = EncodedStreamCache(tmp, max_entries=max(unique, 8))
        warm_s, rewarmed = _timed_run(jobs, stream_cache=warm_cache)
        warm_encodes = warm_cache.encodes

    identical = (
        _metrics(unshared) == _metrics(shared) == _metrics(rewarmed)
    )
    if not identical:
        raise RuntimeError(
            "stream sharing changed grid results — the cache must be "
            "observation-equivalent to encoding every cell"
        )

    return {
        "benchmark": "grid_reuse",
        "grid": {
            "schemes": ["NO", "GOP-3", "PGOP-3", "PBPAIR"],
            "channel_seeds": [1, 2, 3, 4],
            "plr": 0.1,
            "sequence": "akiyo",
            "n_frames": n_frames,
            "cells": len(jobs),
        },
        "host": {
            "cpu_count": os.cpu_count() or 1,
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "unique_encodes": unique,
        "cells_per_unique_encode": round(len(jobs) / unique, 3),
        "measured_cold_encodes": cold_encodes,
        "measured_cold_hits": cold_hits,
        "measured_warm_encodes": warm_encodes,
        "wall_time_s": {
            "unshared": round(unshared_s, 3),
            "cold_shared": round(cold_s, 3),
            "warm_shared": round(warm_s, 3),
        },
        "cold_speedup_vs_unshared": (
            round(unshared_s / cold_s, 3) if cold_s else None
        ),
        "warm_speedup_vs_unshared": (
            round(unshared_s / warm_s, 3) if warm_s else None
        ),
        "results_identical": identical,
        "note": (
            "cells_per_unique_encode is the gated field: it is a "
            "structural property of the grid (how many cells share each "
            "encode key), deterministic on any host; wall times and "
            "their speedups depend on how much of a cell's cost is the "
            "encoder vs the channel+decoder and do not transfer"
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="measure encode-work reduction from stream sharing"
    )
    parser.add_argument(
        "--out", default=None, help="write the JSON record to this path"
    )
    parser.add_argument(
        "--frames", type=int, default=DEFAULT_FRAMES, help="frames per cell"
    )
    args = parser.parse_args(argv)
    record = measure(n_frames=args.frames)
    rendered = json.dumps(record, indent=2)
    print(rendered)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    return 0


# --- pytest entry points ---------------------------------------------------


def test_grid_shares_one_encode_per_scheme():
    """4 schemes x N seeds collapse to 4 encode keys at any N."""
    jobs = scaling_grid(n_frames=2)
    assert len(jobs) == 16
    assert unique_encode_keys(jobs) == 4
    assert len(jobs) / unique_encode_keys(jobs) >= 4.0


def test_shared_grid_results_identical_on_reduced_grid():
    jobs = scaling_grid(n_frames=2, schemes=("NO", "PBPAIR"), seeds=(1, 2))
    _, unshared = _timed_unshared(jobs)
    cache = EncodedStreamCache()
    _, shared = _timed_run(jobs, stream_cache=cache)
    assert _metrics(unshared) == _metrics(shared)
    assert cache.encodes == 2  # one per scheme, not one per cell


def test_measure_smoke(tmp_path):
    record = measure(n_frames=2)
    assert record["results_identical"] is True
    assert record["cells_per_unique_encode"] >= 4.0
    assert record["measured_cold_encodes"] == record["unique_encodes"]
    assert record["measured_warm_encodes"] == 0


if __name__ == "__main__":
    raise SystemExit(main())
