"""Workload ``grid-scenarios``: a cold scheme × scenario fleet.

``api.run_fleet`` over {NO, PGOP-3, PBPAIR} × {bursty-wifi, fec-burst,
handoff, retx-lossy} × 4 replicas on a seeded 30-frame FOREMAN-like
clip, with ``RunnerOptions(jobs=2)`` and a fresh cache directory per
fleet so every fleet is cold.  The 48 cells share 6 encodes, so the
weight sits on the transmit side and on runner fan-out and caching.
The run alternates plain fleets with fleets traced through
``RunnerOptions(trace_dir=...)``; throughput is taken at the median
fleet of each kind, in wall seconds (``hostspeed`` says why).  A
layer-timing run (``--trace 1``) adds a plain and a span-recorded fleet
at ``jobs=1``, so spans stay in this process.
"""

from __future__ import annotations

import tempfile
from contextlib import nullcontext

from common import (
    NO_SERVICE,
    Context,
    compare_counts,
    encode_keys,
    end_to_end,
    exact_counts,
    layer_metrics,
    median,
    overhead_pct,
    runner_metrics,
    timed_setup,
)
from spans import GridObserver, SpanRecorder

#: The fleet's workers keep every CPU busy: times stay in wall seconds.
PINNED = False
SCHEMES = ("NO", "PGOP-3", "PBPAIR")
PACKS = ("bursty-wifi", "fec-burst", "handoff", "retx-lossy")
REPLICAS = 4


def clip_config(api, n_frames: int, seed: int):
    """FOREMAN's parameters (``api.foreman_like``) at a seeded length."""
    return api.SyntheticConfig(
        n_frames=n_frames,
        texture_scale=35.0,
        texture_smoothness=3,
        pan_speed=5.0,
        pan_start_frame=(2 * n_frames) // 3,
        object_radius=30,
        object_motion_amplitude=26.0,
        object_motion_period=30,
        sensor_noise=0.6,
        texture_drift=3.0,
        texture_drift_period=45,
        camera_jitter=0.1,
        seed=seed,
    )


def run(api, ctx: Context):
    n_frames = 4 if ctx.tiny else 30
    packs = PACKS[:2] if ctx.tiny else PACKS
    replicas = 1 if ctx.tiny else REPLICAS
    config = clip_config(api, n_frames, ctx.seed)

    def setup():
        loaded = [api.load_pack(name) for name in packs]
        api.generate_sequence(config, name="foreman")
        return loaded

    setup_s, loaded = timed_setup(ctx.clock, setup, repeats=5)
    cells = len(SCHEMES) * len(loaded) * replicas
    specs = api.fleet_jobs(
        SCHEMES,
        loaded,
        sequence="foreman",
        n_frames=n_frames,
        replicas=replicas,
        base_seed=ctx.seed,
        synthetic=config,
    )
    unique_encodes = len(set(encode_keys(api, specs)))

    reference = dict(ctx.expected["cells"]) if ctx.at_default_seed else {}
    report_reference = {"report": ctx.expected["report"]} if ctx.at_default_seed else {}
    recorder = SpanRecorder()
    observer = GridObserver()
    # mode -> [wall s] per fleet
    walls = {"plain": [], "traced": [], "plain1": [], "layers": []}
    layered_calls = []

    def fleet(mode: str) -> None:
        jobs = 1 if mode in ("plain1", "layers") else 2
        with tempfile.TemporaryDirectory(dir=ctx.workdir) as scratch:
            options = api.RunnerOptions(
                jobs=jobs,
                cache_dir=f"{scratch}/cache",
                trace_dir=f"{scratch}/trace" if mode == "traced" else None,
            )
            # The span sits inside the timing, so the host-speed sample
            # after the fleet stays out of the layer-timed wall.
            span = (
                recorder.span("sim.fleet", trace_id=f"fleet:{len(walls[mode])}")
                if mode == "layers"
                else nullcontext()
            )
            try:
                with ctx.clock.timed() as timing, span:
                    report = api.run_fleet(
                        SCHEMES,
                        loaded,
                        sequence="foreman",
                        n_frames=n_frames,
                        replicas=replicas,
                        base_seed=ctx.seed,
                        synthetic=config,
                        options=options,
                    )
            except Exception as error:  # noqa: BLE001 - counted as failed
                ctx.tally.record(False, f"{mode} fleet: {error!r}", cells)
                return
            walls[mode].append(timing.wall_s)
        expected = report_reference.setdefault("report", report.digest)
        ctx.tally.record(
            report.digest == expected,
            f"{mode} fleet digest {report.digest[:12]} != {expected[:12]}",
        )
        for cell in report.cells:
            key = f"{cell.scheme}|{cell.pack}"
            expected = reference.setdefault(key, cell.digest)
            ctx.tally.record(
                cell.digest == expected,
                f"{mode} cell {key} digest {cell.digest[:12]} != {expected[:12]}",
                cell.replicas,
            )

    def observed(mode: str) -> None:
        if mode == "plain" and ctx.trace and not observer.calls:
            with observer.installed():
                fleet(mode)
        elif mode == "layers":
            layer_observer = GridObserver()
            with recorder.installed(), layer_observer.installed():
                # Workers reuse the clip this process generated; time
                # one generation explicitly.
                api.generate_sequence(config, name="foreman")
                fleet(mode)
            layered_calls.extend(layer_observer.calls)
        else:
            fleet(mode)

    modes = ("plain", "traced", "plain1", "layers") if ctx.trace else ("plain", "traced")
    # Another fleet starts only if it should end in time.
    step_s = 0.0
    cycle = 0
    while cycle == 0 or ctx.fits(step_s):
        for mode in modes:
            if cycle and not ctx.fits(step_s):
                break
            started = ctx.elapsed()
            observed(mode)
            step_s = max(step_s, ctx.elapsed() - started)
        cycle += 1

    frames = cells * n_frames
    details = {
        "cells": reference,
        "report": report_reference.get("report"),
        "unique_encodes": unique_encodes,
        "timings": walls,
        "kernel_ms": ctx.clock.samples,
    }
    if not ctx.trace:
        metrics = end_to_end(
            ctx,
            setup_s=setup_s,
            frames=frames,
            plain_s=median(walls["plain"]),
            traced_s=median(walls["traced"]),
        )
        return metrics, details

    # Counts from the first span-recorded fleet: one result per encode
    # for encoder-side counts, every cell for transmit-side counts.
    outcomes = [o for o in (layered_calls[0].outcomes if layered_calls else []) if o.ok]
    results = [o.result for o in outcomes]
    by_encode = {}
    for key, outcome in zip(encode_keys(api, [o.spec for o in outcomes]), outcomes):
        by_encode.setdefault(key, outcome.result)
    counts = exact_counts(by_encode.values(), results)
    counts["unique_encodes"] = unique_encodes
    compare_counts(ctx, counts)
    recorder.write(ctx.workdir / "spans.jsonl")
    metrics = layer_metrics(
        recorder,
        counts,
        runner=runner_metrics(observer.calls, unique_encodes, cells),
        service=NO_SERVICE,
        trace_overhead_pct=100.0 * (1.0 - median(walls["plain"]) / median(walls["traced"])),
        layer_timing_overhead_pct=overhead_pct(
            median(walls["plain1"]), median(walls["layers"])
        ),
        wall_frames_per_s=frames / median(walls["plain"]),
        kernel_ms=ctx.clock.median_ms,
    )
    details["counts"] = counts
    return metrics, details
