"""Workload ``simulate-foreman``: the paper's Figure 5 setup.

``api.simulate`` on a seeded FOREMAN-like QCIF clip of 90 frames for
NO, PGOP-3 and PBPAIR (``intra_th=0.92``, ``plr=0.1``) over frame-
granular ``UniformLoss(0.1)``.  Each scheme runs plain, then under an
``api.Tracer`` (the ``repro simulate --trace`` path), round after round
until the run's time is up.  Throughput is taken at each scheme's
median call, in reference seconds (``hostspeed``).  A
layer-timing run (``--trace 1``) adds a call under the span recorder
after each traced one.
"""

from __future__ import annotations

from common import (
    NO_SERVICE,
    Context,
    compare_counts,
    end_to_end,
    exact_counts,
    layer_metrics,
    median,
    overhead_pct,
    runner_metrics,
    timed_setup,
)
from spans import SpanRecorder

#: One simulate call runs on one CPU: the run is pinned to it.
PINNED = True
SCHEMES = ("NO", "PGOP-3", "PBPAIR")
PBPAIR_KWARGS = {"intra_th": 0.92, "plr": 0.1}
PLR = 0.1


def _simulate(api, clip, scheme: str, seed: int):
    kwargs = PBPAIR_KWARGS if scheme == "PBPAIR" else {}
    return api.simulate(
        clip,
        strategy=api.make_strategy(scheme, **kwargs),
        loss_model=api.UniformLoss(PLR, seed=seed),
    )


def run(api, ctx: Context):
    n_frames = 6 if ctx.tiny else 90
    setup_s, clip = timed_setup(
        ctx.clock, lambda: api.foreman_like(n_frames, seed=ctx.seed), repeats=5
    )
    reference = (
        dict(ctx.expected["digests"]) if ctx.at_default_seed else {}
    )
    recorder = SpanRecorder()
    # mode -> scheme -> [wall s] per call
    calls = {"plain": {}, "traced": {}, "layers": {}}
    layered_results = []

    def one_call(mode: str, scheme: str, number: int) -> None:
        try:
            with ctx.clock.timed() as timing:
                if mode == "plain":
                    result = _simulate(api, clip, scheme, ctx.seed)
                elif mode == "traced":
                    tracer = api.Tracer(trace_id=f"{scheme} {clip.name}")
                    with api.use_tracer(tracer):
                        result = _simulate(api, clip, scheme, ctx.seed)
                else:
                    with recorder.span(
                        "sim.simulate", trace_id=f"simulate:{scheme}:{number}"
                    ):
                        result = _simulate(api, clip, scheme, ctx.seed)
        except Exception as error:  # noqa: BLE001 - counted as failed
            ctx.tally.record(False, f"{mode} {scheme}: {error!r}")
            return
        calls[mode].setdefault(scheme, []).append(timing.wall_s)
        if mode == "layers" and number == 0:
            layered_results.append(result)
        digest = api.session_result_digest(result)
        expected = reference.setdefault(scheme, digest)
        ctx.tally.record(
            digest == expected,
            f"{mode} {scheme} digest {digest[:12]} != {expected[:12]}",
        )

    # Plain, traced and layer-timed calls of one scheme run back to
    # back, so each pair sees the same state of the host.
    modes = ("plain", "traced", "layers") if ctx.trace else ("plain", "traced")
    # Another scheme's calls start only if they should end in time.
    step_s = 0.0
    cycle = 0
    while cycle == 0 or ctx.fits(step_s):
        for scheme in SCHEMES:
            if cycle and not ctx.fits(step_s):
                break
            started = ctx.elapsed()
            for mode in modes:
                if mode == "layers":
                    with recorder.installed():
                        if cycle == 0 and scheme == SCHEMES[0]:
                            # Time one clip generation under the recorder.
                            api.foreman_like(n_frames, seed=ctx.seed)
                        one_call(mode, scheme, cycle)
                else:
                    one_call(mode, scheme, cycle)
            step_s = max(step_s, ctx.elapsed() - started)
        cycle += 1

    def median_round(mode: str) -> float:
        """Wall seconds of one round at each scheme's median call."""
        return sum(median(per_call) for per_call in calls[mode].values())

    frames = n_frames * len(SCHEMES)
    if not ctx.trace:
        metrics = end_to_end(
            ctx,
            setup_s=setup_s,
            frames=frames,
            plain_s=median_round("plain"),
            traced_s=median_round("traced"),
        )
        return metrics, {
            "digests": reference, "timings": calls, "kernel_ms": ctx.clock.samples
        }

    counts = exact_counts(layered_results, layered_results)
    compare_counts(ctx, counts)
    recorder.write(ctx.workdir / "spans.jsonl")
    metrics = layer_metrics(
        recorder,
        counts,
        runner=runner_metrics([], 0, 0),
        service=NO_SERVICE,
        trace_overhead_pct=100.0 * (1.0 - median_round("plain") / median_round("traced")),
        layer_timing_overhead_pct=overhead_pct(
            median_round("plain"), median_round("layers")
        ),
        wall_frames_per_s=frames / median_round("plain"),
        kernel_ms=ctx.clock.median_ms,
    )
    return metrics, {
        "digests": reference,
        "counts": counts,
        "timings": calls,
        "kernel_ms": ctx.clock.samples,
    }
