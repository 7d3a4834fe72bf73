"""Shared pieces of the benchmark: run context, tallies, statistics and
the per-layer metric table every workload fills in."""

from __future__ import annotations

import json
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from hostspeed import HostClock
from spans import GridCall, SpanRecorder

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: The seed at which outputs must equal the digests and counts recorded
#: in ``expected.json``.
DEFAULT_SEED = 1


@dataclass
class Tally:
    """Operations attempted and failed, with a note per failure.

    An operation fails if it raised, was refused, was quarantined, did
    not finish, or returned a wrong digest.
    """

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str, count: int = 1) -> None:
        self.attempted += count
        if not ok:
            self.failed += count
            if len(self.problems) < 50:
                self.problems.append(what)

    @property
    def ok_ratio(self) -> float:
        return 1.0 - self.failed / self.attempted if self.attempted else 0.0


@dataclass
class Context:
    """What one benchmark run was asked to do."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    tiny: bool
    workdir: Path
    expected: dict
    clock: HostClock
    #: Every CPU the run may use; a pinned workload runs on the last.
    cpus: tuple[int, ...]
    tally: Tally = field(default_factory=Tally)
    started: float = field(default_factory=time.perf_counter)

    @property
    def at_default_seed(self) -> bool:
        """Whether outputs are compared with ``expected.json``."""
        return self.seed == DEFAULT_SEED and not self.tiny and bool(self.expected)

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def fits(self, step_s: float) -> bool:
        """Whether a step of ``step_s`` seconds still ends in the run's time."""
        return self.elapsed() + step_s <= self.seconds


def load_expected(workload: str) -> dict:
    path = HERE / "expected.json"
    if not path.exists():
        return {}
    return json.loads(path.read_text(encoding="utf-8")).get(workload, {})


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else math.nan


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile, ``q`` in [0, 100]."""
    if not values:
        return math.nan
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low, high = math.floor(rank), math.ceil(rank)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def timed_setup(clock: HostClock, build, repeats: int):
    """Run ``build`` ``repeats`` times; return (median wall seconds, last
    value)."""
    times = []
    value = None
    for _ in range(repeats):
        with clock.timed() as timing:
            value = build()
        times.append(timing.wall_s)
    return median(times), value


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def end_to_end(
    ctx: Context, *, setup_s: float, frames: int, plain_s: float, traced_s: float
) -> dict[str, float]:
    """The end-to-end metrics every workload reports.

    ``setup_s`` is the median set-up, and ``plain_s`` and ``traced_s``
    the time ``frames`` took without and with tracing, all in wall
    seconds; the metrics report them in the clock's reference seconds
    (``hostspeed``).
    """
    return {
        "setup_s": ctx.clock.ref(setup_s),
        "frames_per_s": frames / ctx.clock.ref(plain_s),
        "traced_frames_per_s": frames / ctx.clock.ref(traced_s),
        "peak_rss_mb": peak_rss_mb(),
        "ok_ratio": ctx.tally.ok_ratio,
    }


# -- per-layer metrics ------------------------------------------------------


def exact_counts(encode_results: Iterable, all_results: Iterable) -> dict[str, int]:
    """Integer work counts of one pass; identical on every run of a seed.

    ``encode_results`` holds one result per distinct encode (cells that
    share an encoded stream share its encoder counters);
    ``all_results`` holds every transmitted result.
    """
    encode_results = list(encode_results)
    all_results = list(all_results)
    counts = {
        "encoded_frames": sum(r.n_frames for r in encode_results),
        "sad_blocks": sum(r.counters.sad_blocks for r in encode_results),
        "dct_blocks": sum(r.counters.dct_blocks for r in encode_results),
        "entropy_bits": sum(r.counters.entropy_bits for r in encode_results),
        "pbpair_intra_mbs": 0,
        "pbpair_me_skipped_mbs": 0,
        "decoded_frames": sum(r.n_frames for r in all_results),
        "decoder_idct_blocks": sum(
            r.decoder_counters.idct_blocks for r in all_results
        ),
        "damaged_fragments": sum(r.total_damaged_fragments for r in all_results),
        "packets_sent": sum(r.channel_log.sent for r in all_results),
        "packets_delivered": sum(r.channel_log.delivered for r in all_results),
        "fec_recovered": sum(r.channel_log.fec_recovered for r in all_results),
        "retransmissions": sum(r.channel_log.retransmissions for r in all_results),
    }
    for result in encode_results:
        if result.strategy_name == "PBPAIR":
            counts["pbpair_intra_mbs"] += sum(f.intra_mbs for f in result.frames)
            counts["pbpair_me_skipped_mbs"] += sum(
                f.me_skipped_mbs for f in result.frames
            )
    return counts


def encode_keys(api, specs) -> list[str]:
    """Encode key of every spec.

    Computing a key generates the clip, so specs that differ only on
    the channel side (seed, scenario) share one computation.
    """
    memo: dict = {}
    keys = []
    for spec in specs:
        encode_side = (spec.scheme, spec.plr, tuple(sorted(spec.pbpair_kwargs.items())))
        if encode_side not in memo:
            memo[encode_side] = api.encode_content_hash(spec)
        keys.append(memo[encode_side])
    return keys


def runner_metrics(
    calls: Sequence[GridCall], unique_encodes: int, cells: int
) -> dict[str, float]:
    """Runner metrics: workers' busy share of ``run_grid`` wall x workers,
    the mean wall time per call not covered by job execution, and
    failed or retried cells."""
    busy = sum(o.wall_time_s for call in calls for o in call.outcomes)
    capacity = sum(call.wall_s * call.workers for call in calls)
    overheads = [
        call.wall_s - sum(o.wall_time_s for o in call.outcomes) / call.workers
        for call in calls
    ]
    return {
        "sim.runner.unique_encodes": unique_encodes,
        "sim.runner.cells_per_encode": cells / unique_encodes if unique_encodes else 0.0,
        "sim.runner.worker_busy_share": busy / capacity if capacity else 0.0,
        "sim.runner.dispatch_overhead_s": (
            sum(overheads) / len(overheads) if overheads else 0.0
        ),
        "sim.runner.failed_cells": sum(
            1 for call in calls for o in call.outcomes if not o.ok
        ),
        "sim.runner.retried_cells": sum(
            1 for call in calls for o in call.outcomes if o.attempts > 1
        ),
    }


#: Service metrics of a workload that does not run the daemon.
NO_SERVICE = {
    "service.session_latency_p50_s": 0.0,
    "service.session_latency_p95_s": 0.0,
    "service.submit_ms_p50": 0.0,
    "service.queue_wait_s_p50": 0.0,
    "service.queue_wait_s_p95": 0.0,
    "service.exec_s_p50": 0.0,
    "service.refused": 0,
    "service.generator_lag_s_max": 0.0,
}


def layer_metrics(
    recorder: SpanRecorder,
    counts: dict[str, int],
    *,
    runner: dict[str, float],
    service: dict[str, float],
    trace_overhead_pct: float,
    layer_timing_overhead_pct: float,
    wall_frames_per_s: float,
    kernel_ms: float,
) -> dict[str, float]:
    """Every per-layer metric, from one layer-timing pass and its counts.

    A layer the workload does not exercise in this process reports 0.
    """
    self_s = recorder.self_times()
    wall = recorder.pipeline_wall()
    encoded = recorder.calls("codec.encoder")
    decoded = recorder.calls("codec.decoder")

    def ms_per(layer: str, frames: int) -> float:
        return 1000.0 * self_s.get(layer, 0.0) / frames if frames else 0.0

    def share(layers: Iterable[str]) -> float:
        return sum(self_s.get(layer, 0.0) for layer in layers) / wall if wall else 0.0

    def per(count: str, frames_key: str) -> float:
        frames = counts[frames_key]
        return counts[count] / frames if frames else 0.0

    sent = counts["packets_sent"]
    generate = recorder.durations("video.generate")
    metrics = {
        "video.generate_s": median(generate) if generate else 0.0,
        "codec.encoder.self_ms_per_frame": ms_per("codec.encoder", encoded),
        "codec.encoder.share": share(["codec.encoder"]),
        "codec.motion.self_ms_per_frame": ms_per("codec.motion", encoded),
        "codec.motion.share": share(["codec.motion"]),
        "codec.sad_blocks_per_frame": per("sad_blocks", "encoded_frames"),
        "codec.dct_blocks_per_frame": per("dct_blocks", "encoded_frames"),
        "codec.entropy_bits_per_frame": per("entropy_bits", "encoded_frames"),
        "core.pbpair.self_ms_per_frame": ms_per("core.pbpair", encoded),
        "core.pbpair.me_skipped_mbs": counts["pbpair_me_skipped_mbs"],
        "core.pbpair.intra_mbs": counts["pbpair_intra_mbs"],
        "network.packetize.self_ms_per_frame": ms_per("network.packetize", encoded),
        "network.channel.self_ms_per_frame": ms_per("network.channel", decoded),
        "network.depacketize.self_ms_per_frame": ms_per(
            "network.depacketize", decoded
        ),
        "network.packets_sent": sent,
        "network.loss_rate": (
            1.0 - counts["packets_delivered"] / sent if sent else 0.0
        ),
        "network.protection.fec_recovered": counts["fec_recovered"],
        "network.protection.retransmissions": counts["retransmissions"],
        "codec.decoder.self_ms_per_frame": ms_per("codec.decoder", decoded),
        "codec.decoder.share": share(["codec.decoder"]),
        "codec.decoder.idct_blocks_per_frame": per(
            "decoder_idct_blocks", "decoded_frames"
        ),
        "codec.decoder.damaged_fragments": counts["damaged_fragments"],
        "concealment.self_ms_per_frame": ms_per("concealment", decoded),
        "sim.pipeline.unattributed_share": recorder.unattributed_share(),
        "obs.trace_overhead_pct": trace_overhead_pct,
        "bench.layer_timing_overhead_pct": layer_timing_overhead_pct,
        "bench.wall_frames_per_s": wall_frames_per_s,
        "bench.kernel_ms": kernel_ms,
    }
    metrics.update(runner)
    metrics.update(service)
    return metrics


def overhead_pct(baseline_s: float, measured_s: float) -> float:
    """How much longer ``measured_s`` took than ``baseline_s``, in %."""
    return 100.0 * (measured_s / baseline_s - 1.0) if baseline_s else 0.0


def compare_counts(ctx: Context, counts: dict[str, int]) -> None:
    """At the default seed, every exact count must equal the record."""
    expected = ctx.expected.get("counts") if ctx.at_default_seed else None
    if expected is None:
        return
    for name, value in sorted(expected.items()):
        ctx.tally.record(
            counts.get(name) == value,
            f"count {name}: {counts.get(name)} != recorded {value}",
        )
