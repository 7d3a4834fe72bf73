"""Workload ``service-open``: sessions through ``repro serve``.

Each daemon runs in its own process with its defaults (batch 8, one
dispatcher, runner ``jobs=1``) on a free local port, with a fresh queue
and cache directory.  Sessions use tiny 64×48×8 clips across the three
session classes of ``benchmarks/bench_service.py``, each with its own
channel seed.  One client thread in this process, with one connection at
a time, drives the daemons:

* bursts of three full batches, plain and traced alternating, on a pair
  of daemons, one plain and one started with ``--trace-dir``.  Each pair
  gets one untimed warm-up chunk and the same four timed bursts, then is
  drained; fresh pairs follow until the run's time is up, so each pair
  repeats one measurement from an empty queue.  A burst's drain time
  runs from its first claim to its last finish; the drain rate is over
  every timed burst of every pair;
* in a layer-timing run (``--trace 1``) only, first an open loop at a
  fixed 10 sessions/s, well under the drain rate, on a daemon of its
  own: session ``i`` is due at ``i / 10`` s and is sent then, or as soon
  as the generator catches up, however slow the daemon gets.  Latency
  runs from the due time to the daemon's finish time; the generator's
  lag is reported.  The open loop feeds per-layer metrics only.

Set-up is the median of the daemon launches, each timed until
``/v1/health`` answers.  Times are reported in reference seconds
(``hostspeed``).  Every daemon is drained and must exit cleanly.
Every session's digest must equal a batch ``run_grid`` of its spec.  A
layer-timing run also repeats the first bursts through two in-process
daemons (``api.start_daemon``), one untimed as the baseline and one
under the span recorder.
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import time
from contextlib import ExitStack, contextmanager
from pathlib import Path

from common import (
    ROOT,
    Context,
    compare_counts,
    encode_keys,
    end_to_end,
    exact_counts,
    layer_metrics,
    median,
    overhead_pct,
    percentile,
    runner_metrics,
)
from spans import GridObserver, SpanRecorder

#: The daemons (one executor thread each) and the client share one
#: CPU: the run is pinned to it, and the daemons inherit the pinning.
PINNED = True
#: (session class, scheme, priority), as in ``bench_service.py``.
SESSION_CLASSES = (
    ("interactive", "NO", 2),
    ("standard", "PBPAIR", 1),
    ("bulk", "GOP-3", 0),
)
OPEN_RATE = 10.0
CLIP_FRAMES = 8
#: Sessions per timed burst: three of ``repro serve``'s default batches
#: of 8, one per session class (claims go by priority).
BURST_SESSIONS = 24
#: Timed bursts per daemon, after one untimed warm-up chunk.
BURSTS_PER_DAEMON = 4


def make_submits(api, seed: int, first: int, count: int) -> list:
    clip = api.SyntheticConfig(
        width=64,
        height=48,
        n_frames=CLIP_FRAMES,
        texture_scale=30.0,
        object_radius=10,
        object_motion_amplitude=10.0,
        object_motion_period=8,
        seed=seed,
    )
    config = api.SimulationConfig(codec=api.CodecConfig(width=64, height=48), mtu=200)
    submits = []
    for index in range(first, first + count):
        session_class, scheme, priority = SESSION_CLASSES[index % len(SESSION_CLASSES)]
        spec = api.JobSpec(
            scheme=scheme,
            plr=0.1,
            channel_seed=seed * 1_000_000 + index,
            sequence="bench",
            synthetic=clip,
            config=config,
            pbpair_kwargs={"intra_th": 0.9} if scheme == "PBPAIR" else {},
        )
        submits.append(
            api.JobSubmit(spec=spec, priority=priority, session_class=session_class)
        )
    return submits


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class DaemonProcess:
    """One ``python -m repro serve`` child, stopped on exit."""

    def __init__(self, api, directory: Path, clock, traced: bool = False) -> None:
        self.api = api
        self.directory = directory
        self.clock = clock
        self.traced = traced
        self.process = None
        self.client = None
        self.launch_s = 0.0

    def __enter__(self) -> "DaemonProcess":
        self.directory.mkdir(parents=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
        )
        for _attempt in range(3):
            port = _free_port()
            command = [
                sys.executable, "-m", "repro", "serve",
                "--queue-dir", str(self.directory / "queue"),
                "--port", str(port),
                "--cache-dir", str(self.directory / "cache"),
            ]
            if self.traced:
                command += ["--trace-dir", str(self.directory / "trace")]
            with self.clock.timed() as timing:
                up = self._launch(command, env, port)
            if up:
                self.launch_s = timing.wall_s
                return self
            self._stop()  # the port was taken, or the daemon hung
        raise RuntimeError(f"daemon did not come up; see {self.directory / 'serve.log'}")

    def _launch(self, command: list[str], env: dict, port: int) -> bool:
        """Start the daemon; whether ``/v1/health`` answered in time."""
        start = time.perf_counter()
        with open(self.directory / "serve.log", "ab") as log:
            self.process = subprocess.Popen(
                command, cwd=self.directory, env=env,
                stdout=log, stderr=subprocess.STDOUT,
            )
        self.client = self.api.ServiceClient(f"http://127.0.0.1:{port}", timeout=30.0)
        while self.process.poll() is None and time.perf_counter() - start < 60:
            try:
                self.client.health()
            except self.api.ServiceClientError:
                time.sleep(0.005)
                continue
            return True
        return False

    def drain(self) -> bool:
        """Drain the queue and wait for a clean exit."""
        self.client.drain()
        try:
            return self.process.wait(timeout=60) == 0
        except subprocess.TimeoutExpired:
            return False

    def _stop(self) -> None:
        if self.process is not None and self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()

    def __exit__(self, *exc_info) -> None:
        self._stop()


def wait_finished(client, job_ids, timeout: float) -> dict:
    """Wait until every job is terminal; return id -> final status.

    Polls one unfinished job's status (one record read) rather than the
    routes that read every job record, so waiting adds no load that
    grows with the daemon's history; the full listing is read only once
    the probed job has finished.
    """
    deadline = time.perf_counter() + timeout
    done: dict = {}
    while len(done) < len(job_ids) and time.perf_counter() < deadline:
        probe = next(job_id for job_id in reversed(job_ids) if job_id not in done)
        if not client.status(probe).terminal:
            time.sleep(0.05)
            continue
        wanted = set(job_ids)
        done = {s.job_id: s for s in client.jobs() if s.job_id in wanted and s.terminal}
    return done


def open_loop(api, client, submits, ctx: Context) -> dict:
    """Send ``submits`` on a fixed schedule; return what happened."""
    now_perf, now_wall = time.perf_counter(), time.time()
    first_due = now_perf + 0.1
    job_ids, due_wall, lags, submit_s = [], [], [], []
    refused = 0
    for index, submit in enumerate(submits):
        due = first_due + index / OPEN_RATE
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        sent = time.perf_counter()
        lags.append(sent - due)
        try:
            job_ids.append(client.submit(submit, max_wait_s=0.0)[0])
        except api.ServiceBusy:
            refused += 1
            job_ids.append(None)
            ctx.tally.record(False, f"open session {index} refused")
        except api.ServiceClientError as error:
            job_ids.append(None)
            ctx.tally.record(False, f"open session {index}: {error}")
        submit_s.append(time.perf_counter() - sent)
        due_wall.append(now_wall + (due - now_perf))
    return {
        "job_ids": job_ids,
        "due_wall": due_wall,
        "lags": lags,
        "submit_s": submit_s,
        "refused": refused,
    }


def burst(api, client, submits, ctx: Context, label: str) -> tuple[list, float]:
    """Submit everything at once; return (job ids, seconds draining).

    The time runs from the first claim to the last finish, so the
    dispatcher's idle poll before the first claim does not count.
    """
    try:
        job_ids = client.submit(submits, max_wait_s=0.0)
    except api.ServiceClientError as error:
        ctx.tally.record(False, f"{label} burst: {error}", len(submits))
        return [None] * len(submits), float("nan")
    statuses = wait_finished(client, job_ids, timeout=120).values()
    starts = [s.started_at for s in statuses if s.started_at is not None]
    ends = [s.finished_at for s in statuses if s.finished_at is not None]
    if len(ends) < len(job_ids) or not starts:
        return job_ids, float("nan")
    return job_ids, max(ends) - min(starts)


def collect(api, client, job_ids, ctx: Context, label: str) -> dict:
    """Final status and result of every session that was accepted."""
    live = [job_id for job_id in job_ids if job_id is not None]
    statuses = wait_finished(client, live, timeout=120)
    results = {}
    for job_id in live:
        status = statuses.get(job_id)
        if status is None or not status.ok:
            state = status.state if status is not None else "missing"
            ctx.tally.record(False, f"{label} session {job_id} {state}")
            continue
        results[job_id] = (status, client.result(job_id))
    return results


@contextmanager
def unpinned(ctx: Context):
    """Let this process, and what it starts, use every CPU for a while."""
    pinned = os.sched_getaffinity(0)
    os.sched_setaffinity(0, ctx.cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, pinned)


def run(api, ctx: Context):
    bursts = 2 if ctx.tiny else BURSTS_PER_DAEMON
    warm = len(SESSION_CLASSES)
    # Fixed index ranges keep every session's channel seed, and so the
    # layer-timing pass's counts, independent of ``--seconds``; every
    # daemon pair gets the same sessions.
    burst_submits = make_submits(api, ctx.seed, 100_000, warm + bursts * BURST_SESSIONS)
    traced_submits = make_submits(api, ctx.seed, 200_000, warm + bursts * BURST_SESSIONS)

    launches: list[float] = []
    sent: list = []  # (job id, submit) of every accepted session
    # mode -> per daemon: [wall s] per timed burst
    drain_s: dict[str, list] = {"plain": [], "traced": []}
    delivered: dict = {}

    def daemon_pair(number: int) -> None:
        """The same bursts on a fresh plain and a fresh traced daemon,
        alternating, then both drained."""
        with DaemonProcess(
            api, ctx.workdir / f"pair{number}-plain", ctx.clock
        ) as plain, DaemonProcess(
            api, ctx.workdir / f"pair{number}-traced", ctx.clock, traced=True
        ) as traced:
            launches.extend([plain.launch_s, traced.launch_s])
            daemons = {"plain": (plain, burst_submits), "traced": (traced, traced_submits)}
            chunks = [slice(0, warm)] + [
                slice(warm + i * BURST_SESSIONS, warm + (i + 1) * BURST_SESSIONS)
                for i in range(bursts)
            ]
            phase_ids: dict[str, list] = {"plain": [], "traced": []}
            timed: dict[str, list] = {"plain": [], "traced": []}
            for index, chunk in enumerate(chunks):
                for mode, (daemon, submits) in daemons.items():
                    with ctx.clock.timed():
                        job_ids, busy_s = burst(
                            api, daemon.client, submits[chunk], ctx, mode
                        )
                    sent.extend(zip(job_ids, submits[chunk]))
                    phase_ids[mode] += job_ids
                    if index:  # the first chunk warms up encodes and imports
                        timed[mode].append(busy_s)
            for mode, (daemon, _submits) in daemons.items():
                drain_s[mode].append(timed[mode])
                delivered.update(collect(api, daemon.client, phase_ids[mode], ctx, mode))
                ctx.tally.record(
                    daemon.drain(), f"pair {number} {mode} daemon did not drain cleanly"
                )

    # The open phase feeds only per-layer metrics, so it runs only in a
    # layer-timing run, on a daemon of its own.  The generator keeps a
    # CPU of its own there, so a busy daemon does not hold it back.
    if ctx.trace:
        n_open = 6 if ctx.tiny else max(200, round(OPEN_RATE * ctx.seconds * 2 / 3))
        open_submits = make_submits(api, ctx.seed, 0, n_open)
        with unpinned(ctx), DaemonProcess(api, ctx.workdir / "open", ctx.clock) as opener:
            launches.append(opener.launch_s)
            opened_sent = open_loop(api, opener.client, open_submits, ctx)
            opened = collect(api, opener.client, opened_sent["job_ids"], ctx, "open")
            ctx.tally.record(opener.drain(), "open-loop daemon did not drain cleanly")
        sent.extend(zip(opened_sent["job_ids"], open_submits))
        delivered.update(opened)

    # Daemon pairs until the time is up: each one starts from an empty
    # queue, so every pair repeats the same measurement.  Another pair
    # starts only if it should end in time.
    pair_s = 0.0
    number = 0
    while number == 0 or ctx.fits(pair_s):
        started = ctx.elapsed()
        daemon_pair(number)
        pair_s = max(pair_s, ctx.elapsed() - started)
        number += 1

    # Daemon == batch: every session's digest must match run_grid of
    # its spec, run once per distinct session.
    specs = {}
    for job_id, submit in sent:
        if job_id in delivered:
            specs.setdefault(submit.spec.channel_seed, submit.spec)
    with unpinned(ctx):  # the check is not timed
        outcomes = api.run_grid(
            list(specs.values()),
            options=api.RunnerOptions(jobs=2, cache_dir=ctx.workdir / "batch"),
        )
    batch = {
        seed: api.session_result_digest(outcome.result) if outcome.ok else None
        for seed, outcome in zip(specs, outcomes)
    }
    for job_id, submit in sent:
        if job_id in delivered:
            ctx.tally.record(
                delivered[job_id][1].result_digest == batch[submit.spec.channel_seed],
                f"session {job_id} digest differs from batch run_grid",
            )

    # Every timed burst of every daemon together.
    frames = BURST_SESSIONS * CLIP_FRAMES * sum(map(len, drain_s["plain"]))
    plain_s, traced_s = (
        sum(busy for per_daemon in drain_s[mode] for busy in per_daemon)
        for mode in ("plain", "traced")
    )
    details = {
        "daemon_pairs": number,
        "timings": drain_s,
        "kernel_ms": ctx.clock.samples,
    }
    if not ctx.trace:
        metrics = end_to_end(
            ctx,
            setup_s=median(launches),
            frames=frames,
            plain_s=plain_s,
            traced_s=traced_s,
        )
        return metrics, details

    latencies = [
        opened[job_id][0].finished_at - due
        for job_id, due in zip(opened_sent["job_ids"], opened_sent["due_wall"])
        if job_id in opened
    ]
    details["open_sessions"] = n_open
    details["session_latency_p50_s"] = percentile(latencies, 50)
    details["session_latency_p95_s"] = percentile(latencies, 95)

    # Layer timing: the warm-up and first two bursts' specs again,
    # through in-process daemons so the executor thread's calls are
    # recorded: once untimed as the baseline, once under the recorder.
    layer_submits = burst_submits[: warm + 2 * BURST_SESSIONS]
    recorder = SpanRecorder()

    def in_process_pass(name: str, timed: bool):
        """Bursts through an in-process daemon; (results, ids, drain s, calls)."""
        config = api.ServiceConfig(
            queue_dir=ctx.workdir / name / "queue",
            port=0,
            runner=api.RunnerOptions(jobs=1, cache_dir=ctx.workdir / name / "cache"),
        )
        observer = GridObserver()
        with ExitStack() as stack:
            if timed:
                stack.enter_context(recorder.installed())
            stack.enter_context(observer.installed())
            # The runner reuses the clip this process generated; time
            # one generation explicitly.
            api.generate_sequence(layer_submits[0].spec.synthetic, name="bench")
            with api.start_daemon(config) as handle:
                client = api.ServiceClient(handle.url)
                job_ids = burst(api, client, layer_submits[:warm], ctx, name)[0]
                drain = []
                for start in (warm, warm + BURST_SESSIONS):
                    chunk_ids, busy_s = burst(
                        api, client, layer_submits[start : start + BURST_SESSIONS], ctx, name
                    )
                    job_ids += chunk_ids
                    drain.append(busy_s)
                results = collect(api, client, job_ids, ctx, name)
                client.drain()
        return results, job_ids, sum(drain), observer.calls

    base, base_ids, base_drain_s, base_calls = in_process_pass("baseline", False)
    layered, layer_ids, layer_drain_s, layer_calls = in_process_pass("layers", True)
    untimed = {submit.spec.channel_seed: job_id for job_id, submit in sent}
    for label, results, job_ids in (
        ("baseline", base, base_ids),
        ("layer-timed", layered, layer_ids),
    ):
        for job_id, submit in zip(job_ids, layer_submits):
            untimed_id = untimed.get(submit.spec.channel_seed)
            ok = job_id in results and untimed_id in delivered
            ctx.tally.record(
                ok and results[job_id][1].result_digest
                == delivered[untimed_id][1].result_digest,
                f"{label} session {job_id} differs from the untimed run",
            )

    outcomes = [o for call in layer_calls for o in call.outcomes if o.ok]
    layer_keys = encode_keys(api, [o.spec for o in outcomes])
    by_encode = {}
    for key, outcome in zip(layer_keys, outcomes):
        by_encode.setdefault(key, outcome.result)
    counts = exact_counts(by_encode.values(), [o.result for o in outcomes])
    counts["unique_encodes"] = len(by_encode)
    compare_counts(ctx, counts)
    recorder.write(ctx.workdir / "spans.jsonl")

    queue_wait = [
        result.latency_s - result.wall_time_s for _status, result in opened.values()
    ]
    service = {
        "service.session_latency_p50_s": details["session_latency_p50_s"],
        "service.session_latency_p95_s": details["session_latency_p95_s"],
        "service.submit_ms_p50": 1000.0 * median(opened_sent["submit_s"]),
        "service.queue_wait_s_p50": percentile(queue_wait, 50),
        "service.queue_wait_s_p95": percentile(queue_wait, 95),
        "service.exec_s_p50": median(
            [result.wall_time_s for _status, result in opened.values()]
        ),
        "service.refused": opened_sent["refused"],
        "service.generator_lag_s_max": max(opened_sent["lags"]),
    }
    metrics = layer_metrics(
        recorder,
        counts,
        runner=runner_metrics(base_calls, len(by_encode), len(outcomes)),
        service=service,
        trace_overhead_pct=100.0 * (1.0 - plain_s / traced_s),
        layer_timing_overhead_pct=overhead_pct(base_drain_s, layer_drain_s),
        wall_frames_per_s=frames / plain_s,
        kernel_ms=ctx.clock.median_ms,
    )
    details["counts"] = counts
    return metrics, details
