"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``simulate`` — run one scheme over one sequence and a lossy channel,
  print the run summary.
* ``compare`` — the paper's Figure-5 style comparison (all five
  schemes, PBPAIR size-matched to PGOP-3; with ``--target-kbps`` every
  scheme instead runs under closed-loop rate control at one shared
  bitrate, with no calibration probes).
* ``sweep`` — the Section-4.3 (Intra_Th x PLR) operating-point table.
* ``sigma`` — encode with PBPAIR and print the correctness matrix as
  ASCII heatmaps (the paper's ``C^k``, live).
* ``trace`` — render the per-stage time/energy breakdown of a trace
  file written by a ``--trace`` run.
* ``info`` — list available schemes, sequences and device profiles.
* ``serve`` — run the long-lived encode daemon (HTTP+JSONL job API).
* ``submit`` — enqueue sessions on a running daemon.
* ``status`` — fleet summary or per-job status from a daemon (or,
  offline, from a queue journal file).
* ``drain`` — stop a daemon accepting jobs and let it finish.

The runner flags shared by ``compare``/``sweep``/``serve``
(``--jobs``, ``--no-cache``, ``--cache-dir``, ``--faults``,
``--retries``, ``--job-timeout``, ``--manifest``) all resolve into one
:class:`repro.sim.runner.RunnerOptions` bundle, so the execution
semantics are identical whether a grid runs batch or behind the
daemon.

``simulate``, ``compare``, ``sweep`` and ``submit`` accept
``--target-kbps KBPS`` (and ``--rate-sensitivity X``): the encode runs
under the closed-loop rate controller
(:class:`repro.codec.rate.ClosedLoopRateController`) steered to that
bitrate instead of at a fixed quantizer.

``simulate``, ``compare`` and ``sweep`` accept ``--trace`` (and
``--trace-dir DIR``, which implies it): the run executes under a
:mod:`repro.obs` tracer, leaves ``trace.jsonl`` in the trace directory,
and prints the same per-stage breakdown ``repro trace`` would.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from pathlib import Path
from typing import Optional, Sequence

from repro.energy.profiles import DEVICE_PROFILES
from repro.faults import parse_fault_plan
from repro.network.loss import UniformLoss
from repro.obs import (
    MERGED_TRACE_NAME,
    TraceFormatError,
    Tracer,
    load_trace,
    trace_summary,
    use_tracer,
    write_trace,
)
from repro.codec.rate import RateControlConfig, build_rate_controller
from repro.resilience.registry import STRATEGY_BUILDERS, build_strategy
from repro.scenarios import (
    FLEET_COLUMNS,
    FLEET_SCHEMES,
    ScenarioFormatError,
    available_packs,
    parse_scenario,
    run_fleet,
)
from repro.service.daemon import DEFAULT_PORT as SERVICE_DEFAULT_PORT
from repro.sim.experiment import (
    RateMatchSpec,
    calibrate_intra_th,
    total_encoded_bytes,
)
from repro.sim.pipeline import SimulationConfig, simulate
from repro.sim.report import format_table
from repro.sim.runner import (
    DEFAULT_CACHE_DIR,
    JobFailure,
    JobResult,
    JobSpec,
    RunnerOptions,
    run_grid,
)
from repro.video.synthetic import SEQUENCE_GENERATORS

#: Where ``--trace`` runs leave their JSONL files unless ``--trace-dir``
#: points elsewhere.
DEFAULT_TRACE_DIR = ".repro_trace"


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--sequence",
        choices=sorted(SEQUENCE_GENERATORS),
        default="foreman",
        help="synthetic test clip (default: foreman)",
    )
    parser.add_argument(
        "--frames", type=int, default=90, help="clip length (default: 90)"
    )
    parser.add_argument(
        "--plr", type=float, default=0.1, help="packet loss rate (default: 0.1)"
    )
    parser.add_argument(
        "--seed", type=int, default=1, help="channel seed (default: 1)"
    )
    parser.add_argument(
        "--device",
        choices=sorted(DEVICE_PROFILES),
        default="ipaq",
        help="energy profile (default: ipaq)",
    )


def _add_scenario_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scenario",
        metavar="PACK",
        default=None,
        help="channel scenario pack: a shipped pack name "
        f"({', '.join(available_packs())}), a JSON file path, or "
        "inline JSON; replaces the uniform --plr channel",
    )


def _scenario_pack(args: argparse.Namespace):
    """Resolve ``--scenario`` (absent on some commands) into a pack."""
    text = getattr(args, "scenario", None)
    if text is None:
        return None
    try:
        return parse_scenario(text)
    except (ScenarioFormatError, OSError) as error:
        raise SystemExit(f"--scenario: {error}")


def _add_runner_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the experiment grid; 0 = all cores "
        "(default: 1, serial)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute every cell instead of using the on-disk result cache",
    )
    parser.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        help=f"result cache directory (default: {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=0,
        help="re-run a failed grid cell up to N extra times with "
        "exponential backoff (default: 0, no retries)",
    )
    parser.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="S",
        help="per-job wall-clock limit in seconds (parallel runs only)",
    )
    parser.add_argument(
        "--manifest",
        default=None,
        metavar="FILE",
        help="write a JSON manifest recording every job's outcome, and "
        "degrade gracefully on failures instead of aborting (serve: "
        "where the service manifest goes; default "
        "<queue-dir>/service_manifest.json)",
    )
    _add_fault_options(parser)
    _add_trace_options(parser)


def _add_fault_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--faults",
        default=None,
        metavar="PLAN",
        help="inject a deterministic fault plan: a compact "
        "'kind[:prob],...' list (e.g. 'truncate:0.3,worker_crash'), an "
        "inline JSON object, or a JSON file path",
    )
    parser.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed of the fault plan's RNG streams (default: 0)",
    )


def _fault_plan(args: argparse.Namespace):
    """The parsed --faults plan, or None when no faults are requested."""
    if args.faults is None:
        return None
    try:
        return parse_fault_plan(args.faults, seed=args.fault_seed)
    except (ValueError, OSError) as error:
        raise SystemExit(f"bad --faults value: {error}")


def _add_rate_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--target-kbps",
        type=float,
        default=None,
        metavar="KBPS",
        help="closed-loop rate control: steer the encode to this bitrate; "
        "under `compare` every scheme runs at the same matched target "
        "(default: off)",
    )
    parser.add_argument(
        "--rate-sensitivity",
        type=float,
        default=1.0,
        metavar="X",
        help="rate-controller aggressiveness: fraction of the budget "
        "debt repaid per recovery window (default: 1.0; requires "
        "--target-kbps)",
    )


def _rate_config(args: argparse.Namespace) -> Optional[RateControlConfig]:
    """The parsed rate-control flags, or None when rate control is off."""
    if getattr(args, "target_kbps", None) is None:
        if getattr(args, "rate_sensitivity", 1.0) != 1.0:
            raise SystemExit("--rate-sensitivity requires --target-kbps")
        return None
    try:
        return RateControlConfig(
            target_kbps=args.target_kbps,
            sensitivity=args.rate_sensitivity,
        )
    except ValueError as error:
        raise SystemExit(f"bad rate-control flags: {error}")


def _add_trace_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        action="store_true",
        help="trace the run per pipeline stage and print the breakdown",
    )
    parser.add_argument(
        "--trace-dir",
        default=None,
        metavar="DIR",
        help="write trace JSONL files to DIR (implies --trace; "
        f"default: {DEFAULT_TRACE_DIR})",
    )


def _trace_dir(args: argparse.Namespace) -> Optional[Path]:
    """The trace output directory, or None when tracing is off."""
    if args.trace_dir is not None:
        return Path(args.trace_dir)
    return Path(DEFAULT_TRACE_DIR) if args.trace else None


def _print_trace_report(trace_file: Optional[Path], args) -> None:
    if trace_file is None or not trace_file.exists():
        print("no trace written (all grid cells were cache hits?)",
              file=sys.stderr)
        return
    print()
    print(trace_summary(load_trace(trace_file), DEVICE_PROFILES[args.device]))
    print(f"trace written to {trace_file}")


def _runner_options(args: argparse.Namespace) -> RunnerOptions:
    """Resolve the shared runner flags into one options bundle."""
    try:
        return RunnerOptions(
            jobs=args.jobs,
            use_cache=not args.no_cache,
            cache_dir=args.cache_dir,
            retries=args.retries,
            job_timeout=args.job_timeout,
            manifest_path=getattr(args, "manifest", None),
            faults=_fault_plan(args),
            trace_dir=_trace_dir(args) if hasattr(args, "trace") else None,
            rate=_rate_config(args),
            scenario=_scenario_pack(args),
        )
    except ValueError as error:
        raise SystemExit(str(error))


def _runner_setup(args: argparse.Namespace):
    """(options, cache, stream_cache) from the shared runner flags.

    The caches are built once here so calibration probes and the grid
    run share them within one command.
    """
    options = _runner_options(args)
    try:
        cache = options.build_cache()
    except (FileExistsError, NotADirectoryError):
        raise SystemExit(
            f"--cache-dir {args.cache_dir!r} exists and is not a directory"
        )
    stream_cache = options.build_stream_cache(cache)
    return options, cache, stream_cache


def _grid_results(args, jobs, options, cache, stream_cache=None):
    """Run a grid under ``options`` and unwrap it.

    Without ``--manifest`` any failed cell aborts the command with exit
    status 1 (after reporting every failure).  With ``--manifest`` the
    run completes partially instead: every outcome lands in the
    manifest file, failures are reported on stderr, and failed cells
    come back as ``None`` so callers can render the surviving rows.
    """
    outcomes = run_grid(
        jobs, options=options, cache=cache, stream_cache=stream_cache
    )
    failures = [o for o in outcomes if isinstance(o, JobFailure)]
    for failure in failures:
        quarantined = " [quarantined]" if failure.quarantined else ""
        print(
            f"job {failure.spec.scheme} (PLR={failure.spec.plr}, "
            f"seed={failure.spec.channel_seed}) failed after "
            f"{failure.attempts} attempt(s){quarantined}: "
            f"{failure.error_type}: {failure.message}",
            file=sys.stderr,
        )
        if failure.traceback_text and args.manifest is None:
            print(failure.traceback_text, file=sys.stderr)
    if args.manifest is not None:
        print(f"manifest written to {args.manifest}", file=sys.stderr)
        return [
            o.result if isinstance(o, JobResult) else None for o in outcomes
        ]
    if failures:
        raise SystemExit(1)
    return [o.result for o in outcomes]


def _config(args: argparse.Namespace) -> SimulationConfig:
    return SimulationConfig(device=DEVICE_PROFILES[args.device])


def _sequence(args: argparse.Namespace):
    if args.frames < 1:
        raise SystemExit("--frames must be >= 1")
    return SEQUENCE_GENERATORS[args.sequence](args.frames)


def _cmd_simulate(args: argparse.Namespace) -> int:
    video = _sequence(args)
    if args.scheme.upper().startswith("PBPAIR"):
        strategy = build_strategy(
            "PBPAIR", intra_th=args.intra_th, plr=args.plr
        )
    else:
        strategy = build_strategy(args.scheme)
    faults = _fault_plan(args)
    rate = _rate_config(args)
    controller = build_rate_controller(rate)
    scenario = _scenario_pack(args)
    if scenario is not None:
        channel_kwargs = {"scenario": scenario, "scenario_seed": args.seed}
    else:
        channel_kwargs = {
            "loss_model": UniformLoss(plr=args.plr, seed=args.seed)
        }
    trace_dir = _trace_dir(args)
    tracer = (
        Tracer(trace_id=f"{args.scheme} {video.name}")
        if trace_dir is not None
        else None
    )
    with use_tracer(tracer) if tracer is not None else nullcontext():
        result = simulate(
            video,
            strategy,
            config=_config(args),
            rate_controller=controller,
            faults=faults,
            **channel_kwargs,
        )
    trace_file: Optional[Path] = (
        write_trace(trace_dir / MERGED_TRACE_NAME, tracer)
        if tracer is not None
        else None
    )
    print(f"sequence         : {video.name} ({result.n_frames} frames)")
    print(f"scheme           : {result.strategy_name}")
    print(f"delivered PSNR   : {result.average_psnr_decoder:.2f} dB")
    print(f"bad pixels       : {result.total_bad_pixels:,}")
    print(f"encoded size     : {result.total_bytes / 1024:.1f} KB")
    print(f"intra macroblocks: {100 * result.intra_fraction:.1f}%")
    if controller is not None:
        error_pct = (
            100.0
            * (controller.delivered_kbps - rate.target_kbps)
            / rate.target_kbps
        )
        print(
            f"delivered bitrate: {controller.delivered_kbps:.1f} kbps "
            f"(target {rate.target_kbps:g}, {error_pct:+.1f}%)"
        )
    print(f"encoding energy  : {result.energy_joules:.3f} J "
          f"({result.energy.device})")
    print(f"packets lost     : {len(result.channel_log.lost_packets)}"
          f"/{result.channel_log.sent}")
    if result.fault_events:
        by_kind: dict[str, int] = {}
        for event in result.fault_events:
            by_kind[event.kind] = by_kind.get(event.kind, 0) + 1
        rendered = " ".join(
            f"{kind}={count}" for kind, count in sorted(by_kind.items())
        )
        print(f"injected faults  : {len(result.fault_events)} ({rendered})")
        print(f"damaged fragments: {result.total_damaged_fragments}")
    if trace_file is not None:
        _print_trace_report(trace_file, args)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    video = _sequence(args)
    config = _config(args)
    options, cache, stream_cache = _runner_setup(args)
    rate = _rate_config(args)
    if rate is not None:
        return _compare_matched_bitrate(
            args, video, config, options, cache, stream_cache
        )
    print("Calibrating PBPAIR's Intra_Th to PGOP-3's size ...",
          file=sys.stderr)
    target = total_encoded_bytes(video, build_strategy("PGOP-3"), config)
    intra_th = calibrate_intra_th(
        video, target, plr=args.plr, config=config, max_iterations=8,
        stream_cache=stream_cache,
    )
    print(
        f"calibration: {intra_th.probes} probes, "
        f"{intra_th.unique_encodes} encodes "
        f"({intra_th.saved_encodes} served from cache)",
        file=sys.stderr,
    )
    schemes = ("NO", "PBPAIR", "PGOP-3", "GOP-3", "AIR-24")
    jobs = [
        JobSpec(
            scheme=spec,
            plr=args.plr,
            channel_seed=args.seed,
            sequence=args.sequence,
            n_frames=args.frames,
            config=config,
            pbpair_kwargs={"intra_th": intra_th},
        )
        for spec in schemes
    ]
    rows = []
    for spec, result in zip(
        schemes,
        _grid_results(args, jobs, options, cache, stream_cache),
    ):
        if result is None:
            continue
        rows.append(
            [
                spec,
                result.average_psnr_decoder,
                result.total_bad_pixels / 1e6,
                result.total_bytes / 1024,
                result.energy_joules,
                100 * result.intra_fraction,
            ]
        )
    print(
        format_table(
            ["scheme", "PSNR dB", "bad px M", "size KB", "energy J", "intra %"],
            rows,
            title=(
                f"{video.name}, {args.frames} frames, PLR={args.plr:.0%}, "
                f"PBPAIR Intra_Th={intra_th:.3f}"
            ),
        )
    )
    if options.trace_dir is not None:
        _print_trace_report(Path(options.trace_dir) / MERGED_TRACE_NAME, args)
    return 0


def _compare_matched_bitrate(
    args, video, config, options, cache, stream_cache
) -> int:
    """``compare --target-kbps``: every scheme at one bitrate, no probes.

    The closed-loop controller replaces the calibration bisection
    entirely — each scheme encodes once, steered to the shared target,
    and the table reports how precisely it was hit.
    """
    match = RateMatchSpec(
        target_kbps=args.target_kbps, sensitivity=args.rate_sensitivity
    )
    rate = match.rate_config()
    jobs = match.jobs(
        plr=args.plr,
        channel_seed=args.seed,
        sequence=args.sequence,
        n_frames=args.frames,
        config=config,
    )
    rows = []
    for spec, result in zip(
        match.schemes,
        _grid_results(args, jobs, options, cache, stream_cache),
    ):
        if result is None:
            continue
        delivered_kbps = (
            result.total_bytes * 8 / result.n_frames * rate.fps / 1000.0
        )
        error_pct = (
            100.0 * (delivered_kbps - rate.target_kbps) / rate.target_kbps
        )
        rows.append(
            [
                spec,
                result.average_psnr_decoder,
                result.total_bad_pixels / 1e6,
                delivered_kbps,
                error_pct,
                result.energy_joules,
                100 * result.intra_fraction,
            ]
        )
    print(
        format_table(
            ["scheme", "PSNR dB", "bad px M", "kbps", "err %", "energy J",
             "intra %"],
            rows,
            title=(
                f"{video.name}, {args.frames} frames, PLR={args.plr:.0%}, "
                f"matched bitrate {rate.target_kbps:g} kbps"
            ),
        )
    )
    if options.trace_dir is not None:
        _print_trace_report(Path(options.trace_dir) / MERGED_TRACE_NAME, args)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    video = _sequence(args)
    config = _config(args)
    options, cache, stream_cache = _runner_setup(args)
    thresholds = (0.0, 0.5, 0.8, 0.9, 0.95, 1.0)
    jobs = [
        JobSpec(
            scheme="PBPAIR",
            plr=args.plr,
            channel_seed=args.seed,
            sequence=args.sequence,
            n_frames=args.frames,
            config=config,
            pbpair_kwargs={"intra_th": th},
        )
        for th in thresholds
    ]
    rows = []
    for th, result in zip(
        thresholds,
        _grid_results(args, jobs, options, cache, stream_cache),
    ):
        if result is None:
            continue
        rows.append(
            [
                th,
                100 * result.intra_fraction,
                result.total_bytes / 1024,
                result.energy_joules,
                result.average_psnr_decoder,
                result.total_bad_pixels / 1e6,
            ]
        )
    print(
        format_table(
            ["Intra_Th", "intra %", "size KB", "energy J", "PSNR dB",
             "bad px M"],
            rows,
            title=(
                f"PBPAIR operating points: {video.name}, "
                f"{args.frames} frames, PLR={args.plr:.0%}"
            ),
        )
    )
    if options.trace_dir is not None:
        _print_trace_report(Path(options.trace_dir) / MERGED_TRACE_NAME, args)
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    """The scheme × scenario sweep: a percentile table per cell."""
    import json as json_module

    schemes = tuple(
        s.strip() for s in args.schemes.split(",") if s.strip()
    )
    if not schemes:
        raise SystemExit("--schemes must name at least one scheme")
    packs = None
    if args.packs is not None:
        names = [p.strip() for p in args.packs.split(",") if p.strip()]
        if not names:
            raise SystemExit("--packs must name at least one pack")
        try:
            packs = tuple(parse_scenario(name) for name in names)
        except (ScenarioFormatError, OSError) as error:
            raise SystemExit(f"--packs: {error}")
    if args.replicas < 1:
        raise SystemExit("--replicas must be >= 1")
    options, cache, stream_cache = _runner_setup(args)
    try:
        report = run_fleet(
            schemes,
            packs,
            sequence=args.sequence,
            n_frames=args.frames,
            replicas=args.replicas,
            base_seed=args.seed,
            config=_config(args),
            options=options,
        )
    except RuntimeError as error:
        print(str(error), file=sys.stderr)
        return 1
    print(
        format_table(
            FLEET_COLUMNS,
            report.rows(),
            title=(
                f"fleet: {args.sequence}, {args.frames} frames, "
                f"{args.replicas} replica(s), digest "
                f"{report.digest[:12]}"
            ),
        )
    )
    if args.json is not None:
        path = Path(args.json)
        path.write_text(
            json_module.dumps(report.to_json(), indent=2) + "\n",
            encoding="utf-8",
        )
        print(f"report written to {path}", file=sys.stderr)
    return 0


def _cmd_sigma(args: argparse.Namespace) -> int:
    from repro.codec.encoder import Encoder
    from repro.codec.types import CodecConfig
    from repro.core.instrumentation import (
        InstrumentedPBPAIRStrategy,
        sigma_heatmap,
    )
    from repro.core.pbpair import PBPAIRConfig

    video = _sequence(args)
    strategy = InstrumentedPBPAIRStrategy(
        PBPAIRConfig(intra_th=args.intra_th, plr=args.plr)
    )
    Encoder(CodecConfig(), strategy).encode_sequence(video)
    step = max(len(video) // 4, 1)
    print(
        f"PBPAIR sigma heatmaps, {video.name}, Intra_Th={args.intra_th}, "
        f"PLR={args.plr:.0%} ('@'=1.0 ' '=0.0 'R'=refreshed)"
    )
    for snapshot in strategy.trace.snapshots[::step]:
        print(
            f"\nframe {snapshot.frame_index:3d}  "
            f"mean={snapshot.sigma_after.mean():.3f} "
            f"refreshes={int(snapshot.intra_mask.sum())}"
        )
        print(sigma_heatmap(snapshot.sigma_after, mark=snapshot.intra_mask))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    try:
        trace = load_trace(Path(args.trace_file))
    except FileNotFoundError:
        raise SystemExit(f"no such trace file: {args.trace_file}")
    except IsADirectoryError:
        raise SystemExit(
            f"{args.trace_file} is a directory, not a trace file "
            f"(did you mean {Path(args.trace_file) / MERGED_TRACE_NAME}?)"
        )
    except TraceFormatError as error:
        raise SystemExit(f"not a trace file: {args.trace_file}: {error}")
    if not trace.spans and not trace.events:
        raise SystemExit(
            f"trace file {args.trace_file} is empty (no spans or events); "
            "was the run traced with --trace?"
        )
    print(trace_summary(trace, DEVICE_PROFILES[args.device]))
    return 0


def _client(args: argparse.Namespace):
    from repro.service import ServiceClient

    return ServiceClient(args.url)


def _service_error(error: Exception) -> "SystemExit":
    return SystemExit(f"service error: {error}")


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import ServiceConfig, serve

    options = _runner_options(args)
    try:
        config = ServiceConfig(
            queue_dir=args.queue_dir,
            host=args.host,
            port=args.port,
            runner=options,
            service_workers=args.service_workers,
            batch_size=args.batch_size,
            max_pending=args.max_pending,
            lease_s=args.lease,
            max_fails=args.max_fails,
            manifest_path=args.manifest,
        )
    except ValueError as error:
        raise SystemExit(str(error))
    print(
        f"repro service: queue={config.queue_dir} "
        f"listening on http://{config.host}:{config.port or '<ephemeral>'}",
        file=sys.stderr,
    )
    try:
        manifest = serve(config)
    except KeyboardInterrupt:
        print("interrupted; queue state is durable — rerun "
              "`repro serve` with the same --queue-dir to resume",
              file=sys.stderr)
        return 130
    except OSError as error:
        raise SystemExit(f"cannot listen on {config.host}:{config.port}: "
                         f"{error}")
    counts = ", ".join(
        f"{state}={n}" for state, n in sorted(manifest.counts.items())
    ) or "no jobs"
    print(f"service drained: {counts}", file=sys.stderr)
    print(f"manifest written to {config.resolved_manifest_path}",
          file=sys.stderr)
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service import JobSubmit, ServiceClientError

    if args.count < 1:
        raise SystemExit("--count must be >= 1")
    _sequence(args)  # validates --frames early, before touching the daemon
    config = _config(args)
    pbpair_kwargs = (
        {"intra_th": args.intra_th}
        if args.scheme.upper().startswith("PBPAIR")
        else {}
    )
    faults = _fault_plan(args)
    rate = _rate_config(args)
    scenario = _scenario_pack(args)
    submits = [
        JobSubmit(
            spec=JobSpec(
                scheme=args.scheme,
                plr=args.plr,
                channel_seed=args.seed + i,
                sequence=args.sequence,
                n_frames=args.frames,
                config=config,
                pbpair_kwargs=pbpair_kwargs,
                faults=faults,
                rate=rate,
                scenario=scenario,
            ),
            priority=args.priority,
            session_class=args.session_class,
        )
        for i in range(args.count)
    ]
    client = _client(args)
    try:
        job_ids = client.submit(submits)
        for job_id in job_ids:
            print(job_id)
        if args.wait:
            done = client.wait(job_ids, timeout=args.wait_timeout)
            states = sorted(s.state for s in done.values())
            print(
                f"{len(done)} session(s) finished: "
                + ", ".join(
                    f"{state}={states.count(state)}"
                    for state in dict.fromkeys(states)
                ),
                file=sys.stderr,
            )
            if any(not s.ok for s in done.values()):
                return 1
    except (ServiceClientError, TimeoutError) as error:
        raise _service_error(error)
    return 0


def _format_status(status) -> str:
    latency = (
        f"{status.latency_s:.2f}s" if status.latency_s is not None else "-"
    )
    error = f"  error: {status.error}" if status.error else ""
    return (
        f"{status.job_id}  {status.state:<11} "
        f"class={status.session_class} priority={status.priority} "
        f"attempts={status.attempts} latency={latency}{error}"
    )


def _summary_lines(summary) -> list[str]:
    lines = []
    counts = ", ".join(
        f"{state}={n}" for state, n in sorted(summary.counts.items())
    ) or "no jobs"
    lines.append(
        f"sessions: {summary.sessions} ({counts}); "
        f"queue depth {summary.queue_depth}"
    )
    for cls in summary.classes:
        lat = cls.latency_s or {}
        psnr = cls.psnr_db or {}

        def _fmt(values, unit, key):
            value = values.get(key)
            if value is None or value != value:  # NaN-safe
                return "-"
            return f"{value:.2f}{unit}"

        lines.append(
            f"  {cls.session_class}: {cls.sessions} sessions "
            f"(ok={cls.ok} cached={cls.cached} failed={cls.failed} "
            f"quarantined={cls.quarantined}) "
            f"latency p50/p95/p99 {_fmt(lat, 's', 'p50')}/"
            f"{_fmt(lat, 's', 'p95')}/{_fmt(lat, 's', 'p99')} "
            f"PSNR p50/p95/p99 {_fmt(psnr, 'dB', 'p50')}/"
            f"{_fmt(psnr, 'dB', 'p95')}/{_fmt(psnr, 'dB', 'p99')}"
        )
    return lines


def _journal_statuses(path: Path) -> list:
    """Reconstruct the latest per-job state from a queue journal file.

    Exits with a clear message on a missing, empty, or truncated
    journal — the offline mirror of the daemon's ``GET /v1/jobs``.
    """
    from repro.service import JOB_STATES

    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise SystemExit(f"no such journal file: {path}")
    except IsADirectoryError:
        raise SystemExit(
            f"{path} is a directory; point --journal at the queue's "
            "journal.jsonl file"
        )
    if not text.strip():
        raise SystemExit(
            f"journal file {path} is empty; has the daemon accepted "
            "any jobs yet?"
        )
    import json as _json

    latest: dict[str, dict] = {}
    for index, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = _json.loads(line)
        except _json.JSONDecodeError as error:
            if index == len(text.splitlines()):
                # A torn final line happens when the daemon dies
                # mid-append; everything before it is still good.
                print(
                    f"warning: ignoring truncated final journal line "
                    f"{index}",
                    file=sys.stderr,
                )
                continue
            raise SystemExit(
                f"not a journal file: {path}: bad JSON on line "
                f"{index}: {error}"
            )
        if record.get("type") == "header":
            continue
        if record.get("type") != "event" or "job_id" not in record:
            raise SystemExit(
                f"not a journal file: {path}: line {index} is not a "
                "journal event"
            )
        if record.get("state") not in JOB_STATES:
            raise SystemExit(
                f"journal file {path} line {index} has unknown state "
                f"{record.get('state')!r}"
            )
        latest[record["job_id"]] = record
    if not latest:
        raise SystemExit(
            f"journal file {path} holds no job events; has the daemon "
            "accepted any jobs yet?"
        )
    return list(latest.values())


def _cmd_status(args: argparse.Namespace) -> int:
    from repro.service import ServiceClientError

    if args.journal is not None:
        events = _journal_statuses(Path(args.journal))
        if args.job_id:
            events = [e for e in events if e["job_id"] == args.job_id]
            if not events:
                raise SystemExit(f"no such job in journal: {args.job_id}")
        by_state: dict[str, int] = {}
        for event in events:
            by_state[event["state"]] = by_state.get(event["state"], 0) + 1
        for event in sorted(events, key=lambda e: e.get("ts", 0.0)):
            print(
                f"{event['job_id']}  {event['state']:<11} "
                f"class={event.get('session_class', '?')} "
                f"priority={event.get('priority', 0)} "
                f"attempts={event.get('attempts', 0)}"
            )
        counts = ", ".join(
            f"{state}={n}" for state, n in sorted(by_state.items())
        )
        print(f"{len(events)} job(s): {counts}", file=sys.stderr)
        return 0
    client = _client(args)
    try:
        if args.job_id:
            print(_format_status(client.status(args.job_id)))
        else:
            for line in _summary_lines(client.summary()):
                print(line)
    except ServiceClientError as error:
        raise _service_error(error)
    return 0


def _cmd_drain(args: argparse.Namespace) -> int:
    import time as _time

    from repro.service import ServiceClientError

    client = _client(args)
    try:
        health = client.shutdown() if args.shutdown else client.drain()
    except ServiceClientError as error:
        raise _service_error(error)
    print(
        f"draining: {health['pending']} pending, "
        f"{health['running']} running",
        file=sys.stderr,
    )
    if not args.wait:
        return 0
    # A drained daemon exits and writes its manifest, so losing the
    # connection mid-poll is the success signal, not an error.
    deadline = _time.monotonic() + args.wait_timeout
    while True:
        _time.sleep(0.2)
        try:
            health = client.health()
        except ServiceClientError as error:
            if error.status == 0:
                print("daemon drained and exited", file=sys.stderr)
                return 0
            raise _service_error(error)
        if health.get("drained"):
            try:
                for line in _summary_lines(client.summary()):
                    print(line)
            except ServiceClientError:
                print("daemon drained and exited", file=sys.stderr)
            return 0
        if _time.monotonic() > deadline:
            raise SystemExit(
                f"queue not drained after {args.wait_timeout:g}s "
                f"({health['pending']} pending, "
                f"{health['running']} running)"
            )


def _cmd_info(args: argparse.Namespace) -> int:
    print("schemes   :", ", ".join(sorted(STRATEGY_BUILDERS)))
    print("sequences :", ", ".join(sorted(SEQUENCE_GENERATORS)))
    print(
        "devices   :",
        ", ".join(
            f"{key} ({profile.name})"
            for key, profile in sorted(DEVICE_PROFILES.items())
        ),
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PBPAIR (ICDCS 2005) reproduction toolkit",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sim = commands.add_parser("simulate", help="run one scheme end to end")
    _add_common(sim)
    sim.add_argument(
        "--scheme",
        default="PBPAIR",
        help="NO, GOP-N, AIR-N, PGOP-N or PBPAIR (default: PBPAIR)",
    )
    sim.add_argument(
        "--intra-th",
        type=float,
        default=0.92,
        help="PBPAIR's Intra_Th (default: 0.92)",
    )
    _add_fault_options(sim)
    _add_rate_options(sim)
    _add_trace_options(sim)
    _add_scenario_option(sim)
    sim.set_defaults(handler=_cmd_simulate)

    compare = commands.add_parser(
        "compare", help="Figure-5 style scheme comparison"
    )
    _add_common(compare)
    _add_runner_options(compare)
    _add_rate_options(compare)
    _add_scenario_option(compare)
    compare.set_defaults(handler=_cmd_compare)

    sweep = commands.add_parser(
        "sweep", help="Section-4.3 operating-point sweep"
    )
    _add_common(sweep)
    _add_runner_options(sweep)
    _add_rate_options(sweep)
    _add_scenario_option(sweep)
    sweep.set_defaults(handler=_cmd_sweep)

    fleet = commands.add_parser(
        "fleet", help="scheme x scenario-pack sweep with percentile table"
    )
    _add_common(fleet)
    _add_runner_options(fleet)
    fleet.add_argument(
        "--schemes",
        default=",".join(FLEET_SCHEMES),
        help="comma-separated scheme list "
        f"(default: {','.join(FLEET_SCHEMES)})",
    )
    fleet.add_argument(
        "--packs",
        default=None,
        help="comma-separated pack names/paths (default: every shipped "
        f"pack: {', '.join(available_packs())})",
    )
    fleet.add_argument(
        "--replicas",
        type=int,
        default=2,
        help="channel seeds per cell (default: 2)",
    )
    fleet.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the full fleet report as JSON",
    )
    fleet.set_defaults(handler=_cmd_fleet)

    sigma = commands.add_parser(
        "sigma", help="print PBPAIR's correctness-matrix heatmaps"
    )
    _add_common(sigma)
    sigma.add_argument(
        "--intra-th",
        type=float,
        default=0.9,
        help="PBPAIR's Intra_Th (default: 0.9)",
    )
    sigma.set_defaults(handler=_cmd_sigma)

    trace = commands.add_parser(
        "trace", help="render a trace file's per-stage breakdown"
    )
    trace.add_argument(
        "trace_file", metavar="JSONL", help="trace file from a --trace run"
    )
    trace.add_argument(
        "--device",
        choices=sorted(DEVICE_PROFILES),
        default="ipaq",
        help="energy profile for the energy column (default: ipaq)",
    )
    trace.set_defaults(handler=_cmd_trace)

    info = commands.add_parser("info", help="list schemes/sequences/devices")
    info.set_defaults(handler=_cmd_info)

    serve = commands.add_parser(
        "serve", help="run the long-lived encode daemon (HTTP+JSONL API)"
    )
    serve.add_argument(
        "--queue-dir",
        default=".repro_service",
        help="persistent job-queue directory; reopen the same directory "
        "to resume an interrupted fleet (default: .repro_service)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="listen address (default: local)"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=SERVICE_DEFAULT_PORT,
        help=f"listen port, 0 = ephemeral (default: {SERVICE_DEFAULT_PORT})",
    )
    serve.add_argument(
        "--service-workers",
        type=int,
        default=1,
        help="concurrent dispatcher tasks claiming job batches "
        "(default: 1)",
    )
    serve.add_argument(
        "--batch-size",
        type=int,
        default=8,
        help="jobs claimed per dispatch; each batch is one grid run "
        "(default: 8)",
    )
    serve.add_argument(
        "--max-pending",
        type=int,
        default=1024,
        help="queue backlog bound; beyond it submissions get HTTP 429 "
        "(default: 1024)",
    )
    serve.add_argument(
        "--lease",
        type=float,
        default=30.0,
        metavar="S",
        help="claim lease seconds; a silent worker loses its jobs to "
        "the reaper (default: 30)",
    )
    serve.add_argument(
        "--max-fails",
        type=int,
        default=3,
        help="failures before a job is quarantined (default: 3)",
    )
    _add_runner_options(serve)
    serve.set_defaults(handler=_cmd_serve)

    submit = commands.add_parser(
        "submit", help="enqueue sessions on a running daemon"
    )
    _add_common(submit)
    _add_fault_options(submit)
    _add_rate_options(submit)
    _add_scenario_option(submit)
    submit.add_argument(
        "--url",
        default=f"http://127.0.0.1:{SERVICE_DEFAULT_PORT}",
        help="daemon base URL (default: the local default port)",
    )
    submit.add_argument(
        "--scheme",
        default="PBPAIR",
        help="NO, GOP-N, AIR-N, PGOP-N or PBPAIR (default: PBPAIR)",
    )
    submit.add_argument(
        "--intra-th",
        type=float,
        default=0.92,
        help="PBPAIR's Intra_Th (default: 0.92)",
    )
    submit.add_argument(
        "--count",
        type=int,
        default=1,
        help="sessions to enqueue; seeds run --seed..--seed+N-1 "
        "(default: 1)",
    )
    submit.add_argument(
        "--priority",
        type=int,
        default=0,
        help="claim priority; higher runs first (default: 0)",
    )
    submit.add_argument(
        "--session-class",
        default="standard",
        metavar="NAME",
        help="fleet-reporting label percentiles group by "
        "(default: standard)",
    )
    submit.add_argument(
        "--wait",
        action="store_true",
        help="poll until every submitted session is terminal "
        "(exit 1 if any failed)",
    )
    submit.add_argument(
        "--wait-timeout",
        type=float,
        default=600.0,
        metavar="S",
        help="--wait deadline in seconds (default: 600)",
    )
    submit.set_defaults(handler=_cmd_submit)

    status = commands.add_parser(
        "status",
        help="fleet summary or one job's status from a running daemon",
    )
    status.add_argument(
        "job_id",
        nargs="?",
        default=None,
        help="job id to inspect (omit for the fleet summary)",
    )
    status.add_argument(
        "--url",
        default=f"http://127.0.0.1:{SERVICE_DEFAULT_PORT}",
        help="daemon base URL (default: the local default port)",
    )
    status.add_argument(
        "--journal",
        default=None,
        metavar="JSONL",
        help="read job states offline from a queue journal file instead "
        "of a live daemon",
    )
    status.set_defaults(handler=_cmd_status)

    drain = commands.add_parser(
        "drain", help="stop a daemon accepting jobs and finish the backlog"
    )
    drain.add_argument(
        "--url",
        default=f"http://127.0.0.1:{SERVICE_DEFAULT_PORT}",
        help="daemon base URL (default: the local default port)",
    )
    drain.add_argument(
        "--shutdown",
        action="store_true",
        help="stop immediately after writing the manifest instead of "
        "finishing the backlog",
    )
    drain.add_argument(
        "--wait",
        action="store_true",
        help="poll until the queue is drained and print the final summary",
    )
    drain.add_argument(
        "--wait-timeout",
        type=float,
        default=600.0,
        metavar="S",
        help="--wait deadline in seconds (default: 600)",
    )
    drain.set_defaults(handler=_cmd_drain)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as error:
        parser.error(str(error))
        return 2  # unreachable; parser.error raises SystemExit
