"""Parallel experiment execution with on-disk result caching.

The paper's headline results (Figures 5-6) are grids of
``(scheme x PLR x channel seed x sequence)`` simulations.  Every cell is
independent and deterministic given its parameters, which makes the grid
embarrassingly parallel *and* cacheable — this module exploits both:

* :class:`JobSpec` is a *declarative*, picklable description of one
  grid cell: the scheme spec string (the figures' own vocabulary, see
  :mod:`repro.resilience.registry`), the channel parameters, the source
  sequence by name, and the codec/device configuration.  Everything a
  worker process needs to rebuild the experiment from scratch.
* :func:`run_grid` runs a list of specs through one dispatch loop, with
  per-job error capture (a crashed cell comes back as a
  :class:`JobFailure` record instead of killing the sweep), bounded
  retry and an optional per-job timeout.
* :class:`ResultCache` stores each cell's
  :class:`~repro.sim.pipeline.SimulationResult` on disk under a stable
  content hash of its spec, so re-running a sweep only computes the
  cells whose parameters changed.

One loop, whatever the worker count: pending cells are sorted by encode
key, cut into chunks and submitted to an executor.  Chunk size is the
only policy that varies — coarse chunks (a few per worker) on the clean
path, one cell per chunk once retries, a timeout or a fault plan need to
observe cells individually.  With ``jobs=1``, a single pending cell or
no usable process pool, the executor is an in-process stand-in that
runs each chunk on submission against the caller's own caches; a pool
of worker processes is the other executor.  Retry, timeout,
broken-pool rebuild and poison-cache labels therefore behave the same
in both.

Determinism: a job's outcome depends only on its spec (synthetic
sequences, the channel and the codec are all explicitly seeded), so the
same grid produces bit-identical results at any worker count.

Observability: ``RunnerOptions.trace_dir`` runs every executed cell
under a per-job :class:`repro.obs.Tracer`; workers write ``job-*.jsonl``
trace files (span records cannot ride the result pickle without
coupling results to tracing) and the parent merges them into
``trace_dir/trace.jsonl`` once the grid completes.

Encode sharing has one mechanism: :meth:`EncodedStreamCache.get_or_encode`
under an :func:`encode_stream_key`, driven by :func:`simulate_cached`.
:func:`run_job` keys each cell with :func:`encode_content_hash`;
:func:`repro.sim.experiment.replicate` and
:func:`~repro.sim.experiment.calibrate_intra_th` key already-built
strategies through the spec registry.  Cells that share an encode key
pay for one encode, in any harness.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import hashlib
import json
import os
import pickle
import time
import traceback
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence, Union

from repro.faults import FaultInjector, FaultPlan, encode_subplan
from repro.faults.inject import InjectedWorkerCrash
from repro.network.loss import LossModel, UniformLoss
from repro.scenarios.pack import ScenarioPack
from repro.obs import Tracer, get_tracer, merge_job_traces, use_tracer, write_trace
from repro.codec.rate import RateControlConfig, build_rate_controller
from repro.resilience.base import ResilienceStrategy
from repro.resilience.registry import build_strategy
from repro.sim.pipeline import (
    EncodedStream,
    SimulationConfig,
    SimulationResult,
    encode_phase,
    simulate,
    transmit_phase,
)
from repro.video.frame import VideoSequence
from repro.video.synthetic import (
    SEQUENCE_GENERATORS,
    SyntheticConfig,
    generate_sequence,
)

#: Bumped whenever the simulation pipeline changes in a way that makes
#: previously cached results stale (new metrics, changed semantics).
#: Version 2: FrameRecord.damaged_fragments + SimulationResult.fault_events.
#: Version 3: JobSpec.rate (closed-loop rate control) joins the key.
#: Version 4: JobSpec.scenario (declarative channel scenario packs)
#: joins the key, and ChannelLog grew resilience counters.
CACHE_SCHEMA_VERSION = 4

#: Schema of the :class:`~repro.sim.pipeline.EncodedStream` pickles held
#: by :class:`EncodedStreamCache`; part of every encode cache key.
#: Version 2: the rate-control config joins the key (a controller
#: changes every frame's QP, and therefore the stream bytes).
STREAM_SCHEMA_VERSION = 2

#: Schema version of the JSON failure manifest written by
#: :meth:`GridManifest.write`.  Version 2 added the explicit
#: ``schema_version`` key and the ``counts.quarantined`` accounting;
#: version-1 manifests remain loadable (current and v-1, the same
#: contract the trace schema keeps).
MANIFEST_SCHEMA_VERSION = 2

#: Manifest schema versions :meth:`GridManifest.from_json` understands.
SUPPORTED_MANIFEST_SCHEMAS = frozenset({1, MANIFEST_SCHEMA_VERSION})

#: Default on-disk cache location (overridable per call and via the CLI).
DEFAULT_CACHE_DIR = os.environ.get("REPRO_CACHE_DIR", ".repro_cache")


# ---------------------------------------------------------------------------
# Stable content hashing
# ---------------------------------------------------------------------------


def _canonical(value: Any) -> Any:
    """Reduce a value to JSON-serializable primitives, deterministically.

    Dataclasses become sorted dicts tagged with their class name (two
    configs of different types never collide), mappings are
    key-sorted, and tuples/sets become lists.  Floats pass through:
    ``json`` renders them with ``repr``, which round-trips exactly.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        tagged = {"__class__": type(value).__name__}
        for f in dataclasses.fields(value):
            tagged[f.name] = _canonical(getattr(value, f.name))
        return tagged
    if isinstance(value, Mapping):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_canonical(v) for v in value)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(
        f"cannot canonicalize {type(value).__name__!r} for content hashing"
    )


def stable_hash(payload: Any) -> str:
    """SHA-256 hex digest of a canonical JSON rendering of ``payload``.

    Stable across processes and sessions (no ``PYTHONHASHSEED``
    dependence), which is what makes it usable as an on-disk cache key.
    """
    canonical = json.dumps(
        _canonical(payload), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def sequence_digest(sequence: VideoSequence) -> str:
    """Content hash of a sequence's pixel data (for non-declarative jobs).

    Used when the caller holds a :class:`VideoSequence` object rather
    than a (name, n_frames) description — e.g. the calibration loop of
    :func:`repro.sim.experiment.calibrate_intra_th`.
    """
    digest = hashlib.sha256()
    digest.update(sequence.name.encode("utf-8"))
    for frame in sequence:
        digest.update(frame.pixels.tobytes())
        if frame.cb is not None:
            digest.update(frame.cb.tobytes())
        if frame.cr is not None:
            digest.update(frame.cr.tobytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Job model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JobSpec:
    """One declarative cell of an experiment grid.

    Every field is plain data, so the spec pickles cheaply to worker
    processes and hashes stably for the result cache.  The worker
    rebuilds the whole experiment from it: sequence (by registry name,
    or from an explicit :class:`SyntheticConfig`), strategy (from the
    figure-style spec string), channel (uniform loss at ``plr`` with
    ``channel_seed``) and pipeline configuration.

    Attributes:
        scheme: figure-style strategy spec ("NO", "GOP-3", "AIR-24",
            "PGOP-3", "PBPAIR").
        plr: channel packet loss rate; also PBPAIR's assumed ``alpha``
            unless ``pbpair_kwargs`` overrides it.
        channel_seed: loss-pattern seed — the replication axis.
        sequence: synthetic clip name from
            :data:`repro.video.synthetic.SEQUENCE_GENERATORS`, or a
            free-form label when ``synthetic`` is given.
        n_frames: clip length (ignored when ``synthetic`` is given,
            which carries its own ``n_frames``).
        synthetic: explicit sequence parameters; takes precedence over
            the ``sequence``-name lookup.  This keeps the spec fully
            declarative for non-registry clips (tests use tiny frames).
        granularity: channel loss granularity, ``"frame"`` (paper) or
            ``"packet"``.
        config: pipeline configuration (codec, MTU, device profile).
        pbpair_kwargs: extra :class:`repro.core.pbpair.PBPAIRConfig`
            knobs for PBPAIR schemes (``intra_th``, ...).
        faults: optional deterministic :class:`repro.faults.FaultPlan`.
            Pipeline-stage faults are injected inside the simulation
            (and change the result, so the plan is part of the cache
            key); runner-stage faults afflict the worker executing the
            job.
        rate: optional :class:`repro.codec.rate.RateControlConfig`.
            When set, the worker builds a fresh closed-loop controller
            for the job, so every frame's QP (and the stream bytes)
            chases the configured kbps target — part of both the result
            and the stream cache keys.
        scenario: optional :class:`repro.scenarios.pack.ScenarioPack`.
            When set, the channel follows the pack's segment timeline
            instead of uniform loss at ``plr`` (which is then ignored,
            along with ``granularity``); ``channel_seed`` seeds the
            pack's loss models and stays the replication axis.  The
            pack is transmit-side only: it joins the result-cache key
            but not the encoded-stream key, so scenario sweeps share
            encodes.
    """

    scheme: str
    plr: float = 0.1
    channel_seed: int = 0
    sequence: str = "foreman"
    n_frames: int = 90
    synthetic: Optional[SyntheticConfig] = None
    granularity: str = "frame"
    config: SimulationConfig = field(default_factory=SimulationConfig)
    pbpair_kwargs: Mapping[str, Any] = field(default_factory=dict)
    faults: Optional[FaultPlan] = None
    rate: Optional[RateControlConfig] = None
    scenario: Optional[ScenarioPack] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.plr <= 1.0:
            raise ValueError(f"plr must be in [0, 1], got {self.plr}")
        if self.scenario is not None and not isinstance(
            self.scenario, ScenarioPack
        ):
            raise TypeError(
                f"scenario must be a ScenarioPack, got {type(self.scenario)!r}"
            )
        if self.n_frames < 1:
            raise ValueError(f"n_frames must be >= 1, got {self.n_frames}")
        if self.synthetic is None and self.sequence not in SEQUENCE_GENERATORS:
            known = ", ".join(sorted(SEQUENCE_GENERATORS))
            raise ValueError(
                f"unknown sequence {self.sequence!r} (known: {known}); "
                "pass synthetic=SyntheticConfig(...) for custom clips"
            )
        # Normalize to a plain dict so equality and hashing see the same
        # content regardless of the mapping type the caller used.
        object.__setattr__(self, "pbpair_kwargs", dict(self.pbpair_kwargs))

    @property
    def is_pbpair(self) -> bool:
        return self.scheme.strip().upper() == "PBPAIR"

    def content_hash(self) -> str:
        """Stable cache key: every parameter that can change the result."""
        return stable_hash(
            {
                "kind": "simulate",
                "cache_schema": CACHE_SCHEMA_VERSION,
                "scheme": self.scheme.strip().upper(),
                "plr": self.plr,
                "channel_seed": self.channel_seed,
                "sequence": self.sequence,
                "n_frames": None if self.synthetic else self.n_frames,
                "synthetic": self.synthetic,
                "granularity": self.granularity,
                "config": self.config,
                "pbpair_kwargs": self.pbpair_kwargs,
                "faults": self.faults,
                "rate": self.rate,
                "scenario": self.scenario,
            }
        )


@dataclass(frozen=True)
class JobResult:
    """A completed grid cell.

    ``attempts`` counts executions including retries (1 = first try
    succeeded); ``injected_faults`` labels the runner-stage faults a
    :class:`~repro.faults.FaultPlan` fired against this job
    (``"worker_crash@1"`` = crashed on attempt 1), so a degraded-but-
    recovered cell is distinguishable from a clean one.
    """

    spec: JobSpec
    result: SimulationResult
    wall_time_s: float
    from_cache: bool = False
    attempts: int = 1
    injected_faults: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return True


@dataclass(frozen=True)
class JobFailure:
    """A grid cell that raised (or timed out) instead of finishing.

    Captured per cell so one bad parameter combination does not kill an
    hours-long sweep; the traceback text travels back from the worker
    as a string because live traceback objects do not pickle.

    ``attempts`` counts executions including retries; ``quarantined``
    marks a job that kept failing until its retry budget ran out (a
    *poison job* — the runner stopped feeding it to workers).
    """

    spec: JobSpec
    error_type: str
    message: str
    traceback_text: str = ""
    wall_time_s: float = 0.0
    attempts: int = 1
    quarantined: bool = False
    injected_faults: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return False


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff and deterministic jitter.

    ``max_attempts`` bounds total executions of one job (1 = no
    retries, the default — existing callers keep their semantics).
    The delay before attempt ``n+1`` is::

        backoff_s * backoff_factor**(n-1) * (1 + jitter * u)

    where ``u`` in [0, 1) is derived from a stable hash of the job key
    and the attempt number — jittered like production retry loops (so
    simultaneous retries do not stampede), yet exactly reproducible.
    """

    max_attempts: int = 1
    backoff_s: float = 0.05
    backoff_factor: float = 2.0
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_s < 0 or self.backoff_factor < 1 or self.jitter < 0:
            raise ValueError("backoff parameters must be non-negative")

    def delay_for(self, attempt: int, key: str = "") -> float:
        """Seconds to wait after failed attempt ``attempt`` (1-based)."""
        digest = hashlib.sha256(f"{key}:{attempt}".encode("utf-8")).digest()
        u = int.from_bytes(digest[:8], "big") / 2**64
        base = self.backoff_s * self.backoff_factor ** (attempt - 1)
        return base * (1.0 + self.jitter * u)


@dataclass(frozen=True)
class RunnerOptions:
    """Every execution knob of the grid runner, as one declarative bundle.

    The CLI verbs (``compare``/``sweep``/``simulate``/``serve``/
    ``submit``), :func:`run_grid` and the service daemon all used to
    grow the same flag set independently (``--jobs``, ``--no-cache``,
    ``--cache-dir``, ``--faults``, ``--retries``, ``--job-timeout``,
    ``--manifest``).  This dataclass is the one
    typed surface those flags resolve into, and the only way to set
    them: build it once, hand it to :func:`run_grid` (``options=``) or
    to :class:`repro.service.daemon.EncodeDaemon`, and the execution
    semantics are identical everywhere.

    Attributes:
        jobs: worker process count; ``0`` means every core, ``1`` runs
            serially in-process.
        use_cache: keep completed cells in the on-disk result cache.
        cache_dir: result-cache directory (streams live beside it under
            ``<cache_dir>/streams``).
        retries: extra executions for a failed cell (``0`` = fail fast).
        job_timeout: per-job wall-clock limit in seconds, or ``None``.
        manifest_path: where to write the :class:`GridManifest` JSON,
            or ``None`` to skip it.
        faults: run-level deterministic :class:`~repro.faults.FaultPlan`.
        trace_dir: per-job trace directory, or ``None`` for no tracing.
        rate: run-level :class:`~repro.codec.rate.RateControlConfig`
            applied to every spec that does not carry its own — the
            matched-bitrate switch: one config, every scheme encodes
            toward the same kbps target.
        scenario: run-level
            :class:`~repro.scenarios.pack.ScenarioPack` applied to
            every spec that does not carry its own — one pack, every
            cell transmits over the same channel timeline.
    """

    jobs: int = 1
    use_cache: bool = True
    cache_dir: Union[str, Path] = DEFAULT_CACHE_DIR
    retries: int = 0
    job_timeout: Optional[float] = None
    manifest_path: Optional[Union[str, Path]] = None
    faults: Optional[FaultPlan] = None
    trace_dir: Optional[Union[str, Path]] = None
    rate: Optional[RateControlConfig] = None
    scenario: Optional[ScenarioPack] = None

    def __post_init__(self) -> None:
        if self.jobs < 0:
            raise ValueError(f"jobs must be >= 0, got {self.jobs}")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.job_timeout is not None and self.job_timeout <= 0:
            raise ValueError(
                f"job_timeout must be positive, got {self.job_timeout}"
            )

    @property
    def max_workers(self) -> Optional[int]:
        """Worker process count for :func:`resolve_workers` (``None`` = all)."""
        return None if self.jobs == 0 else self.jobs

    @property
    def retry_policy(self) -> Optional[RetryPolicy]:
        return (
            RetryPolicy(max_attempts=self.retries + 1)
            if self.retries
            else None
        )

    def build_cache(self) -> Optional["ResultCache"]:
        """The result cache these options describe (``None`` when off)."""
        if not self.use_cache:
            return None
        return ResultCache(self.cache_dir)

    def build_stream_cache(
        self, cache: Optional["ResultCache"] = None
    ) -> "EncodedStreamCache":
        """The encoded-stream cache (memory-only when caching is off)."""
        return EncodedStreamCache(
            cache.directory / "streams" if cache is not None else None
        )


def build_grid(
    schemes: Sequence[str],
    plrs: Sequence[float],
    channel_seeds: Sequence[int],
    sequences: Sequence[str] = ("foreman",),
    n_frames: int = 90,
    config: Optional[SimulationConfig] = None,
    pbpair_kwargs: Optional[Mapping[str, Any]] = None,
    granularity: str = "frame",
) -> list[JobSpec]:
    """Cartesian product of the paper's four grid axes, in a fixed order.

    Iteration order is sequence-major, then scheme, PLR, seed — stable,
    so result lists line up across runs and worker counts.
    """
    jobs = []
    for sequence in sequences:
        for scheme in schemes:
            for plr in plrs:
                for seed in channel_seeds:
                    jobs.append(
                        JobSpec(
                            scheme=scheme,
                            plr=plr,
                            channel_seed=seed,
                            sequence=sequence,
                            n_frames=n_frames,
                            config=config or SimulationConfig(),
                            pbpair_kwargs=dict(pbpair_kwargs or {}),
                        )
                    )
    return jobs


# ---------------------------------------------------------------------------
# Failure manifest: machine-readable partial-grid completion record
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ManifestEntry:
    """One grid cell's outcome, flattened for the JSON manifest."""

    index: int
    scheme: str
    plr: float
    channel_seed: int
    sequence: str
    content_hash: str
    status: str  # "ok" | "cached" | "failed"
    attempts: int
    wall_time_s: float
    error_type: Optional[str] = None
    message: Optional[str] = None
    quarantined: bool = False
    injected_faults: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.status in ("ok", "cached")

    def to_json(self) -> dict:
        record: dict[str, Any] = {
            "index": self.index,
            "scheme": self.scheme,
            "plr": self.plr,
            "channel_seed": self.channel_seed,
            "sequence": self.sequence,
            "content_hash": self.content_hash,
            "status": self.status,
            "attempts": self.attempts,
            "wall_time_s": self.wall_time_s,
        }
        if self.error_type is not None:
            record["error_type"] = self.error_type
            record["message"] = self.message
        if self.quarantined:
            record["quarantined"] = True
        if self.injected_faults:
            record["injected_faults"] = list(self.injected_faults)
        return record

    @classmethod
    def from_json(cls, record: Mapping[str, Any]) -> "ManifestEntry":
        return cls(
            index=int(record["index"]),
            scheme=record["scheme"],
            plr=float(record["plr"]),
            channel_seed=int(record["channel_seed"]),
            sequence=record["sequence"],
            content_hash=record["content_hash"],
            status=record["status"],
            attempts=int(record["attempts"]),
            wall_time_s=float(record["wall_time_s"]),
            error_type=record.get("error_type"),
            message=record.get("message"),
            quarantined=bool(record.get("quarantined", False)),
            injected_faults=tuple(record.get("injected_faults", ())),
        )


@dataclass(frozen=True)
class GridManifest:
    """Machine-readable record of a (possibly partial) grid run.

    The contract for graceful degradation: *every* submitted job
    appears exactly once — succeeded, served from cache, or failed
    (with error type, attempt count and quarantine flag) — so an
    orchestrator can tell a complete sweep from a degraded one and
    resubmit exactly the cells that died.
    """

    entries: tuple[ManifestEntry, ...] = ()

    @property
    def n_jobs(self) -> int:
        return len(self.entries)

    @property
    def degraded(self) -> tuple[ManifestEntry, ...]:
        """Entries that ultimately failed (the resubmission work list)."""
        return tuple(e for e in self.entries if not e.ok)

    @property
    def complete(self) -> bool:
        return not self.degraded

    def to_json(self) -> dict:
        counts: dict[str, int] = {}
        for entry in self.entries:
            counts[entry.status] = counts.get(entry.status, 0) + 1
        # Quarantined cells report status "failed" (schema-v1 vocabulary,
        # kept for compatibility) but are accounted separately so an
        # orchestrator can tell poison jobs from transient failures.
        quarantined = sum(1 for e in self.entries if e.quarantined)
        if quarantined:
            counts["quarantined"] = quarantined
        return {
            "schema": MANIFEST_SCHEMA_VERSION,
            "schema_version": MANIFEST_SCHEMA_VERSION,
            "n_jobs": self.n_jobs,
            "complete": self.complete,
            "counts": counts,
            "jobs": [entry.to_json() for entry in self.entries],
        }

    @classmethod
    def from_json(cls, record: Mapping[str, Any]) -> "GridManifest":
        schema = record.get("schema", record.get("schema_version"))
        if schema not in SUPPORTED_MANIFEST_SCHEMAS:
            supported = sorted(SUPPORTED_MANIFEST_SCHEMAS)
            raise ValueError(
                f"manifest schema {schema!r} "
                f"(this reader understands {supported})"
            )
        return cls(
            entries=tuple(
                ManifestEntry.from_json(job) for job in record.get("jobs", ())
            )
        )

    def write(self, path: Union[str, Path]) -> Path:
        """Write the manifest as JSON (atomically: tempfile + rename)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(
            json.dumps(self.to_json(), indent=2) + "\n", encoding="utf-8"
        )
        tmp.replace(path)
        return path


def grid_manifest(
    outcomes: Sequence[Union[JobResult, JobFailure]],
) -> GridManifest:
    """Build the failure manifest from :func:`run_grid` outcomes."""
    entries = []
    for index, outcome in enumerate(outcomes):
        spec = outcome.spec
        if isinstance(outcome, JobResult):
            status = "cached" if outcome.from_cache else "ok"
            error_type = message = None
            quarantined = False
        else:
            status = "failed"
            error_type = outcome.error_type
            message = outcome.message
            quarantined = outcome.quarantined
        entries.append(
            ManifestEntry(
                index=index,
                scheme=spec.scheme,
                plr=spec.plr,
                channel_seed=spec.channel_seed,
                sequence=spec.sequence,
                content_hash=spec.content_hash(),
                status=status,
                attempts=outcome.attempts,
                wall_time_s=outcome.wall_time_s,
                error_type=error_type,
                message=message,
                quarantined=quarantined,
                injected_faults=outcome.injected_faults,
            )
        )
    return GridManifest(entries=tuple(entries))


def load_manifest(path: Union[str, Path]) -> GridManifest:
    """Read a manifest previously written by :meth:`GridManifest.write`."""
    return GridManifest.from_json(
        json.loads(Path(path).read_text(encoding="utf-8"))
    )


# ---------------------------------------------------------------------------
# On-disk result cache
# ---------------------------------------------------------------------------


class ResultCache:
    """Pickle-per-key cache directory for experiment results.

    Writes are atomic (tempfile + rename) so a killed run never leaves a
    truncated entry behind; unreadable entries are treated as misses and
    deleted.  Keys are the stable content hashes produced by
    :meth:`JobSpec.content_hash` / :func:`stable_hash`, so the cache is
    shared safely between sweeps: equal spec, equal key, equal result.

    ``max_bytes`` bounds the directory's total ``*.pkl`` size with LRU
    eviction: every read refreshes its entry's mtime, and every write
    evicts stalest-first until the budget holds again.  The entry just
    written is never evicted, even when it alone exceeds the budget —
    a cache that silently drops what it was asked to keep would turn
    one oversized result into an infinite recompute loop.  ``None``
    (the default) keeps the historical unbounded behaviour.
    """

    def __init__(
        self,
        directory: Union[str, Path] = DEFAULT_CACHE_DIR,
        max_bytes: Optional[int] = None,
    ) -> None:
        if max_bytes is not None and max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def path_for(self, key: str) -> Path:
        return self.directory / f"{key}.pkl"

    def get(self, key: str) -> Optional[object]:
        """The cached object, or None (counts a hit/miss either way)."""
        path = self.path_for(key)
        try:
            with path.open("rb") as handle:
                value = pickle.load(handle)
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception:
            # Truncated/corrupt entry (e.g. a version-skewed pickle):
            # drop it and recompute.
            path.unlink(missing_ok=True)
            self.misses += 1
            return None
        self.hits += 1
        if self.max_bytes is not None:
            try:
                os.utime(path)  # mark recently-used for LRU eviction
            except OSError:
                pass
        return value

    def put(self, key: str, value: object) -> None:
        path = self.path_for(key)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        with tmp.open("wb") as handle:
            pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
        tmp.replace(path)
        self._evict(keep=path)

    def _evict(self, keep: Path) -> None:
        """Drop stalest entries until the byte budget holds again."""
        if self.max_bytes is None:
            return
        entries = []
        total = 0
        for path in self.directory.glob("*.pkl"):
            try:
                stat = path.stat()
            except OSError:  # raced with another process's eviction
                continue
            total += stat.st_size
            if path != keep:
                entries.append((stat.st_mtime, path, stat.st_size))
        entries.sort()
        while total > self.max_bytes and entries:
            _, path, size = entries.pop(0)
            path.unlink(missing_ok=True)
            total -= size
            self.evictions += 1

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.pkl"))

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in self.directory.glob("*.pkl"):
            path.unlink(missing_ok=True)
            removed += 1
        return removed


# ---------------------------------------------------------------------------
# Encoded-stream cache: encode once, replay many channel realizations
# ---------------------------------------------------------------------------


class EncodedStreamCache:
    """Two-level cache of :class:`~repro.sim.pipeline.EncodedStream`.

    A small in-memory LRU front (the streams a worker is actively
    replaying) over an optional on-disk :class:`ResultCache` back end
    (shared between workers and across runs) — the disk layer inherits
    ResultCache's atomic writes, corrupt-entry recovery and max-bytes
    eviction wholesale.  Pass ``directory=None`` for a memory-only
    cache (serial runs, tests).

    Keys come from :func:`encode_stream_key`: the encoder is
    deterministic, so equal keys mean byte-identical streams and a
    cache hit is exactly as good as encoding again.
    """

    def __init__(
        self,
        directory: Optional[Union[str, Path]] = None,
        max_entries: int = 8,
        max_bytes: Optional[int] = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self._memory: OrderedDict[str, EncodedStream] = OrderedDict()
        self.max_entries = max_entries
        self.disk: Optional[ResultCache] = (
            ResultCache(directory, max_bytes=max_bytes)
            if directory is not None
            else None
        )
        self.hits = 0
        self.misses = 0
        self.encodes = 0

    @property
    def directory(self) -> Optional[Path]:
        return self.disk.directory if self.disk is not None else None

    def _remember(self, key: str, stream: EncodedStream) -> None:
        self._memory[key] = stream
        self._memory.move_to_end(key)
        while len(self._memory) > self.max_entries:
            self._memory.popitem(last=False)

    def get(self, key: str) -> Optional[EncodedStream]:
        stream = self._memory.get(key)
        if stream is not None:
            self._memory.move_to_end(key)
            self.hits += 1
            return stream
        if self.disk is not None:
            value = self.disk.get(key)
            if isinstance(value, EncodedStream):
                self._remember(key, value)
                self.hits += 1
                return value
        self.misses += 1
        return None

    def put(self, key: str, stream: EncodedStream) -> None:
        self._remember(key, stream)
        if self.disk is not None:
            self.disk.put(key, stream)

    def get_or_encode(
        self, key: str, encode: Callable[[], EncodedStream]
    ) -> tuple[EncodedStream, bool]:
        """The cached stream for ``key``, or ``encode()``'s fresh one.

        Returns ``(stream, reused)`` — ``reused`` is what the runner
        reports as the ``encode_reused`` trace event, keeping per-cell
        energy accounting honest about work that did not happen.
        """
        stream = self.get(key)
        if stream is not None:
            return stream, True
        self.encodes += 1
        stream = encode()
        self.put(key, stream)
        return stream, False


def encode_stream_key(
    *,
    sequence: str,
    scheme: str,
    strategy_kwargs: Mapping[str, Any],
    config: SimulationConfig,
    encode_faults: Optional[FaultPlan] = None,
    rate: Optional[RateControlConfig] = None,
) -> str:
    """Stable cache key for one :func:`~repro.sim.pipeline.encode_phase`.

    ``sequence`` is a pixel-content digest (:func:`sequence_digest`),
    so renamed-but-identical clips share and identically-named-but-
    different clips never collide.  The key covers exactly what can
    change the stream bytes: source pixels, resolved strategy (scheme
    plus its kwargs — for PBPAIR that includes the assumed ``plr``),
    codec parameters, MTU, the encode-stage fault sub-plan, and the
    rate-control config (a controller rewrites every frame's QP).
    Channel seed/PLR/granularity, the device energy profile and the
    bad-pixel threshold are transmit-side and deliberately absent —
    that absence *is* the sharing.
    """
    return stable_hash(
        {
            "kind": "encode-stream",
            "stream_schema": STREAM_SCHEMA_VERSION,
            "sequence": sequence,
            "scheme": scheme.strip().upper(),
            "strategy_kwargs": dict(strategy_kwargs),
            "codec": config.codec,
            "mtu": config.mtu,
            "encode_faults": encode_faults,
            "rate": rate,
        }
    )


def _strategy_kwargs_for(spec: "JobSpec") -> dict[str, Any]:
    """The kwargs :func:`run_job` resolves a spec's strategy with."""
    if spec.is_pbpair:
        return {"plr": spec.plr, **spec.pbpair_kwargs}
    return {}


@lru_cache(maxsize=32)
def _declared_sequence_digest(
    sequence: str, n_frames: int, synthetic: Optional[SyntheticConfig]
) -> str:
    """Memoized pixel digest of a declaratively-specified sequence."""
    return sequence_digest(_sequence_for(sequence, n_frames, synthetic))


def encode_content_hash(spec: "JobSpec") -> str:
    """The encode-phase cache key of one grid cell.

    Two specs with equal hashes share one encoded stream: same pixels,
    same resolved strategy, same codec/MTU, same encode-stage faults.
    A seeds-sweep grid therefore collapses to one encode per scheme —
    PBPAIR cells additionally split per PLR, because the scheme's
    intra-refresh probability is a function of the loss rate it
    assumes.
    """
    return encode_stream_key(
        sequence=_declared_sequence_digest(
            spec.sequence, spec.n_frames, spec.synthetic
        ),
        scheme=spec.scheme,
        strategy_kwargs=_strategy_kwargs_for(spec),
        config=spec.config,
        encode_faults=encode_subplan(spec.faults),
        rate=spec.rate,
    )


# ---------------------------------------------------------------------------
# Job execution
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)
def _sequence_for(
    sequence: str, n_frames: int, synthetic: Optional[SyntheticConfig]
) -> VideoSequence:
    """Build (and memoize per process) a job's source sequence.

    Workers typically run many cells of the same clip; regenerating it
    per job would dominate small-grid wall time.
    """
    if synthetic is not None:
        return generate_sequence(synthetic, name=sequence)
    return SEQUENCE_GENERATORS[sequence](n_frames)


def run_job(
    spec: JobSpec,
    stream_cache: Optional[EncodedStreamCache] = None,
) -> SimulationResult:
    """Execute one grid cell from scratch, deterministically.

    Every random element (synthetic sequence, channel) is seeded from
    the spec, so equal specs produce equal results in any process.

    With a ``stream_cache``, the encode phase is looked up under
    :func:`encode_content_hash` and only the transmit phase runs when
    another cell already paid for the encode — value-identical to the
    full pipeline, with an ``encode_reused`` trace event marking the
    skipped work.  Specs carrying encode-stage faults opt out and run
    the whole pipeline (their corrupted stream is theirs alone).
    """
    sequence = _sequence_for(spec.sequence, spec.n_frames, spec.synthetic)
    strategy = build_strategy(spec.scheme, **_strategy_kwargs_for(spec))
    if spec.scenario is not None:
        loss_model = None
        channel_kwargs: dict[str, Any] = {
            "scenario": spec.scenario,
            "scenario_seed": spec.channel_seed,
        }
    else:
        loss_model = UniformLoss(
            plr=spec.plr, seed=spec.channel_seed, granularity=spec.granularity
        )
        channel_kwargs = {}
    if stream_cache is None or encode_subplan(spec.faults) is not None:
        return simulate(
            sequence,
            strategy,
            loss_model=loss_model,
            config=spec.config,
            rate_controller=build_rate_controller(spec.rate),
            faults=spec.faults,
            **channel_kwargs,
        )

    return simulate_cached(
        sequence,
        strategy,
        stream_cache,
        encode_content_hash(spec),
        loss_model=loss_model,
        config=spec.config,
        rate=spec.rate,
        faults=spec.faults,
        **channel_kwargs,
    )


def simulate_cached(
    sequence: VideoSequence,
    strategy: ResilienceStrategy,
    stream_cache: EncodedStreamCache,
    key: str,
    *,
    loss_model: Optional[LossModel] = None,
    config: Optional[SimulationConfig] = None,
    rate: Optional[RateControlConfig] = None,
    faults: Optional[FaultPlan] = None,
    **channel_kwargs: Any,
) -> SimulationResult:
    """:func:`simulate` with the encode phase served from ``stream_cache``.

    ``key`` must be the :func:`encode_stream_key` of this exact encode
    (pixels, resolved strategy, codec config, rate config); the first
    run under a key encodes, later runs replay its stream through the
    transmit phase only — value-identical to the full pipeline, with an
    ``encode_reused`` trace event marking the skipped work.  The encode
    runs inside the run's own ``simulate`` span either way, so stage
    spans are attributed the same as under :func:`simulate`.  Only the
    transmit-side parts of ``faults`` act here: a plan with
    encode-stage faults must run through :func:`simulate` instead.
    """
    tracer = get_tracer()
    with tracer.span("simulate") as run_span:
        stream, reused = stream_cache.get_or_encode(
            key,
            # A fresh controller per encode: its state is a pure
            # function of the frames it observes, which keeps the
            # encode deterministic and therefore cacheable.
            lambda: encode_phase(
                sequence,
                strategy,
                config=config,
                rate_controller=build_rate_controller(rate),
            ),
        )
        if reused and tracer.enabled:
            tracer.event(
                "encode_reused",
                key=key[:16],
                scheme=strategy.name,
                sequence=sequence.name,
                frames=stream.n_frames,
            )
        run_span.add(frames=stream.n_frames)
        tracer.metrics.gauge("sim.frames", stream.n_frames)
        return transmit_phase(
            stream,
            sequence,
            loss_model=loss_model,
            config=config,
            faults=faults,
            **channel_kwargs,
        )


def _job_trace_id(spec: JobSpec) -> str:
    """Human-readable trace label for one grid cell."""
    channel = (
        f"scenario={spec.scenario.name}"
        if spec.scenario is not None
        else f"plr={spec.plr:g}"
    )
    return (
        f"{spec.scheme} {channel} seed={spec.channel_seed} "
        f"{spec.sequence}"
    )


def _raise_worker_faults(
    spec: JobSpec, attempt: int, allow_process_exit: bool
) -> None:
    """Fire the runner-stage faults a plan aims at this worker attempt.

    ``worker_hang`` sleeps (the job then proceeds — a slow worker, not
    a dead one); ``worker_crash`` raises :class:`InjectedWorkerCrash`;
    ``worker_exit`` kills the whole process with :func:`os._exit` when
    ``allow_process_exit`` says a pool can absorb it (pooled workers),
    and degrades to the soft crash serially — the parent process must
    survive its own fault plan.
    """
    if spec.faults is None or not spec.faults:
        return
    injector = FaultInjector(spec.faults)
    for fault in injector.worker_faults(spec.content_hash(), attempt):
        if fault.kind == "worker_hang":
            time.sleep(fault.hang_seconds)
        elif fault.kind == "worker_exit" and allow_process_exit:
            os._exit(86)
        else:  # worker_crash, or worker_exit downgraded for serial mode
            raise InjectedWorkerCrash(
                f"injected {fault.kind} on attempt {attempt}"
            )


def _execute_job(
    spec: JobSpec,
    trace_dir: Optional[str],
    attempt: int,
    allow_process_exit: bool,
    stream_cache: EncodedStreamCache,
) -> tuple[bool, object, float]:
    """Run one cell attempt: never raises*, returns a picklable outcome.

    (*except an injected ``worker_exit`` in a pool worker, which by
    design takes the whole process down so the parent's broken-pool
    recovery path gets exercised.)

    With ``trace_dir``, the job runs under a fresh :class:`Tracer` and
    leaves its spans in ``trace_dir/job-<hash>.jsonl`` — a per-job
    file, because :class:`SpanRecord` streams cannot cross the pool
    boundary any other way without coupling results to tracing.  The
    parent merges the per-job files after the grid completes.  Tracing
    is observation-only: the returned result is bit-identical either
    way.

    :func:`run_job` is looked up as a module global on every call, so
    wrapping ``repro.sim.runner.run_job`` instruments every cell.
    """
    start = time.perf_counter()
    try:
        _raise_worker_faults(spec, attempt, allow_process_exit)
        if trace_dir is not None:
            tracer = Tracer(trace_id=_job_trace_id(spec))
            with use_tracer(tracer):
                result = run_job(spec, stream_cache)
            write_trace(
                Path(trace_dir) / f"job-{spec.content_hash()[:16]}.jsonl",
                tracer,
            )
        else:
            result = run_job(spec, stream_cache)
        return True, result, time.perf_counter() - start
    except Exception as error:  # noqa: BLE001 - error capture is the contract
        payload = (
            type(error).__name__,
            str(error),
            traceback.format_exc(),
        )
        return False, payload, time.perf_counter() - start


def _execute_chunk(
    cells: Sequence[tuple[JobSpec, int]],
    trace_dir: Optional[str],
    cache: Optional[ResultCache],
    stream_cache: EncodedStreamCache,
    allow_process_exit: bool,
) -> list[tuple[bool, object, float]]:
    """Run a chunk of ``(spec, attempt)`` cells and cache the successes.

    The one unit of work :func:`run_grid` submits to its executor.
    Outcomes are per cell, order-aligned and never raising; whoever
    executes the chunk writes its successes into the result cache, so
    cache writes never serialize on the parent of a process pool.
    """
    outcomes = []
    for spec, attempt in cells:
        ok, payload, elapsed = _execute_job(
            spec, trace_dir, attempt, allow_process_exit, stream_cache
        )
        if ok and cache is not None:
            cache.put(spec.content_hash(), payload)
        outcomes.append((ok, payload, elapsed))
    return outcomes


@lru_cache(maxsize=4)
def _worker_cache(directory: str, max_bytes: Optional[int]) -> ResultCache:
    """Per-process result-cache handle, reused across a worker's chunks."""
    return ResultCache(directory, max_bytes=max_bytes)


@lru_cache(maxsize=4)
def _worker_stream_cache(directory: Optional[str]) -> EncodedStreamCache:
    """Per-process encoded-stream cache handle.

    ``None`` gives the worker a memory-only cache (the cells of one
    worker's lifetime still share).  Keys are content hashes, so a
    long-lived handle can never serve a stale stream.
    """
    return EncodedStreamCache(directory)


def _execute_pooled_chunk(
    cells: Sequence[tuple[JobSpec, int]],
    trace_dir: Optional[str],
    cache_dir: Optional[str],
    cache_max_bytes: Optional[int],
    stream_dir: Optional[str],
) -> list[tuple[bool, object, float]]:
    """Pool-worker entry point: :func:`_execute_chunk` on this process's
    cache handles, opened by directory (the worker receives paths,
    never a pickled stream), with ``worker_exit`` faults allowed to
    kill the process — the pool absorbs a hard exit."""
    return _execute_chunk(
        cells,
        trace_dir,
        _worker_cache(cache_dir, cache_max_bytes) if cache_dir else None,
        _worker_stream_cache(stream_dir),
        True,
    )


class _InProcessExecutor(concurrent.futures.Executor):
    """Runs each submission to completion inside :meth:`submit`.

    The serial stand-in for a process pool: the dispatch loop treats it
    like any executor, so serial runs take exactly the pooled code path,
    but nothing crosses a process boundary.
    """

    def submit(self, fn, /, *args, **kwargs):
        future: concurrent.futures.Future = concurrent.futures.Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as error:  # noqa: BLE001 - surfaced by result()
            future.set_exception(error)
        return future


def resolve_workers(max_workers: Optional[int]) -> int:
    """None -> all cores; values below 1 are a configuration error."""
    if max_workers is None:
        return os.cpu_count() or 1
    if max_workers < 1:
        raise ValueError(f"max_workers must be >= 1, got {max_workers}")
    return max_workers


def _poison_cache_entries(
    spec: JobSpec, cache: Optional[ResultCache]
) -> list[str]:
    """Fire a plan's poison-cache faults against one job's cache entry.

    Corrupts the entry file in place (the cache treats unreadable
    entries as misses and deletes them, so the job recomputes — this
    fault *proves* that recovery path).  Returns injection labels for
    the job's outcome; nothing fires when there is no entry to rot.
    """
    if cache is None or spec.faults is None or not spec.faults:
        return []
    key = spec.content_hash()
    injector = FaultInjector(spec.faults)
    labels = []
    for fault in injector.poison_cache_faults(key):
        path = cache.path_for(key)
        if not path.exists():
            continue
        with path.open("r+b") as handle:
            handle.seek(0)
            handle.write(b"\x00rotten\x00")
            handle.truncate(8)
        injector.record_runner_fault(fault, target=f"cache:{key[:12]}")
        labels.append("poison_cache")
    return labels


def _attempt_labels(spec: JobSpec, attempt: int) -> list[str]:
    """Parent-side labels for worker faults firing in one attempt.

    A crashed worker cannot send its own fault events back, so the
    parent re-evaluates the (deterministic) plan to know what it did
    to the job — same draw, same verdict, any process.
    """
    if spec.faults is None or not spec.faults:
        return []
    injector = FaultInjector(spec.faults)
    return [
        f"{fault.kind}@{attempt}"
        for fault in injector.worker_faults(spec.content_hash(), attempt)
    ]


def _with_run_level(spec: JobSpec, options: RunnerOptions) -> JobSpec:
    """Fill a spec's unset faults/rate/scenario from run-level options.

    A spec-level value always wins — it is part of the cache key.  An
    empty run-level fault plan applies nothing.
    """
    run_level = {
        "faults": options.faults or None,
        "rate": options.rate,
        "scenario": options.scenario,
    }
    updates = {
        name: value
        for name, value in run_level.items()
        if value is not None and getattr(spec, name) is None
    }
    return dataclasses.replace(spec, **updates) if updates else spec


def run_grid(
    jobs: Iterable[JobSpec],
    options: Optional[RunnerOptions] = None,
    *,
    cache: Optional[ResultCache] = None,
    stream_cache: Optional[EncodedStreamCache] = None,
) -> list[Union[JobResult, JobFailure]]:
    """Run a grid of jobs with caching, retry and error capture.

    Args:
        jobs: the grid cells; results come back in the same order.
        options: every execution knob — workers, result cache,
            retries, per-job timeout, fault plan, trace
            directory, manifest, run-level rate config and scenario
            (see :class:`RunnerOptions`).  ``None`` runs on every core
            without an on-disk cache.
        cache: a result-cache object to use instead of the one
            ``options`` describes (lets a caller share one handle, and
            its hit/miss counters, across several grids).
        stream_cache: likewise for the encoded-stream cache, through
            which every cell sharing an encode key replays one stream.

    Returns:
        One :class:`JobResult` or :class:`JobFailure` per input spec,
        order-aligned with ``jobs``.  Outcomes are deterministic: the
        worker count changes wall time, never values.

    Semantics, identical at every worker count:

    * Cached cells return immediately (``from_cache=True``); fresh
      successes are written back, failures never are.
    * A failed cell (raised, timed out, or took its pool down) is re-run
      up to ``retries`` more times with jittered exponential backoff
      (:class:`RetryPolicy`); one still failing with the budget spent
      comes back as a *quarantined* :class:`JobFailure`.
    * ``job_timeout`` is enforced while collecting results: a cell that
      exceeds it fails with ``error_type="TimeoutError"``.  Best-effort
      — a running worker is not killed, and in-process execution cannot
      be preempted at all.
    * Run-level ``faults``, ``rate`` and ``scenario`` apply to every
      spec that does not carry its own.
    * With ``trace_dir``, every executed cell writes a per-job trace,
      merged into ``trace_dir/trace.jsonl`` at the end (cache hits
      execute nothing and add no spans).  Tracing never changes results.
    * With ``manifest_path``, a :class:`GridManifest` accounting for
      every submitted job is written when the grid completes.
    """
    if options is None:
        options = RunnerOptions(jobs=0, use_cache=False)
    if cache is None:
        cache = options.build_cache()
    if stream_cache is None:
        stream_cache = options.build_stream_cache(cache)
    retry = options.retry_policy or RetryPolicy()
    timeout = options.job_timeout
    trace_dir: Optional[str] = None
    if options.trace_dir is not None:
        Path(options.trace_dir).mkdir(parents=True, exist_ok=True)
        trace_dir = str(Path(options.trace_dir))

    specs = [_with_run_level(spec, options) for spec in jobs]
    outcomes: dict[int, Union[JobResult, JobFailure]] = {}
    labels: dict[int, list[str]] = {}
    pending: list[int] = []
    for index, spec in enumerate(specs):
        labels[index] = _poison_cache_entries(spec, cache)
        hit = cache.get(spec.content_hash()) if cache is not None else None
        if hit is None:
            pending.append(index)
            continue
        outcomes[index] = JobResult(
            spec=spec,
            result=hit,
            wall_time_s=0.0,
            from_cache=True,
            injected_faults=tuple(labels[index]),
        )
    attempts = {index: 1 for index in pending}
    workers = min(resolve_workers(options.max_workers), max(len(pending), 1))

    # Chunk-size policy: a few coarse chunks per worker on the clean
    # path (one round-trip per chunk, the pickle memo sharing config
    # objects across its specs); single-cell chunks once retries, a
    # timeout or a fault plan must observe cells individually.
    per_cell = (
        retry.max_attempts > 1
        or timeout is not None
        or any(specs[index].faults for index in pending)
    )
    chunk_size = 1 if per_cell else max(1, -(-len(pending) // (4 * workers)))
    # Encode-group-contiguous dispatch: cells sharing an encoded stream
    # land in the same chunk (hence the same worker's stream cache).
    # Output order is unaffected — outcomes key on the original index.
    pending.sort(key=lambda i: (encode_content_hash(specs[i]), i))

    def new_pool() -> concurrent.futures.Executor:
        return concurrent.futures.ProcessPoolExecutor(max_workers=workers)

    # In-process execution uses the caller's cache objects and degrades
    # worker_exit to a soft crash: this process must survive its own
    # fault plan.  Pool workers open the caches by directory instead.
    executor: concurrent.futures.Executor = _InProcessExecutor()
    entry: Callable[..., list] = _execute_chunk
    context: tuple = (trace_dir, cache, stream_cache, False)
    if workers > 1:
        try:
            executor = new_pool()
        except (NotImplementedError, OSError, PermissionError):
            pass  # no usable process pool here: same results, in-process
        else:
            stream_dir = stream_cache.directory
            entry = _execute_pooled_chunk
            context = (
                trace_dir,
                str(cache.directory) if cache is not None else None,
                cache.max_bytes if cache is not None else None,
                str(stream_dir) if stream_dir is not None else None,
            )

    queue: deque[tuple[list[int], concurrent.futures.Future]] = deque()

    def note_attempt(index: int) -> None:
        labels[index].extend(_attempt_labels(specs[index], attempts[index]))

    def submit(chunk: list[int], front: bool = False) -> None:
        cells = [(specs[i], attempts[i]) for i in chunk]
        item = (chunk, executor.submit(entry, cells, *context))
        if front:
            queue.appendleft(item)
        else:
            queue.append(item)

    def should_retry(index: int, ok: bool) -> bool:
        if ok or attempts[index] >= retry.max_attempts:
            return False
        time.sleep(
            retry.delay_for(attempts[index], specs[index].content_hash())
        )
        attempts[index] += 1
        note_attempt(index)
        return True

    def finish(index: int, ok: bool, payload: object, elapsed: float) -> None:
        common: dict[str, Any] = dict(
            spec=specs[index],
            wall_time_s=elapsed,
            attempts=attempts[index],
            injected_faults=tuple(labels[index]),
        )
        if ok:
            outcomes[index] = JobResult(result=payload, **common)
            return
        error_type, message, tb_text = payload
        outcomes[index] = JobFailure(
            error_type=error_type,
            message=message,
            traceback_text=tb_text,
            quarantined=(
                retry.max_attempts > 1
                and attempts[index] >= retry.max_attempts
            ),
            **common,
        )

    def rebuild(first: list[int]) -> None:
        # A worker hard-died and took the pool's queues with it: every
        # in-flight chunk is lost.  Rebuild the pool and resubmit them.
        # A cell whose *current* attempt is itself scheduled to hard-exit
        # spends that attempt first (the plan is deterministic, so the
        # parent knows without hearing back) — resubmitting it unchanged
        # would just kill the fresh pool again and bleed the other
        # cells' retry budgets.
        nonlocal executor
        executor.shutdown(wait=False, cancel_futures=True)
        executor = new_pool()
        stale = ([first] if first else []) + [chunk for chunk, _ in queue]
        queue.clear()
        for chunk in stale:
            for index in chunk:
                while (
                    attempts[index] < retry.max_attempts
                    and f"worker_exit@{attempts[index]}" in labels[index]
                ):
                    attempts[index] += 1
                    note_attempt(index)
            submit(chunk)

    try:
        for start in range(0, len(pending), chunk_size):
            chunk = pending[start : start + chunk_size]
            for index in chunk:
                note_attempt(index)
            submit(chunk)
        while queue:
            chunk, future = queue.popleft()
            broken = False
            try:
                results = future.result(timeout=timeout)
            except concurrent.futures.TimeoutError:
                future.cancel()
                failed = ("TimeoutError", f"job exceeded {timeout}s", "")
                results = [(False, failed, float(timeout or 0.0))] * len(chunk)
            except concurrent.futures.process.BrokenProcessPool as error:
                broken = True
                failed = ("BrokenProcessPool", str(error), "")
                results = [(False, failed, 0.0)] * len(chunk)
            again = []
            for index, (ok, payload, elapsed) in zip(chunk, results):
                if should_retry(index, ok):
                    again.append(index)
                else:
                    finish(index, ok, payload, elapsed)
            if broken:
                rebuild(again)
            elif again:
                submit(again, front=True)
    finally:
        executor.shutdown(wait=False, cancel_futures=True)

    if trace_dir is not None:
        merge_job_traces(trace_dir)
    ordered = [outcomes[index] for index in range(len(specs))]
    if options.manifest_path is not None:
        grid_manifest(ordered).write(options.manifest_path)
    return ordered
