"""Operating-point matching and seed replication for the paper's comparisons.

The paper's comparisons are run at *matched compression ratio*: "We
choose Intra_Th that gives similar compression ratio with PGOP-3, GOP-3,
and AIR-24" (Figure 5) and schemes "that generate a similar size of
encoded bitstream" (Figure 6).  Two ways to get there:

* :class:`RateMatchSpec` — the first-class path: every scheme encodes
  under the same closed-loop :class:`~repro.codec.rate.RateControlConfig`
  and the controller *drives* each one to the target bitrate in a
  single pass.  No probing, no bisection.
* :func:`calibrate_intra_th` — the legacy offline path: find the
  ``Intra_Th`` whose encoded size matches a reference by bisection (the
  intra-macroblock count, and with it the encoded size, grows
  monotonically with the threshold).  Kept for matched-*size* studies.

The comparison grids themselves are :class:`~repro.sim.runner.JobSpec`
cells run by :func:`~repro.sim.runner.run_grid`.  :func:`replicate`
runs one already-built experiment over several channel seeds, for
channels a declarative spec cannot express.  Both share encodes the
same way: through :class:`~repro.sim.runner.EncodedStreamCache` under
an :func:`~repro.sim.runner.encode_stream_key`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional, Sequence

from repro.codec.encoder import Encoder
from repro.codec.rate import RateControlConfig
from repro.core.pbpair import PBPAIRConfig
from repro.network.loss import LossModel
from repro.resilience.base import ResilienceStrategy
from repro.resilience.pbpair_strategy import PBPAIRStrategy
from repro.resilience.registry import strategy_to_spec
from repro.sim.pipeline import (
    SimulationConfig,
    SimulationResult,
    encode_phase,
    simulate,
)
from repro.sim.runner import (
    EncodedStreamCache,
    JobSpec,
    encode_stream_key,
    sequence_digest,
    simulate_cached,
)
from repro.video.frame import VideoSequence


def total_encoded_bytes(
    sequence: VideoSequence,
    strategy: ResilienceStrategy,
    config: Optional[SimulationConfig] = None,
) -> int:
    """Encoded size of the sequence under a scheme (no channel)."""
    codec = (config or SimulationConfig()).codec
    encoded = Encoder(codec, strategy).encode_sequence(sequence)
    return sum(frame.size_bytes for frame in encoded)


class CalibrationResult(float):
    """The matched ``Intra_Th``, annotated with calibration-cost stats.

    A plain ``float`` to every existing consumer (arithmetic,
    ``"{:.3f}"`` formatting, equality with the bisection midpoints all
    behave normally) — plus an honest account of the encode work the
    caches saved: ``probes`` bisection probes asked for a size, only
    ``unique_encodes`` of them actually ran the encoder.
    """

    probes: int
    unique_encodes: int
    cache_hits: int

    def __new__(
        cls,
        value: float,
        probes: int = 0,
        unique_encodes: int = 0,
        cache_hits: int = 0,
    ) -> "CalibrationResult":
        self = super().__new__(cls, value)
        self.probes = probes
        self.unique_encodes = unique_encodes
        self.cache_hits = cache_hits
        return self

    @property
    def saved_encodes(self) -> int:
        """Probes that cost a lookup instead of an encoder run."""
        return self.probes - self.unique_encodes


def calibrate_intra_th(
    sequence: VideoSequence,
    target_bytes: int,
    plr: float,
    config: Optional[SimulationConfig] = None,
    pbpair_kwargs: Optional[dict] = None,
    tolerance: float = 0.03,
    max_iterations: int = 8,
    stream_cache: Optional[EncodedStreamCache] = None,
) -> CalibrationResult:
    """Find the ``Intra_Th`` whose encoded size matches ``target_bytes``.

    Bisection over [0, 1]; the encoded size grows with the threshold
    (more macroblocks fall below it and are intra-coded).  Stops when
    within ``tolerance`` (relative) of the target or after
    ``max_iterations`` encodes, returning the best threshold seen as a
    :class:`CalibrationResult` — a float that also reports how many
    probes ran and how many encodes the caches saved.

    The bisection itself is inherently sequential (each probe depends
    on the previous outcome), but each probe's encode is pure in its
    parameters, so every probe encodes through ``stream_cache`` (a
    private memory-only one when none is given) under the *grid
    runner's* encode key: the stream encoded while probing the winning
    threshold is the very stream the subsequent PBPAIR grid cells
    replay, and a disk-backed cache makes re-calibrating the same clip
    free.

    The paper does the same calibration to compare schemes at equal
    compression ratio.  Calibrate on the clip you will measure: a
    prefix is cheaper but transfers poorly when the content is
    non-stationary (FOREMAN's camera pan starts in the final third).
    """
    if target_bytes <= 0:
        raise ValueError("target_bytes must be positive")
    if not 0.0 < tolerance < 1.0:
        raise ValueError("tolerance must be in (0, 1)")
    if max_iterations < 1:
        raise ValueError(
            f"max_iterations must be >= 1, got {max_iterations}: bisection "
            "needs at least one encode to have a threshold to return"
        )
    kwargs = dict(pbpair_kwargs or {})
    if stream_cache is None:
        stream_cache = EncodedStreamCache(max_entries=1)
    digest = sequence_digest(sequence)
    stats = {"probes": 0, "encodes": 0, "hits": 0}

    def probe_size(th: float) -> int:
        """The probe's encoded size, from the stream cache or the encoder."""
        stats["probes"] += 1
        strategy = PBPAIRStrategy(PBPAIRConfig(intra_th=th, plr=plr, **kwargs))
        key = encode_stream_key(
            sequence=digest,
            scheme="PBPAIR",
            strategy_kwargs={"plr": plr, "intra_th": th, **kwargs},
            config=config or SimulationConfig(),
        )
        stream, reused = stream_cache.get_or_encode(
            key, lambda: encode_phase(sequence, strategy, config=config)
        )
        stats["hits" if reused else "encodes"] += 1
        return stream.total_bytes

    lo, hi = 0.0, 1.0
    best_th, best_error = 0.5, float("inf")
    for _ in range(max_iterations):
        mid = (lo + hi) / 2.0
        size = probe_size(mid)
        error = abs(size - target_bytes) / target_bytes
        if error < best_error:
            best_th, best_error = mid, error
        if error <= tolerance:
            break
        if size < target_bytes:
            lo = mid
        else:
            hi = mid
    return CalibrationResult(
        best_th,
        probes=stats["probes"],
        unique_encodes=stats["encodes"],
        cache_hits=stats["hits"],
    )


@dataclass(frozen=True)
class RateMatchSpec:
    """A matched-bitrate comparison: every scheme, one kbps target.

    The first-class replacement for the :func:`calibrate_intra_th`
    probe loop on the Figure 5/6 path: instead of bisecting PBPAIR's
    ``Intra_Th`` until its file size matches a reference encode, every
    scheme carries the same closed-loop
    :class:`~repro.codec.rate.RateControlConfig` and the controller
    steers each one to the target bitrate *while encoding*.  Zero
    probe encodes; fairness by construction.

    Attributes:
        target_kbps: the shared bitrate target.  Must sit inside every
            scheme's feasible band — intra-heavy schemes (GOP, AIR)
            have a bitrate floor at QP 31 that a too-low target cannot
            get under.
        schemes: figure-style scheme specs to compare.
        fps: frame rate the target divides by.
        sensitivity: controller aggressiveness (see
            :class:`~repro.codec.rate.RateControlConfig`).
        base_qp: first-frame quantizer for every scheme.
    """

    target_kbps: float
    schemes: tuple[str, ...] = ("NO", "GOP-3", "AIR-24", "PGOP-3", "PBPAIR")
    fps: float = 30.0
    sensitivity: float = 1.0
    base_qp: int = 6

    def __post_init__(self) -> None:
        if not self.schemes:
            raise ValueError("need at least one scheme")
        object.__setattr__(self, "schemes", tuple(self.schemes))
        # Delegate numeric validation to the config itself.
        self.rate_config()

    def rate_config(self) -> RateControlConfig:
        """The one rate-control config every scheme encodes under."""
        return RateControlConfig(
            target_kbps=self.target_kbps,
            fps=self.fps,
            sensitivity=self.sensitivity,
            base_qp=self.base_qp,
        )

    def jobs(
        self,
        *,
        plr: float,
        channel_seed: int = 0,
        sequence: str = "foreman",
        n_frames: int = 90,
        config: Optional[SimulationConfig] = None,
        pbpair_kwargs: Optional[Mapping[str, Any]] = None,
    ) -> list[JobSpec]:
        """One rate-controlled :class:`JobSpec` per scheme, in order.

        Ready for :func:`repro.sim.runner.run_grid`: every cell shares
        the channel conditions and the rate config, so the grid *is*
        the matched-bitrate comparison.
        """
        rate = self.rate_config()
        return [
            JobSpec(
                scheme=scheme,
                plr=plr,
                channel_seed=channel_seed,
                sequence=sequence,
                n_frames=n_frames,
                config=config or SimulationConfig(),
                pbpair_kwargs=dict(pbpair_kwargs or {})
                if scheme.upper().startswith("PBPAIR")
                else {},
                rate=rate,
            )
            for scheme in self.schemes
        ]


@dataclass(frozen=True)
class ReplicationSummary:
    """Mean/stddev of a metric over several independent channel seeds."""

    label: str
    seeds: tuple[int, ...]
    values: tuple[float, ...]

    @property
    def mean(self) -> float:
        return sum(self.values) / len(self.values)

    @property
    def std(self) -> float:
        mu = self.mean
        return math.sqrt(
            sum((v - mu) ** 2 for v in self.values) / len(self.values)
        )


def replicate(
    sequence: VideoSequence,
    strategy_factory: Callable[[], ResilienceStrategy],
    loss_factory: Callable[[int], LossModel],
    metric: Callable[[SimulationResult], float],
    seeds: Sequence[int],
    label: str = "run",
    config: Optional[SimulationConfig] = None,
) -> ReplicationSummary:
    """Run the same experiment over several channel seeds.

    Single-seed results can flatter or punish a scheme by luck of which
    frames the channel drops; reporting mean and spread over seeds is
    how the comparison benches should be read.  ``loss_factory`` maps a
    seed to a fresh loss model; ``strategy_factory`` builds a fresh
    (stateful) strategy per run.

    The per-seed runs share one encode when the strategy round-trips
    through the spec registry: each run goes through
    :func:`~repro.sim.runner.simulate_cached` on one memory-only
    :class:`~repro.sim.runner.EncodedStreamCache`, the same path the
    grid runner takes.  Any other strategy runs the full pipeline per
    seed.  Every callable may be a lambda: nothing leaves this process.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    stream_cache = EncodedStreamCache()
    digest = sequence_digest(sequence)
    values = []
    for seed in seeds:
        strategy = strategy_factory()
        loss_model = loss_factory(seed)
        try:
            scheme, kwargs = strategy_to_spec(strategy)
            key = encode_stream_key(
                sequence=digest,
                scheme=scheme,
                strategy_kwargs=kwargs,
                config=config or SimulationConfig(),
            )
        except (ValueError, AttributeError, TypeError):
            # Not expressible as a spec (or its kwargs do not hash): no
            # grounds to assume two instances encode identically.
            result = simulate(
                sequence, strategy, loss_model=loss_model, config=config
            )
        else:
            result = simulate_cached(
                sequence,
                strategy,
                stream_cache,
                key,
                loss_model=loss_model,
                config=config,
            )
        values.append(float(metric(result)))
    return ReplicationSummary(
        label=label, seeds=tuple(int(s) for s in seeds), values=tuple(values)
    )
