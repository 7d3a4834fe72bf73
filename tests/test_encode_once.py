"""Encode-once grids: phase split, stream sharing, and its cache keys.

The contract under test: splitting :func:`simulate` into
``encode_phase`` + ``transmit_phase`` and sharing encoded streams
across grid cells is *observation-equivalent* — byte-identical
bitstreams, value-identical metrics, in any process — and cells whose
fault plans touch the encode stage correctly opt out of sharing.
"""

from __future__ import annotations

import concurrent.futures

import pytest

from repro.codec.encoder import Encoder
from repro.faults import FaultPlan, FaultSpec, encode_subplan
from repro.network.loss import UniformLoss
from repro.network.packet import Packetizer
from repro.obs import Tracer, use_tracer
from repro.resilience.none import NoResilience
from repro.resilience.registry import build_strategy
from repro.sim.experiment import replicate
from repro.sim.pipeline import (
    SimulationConfig,
    encode_phase,
    simulate,
    transmit_phase,
)
from repro.sim.runner import (
    EncodedStreamCache,
    JobSpec,
    RunnerOptions,
    encode_content_hash,
    run_grid,
    run_job,
)
from repro.video.synthetic import SyntheticConfig

from tests.conftest import SMALL_H, SMALL_W, small_config, small_sequence

N_FRAMES = 6

SMALL_SYNTHETIC = SyntheticConfig(
    width=SMALL_W, height=SMALL_H, n_frames=N_FRAMES, seed=11
)


def _sim_config() -> SimulationConfig:
    return SimulationConfig(codec=small_config())


def _spec(scheme: str = "GOP-2", seed: int = 0, **overrides) -> JobSpec:
    defaults = dict(
        scheme=scheme,
        plr=0.2,
        channel_seed=seed,
        sequence="tiny",
        n_frames=N_FRAMES,
        synthetic=SMALL_SYNTHETIC,
        config=_sim_config(),
    )
    defaults.update(overrides)
    return JobSpec(**defaults)


def _grid() -> list[JobSpec]:
    return [
        _spec(scheme, seed)
        for scheme in ("NO", "GOP-2", "PBPAIR")
        for seed in (0, 1)
    ]


def assert_results_equal(a, b) -> None:
    assert a.frames == b.frames
    assert a.counters == b.counters
    assert a.energy == b.energy
    assert a.decoder_counters == b.decoder_counters
    assert a.decoder_energy == b.decoder_energy
    assert a.size_stats == b.size_stats
    assert a.fault_events == b.fault_events


class TestPhaseSplit:
    def test_phases_compose_to_simulate(self):
        video = small_sequence(N_FRAMES)
        config = _sim_config()
        whole = simulate(
            video,
            build_strategy("PBPAIR", intra_th=0.9, plr=0.2),
            loss_model=UniformLoss(plr=0.2, seed=3),
            config=config,
        )
        stream = encode_phase(
            video, build_strategy("PBPAIR", intra_th=0.9, plr=0.2), config
        )
        split = transmit_phase(
            stream, video, loss_model=UniformLoss(plr=0.2, seed=3),
            config=config,
        )
        assert_results_equal(whole, split)

    def test_encode_phase_bitstream_matches_encoder(self):
        """The stream's packets are the golden-suite encoder's, byte for byte."""
        video = small_sequence(N_FRAMES)
        config = _sim_config()
        stream = encode_phase(video, build_strategy("GOP-2"), config)

        encoder = Encoder(config.codec, build_strategy("GOP-2"))
        packetizer = Packetizer(config.codec, mtu=config.mtu)
        for frame, sent in zip(video, stream.frames):
            encoded = encoder.encode_frame(frame)
            packets = packetizer.packetize(encoded)
            assert sent.size_bytes == encoded.size_bytes
            assert [p.payload for p in sent.packets] == [
                p.payload for p in packets
            ]
            assert [p.sequence_number for p in sent.packets] == [
                p.sequence_number for p in packets
            ]

    def test_one_stream_many_channels(self):
        """One encode replayed over N seeds equals N full pipelines."""
        video = small_sequence(N_FRAMES)
        config = _sim_config()
        stream = encode_phase(video, build_strategy("GOP-2"), config)
        for seed in (0, 1, 2):
            shared = transmit_phase(
                stream, video, loss_model=UniformLoss(plr=0.3, seed=seed),
                config=config,
            )
            full = simulate(
                video, build_strategy("GOP-2"),
                loss_model=UniformLoss(plr=0.3, seed=seed), config=config,
            )
            assert_results_equal(full, shared)

    def test_transmit_rejects_mismatched_sequence(self):
        video = small_sequence(N_FRAMES)
        config = _sim_config()
        stream = encode_phase(video, build_strategy("NO"), config)
        with pytest.raises(ValueError, match="frames"):
            transmit_phase(stream, small_sequence(N_FRAMES + 1), config=config)


class TestEncodeKeys:
    def test_key_ignores_channel_parameters(self):
        base = _spec("GOP-2", seed=0)
        assert encode_content_hash(base) == encode_content_hash(
            _spec("GOP-2", seed=7)
        )
        assert encode_content_hash(base) == encode_content_hash(
            _spec("GOP-2", seed=0, plr=0.4)
        )
        assert encode_content_hash(base) == encode_content_hash(
            _spec("GOP-2", seed=0, granularity="packet")
        )

    def test_key_sees_encoder_parameters(self):
        base = _spec("GOP-2")
        assert encode_content_hash(base) != encode_content_hash(_spec("NO"))
        assert encode_content_hash(base) != encode_content_hash(
            _spec("GOP-2", config=SimulationConfig(codec=small_config(), mtu=128))
        )

    def test_pbpair_key_depends_on_plr(self):
        """PBPAIR's refresh probability is a function of the assumed PLR."""
        assert encode_content_hash(
            _spec("PBPAIR", plr=0.1)
        ) != encode_content_hash(_spec("PBPAIR", plr=0.3))

    def test_channel_faults_share_encode_faults_do_not(self):
        channel_plan = FaultPlan(
            faults=(FaultSpec(kind="drop", probability=0.5),), seed=3
        )
        encode_plan = FaultPlan(
            faults=(FaultSpec(kind="encode_byteflip", probability=1.0),),
            seed=3,
        )
        base = _spec("GOP-2")
        assert encode_subplan(channel_plan) is None
        assert encode_subplan(encode_plan) is not None
        assert encode_content_hash(base) == encode_content_hash(
            _spec("GOP-2", faults=channel_plan)
        )
        assert encode_content_hash(base) != encode_content_hash(
            _spec("GOP-2", faults=encode_plan)
        )


class TestGridSharing:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_share_on_off_identical(self, workers, tmp_path):
        options = RunnerOptions(jobs=workers, use_cache=False)
        shared = run_grid(
            _grid(), options=options,
            stream_cache=EncodedStreamCache(tmp_path / "streams"),
        )
        # "Off" is the plain pipeline: run_job without a stream cache.
        unshared = [run_job(spec) for spec in _grid()]
        assert len(shared) == len(unshared)
        for a, b in zip(shared, unshared):
            assert a.ok
            assert_results_equal(a.result, b)

    def test_run_job_reuses_and_traces_reuse(self):
        cache = EncodedStreamCache()
        tracer = Tracer(trace_id="reuse")
        with use_tracer(tracer):
            first = run_job(_spec("GOP-2", seed=0), cache)
            second = run_job(_spec("GOP-2", seed=1), cache)
        assert cache.encodes == 1
        assert cache.hits == 1
        reuse_events = [e for e in tracer.events if e.name == "encode_reused"]
        assert len(reuse_events) == 1
        assert first.frames != second.frames  # different channels, same stream
        assert [f.size_bytes for f in first.frames] == [
            f.size_bytes for f in second.frames
        ]

    def test_encode_fault_plans_opt_out(self):
        plan = FaultPlan(
            faults=(FaultSpec(kind="encode_byteflip", probability=1.0,
                              amount=4),),
            seed=9,
        )
        spec = _spec("GOP-2", faults=plan)
        cache = EncodedStreamCache()
        with_cache = run_job(spec, cache)
        assert cache.encodes == 0  # full pipeline, no stream shared
        plain = run_job(spec)
        assert_results_equal(plain, with_cache)
        assert any(e.stage == "encode" for e in with_cache.fault_events)
        clean = run_job(_spec("GOP-2"))
        assert clean.frames != with_cache.frames

    def test_channel_fault_plans_share(self):
        plan = FaultPlan(
            faults=(FaultSpec(kind="drop", probability=0.5),), seed=4
        )
        spec = _spec("GOP-2", faults=plan)
        cache = EncodedStreamCache()
        shared = run_job(spec, cache)
        assert cache.encodes == 1
        assert_results_equal(run_job(spec), shared)
        assert all(e.stage != "encode" for e in shared.fault_events)


class _UnregisteredNo(NoResilience):
    """A strategy the spec registry cannot express (unknown name)."""

    name = "custom-no"


def _replicate_traced(strategy_factory, seeds=(0, 1, 2)):
    tracer = Tracer(trace_id="replicate")
    with use_tracer(tracer):
        summary = replicate(
            small_sequence(N_FRAMES),
            strategy_factory=strategy_factory,
            loss_factory=lambda seed: UniformLoss(plr=0.3, seed=seed),
            metric=lambda r: r.average_psnr_decoder,
            seeds=seeds,
            config=_sim_config(),
        )
    return summary, tracer


class TestReplicateSharing:
    def test_replicate_unchanged_by_sharing(self):
        video = small_sequence(N_FRAMES)
        summary = replicate(
            video,
            strategy_factory=lambda: build_strategy("GOP-2"),
            loss_factory=lambda seed: UniformLoss(plr=0.3, seed=seed),
            metric=lambda r: r.average_psnr_decoder,
            seeds=(0, 1, 2),
            config=_sim_config(),
        )
        expected = [
            simulate(
                video, build_strategy("GOP-2"),
                loss_model=UniformLoss(plr=0.3, seed=seed),
                config=_sim_config(),
            ).average_psnr_decoder
            for seed in (0, 1, 2)
        ]
        assert list(summary.values) == pytest.approx(expected)

    def test_shared_encode_runs_inside_simulate(self):
        _, tracer = _replicate_traced(lambda: build_strategy("GOP-2"))
        stages = [
            r for r in tracer.records
            if r.name in ("encode_frame", "packetize")
        ]
        assert stages
        assert all(r.parent == "simulate" and r.depth == 2 for r in stages)
        roots = [r for r in tracer.records if r.name == "simulate"]
        assert len(roots) == 3 and all(r.parent is None for r in roots)

    def test_registry_strategy_encodes_once(self):
        _, tracer = _replicate_traced(lambda: build_strategy("GOP-2"))
        encodes = [r for r in tracer.records if r.name == "encode_frame"]
        assert len(encodes) == N_FRAMES  # three seeds, one encode
        reuse = [e for e in tracer.events if e.name == "encode_reused"]
        assert len(reuse) == 2

    def test_unregistered_strategy_encodes_per_seed(self):
        summary, tracer = _replicate_traced(_UnregisteredNo)
        encodes = [r for r in tracer.records if r.name == "encode_frame"]
        assert len(encodes) == 3 * N_FRAMES
        assert all(r.parent == "simulate" for r in encodes)
        assert not [e for e in tracer.events if e.name == "encode_reused"]
        shared, _ = _replicate_traced(lambda: build_strategy("NO"))
        assert summary.values == shared.values


# -- cross-process determinism (the cache-key contract) ----------------------


def _encode_fingerprint(spec: JobSpec) -> tuple:
    """(encode key, per-frame packet payloads) — computed anywhere."""
    from repro.sim.runner import _sequence_for

    sequence = _sequence_for(spec.sequence, spec.n_frames, spec.synthetic)
    if spec.is_pbpair:
        strategy = build_strategy(
            "PBPAIR", plr=spec.plr, **spec.pbpair_kwargs
        )
    else:
        strategy = build_strategy(spec.scheme)
    stream = encode_phase(sequence, strategy, config=spec.config)
    payloads = tuple(
        tuple(p.payload for p in frame.packets) for frame in stream.frames
    )
    return encode_content_hash(spec), payloads


class TestCrossProcessDeterminism:
    def test_hash_and_bytes_identical_in_pool_worker(self):
        spec = _spec("PBPAIR", pbpair_kwargs={"intra_th": 0.9})
        parent = _encode_fingerprint(spec)
        try:
            with concurrent.futures.ProcessPoolExecutor(max_workers=1) as pool:
                child = pool.submit(_encode_fingerprint, spec).result(
                    timeout=120
                )
        except (NotImplementedError, OSError, PermissionError):
            pytest.skip("no usable process pool on this platform")
        assert parent[0] == child[0]
        assert parent[1] == child[1]
