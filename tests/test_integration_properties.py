"""Cross-module integration properties.

Invariants that only hold when every layer cooperates: determinism of
whole runs, lossless transparency across the full feature matrix,
loss-rate monotonicity, and the big behavioural contrasts the paper is
built on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.codec.decoder import Decoder
from repro.codec.encoder import Encoder
from repro.codec.types import CodecConfig
from repro.network.loss import NoLoss, UniformLoss
from repro.network.packet import Packetizer
from repro.resilience.registry import build_strategy
from repro.sim.pipeline import SimulationConfig, simulate

from tests.conftest import small_config, small_sequence
from tests.test_chroma import chroma_sequence

SCHEME_SPECS = [
    ("NO", {}),
    ("GOP-2", {}),
    ("AIR-3", {}),
    ("PGOP-1", {}),
    ("PBPAIR", dict(intra_th=0.9, plr=0.2)),
]

FEATURE_CONFIGS = [
    dict(),
    dict(half_pel=True),
    dict(allow_skip=True),
    dict(motion_search="three-step"),
    dict(motion_search="full", search_range=4),
    dict(use_fixed_point_dct=False),
    dict(half_pel=True, allow_skip=True),
]


class TestLosslessTransparencyMatrix:
    @pytest.mark.parametrize(
        "spec,kwargs", SCHEME_SPECS, ids=[s for s, _ in SCHEME_SPECS]
    )
    @pytest.mark.parametrize(
        "features",
        FEATURE_CONFIGS,
        ids=["plain", "halfpel", "skip", "tss", "full", "floatdct", "hp+skip"],
    )
    def test_decoder_bit_exact_for_every_combination(self, spec, kwargs, features):
        """Every scheme x codec-feature combination must round-trip:
        without loss, the decoder reproduces the encoder's
        reconstruction bit for bit."""
        config = small_config(**features)
        sequence = small_sequence(n_frames=4)
        encoder = Encoder(config, build_strategy(spec, **kwargs))
        decoder = Decoder(config)
        packetizer = Packetizer(config)
        reference = None
        for frame in sequence:
            ef = encoder.encode_frame(frame)
            payloads = [p.payload for p in packetizer.packetize(ef)]
            result = decoder.decode_frame(payloads, reference, frame.index)
            assert result.received.all()
            np.testing.assert_array_equal(result.frame, ef.reconstruction)
            reference = result.frame


#: Every combination of the codec's four stream-shaping flags.
FLAG_CUBE = [
    dict(
        chroma=chroma,
        half_pel=half_pel,
        allow_skip=allow_skip,
        use_fixed_point_dct=fixed,
    )
    for chroma in (False, True)
    for half_pel in (False, True)
    for allow_skip in (False, True)
    for fixed in (True, False)
]


def _flag_id(flags: dict) -> str:
    return "-".join(
        f"{name}={int(value)}" for name, value in flags.items()
    )


class TestCodecFlagCube:
    @pytest.mark.parametrize("flags", FLAG_CUBE, ids=_flag_id)
    def test_decoder_matches_encoder_reconstruction(self, flags):
        """Loss-free, the decoder reproduces the encoder's luma and
        chroma reconstruction for every combination of chroma, half-pel,
        skip mode and the DCT arithmetic."""
        config = small_config(**flags)
        encoder = Encoder(config, build_strategy("GOP-3"))
        decoder = Decoder(config)
        packetizer = Packetizer(config, mtu=128)
        luma, chroma = None, None
        for frame in chroma_sequence(n_frames=4):
            ef = encoder.encode_frame(frame)
            payloads = [p.payload for p in packetizer.packetize(ef)]
            result = decoder.decode_frame(
                payloads, luma, frame.index, reference_chroma=chroma
            )
            assert result.received.all()
            np.testing.assert_array_equal(result.frame, ef.reconstruction)
            if flags["chroma"]:
                for got, expected in zip(result.chroma, ef.reconstruction_chroma):
                    np.testing.assert_array_equal(got, expected)
            else:
                assert result.chroma is None
            luma, chroma = result.frame, result.chroma


class TestDeterminism:
    def test_simulate_is_reproducible(self):
        clip = small_sequence(n_frames=8)
        config = SimulationConfig(codec=small_config())

        def run():
            return simulate(
                clip,
                build_strategy("PBPAIR", intra_th=0.9, plr=0.2),
                UniformLoss(plr=0.2, seed=5),
                config,
            )

        a, b = run(), run()
        assert a.psnr_series() == b.psnr_series()
        assert a.size_series() == b.size_series()
        assert a.counters.as_dict() == b.counters.as_dict()

    def test_long_run_no_encoder_decoder_drift(self):
        # 24 frames lossless: any mismatch between the encoder's and
        # decoder's arithmetic would accumulate into visible drift.
        config = small_config()
        sequence = small_sequence(n_frames=24)
        encoder = Encoder(config, build_strategy("NO"))
        decoder = Decoder(config)
        packetizer = Packetizer(config)
        reference = None
        for frame in sequence:
            ef = encoder.encode_frame(frame)
            payloads = [p.payload for p in packetizer.packetize(ef)]
            result = decoder.decode_frame(payloads, reference, frame.index)
            np.testing.assert_array_equal(result.frame, ef.reconstruction)
            reference = result.frame


class TestLossMonotonicity:
    def test_quality_degrades_with_loss_rate(self):
        clip = small_sequence(n_frames=12)
        config = SimulationConfig(codec=small_config())
        bad_pixels = []
        for plr in (0.0, 0.15, 0.45):
            totals = []
            for seed in (1, 2, 3):
                result = simulate(
                    clip,
                    build_strategy("NO"),
                    UniformLoss(plr=plr, seed=seed),
                    config,
                )
                totals.append(result.total_bad_pixels)
            bad_pixels.append(float(np.mean(totals)))
        assert bad_pixels[0] < bad_pixels[1] < bad_pixels[2]

    def test_energy_independent_of_channel(self):
        # The encoder never sees the channel: its work (and thus its
        # energy) must be identical whatever the loss pattern.
        clip = small_sequence(n_frames=8)
        config = SimulationConfig(codec=small_config())
        runs = [
            simulate(
                clip,
                build_strategy("PBPAIR", intra_th=0.9, plr=0.2),
                loss,
                config,
            )
            for loss in (NoLoss(), UniformLoss(plr=0.5, seed=9))
        ]
        assert runs[0].counters.as_dict() == runs[1].counters.as_dict()
        assert runs[0].energy_joules == runs[1].energy_joules


class TestPaperContrasts:
    def test_resilience_beats_no_under_loss_all_schemes(self):
        clip = small_sequence(n_frames=16)
        config = SimulationConfig(codec=small_config())

        def total_bad(spec, kwargs):
            totals = 0
            for seed in (2, 3, 4):
                result = simulate(
                    clip,
                    build_strategy(spec, **kwargs),
                    UniformLoss(plr=0.25, seed=seed),
                    config,
                )
                totals += result.total_bad_pixels
            return totals

        no_bad = total_bad("NO", {})
        for spec, kwargs in SCHEME_SPECS[1:]:
            assert total_bad(spec, kwargs) < no_bad, spec

    def test_pre_me_schemes_do_less_me_work(self):
        clip = small_sequence(n_frames=10)
        config = SimulationConfig(codec=small_config())

        def sad_work(spec, kwargs):
            result = simulate(clip, build_strategy(spec, **kwargs), NoLoss(), config)
            return result.counters.sad_blocks

        no_work = sad_work("NO", {})
        assert sad_work("PGOP-1", {}) < no_work
        assert sad_work("PBPAIR", dict(intra_th=0.95, plr=0.3)) < no_work
        # AIR decides after ME: approximately the same search work.
        assert abs(sad_work("AIR-3", {}) - no_work) < 0.1 * no_work
