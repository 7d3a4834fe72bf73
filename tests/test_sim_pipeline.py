"""Integration tests for the end-to-end simulation pipeline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.concealment.spatial import SpatialConcealment
from repro.network.loss import NoLoss, ScriptedLoss, UniformLoss
from repro.resilience.gop import GOPStrategy
from repro.resilience.none import NoResilience
from repro.resilience.pbpair_strategy import PBPAIRStrategy
from repro.core.pbpair import PBPAIRConfig
from repro.codec.encoder import Encoder
from repro.sim.experiment import total_encoded_bytes
from repro.sim.pipeline import SimulationConfig, simulate

from tests.conftest import small_config, small_sequence


@pytest.fixture(scope="module")
def sim_config():
    return SimulationConfig(codec=small_config())


@pytest.fixture(scope="module")
def clip():
    return small_sequence(n_frames=10)


class TestLosslessRun:
    def test_decoder_tracks_encoder_without_loss(self, clip, sim_config):
        result = simulate(clip, NoResilience(), NoLoss(), sim_config)
        for record in result.frames:
            assert record.packets_lost == 0
            assert record.psnr_decoder == pytest.approx(
                record.psnr_encoder, abs=1e-9
            )

    def test_aggregates_consistent(self, clip, sim_config):
        result = simulate(clip, NoResilience(), NoLoss(), sim_config)
        assert result.n_frames == len(clip)
        assert result.total_bytes == sum(r.size_bytes for r in result.frames)
        assert result.energy_joules > 0
        assert result.channel_log.sent >= result.n_frames
        assert result.sequence_name == clip.name
        assert result.strategy_name == "NO"

    def test_encode_only_matches_simulate_sizes(self, clip, sim_config):
        encoder = Encoder(sim_config.codec, NoResilience())
        encoded = encoder.encode_sequence(clip)
        result = simulate(clip, NoResilience(), NoLoss(), sim_config)
        assert [ef.size_bytes for ef in encoded] == [
            r.size_bytes for r in result.frames
        ]
        assert (
            total_encoded_bytes(clip, NoResilience(), sim_config)
            == result.total_bytes
        )
        assert encoder.counters.as_dict() == result.counters.as_dict()


class TestLossyRun:
    def test_loss_degrades_quality(self, clip, sim_config):
        clean = simulate(clip, NoResilience(), NoLoss(), sim_config)
        lossy = simulate(
            clip, NoResilience(), UniformLoss(plr=0.3, seed=1), sim_config
        )
        assert lossy.average_psnr_decoder < clean.average_psnr_decoder
        assert lossy.total_bad_pixels > clean.total_bad_pixels

    def test_scripted_loss_hits_exact_frames(self, clip, sim_config):
        result = simulate(clip, NoResilience(), ScriptedLoss([4]), sim_config)
        lost = [r.frame_index for r in result.frames if r.packets_lost > 0]
        assert lost == [4]
        # Damage starts exactly at the lost frame.
        assert result.frames[3].psnr_decoder == pytest.approx(
            result.frames[3].psnr_encoder, abs=1e-9
        )
        assert (
            result.frames[4].psnr_decoder < result.frames[4].psnr_encoder
        )

    def test_error_propagates_until_refresh(self, clip, sim_config):
        # With NO resilience, damage from frame 2 persists in later
        # frames (error propagation, the paper's Section 1 motivation).
        result = simulate(clip, NoResilience(), ScriptedLoss([2]), sim_config)
        later = result.frames[5]
        assert later.psnr_decoder < later.psnr_encoder - 0.5

    def test_gop_refresh_stops_propagation(self, clip, sim_config):
        result = simulate(
            clip, GOPStrategy(p_frames=2), ScriptedLoss([2]), sim_config
        )
        # Frames 3.. include an I-frame at 3: recovery by frame 3.
        recovered = result.frames[3]
        assert recovered.psnr_decoder == pytest.approx(
            recovered.psnr_encoder, abs=1e-9
        )

    def test_channel_log_counts(self, clip, sim_config):
        result = simulate(
            clip, NoResilience(), UniformLoss(plr=0.5, seed=3), sim_config
        )
        assert result.channel_log.sent == sum(
            r.packets_sent for r in result.frames
        )
        assert result.channel_log.delivered == result.channel_log.sent - sum(
            r.packets_lost for r in result.frames
        )

    def test_spatial_concealment_pluggable(self, clip, sim_config):
        result = simulate(
            clip,
            NoResilience(),
            ScriptedLoss([3]),
            sim_config,
            concealment=SpatialConcealment(),
        )
        assert result.n_frames == len(clip)


class TestRecoveryMetric:
    def test_no_losses_no_recovery_events(self, clip, sim_config):
        result = simulate(clip, NoResilience(), NoLoss(), sim_config)
        assert result.recovery_times() == []

    def test_gop_recovers_faster_than_no(self, sim_config):
        clip = small_sequence(n_frames=14)
        no = simulate(clip, NoResilience(), ScriptedLoss([3]), sim_config)
        gop = simulate(clip, GOPStrategy(p_frames=2), ScriptedLoss([3]), sim_config)
        assert max(gop.recovery_times()) <= max(no.recovery_times())

    def test_series_lengths(self, clip, sim_config):
        result = simulate(clip, NoResilience(), NoLoss(), sim_config)
        assert len(result.psnr_series()) == len(clip)
        assert len(result.size_series()) == len(clip)


class TestPBPAIREndToEnd:
    def test_pbpair_beats_no_under_loss(self, sim_config):
        clip = small_sequence(n_frames=16)
        loss_seed = 5
        no = simulate(
            clip, NoResilience(), UniformLoss(0.2, seed=loss_seed), sim_config
        )
        pbpair = simulate(
            clip,
            PBPAIRStrategy(PBPAIRConfig(intra_th=0.9, plr=0.2)),
            UniformLoss(0.2, seed=loss_seed),
            sim_config,
        )
        assert pbpair.total_bad_pixels < no.total_bad_pixels

    def test_intra_fraction_increases_with_threshold(self, sim_config):
        clip = small_sequence(n_frames=12)
        fractions = []
        for th in (0.3, 0.7, 0.95):
            result = simulate(
                clip,
                PBPAIRStrategy(PBPAIRConfig(intra_th=th, plr=0.2)),
                NoLoss(),
                sim_config,
            )
            fractions.append(result.intra_fraction)
        assert fractions == sorted(fractions)

    def test_energy_decreases_with_intra_fraction(self, sim_config):
        clip = small_sequence(n_frames=12)
        low = simulate(
            clip,
            PBPAIRStrategy(PBPAIRConfig(intra_th=0.1, plr=0.2)),
            NoLoss(),
            sim_config,
        )
        high = simulate(
            clip,
            PBPAIRStrategy(PBPAIRConfig(intra_th=0.98, plr=0.2)),
            NoLoss(),
            sim_config,
        )
        assert high.energy_joules < low.energy_joules
        assert high.total_bytes > low.total_bytes

    def test_sequence_size_mismatch_rejected(self, sim_config):
        wrong = small_sequence(n_frames=2, width=96, height=64)
        with pytest.raises(ValueError):
            simulate(wrong, NoResilience(), NoLoss(), sim_config)
