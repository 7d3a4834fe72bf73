"""Tests for the stable public facade (:mod:`repro.api`) and re-exports."""

from __future__ import annotations

import inspect

import pytest

import repro
from repro import api

from tests.conftest import small_config, small_sequence


class TestFacadeSurface:
    def test_all_names_resolve(self):
        for name in api.__all__:
            assert hasattr(api, name), f"api.__all__ lists missing {name!r}"

    def test_all_is_complete(self):
        # Every public callable *defined* in the facade must be declared
        # stable; anything else public there is an accidental leak.
        defined = {
            name
            for name, value in vars(api).items()
            if not name.startswith("_")
            and getattr(value, "__module__", None) == "repro.api"
        }
        assert defined <= set(api.__all__)

    def test_star_import_matches_all(self):
        namespace: dict = {}
        exec("from repro.api import *", namespace)
        exported = {name for name in namespace if not name.startswith("_")}
        assert exported == set(api.__all__)

    @pytest.mark.parametrize(
        "name",
        [
            "simulate",
            "replicate",
            "encode_sequence",
            "decode_stream",
        ],
    )
    def test_harness_options_are_keyword_only(self, name):
        signature = inspect.signature(getattr(api, name))
        positional = [
            p
            for p in signature.parameters.values()
            if p.kind
            in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
        ]
        # At most the leading subject argument may be positional.
        assert len(positional) <= 1

    def test_simulate_rejects_positional_strategy(self):
        video = small_sequence(n_frames=2)
        strategy = api.make_strategy("NO")
        with pytest.raises(TypeError):
            api.simulate(video, strategy)  # strategy must be keyword-only

    def test_simulate_rejects_loss_model_and_plr(self):
        video = small_sequence(n_frames=2)
        with pytest.raises(ValueError):
            api.simulate(
                video,
                strategy=api.make_strategy("NO"),
                loss_model=api.UniformLoss(plr=0.1),
                plr=0.1,
            )


class TestFacadeBehaviour:
    def test_simulate_matches_internal_pipeline(self):
        from repro.network.loss import UniformLoss
        from repro.sim.pipeline import SimulationConfig
        from repro.sim.pipeline import simulate as internal_simulate

        video = small_sequence(n_frames=3)
        config = SimulationConfig(codec=small_config())
        via_api = api.simulate(
            video,
            strategy=api.make_strategy("GOP-2"),
            plr=0.2,
            seed=7,
            config=config,
        )
        direct = internal_simulate(
            video,
            api.make_strategy("GOP-2"),
            loss_model=UniformLoss(plr=0.2, seed=7),
            config=config,
        )
        assert via_api.frames == direct.frames

    def test_make_strategy_builds_paper_schemes(self):
        from repro.resilience.base import ResilienceStrategy

        for spec in ("NO", "GOP-3", "AIR-24", "PGOP-3"):
            assert isinstance(api.make_strategy(spec), ResilienceStrategy)
        pbpair = api.make_strategy("PBPAIR", intra_th=0.8, plr=0.1)
        assert pbpair.name.startswith("PBPAIR")

    def test_make_sequence(self):
        video = api.make_sequence("akiyo", n_frames=3)
        assert len(video) == 3
        with pytest.raises(ValueError):
            api.make_sequence("not-a-clip")

    def test_encode_sequence_rejects_positional_strategy(self):
        video = small_sequence(n_frames=2)
        with pytest.raises(TypeError):
            api.encode_sequence(video, "NO")  # strategy must be keyword-only

    def test_codec_round_trip_through_facade(self):
        import numpy as np

        video = small_sequence(n_frames=3)
        config = small_config()
        encoded = api.encode_sequence(video, strategy="GOP-2", config=config)
        assert len(encoded) == 3
        assert all(isinstance(ef, api.EncodedFrame) for ef in encoded)

        decoded = api.decode_stream(encoded, config=config)
        assert len(decoded) == 3
        assert all(isinstance(d, api.DecodeResult) for d in decoded)
        # Lossless delivery: the decoder must land exactly on the
        # encoder's reconstruction, frame for frame.
        for ef, d in zip(encoded, decoded):
            assert d.frame_index == ef.frame_index
            assert np.array_equal(d.frame, ef.reconstruction)

    def test_decode_stream_accepts_fragment_lists(self):
        import numpy as np

        video = small_sequence(n_frames=2)
        config = small_config()
        encoded = api.encode_sequence(video, strategy="NO", config=config)
        packetizer = api.Packetizer(config)
        fragments = [
            [p.payload for p in packetizer.packetize(ef)] for ef in encoded
        ]
        via_fragments = api.decode_stream(fragments, config=config)
        via_frames = api.decode_stream(encoded, config=config)
        for a, b in zip(via_fragments, via_frames):
            assert np.array_equal(a.frame, b.frame)

    def test_encode_sequence_accepts_strategy_instance(self):
        video = small_sequence(n_frames=2)
        config = small_config()
        by_spec = api.encode_sequence(video, strategy="NO", config=config)
        by_instance = api.encode_sequence(
            video, strategy=api.make_strategy("NO"), config=config
        )
        assert [ef.payload for ef in by_spec] == [
            ef.payload for ef in by_instance
        ]

    def test_experiment_helpers_round_trip(self):
        video = small_sequence(n_frames=3)
        from repro.sim.pipeline import SimulationConfig

        config = SimulationConfig(codec=small_config())
        summary = api.replicate(
            video,
            strategy_factory=lambda: api.make_strategy("GOP-2"),
            loss_factory=lambda seed: api.UniformLoss(plr=0.3, seed=seed),
            metric=lambda result: result.average_psnr_decoder,
            seeds=(0, 1),
            label="GOP-2",
            config=config,
        )
        assert summary.label == "GOP-2" and summary.seeds == (0, 1)
        single = api.simulate(
            video,
            strategy=api.make_strategy("GOP-2"),
            plr=0.3,
            seed=1,
            config=config,
        )
        assert summary.values[1] == single.average_psnr_decoder


class TestPackageReExports:
    def test_resilience_package_re_exports(self):
        from repro.resilience import (
            AIRStrategy,
            GOPStrategy,
            NoResilience,
            PBPAIRStrategy,
            PGOPStrategy,
            build_strategy,
        )

        assert callable(build_strategy)
        assert all(
            inspect.isclass(cls)
            for cls in (
                AIRStrategy,
                GOPStrategy,
                NoResilience,
                PBPAIRStrategy,
                PGOPStrategy,
            )
        )

    def test_sim_package_re_exports(self):
        from repro.sim import (
            FrameRecord,
            SimulationConfig,
            SimulationResult,
            simulate,
        )

        assert callable(simulate)
        assert all(
            inspect.isclass(cls)
            for cls in (FrameRecord, SimulationConfig, SimulationResult)
        )

    def test_top_level_all_resolves(self):
        for name in repro.__all__:
            assert hasattr(repro, name)


class TestVersion:
    def test_version_is_single_sourced_from_pyproject(self):
        import pathlib

        pyproject = (
            pathlib.Path(repro.__file__).resolve().parents[2] / "pyproject.toml"
        )
        text = pyproject.read_text()
        assert f'version = "{repro.__version__}"' in text

    def test_version_looks_like_a_version(self):
        major = repro.__version__.split(".")[0]
        assert major.isdigit()
