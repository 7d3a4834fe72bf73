"""Differential oracle for the batch macroblock parser.

``syntax.decode_macroblock_layer`` is the decoder's VLD fast path: it
walks a 64-bit word index with a run-level prefix table instead of a
:class:`BitReader`.  Its contract is to salvage exactly what a loop of
the sequential :func:`decode_macroblock` (or
:func:`decode_macroblock_skippable`) salvages under the same validation
— the same macroblocks with the same mode, motion vector and
coefficients, and the same number of bits consumed — on clean streams
and on corrupted ones alike.  These tests drive both parsers over real
fragments of the codec's configurations plus seeded corruptions of
them, and check the prefix table against a sequential decode of every
one of its entries.
"""

from __future__ import annotations

import os
import subprocess
import sys
from functools import lru_cache

import numpy as np
import pytest

from repro.codec.bitstream import BitReader, BitstreamError
from repro.codec.encoder import Encoder
from repro.codec.entropy import read_se, read_ue
from repro.codec.syntax import (
    EVENT_TABLE_BITS,
    decode_macroblock,
    decode_macroblock_layer,
    decode_macroblock_skippable,
    read_fragment_header,
    run_level_event_table,
)
from repro.codec.types import CodecConfig, MacroblockMode
from repro.network.packet import Packetizer
from repro.resilience.registry import build_strategy
from repro.video.synthetic import foreman_like

from tests.test_chroma import chroma_sequence

#: Validation settings the decoder can ask for: plain, COD bits, no
#: reference frame (inter and skipped macroblocks unpredictable), with
#: and without COD bits, and a motion range smaller than the encoder's
#: search range.
VALIDATIONS = {
    "default": dict(allow_skip=False, allow_inter=True, mv_limit=None),
    "allow_skip": dict(allow_skip=True, allow_inter=True, mv_limit=None),
    "no_inter": dict(allow_skip=False, allow_inter=False, mv_limit=None),
    "skip_no_inter": dict(allow_skip=True, allow_inter=False, mv_limit=None),
    "mv_limit": dict(allow_skip=False, allow_inter=True, mv_limit=2),
}

#: Seeded corruptions of every real fragment, per kind.
CORRUPTIONS_PER_KIND = 3


@lru_cache(maxsize=None)
def _stream(name: str) -> tuple[int, tuple[bytes, ...]]:
    """``(blocks_per_mb, fragment payloads)`` of one real coded stream."""
    if name == "chroma+halfpel+skip":
        config = CodecConfig(
            width=64, height=48, chroma=True, half_pel=True, allow_skip=True
        )
        clip, mtu = chroma_sequence(n_frames=5), 128
        scheme, kwargs = "GOP-3", {}
    else:
        config = CodecConfig()
        clip, mtu = foreman_like(n_frames=3, seed=1), 512
        scheme = name
        kwargs = dict(intra_th=0.92, plr=0.1) if name == "PBPAIR" else {}
    encoder = Encoder(config, build_strategy(scheme, **kwargs))
    packetizer = Packetizer(config, mtu=mtu)
    payloads = tuple(
        packet.payload
        for encoded in encoder.encode_sequence(clip)
        for packet in packetizer.packetize(encoded)
    )
    return config.blocks_per_mb, payloads


def _corruptions(payloads: tuple[bytes, ...], seed: int) -> list[bytes]:
    """Seeded byte flips, truncations and splices of real fragments."""
    rng = np.random.default_rng(seed)
    out = []
    for payload in payloads:
        for _ in range(CORRUPTIONS_PER_KIND):
            flipped = bytearray(payload)
            position = int(rng.integers(len(payload)))
            flipped[position] ^= int(rng.integers(1, 256))
            out.append(bytes(flipped))
            out.append(payload[: int(rng.integers(1, len(payload)))])
            other = payloads[int(rng.integers(len(payloads)))]
            cut = int(rng.integers(1, len(payload)))
            out.append(payload[:cut] + other[int(rng.integers(len(other))) :])
    return out


def _sequential(payload: bytes, blocks_per_mb: int, validation: dict):
    """The oracle: per-macroblock sequential parse, same validation.

    Returns ``(macroblocks, bits_consumed)``: the salvaged prefix and
    the position after the last macroblock whose bits were parsed.
    """
    reader = BitReader(payload)
    header = read_fragment_header(reader)
    decode = (
        decode_macroblock_skippable
        if validation["allow_skip"]
        else decode_macroblock
    )
    mv_limit = validation["mv_limit"]
    consumed = reader.bits_consumed
    macroblocks = []
    for _ in range(header.mb_count):
        try:
            macroblock = decode(reader, header.frame_type, blocks_per_mb)
        except BitstreamError:
            break
        consumed = reader.bits_consumed
        if macroblock.mode is MacroblockMode.INTER and (
            not validation["allow_inter"]
            or (
                mv_limit is not None
                and max(abs(macroblock.mv[0]), abs(macroblock.mv[1])) > mv_limit
            )
        ):
            break
        macroblocks.append(macroblock)
    return macroblocks, consumed


def _levels(layer) -> np.ndarray:
    """All ``(n, blocks_per_mb, 8, 8)`` levels of a layer, uncoded zero."""
    out = np.zeros(layer.coded.shape + (8, 8), dtype=np.int32)
    out[layer.coded] = layer.coefficients
    return out


def _batch(payload: bytes, blocks_per_mb: int, validation: dict):
    reader = BitReader(payload)
    header = read_fragment_header(reader)
    layer = decode_macroblock_layer(
        reader, header.frame_type, header.mb_count, blocks_per_mb, **validation
    )
    return layer, reader.bits_consumed


def _assert_same(payload: bytes, blocks_per_mb: int, validation: dict, case: str):
    try:
        expected, expected_bits = _sequential(payload, blocks_per_mb, validation)
    except BitstreamError:
        # Unreadable fragment header: both parsers share the reader.
        with pytest.raises(BitstreamError):
            _batch(payload, blocks_per_mb, validation)
        return False
    layer, bits = _batch(payload, blocks_per_mb, validation)
    assert len(layer) == len(expected), case
    assert bits == expected_bits, case
    levels = _levels(layer)
    assert layer.coded.tolist() == levels.reshape(
        len(layer), blocks_per_mb, 64
    ).any(axis=2).tolist(), case
    for index, macroblock in enumerate(expected):
        mode = MacroblockMode.INTRA if layer.intra[index] else MacroblockMode.INTER
        assert mode is macroblock.mode, f"{case} MB {index}"
        assert tuple(layer.mvs[index].tolist()) == macroblock.mv, f"{case} MB {index}"
        np.testing.assert_array_equal(
            levels[index], macroblock.coefficients, err_msg=f"{case} MB {index}"
        )
    return True


STREAMS = ["NO", "PGOP-3", "PBPAIR", "chroma+halfpel+skip"]


@pytest.mark.parametrize("validation", list(VALIDATIONS))
@pytest.mark.parametrize("stream", STREAMS)
class TestBatchParserMatchesSequential:
    def test_clean_fragments(self, stream, validation):
        blocks_per_mb, payloads = _stream(stream)
        for index, payload in enumerate(payloads):
            assert _assert_same(
                payload,
                blocks_per_mb,
                VALIDATIONS[validation],
                f"{stream}/{validation} fragment {index}",
            )

    def test_corrupted_fragments(self, stream, validation):
        blocks_per_mb, payloads = _stream(stream)
        cases = _corruptions(payloads, seed=STREAMS.index(stream))
        parsed = sum(
            _assert_same(
                payload,
                blocks_per_mb,
                VALIDATIONS[validation],
                f"{stream}/{validation} corruption {index}",
            )
            for index, payload in enumerate(cases)
        )
        # Most corruptions keep a readable header, so the bodies are
        # really compared.
        assert parsed > len(cases) // 2


def test_layer_arrays_are_consistent():
    """Shapes and dtypes of a decoded layer, coded blocks only stacked."""
    blocks_per_mb, payloads = _stream("chroma+halfpel+skip")
    layer, _ = _batch(payloads[0], blocks_per_mb, VALIDATIONS["default"])
    count = len(layer)
    assert count > 0
    assert layer.intra.shape == (count,) and layer.intra.dtype == bool
    assert layer.mvs.shape == (count, 2)
    assert layer.coded.shape == (count, blocks_per_mb)
    assert layer.coefficients.shape == (int(layer.coded.sum()), 8, 8)
    assert layer.coefficients.dtype == np.int32
    assert (layer.coefficients.reshape(-1, 64).any(axis=1)).all()


def _sequential_event(bits: int, index: int):
    """Decode one event off the ``bits``-wide prefix ``index`` with a
    :class:`BitReader`; None when it does not fit or codes level 0."""
    width = -(-bits // 8) * 8
    reader = BitReader((index << (width - bits)).to_bytes(width // 8, "big"))
    try:
        run = read_ue(reader)
        level = read_se(reader)
        last = reader.read_bit()
    except BitstreamError:
        return None
    if reader.bits_consumed > bits or level == 0:
        return None
    return (reader.bits_consumed, run + 1, level, last)


@pytest.mark.parametrize("bits", [3, 8, EVENT_TABLE_BITS])
def test_event_table_matches_sequential_decode_exhaustively(bits):
    table = run_level_event_table(bits)
    assert len(table) == 1 << bits
    for index, entry in enumerate(table):
        assert entry == _sequential_event(bits, index), (bits, index)


def test_event_table_is_built_on_first_decode_not_at_import():
    """Importing the facade (a daemon's start-up) builds no table."""
    probe = (
        "import repro.api\n"
        "from repro.codec.syntax import run_level_event_table\n"
        "print(run_level_event_table.cache_info().currsize)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    output = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, check=True, env=env,
    ).stdout
    assert output.strip() == "0"
