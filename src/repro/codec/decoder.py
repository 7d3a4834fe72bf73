"""The decoder: VLD, dequantization, IDCT and motion compensation.

The decoder consumes *fragments* — independently decodable packet
payloads produced by :mod:`repro.network.packet` — rather than whole
frames, because under loss only some fragments of a frame arrive.  Each
fragment carries its own header (frame index, type, QP, macroblock
range), so the decoder can place whatever arrives and report exactly
which macroblocks were received.  Lost macroblocks are *not* repaired
here; concealment is a separate, pluggable stage
(:mod:`repro.concealment`), as in the paper where the similarity factor
is parameterized by the concealment scheme.

A corrupt or truncated fragment raises no exception to the caller: the
decoder salvages every macroblock up to the failure point and marks the
rest as lost — mirroring how VLC desynchronization destroys the tail of
a real packet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from repro.codec.bitstream import BitReader, BitstreamError
from repro.codec.dct import inverse_dct_blocks
from repro.codec.quant import dequantize_blocks
from repro.codec.syntax import (
    FragmentHeader,
    MacroblockLayer,
    decode_macroblock_layer,
    read_fragment_header,
)
from repro.codec.types import CodecConfig, FrameType, MacroblockMode
from repro.codec.blocks import blocks_to_macroblocks, chroma_vector
from repro.codec.halfpel import fetch_block_half, halfpel_to_pixels
from repro.energy.counters import OperationCounters
from repro.obs import get_tracer


@dataclass(frozen=True)
class DecodeResult:
    """Outcome of decoding one frame's surviving fragments.

    Attributes:
        frame_index: index claimed by the fragments (or the expected
            index when nothing arrived).
        frame_type: I or P (defaults to P when nothing arrived).
        frame: decoded luma; lost macroblocks hold the concealment
            *seed* (a copy of the reference frame, or mid-grey when no
            reference exists).
        received: ``(mb_rows, mb_cols)`` bool mask of macroblocks that
            decoded successfully.
        modes: per-macroblock mode for received macroblocks (None
            elsewhere).
        mvs_pixels: ``(mb_rows, mb_cols, 2)`` decoded motion field in
            *pixel* units (half-pel vectors truncated), zeros for
            intra/lost macroblocks — the raw material for motion-aware
            concealment.
        chroma: decoded ``(cb, cr)`` planes when the codec carries
            4:2:0 chroma; None for luma-only streams.
        damaged_fragments: fragments whose damage the decoder concealed
            instead of raising — unreadable headers, VLC desync that
            truncated the salvaged prefix, or any unexpected decode
            error contained at the fragment boundary.
    """

    frame_index: int
    frame_type: FrameType
    frame: np.ndarray
    received: np.ndarray
    modes: np.ndarray
    mvs_pixels: Optional[np.ndarray] = None
    chroma: Optional[tuple[np.ndarray, np.ndarray]] = None
    damaged_fragments: int = 0


class Decoder:
    """Stateless fragment decoder (the caller owns the reference frame).

    Decoding work (VLD bits, dequantization, IDCT, motion compensation)
    is tallied into :attr:`counters` so receive-side energy can be
    priced with the same device profiles as the encoder — handhelds
    spend battery on both directions of a video call.
    """

    def __init__(
        self,
        config: CodecConfig,
        counters: Optional[OperationCounters] = None,
    ) -> None:
        self.config = config
        self.counters = counters if counters is not None else OperationCounters()

    def decode_frame(
        self,
        fragments: Iterable[bytes],
        reference: Optional[np.ndarray],
        expected_index: int = 0,
        reference_chroma: Optional[tuple[np.ndarray, np.ndarray]] = None,
    ) -> DecodeResult:
        """Decode whatever fragments of a frame survived the channel.

        Args:
            fragments: surviving fragment payloads, any order.
            reference: previous decoder-side frame (after concealment),
                or None at sequence start.
            expected_index: frame index to report when no fragment
                arrived.
            reference_chroma: previous decoder-side ``(cb, cr)`` planes
                (chroma codecs only).
        """
        config = self.config
        mb_rows, mb_cols = config.mb_rows, config.mb_cols
        if reference is None:
            canvas = np.full((config.height, config.width), 128, dtype=np.uint8)
        else:
            if reference.shape != (config.height, config.width):
                raise ValueError(
                    f"reference shape {reference.shape} does not match config"
                )
            canvas = reference.copy()

        chroma_canvases: Optional[tuple[np.ndarray, np.ndarray]] = None
        if config.chroma:
            half = (config.height // 2, config.width // 2)
            if reference_chroma is None:
                chroma_canvases = (
                    np.full(half, 128, dtype=np.uint8),
                    np.full(half, 128, dtype=np.uint8),
                )
            else:
                cb, cr = reference_chroma
                if cb.shape != half or cr.shape != half:
                    raise ValueError("chroma reference shape mismatch")
                chroma_canvases = (cb.copy(), cr.copy())

        received = np.zeros((mb_rows, mb_cols), dtype=bool)
        modes = np.full((mb_rows, mb_cols), None, dtype=object)
        mvs_pixels = np.zeros((mb_rows, mb_cols, 2), dtype=np.int64)
        frame_index = expected_index
        frame_type = FrameType.P

        # Pad the prediction references once per frame; every fragment
        # predicts from the same planes.
        pad = config.search_range + (2 if config.half_pel else 0)
        padded_ref = (
            _edge_padded(reference, pad) if reference is not None else None
        )
        padded_chroma = None
        if config.chroma and reference_chroma is not None:
            padded_chroma = tuple(
                _edge_padded(plane, 8) for plane in reference_chroma
            )

        damaged = 0
        for fragment_position, payload in enumerate(fragments):
            # Fragment-level resync: *nothing* a fragment contains may
            # abort the frame.  Expected corruption (bad magic, VLC
            # desync) is handled inside _decode_fragment; this guard
            # additionally contains any unexpected decode error at the
            # fragment boundary — the damaged region is concealed and
            # the remaining fragments still decode.
            try:
                header, layer = self._decode_fragment(
                    payload, padded_ref, pad, canvas, padded_chroma,
                    chroma_canvases,
                )
            except Exception as error:  # noqa: BLE001 - containment contract
                damaged += 1
                tracer = get_tracer()
                if tracer.enabled:
                    tracer.event(
                        "decoder.fragment_error",
                        fragment=fragment_position,
                        error=type(error).__name__,
                        expected_index=expected_index,
                    )
                continue
            if header is None:
                damaged += 1  # unreadable header: the whole fragment is lost
                continue
            if len(layer) < header.mb_count:
                damaged += 1  # VLC desync truncated the salvaged prefix
            frame_index = header.frame_index
            frame_type = header.frame_type
            rows, cols = np.divmod(
                header.first_mb + np.arange(len(layer)), mb_cols
            )
            received[rows, cols] = True
            modes[rows, cols] = _MODES[layer.intra.view(np.uint8)]
            mvs_pixels[rows, cols] = (
                halfpel_to_pixels(layer.mvs) if config.half_pel else layer.mvs
            )

        return DecodeResult(
            frame_index=frame_index,
            frame_type=frame_type,
            frame=canvas,
            received=received,
            modes=modes,
            mvs_pixels=mvs_pixels,
            chroma=chroma_canvases,
            damaged_fragments=damaged,
        )

    def _decode_fragment(
        self,
        payload: bytes,
        padded_ref: Optional[np.ndarray],
        pad: int,
        canvas: np.ndarray,
        padded_chroma: Optional[tuple[np.ndarray, np.ndarray]] = None,
        chroma_canvases: Optional[tuple[np.ndarray, np.ndarray]] = None,
    ) -> tuple[Optional[FragmentHeader], Optional[MacroblockLayer]]:
        """Decode one fragment onto the canvases; salvage on corruption.

        Returns ``(header, layer)`` with the salvaged macroblock prefix,
        or ``(None, None)`` when the header is unreadable.
        """
        config = self.config
        reader = BitReader(payload)
        try:
            header = read_fragment_header(reader)
        except BitstreamError:
            return None, None
        if header.first_mb + header.mb_count > config.mb_count:
            return None, None

        # Phase 1 — batch VLD; a corrupt codeword (or a macroblock that
        # cannot be predicted) truncates the salvaged prefix exactly
        # where the sequential decoder did.
        mv_limit = (
            2 * config.search_range if config.half_pel else config.search_range
        )
        allow_inter = padded_ref is not None and not (
            config.chroma and padded_chroma is None
        )
        layer = decode_macroblock_layer(
            reader,
            header.frame_type,
            header.mb_count,
            config.blocks_per_mb,
            allow_skip=config.allow_skip,
            allow_inter=allow_inter,
            mv_limit=mv_limit,
        )
        self.counters.entropy_bits += reader.bits_consumed
        count = len(layer)
        if not count:
            return header, layer

        # Phase 2 — dequantization and inverse transform of the coded
        # blocks only (an uncoded block's residual is exactly zero),
        # then prediction and placement, all batched over the fragment.
        # The counters bill every block, as a block-by-block decoder
        # does the work.
        residuals = self._residuals(layer, header.qp)
        rows, cols = np.divmod(header.first_mb + np.arange(count), config.mb_cols)
        inter = ~layer.intra
        luma = blocks_to_macroblocks(residuals[:, :4])
        if inter.any():
            assert padded_ref is not None
            luma[inter] += self._predict_luma(
                padded_ref, pad, rows[inter], cols[inter], layer.mvs[inter]
            )
        _macroblock_view(canvas, 16)[rows, cols] = np.clip(luma, 0, 255)
        if chroma_canvases is not None:
            chroma = residuals[:, 4:6]
            if inter.any():
                assert padded_chroma is not None
                chroma[inter] += self._predict_chroma(
                    padded_chroma, rows[inter], cols[inter], layer.mvs[inter]
                )
            chroma = np.clip(chroma, 0, 255)
            for component, plane in enumerate(chroma_canvases):
                _macroblock_view(plane, 8)[rows, cols] = chroma[:, component]

        self.counters.mode_decisions += count
        self.counters.mc_blocks += int(inter.sum())
        self.counters.dequant_blocks += config.blocks_per_mb * count
        self.counters.idct_blocks += config.blocks_per_mb * count
        return header, layer

    def _residuals(self, layer: MacroblockLayer, qp: int) -> np.ndarray:
        """``(n, blocks_per_mb, 8, 8)`` residuals, transforming only the
        coded blocks.

        The zeros of the uncoded blocks take the inverse transform's own
        dtype (int64 fixed-point, float64 float), so adding the
        prediction and clipping round exactly as a full-stack pass.
        """
        block_intra = np.broadcast_to(layer.intra[:, None], layer.coded.shape)
        dequantized = dequantize_blocks(
            layer.coefficients, block_intra[layer.coded], qp
        )
        coded = inverse_dct_blocks(dequantized, self.config.use_fixed_point_dct)
        residuals = np.zeros(layer.coded.shape + (8, 8), dtype=coded.dtype)
        residuals[layer.coded] = coded
        return residuals

    def _predict_luma(
        self,
        padded_ref: np.ndarray,
        pad: int,
        rows: np.ndarray,
        cols: np.ndarray,
        mvs: np.ndarray,
    ) -> np.ndarray:
        """16x16 predictions of the inter macroblocks at ``(rows, cols)``."""
        if self.config.half_pel:
            return np.stack(
                [
                    fetch_block_half(padded_ref, pad, row * 16, col * 16, mv)
                    for row, col, mv in zip(rows, cols, mvs.tolist())
                ]
            )
        # Full-pel: one gather off the padded reference's window view.
        windows = np.lib.stride_tricks.sliding_window_view(padded_ref, (16, 16))
        return windows[rows * 16 + pad + mvs[:, 0], cols * 16 + pad + mvs[:, 1]]

    def _predict_chroma(
        self,
        padded_chroma: tuple[np.ndarray, np.ndarray],
        rows: np.ndarray,
        cols: np.ndarray,
        mvs: np.ndarray,
    ) -> np.ndarray:
        """``(k, 2, 8, 8)`` Cb/Cr predictions of the inter macroblocks."""
        if self.config.half_pel:
            mvs = halfpel_to_pixels(mvs)
        chroma_mvs = np.array(
            [[chroma_vector(dy), chroma_vector(dx)] for dy, dx in mvs.tolist()],
            dtype=np.int64,
        ).reshape(-1, 2)
        ys = rows * 8 + 8 + chroma_mvs[:, 0]
        xs = cols * 8 + 8 + chroma_mvs[:, 1]
        return np.stack(
            [
                np.lib.stride_tricks.sliding_window_view(padded, (8, 8))[ys, xs]
                for padded in padded_chroma
            ],
            axis=1,
        )


#: Macroblock mode objects indexed by the intra flag.
_MODES = np.array([MacroblockMode.INTER, MacroblockMode.INTRA], dtype=object)


def _edge_padded(plane: np.ndarray, pad: int) -> np.ndarray:
    """``np.pad(plane, pad, mode="edge")`` as int64, from five slice
    copies: np.pad's general machinery costs ten times more on a QCIF
    plane, once per decoded frame."""
    height, width = plane.shape
    out = np.empty((height + 2 * pad, width + 2 * pad), dtype=np.int64)
    out[pad : pad + height, pad : pad + width] = plane
    out[:pad, pad : pad + width] = plane[0]
    out[pad + height :, pad : pad + width] = plane[-1]
    out[:, :pad] = out[:, pad : pad + 1]
    out[:, pad + width :] = out[:, pad + width - 1 : pad + width]
    return out


def _macroblock_view(plane: np.ndarray, size: int) -> np.ndarray:
    """``(rows, cols, size, size)`` writable view of a plane's tiles."""
    height, width = plane.shape
    return plane.reshape(height // size, size, width // size, size).swapaxes(1, 2)
