"""Bitstream syntax: macroblock layer and fragment headers.

The coded representation of a frame is its *macroblock layer*: the
macroblocks in raster order, each carrying a mode bit (P-frames), a
motion vector (inter macroblocks) and four entropy-coded 8x8 luma
blocks.  Frame-level parameters travel in a *fragment header* written by
the packetizer, so every packet is independently decodable (RTP
H.263-payload style): losing one fragment of a frame costs only the
macroblocks it carried.

Layout of one fragment payload::

    magic(8) frame_index(16) frame_type(1) qp(5) first_mb ue(v)
    mb_count ue(v) <macroblock layer bits for those macroblocks>
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.codec.bitstream import (
    BitReader,
    BitWriter,
    BitstreamError,
    build_word_index,
)
from repro.codec.entropy import (
    block_codewords,
    decode_blocks,
    encode_blocks,
    read_se,
    read_ue,
    se_codewords,
    write_se,
    write_ue,
)
from repro.codec.types import FrameType, MacroblockMode, EncodedMacroblock
from repro.codec.zigzag import zigzag_order

#: Sanity byte opening every fragment.
FRAGMENT_MAGIC = 0xD5
#: Fixed fragment-header widths.
_FRAME_INDEX_BITS = 16
_QP_BITS = 5


@dataclass(frozen=True)
class FragmentHeader:
    """Self-describing header of one packet payload."""

    frame_index: int
    frame_type: FrameType
    qp: int
    first_mb: int
    mb_count: int

    def __post_init__(self) -> None:
        if not 0 <= self.frame_index < (1 << _FRAME_INDEX_BITS):
            raise ValueError(f"frame_index {self.frame_index} out of range")
        if not 1 <= self.qp <= 31:
            raise ValueError(f"qp {self.qp} out of range")
        if self.first_mb < 0 or self.mb_count < 1:
            raise ValueError("fragment must cover at least one macroblock")


def write_fragment_header(writer: BitWriter, header: FragmentHeader) -> None:
    writer.write_bits(FRAGMENT_MAGIC, 8)
    writer.write_bits(header.frame_index, _FRAME_INDEX_BITS)
    writer.write_bit(0 if header.frame_type is FrameType.I else 1)
    writer.write_bits(header.qp, _QP_BITS)
    write_ue(writer, header.first_mb)
    write_ue(writer, header.mb_count - 1)


def read_fragment_header(reader: BitReader) -> FragmentHeader:
    magic = reader.read_bits(8)
    if magic != FRAGMENT_MAGIC:
        raise BitstreamError(f"bad fragment magic 0x{magic:02x}")
    frame_index = reader.read_bits(_FRAME_INDEX_BITS)
    frame_type = FrameType.P if reader.read_bit() else FrameType.I
    qp = reader.read_bits(_QP_BITS)
    first_mb = read_ue(reader)
    mb_count = read_ue(reader) + 1
    try:
        return FragmentHeader(frame_index, frame_type, qp, first_mb, mb_count)
    except ValueError as error:
        # Corrupt bytes can pass the magic check yet carry impossible
        # field values (qp=0, ...); to the decoder that is a damaged
        # fragment, not a programming error.
        raise BitstreamError(f"corrupt fragment header: {error}") from error


def encode_macroblock(
    writer: BitWriter,
    frame_type: FrameType,
    mode: MacroblockMode,
    mv: tuple[int, int],
    blocks: np.ndarray,
) -> None:
    """Write one macroblock's syntax elements.

    ``blocks`` is the macroblock's quantized level array: ``(4, 8, 8)``
    luma-only or ``(6, 8, 8)`` with 4:2:0 chroma (Y Y Y Y Cb Cr, the
    H.263 block order).  I-frames carry no mode bit (every macroblock
    is intra) and no motion vector; P-frame inter macroblocks carry the
    motion vector as two signed Exp-Golomb codes.
    """
    if frame_type is FrameType.I and mode is not MacroblockMode.INTRA:
        raise ValueError("I-frames may only contain intra macroblocks")
    if frame_type is FrameType.P:
        writer.write_bit(1 if mode is MacroblockMode.INTRA else 0)
        if mode is MacroblockMode.INTER:
            write_se(writer, mv[0])
            write_se(writer, mv[1])
    encode_blocks(writer, blocks)


def encode_macroblock_skippable(
    writer: BitWriter,
    frame_type: FrameType,
    mode: MacroblockMode,
    mv: tuple[int, int],
    blocks: np.ndarray,
) -> None:
    """Macroblock syntax with H.263's COD bit (``allow_skip`` codecs).

    P-frame macroblocks lead with one bit: 1 = skipped (zero motion,
    zero residual, nothing else coded), 0 = coded, followed by the
    plain macroblock syntax.  I-frames never skip.
    """
    if frame_type is FrameType.P:
        skippable = (
            mode is MacroblockMode.INTER
            and mv == (0, 0)
            and not blocks.any()
        )
        writer.write_bit(1 if skippable else 0)
        if skippable:
            return
    encode_macroblock(writer, frame_type, mode, mv, blocks)


def encode_macroblock_layer(
    writer: BitWriter,
    frame_type: FrameType,
    intra: np.ndarray,
    mvs: np.ndarray,
    levels: np.ndarray,
    *,
    allow_skip: bool = False,
) -> tuple[list[int], int]:
    """Write one frame's whole macroblock layer as a single codeword batch.

    The per-macroblock syntax is identical to chaining
    :func:`encode_macroblock` (or the skippable variant) over the grid
    in raster order, but the entire frame — mode bits, motion vectors,
    COD bits and all coefficient events — is assembled as ``(value,
    width)`` arrays in numpy and packed by the writer in one operation.

    Args:
        intra: ``(mb_rows, mb_cols)`` bool grid of intra decisions.
        mvs: ``(mb_rows, mb_cols, 2)`` motion vectors as coded.
        levels: ``(mb_rows, mb_cols, n, 8, 8)`` quantized levels in
            H.263 block order (``n`` is 4 luma-only, 6 with chroma).

    Returns:
        ``(offsets, n_codewords)`` where ``offsets`` has one bit offset
        per macroblock plus a final entry for the total bit length
        (absolute, i.e. including whatever the writer already held) —
        the packetizer's split points — and ``n_codewords`` counts the
        VLC codewords emitted (observability).
    """
    base = writer.bit_length
    intra_flat = np.asarray(intra, dtype=bool).reshape(-1)
    mb_count = intra_flat.size
    mvs_flat = np.asarray(mvs, dtype=np.int64).reshape(mb_count, 2)
    levels = np.asarray(levels)
    blocks_per_mb = levels.shape[2]
    blocks = levels.reshape(mb_count, blocks_per_mb, 8, 8)

    if frame_type is FrameType.I and not intra_flat.all():
        raise ValueError("I-frames may only contain intra macroblocks")

    skipped = np.zeros(mb_count, dtype=bool)
    if allow_skip and frame_type is FrameType.P:
        residual_zero = ~blocks.reshape(mb_count, -1).any(axis=1)
        skipped = (
            ~intra_flat & (mvs_flat == 0).all(axis=1) & residual_zero
        )

    # Coefficient codewords for every non-skipped macroblock, in order.
    active = ~skipped
    block_values, block_widths, bits_per_block, cw_per_block = (
        block_codewords(blocks[active].reshape(-1, 8, 8))
    )
    block_cw_per_mb = np.zeros(mb_count, dtype=np.int64)
    block_cw_per_mb[active] = cw_per_block.reshape(-1, blocks_per_mb).sum(
        axis=1
    )
    block_bits_per_mb = np.zeros(mb_count, dtype=np.int64)
    block_bits_per_mb[active] = bits_per_block.reshape(
        -1, blocks_per_mb
    ).sum(axis=1)

    # Per-macroblock header codewords (mode / COD bits, motion vectors)
    # as an (mb_count, 4) matrix whose first ``header_count`` columns
    # are real; the rest is masked off per macroblock.
    header_values = np.zeros((mb_count, 4), dtype=np.int64)
    header_widths = np.zeros((mb_count, 4), dtype=np.int64)
    header_count = np.zeros(mb_count, dtype=np.int64)
    if frame_type is FrameType.P:
        inter_flat = ~intra_flat
        mv_col = 0
        if allow_skip:
            header_values[:, 0] = skipped  # COD bit
            header_widths[:, 0] = 1
            header_values[:, 1] = intra_flat  # mode bit (coded MBs)
            header_widths[:, 1] = 1
            header_count = np.where(skipped, 1, np.where(inter_flat, 4, 2))
            mv_col = 2
        else:
            header_values[:, 0] = intra_flat  # mode bit
            header_widths[:, 0] = 1
            header_count = np.where(inter_flat, 3, 1)
            mv_col = 1
        carries_mv = inter_flat & active
        if carries_mv.any():
            mv_values_0, mv_widths_0 = se_codewords(mvs_flat[:, 0])
            mv_values_1, mv_widths_1 = se_codewords(mvs_flat[:, 1])
            header_values[carries_mv, mv_col] = mv_values_0[carries_mv]
            header_widths[carries_mv, mv_col] = mv_widths_0[carries_mv]
            header_values[carries_mv, mv_col + 1] = mv_values_1[carries_mv]
            header_widths[carries_mv, mv_col + 1] = mv_widths_1[carries_mv]
    header_mask = np.arange(4)[None, :] < header_count[:, None]
    header_bits_per_mb = np.where(header_mask, header_widths, 0).sum(axis=1)

    # Interleave: each macroblock's header codewords, then its block
    # codewords.  Both sub-streams are already in macroblock order, so
    # scattering the headers into their slots leaves exactly the block
    # positions for the coefficient stream.
    cw_per_mb = header_count + block_cw_per_mb
    n_codewords = int(cw_per_mb.sum())
    values = np.empty(n_codewords, dtype=np.int64)
    widths = np.empty(n_codewords, dtype=np.int64)
    mb_starts = np.concatenate([[0], np.cumsum(cw_per_mb)[:-1]])
    header_starts = np.concatenate([[0], np.cumsum(header_count)[:-1]])
    n_header = int(header_count.sum())
    if n_header:
        header_positions = (
            np.repeat(mb_starts, header_count)
            + np.arange(n_header)
            - np.repeat(header_starts, header_count)
        )
        is_header = np.zeros(n_codewords, dtype=bool)
        is_header[header_positions] = True
        values[header_positions] = header_values[header_mask]
        widths[header_positions] = header_widths[header_mask]
        values[~is_header] = block_values
        widths[~is_header] = block_widths
    else:
        values[:] = block_values
        widths[:] = block_widths

    writer.write_codewords(values, widths)

    bits_per_mb = header_bits_per_mb + block_bits_per_mb
    offsets = np.empty(mb_count + 1, dtype=np.int64)
    offsets[0] = base
    np.cumsum(bits_per_mb, out=offsets[1:])
    offsets[1:] += base
    return [int(offset) for offset in offsets], n_codewords


def decode_macroblock(
    reader: BitReader, frame_type: FrameType, blocks_per_mb: int = 4
) -> EncodedMacroblock:
    """Read one macroblock's syntax elements (inverse of encode).

    ``blocks_per_mb`` is 4 for luma-only streams, 6 with 4:2:0 chroma;
    it comes from the codec configuration shared out of band (like the
    picture dimensions).
    """
    if blocks_per_mb not in (4, 6):
        raise ValueError(f"blocks_per_mb must be 4 or 6, got {blocks_per_mb}")
    if frame_type is FrameType.I:
        mode = MacroblockMode.INTRA
        mv = (0, 0)
    else:
        mode = MacroblockMode.INTRA if reader.read_bit() else MacroblockMode.INTER
        if mode is MacroblockMode.INTER:
            mv = (read_se(reader), read_se(reader))
        else:
            mv = (0, 0)
    coefficients = decode_blocks(reader, blocks_per_mb)
    return EncodedMacroblock(mode=mode, mv=mv, coefficients=coefficients)


_MASK64 = (1 << 64) - 1

#: Prefix width of the run-level event table.  Twelve bits hold about
#: 92% of the events of a FOREMAN-like QCIF stream; longer events take
#: the word-index slow path.
EVENT_TABLE_BITS = 12
_EVENT_SHIFT = 64 - EVENT_TABLE_BITS
_EVENT_MASK = (1 << EVENT_TABLE_BITS) - 1
#: Zero words appended to a fragment's word index, so the table lookup
#: of a codeword that runs off the end of the data reads zero padding.
_INDEX_TAIL = (0, 0, 0)


@lru_cache(maxsize=None)
def run_level_event_table(bits: int) -> tuple:
    """Prefix table of whole run-level events (the VLD fast path).

    One event is ``run`` ue(v), ``level`` se(v) and the LAST bit.  Entry
    ``i`` describes the event whose codeword opens the ``bits``-wide
    MSB-first prefix ``i`` as ``(length, run + 1, level, last)``; it is
    None when that event is longer than ``bits`` or codes a zero level
    (corrupt), both of which the parser hands to its slow path.  Built
    on first use, so importing the codec costs nothing.
    """
    table: list = [None] * (1 << bits)
    for run_zeros in range((bits - 3) // 2 + 1):
        run_length = 2 * run_zeros + 1
        for level_zeros in range((bits - run_length - 2) // 2 + 1):
            level_length = 2 * level_zeros + 1
            length = run_length + level_length + 1
            span = 1 << (bits - length)
            # Codeword value v codes v - 1; mapped level 0 is corrupt.
            for run_code in range(1 << run_zeros, 2 << run_zeros):
                for level_code in range(max(2, 1 << level_zeros), 2 << level_zeros):
                    magnitude = level_code >> 1
                    level = magnitude if level_code & 1 == 0 else -magnitude
                    for last in (0, 1):
                        code = (run_code << level_length | level_code) << 1 | last
                        start = code << (bits - length)
                        table[start : start + span] = [
                            (length, run_code, level, last)
                        ] * span
    return tuple(table)


def _read_ue(words: list, total: int, p: int) -> tuple[int, int]:
    """One ue(v) codeword at bit ``p`` of a word index: ``(value, next p)``.

    A single window fetch serves prefixes of up to 28 zeros; longer ones
    take the payload from a second word.  Raises :class:`BitstreamError`
    on an exhausted stream or a prefix of more than 32 zeros, like
    :meth:`BitReader.read_exp_golomb`.
    """
    if p >= total:
        raise BitstreamError("bitstream exhausted")
    window = (words[p >> 3] << (p & 7)) & _MASK64
    zeros = 64 - window.bit_length()
    if zeros > 32:
        raise BitstreamError("Exp-Golomb prefix too long (corrupt stream)")
    end = p + 2 * zeros + 1
    if end > total:
        raise BitstreamError("bitstream exhausted")
    if zeros <= 28:
        # The whole codeword sits in the window's >= 57 visible bits:
        # its top 2*zeros+1 bits ARE (1 << zeros) | payload.
        return (window >> (63 - 2 * zeros)) - 1, end
    q = p + zeros + 1
    payload = (words[q >> 3] >> (64 - (q & 7) - zeros)) & ((1 << zeros) - 1)
    return ((1 << zeros) | payload) - 1, end


def _read_event_slow(words: list, total: int, p: int) -> tuple[int, int, int, int]:
    """A run-level event the table does not hold: ``(next p, run + 1,
    level, last)``, or :class:`BitstreamError` when it is corrupt."""
    run, p = _read_ue(words, total, p)
    mapped, p = _read_ue(words, total, p)
    if mapped == 0:
        raise BitstreamError("run-level event with zero level")
    if p >= total:
        raise BitstreamError("bitstream exhausted")
    last = (words[p >> 3] >> (63 - (p & 7))) & 1
    magnitude = (mapped + 1) >> 1
    return p + 1, run + 1, magnitude if mapped & 1 else -magnitude, last


@dataclass(frozen=True)
class MacroblockLayer:
    """The salvaged macroblock prefix of one fragment, as arrays.

    Attributes:
        intra: ``(n,)`` bool, one entry per decoded macroblock.
        mvs: ``(n, 2)`` int64 motion vectors as coded (zero for intra
            and skipped macroblocks).
        coded: ``(n, blocks_per_mb)`` bool, True where a block carries
            coefficients.  An uncoded block's levels are all zero.
        coefficients: ``(coded.sum(), 8, 8)`` int32 levels of the coded
            blocks only, in (macroblock, block) raster order.
    """

    intra: np.ndarray
    mvs: np.ndarray
    coded: np.ndarray
    coefficients: np.ndarray

    def __len__(self) -> int:
        return len(self.intra)


def decode_macroblock_layer(
    reader: BitReader,
    frame_type: FrameType,
    mb_count: int,
    blocks_per_mb: int = 4,
    *,
    allow_skip: bool = False,
    allow_inter: bool = True,
    mv_limit: int | None = None,
) -> MacroblockLayer:
    """Batch VLD of up to ``mb_count`` macroblocks (the decoder fast path).

    Decodes the same macroblocks as looping :func:`decode_macroblock`
    (or the skippable variant), but walks a 64-bit word index of the
    payload with a bare bit cursor: each run-level event of up to
    :data:`EVENT_TABLE_BITS` bits is one lookup in
    :func:`run_level_event_table`, longer or corrupt ones go through
    :func:`_read_event_slow`.  All coefficient events scatter into the
    output arrays in one batch per fragment.

    Decoding stops at the first corrupt codeword, or — when the
    validation arguments say so — at the first macroblock that cannot
    be predicted (``allow_inter=False`` with an inter macroblock, or a
    motion vector beyond ``mv_limit``).  Either way the decoded prefix
    is returned and the reader is left positioned after the last
    macroblock whose bits were consumed: a corrupt macroblock is
    dropped with all its bits, an unpredictable one after them, exactly
    as the sequential decoder parses and then validates.  A macroblock
    is corrupt whenever the sequential reader would raise anywhere in
    it; which error comes first does not matter, so table lookups that
    read past the data are only checked once the macroblock is parsed.
    """
    if blocks_per_mb not in (4, 6):
        raise ValueError(f"blocks_per_mb must be 4 or 6, got {blocks_per_mb}")
    table = run_level_event_table(EVENT_TABLE_BITS)
    event_shift, event_mask = _EVENT_SHIFT, _EVENT_MASK
    data = reader.data
    total = len(data) * 8
    words = build_word_index(data)
    words.extend(_INDEX_TAIL)
    p = reader.bits_consumed
    is_p = frame_type is FrameType.P
    read_cod = allow_skip and is_p
    # An inter macroblock with a vector component beyond ``limit``
    # cannot be predicted: a negative limit rejects every one, None none.
    limit = mv_limit if allow_inter else -1
    intra_flags: list[bool] = []
    mv_values: list[int] = []
    coded_masks: list[int] = []
    # Event i sets coefficient ev_positions[i] (64 * coded-block ordinal
    # + zigzag position) of the coded-block stack to ev_levels[i].
    ev_positions: list[int] = []
    ev_levels: list[int] = []
    block_base = 0  # 64 * coded blocks so far
    append_position = ev_positions.append
    append_level = ev_levels.append
    for _ in range(mb_count):
        mb_start = p
        mb_block_base = block_base
        n_events = len(ev_levels)
        try:
            skipped = False
            if read_cod:
                if p >= total:
                    raise BitstreamError("bitstream exhausted")
                skipped = (words[p >> 3] >> (63 - (p & 7))) & 1
                p += 1
            mv_y = mv_x = mask = 0
            if skipped:
                intra = False  # COD: inter, zero motion, zero residual
            elif is_p:
                if p >= total:
                    raise BitstreamError("bitstream exhausted")
                intra = (words[p >> 3] >> (63 - (p & 7))) & 1 == 1
                p += 1
                if not intra:
                    mapped, p = _read_ue(words, total, p)
                    mv_y = (mapped + 1) >> 1 if mapped & 1 else -(mapped >> 1)
                    mapped, p = _read_ue(words, total, p)
                    mv_x = (mapped + 1) >> 1 if mapped & 1 else -(mapped >> 1)
            else:
                intra = True
            for block in range(0 if skipped else blocks_per_mb):
                # Coded-block flag; a read past the data is caught by
                # the end-of-macroblock check below.
                coded = (words[p >> 3] >> (63 - (p & 7))) & 1
                p += 1
                if not coded:
                    continue
                position = block_base - 1
                while True:
                    entry = table[
                        (words[p >> 3] >> (event_shift - (p & 7))) & event_mask
                    ]
                    if entry is None:
                        p, step, level, last = _read_event_slow(words, total, p)
                    else:
                        length, step, level, last = entry
                        p += length
                    position += step
                    append_position(position)
                    append_level(level)
                    if last:
                        break
                # Positions only grow, so one overrun check per block
                # catches the first event past the 64th coefficient.
                if position >= block_base + 64:
                    raise BitstreamError("run-level overrun past 64 coefficients")
                block_base += 64
                mask |= 1 << block
            if p > total:
                raise BitstreamError("bitstream exhausted")
        except BitstreamError:
            # VLC desync: drop the partial macroblock, bits before it
            # stay consumed.
            p = mb_start
            block_base = mb_block_base
            del ev_positions[n_events:]
            del ev_levels[n_events:]
            break
        if limit is not None and not intra and (
            limit < 0 or abs(mv_y) > limit or abs(mv_x) > limit
        ):
            # Unpredictable macroblock: its bits stay consumed but it
            # is not part of the salvaged prefix.
            block_base = mb_block_base
            del ev_positions[n_events:]
            del ev_levels[n_events:]
            break
        intra_flags.append(intra)
        mv_values += (mv_y, mv_x)
        coded_masks.append(mask)
    reader.skip_bits(p - reader.bits_consumed)

    count = len(intra_flags)
    coded = (
        np.array(coded_masks, dtype=np.int64).reshape(count, 1)
        >> np.arange(blocks_per_mb)
    ) & 1 == 1
    n_coded = block_base // 64
    coefficients = np.zeros(block_base, dtype=np.int32)
    if ev_levels:
        flat = np.array(ev_positions, dtype=np.int64)
        coefficients[(flat & -64) | zigzag_order()[flat & 63]] = ev_levels
    return MacroblockLayer(
        intra=np.array(intra_flags, dtype=bool),
        mvs=np.array(mv_values, dtype=np.int64).reshape(count, 2),
        coded=coded,
        coefficients=coefficients.reshape(n_coded, 8, 8),
    )


def decode_macroblock_skippable(
    reader: BitReader, frame_type: FrameType, blocks_per_mb: int = 4
) -> EncodedMacroblock:
    """Inverse of :func:`encode_macroblock_skippable`.

    A skipped macroblock comes back as INTER with zero motion and an
    all-zero coefficient array — semantically identical to decoding a
    fully coded-but-empty macroblock, just one bit on the wire.
    """
    if frame_type is FrameType.P and reader.read_bit():
        return EncodedMacroblock(
            mode=MacroblockMode.INTER,
            mv=(0, 0),
            coefficients=np.zeros((blocks_per_mb, 8, 8), dtype=np.int32),
        )
    return decode_macroblock(reader, frame_type, blocks_per_mb)
