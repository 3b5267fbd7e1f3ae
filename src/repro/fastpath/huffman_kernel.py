"""Lockstep batch byte-Huffman decode.

The service decodes whole batches of independent blocks under one
shared code.  This kernel spreads the code's
:class:`~repro.entropy.huffman.DecodeTable` over every ``L``-bit window
(``L`` = longest codeword), so decoding one symbol is one gather, and
steps every block of the batch in lockstep: cache blocks all hold the
same number of symbols (bar the tail), so one vectorised gather/advance
per symbol position serves them all, finished blocks masked out.

It takes codes of byte symbols and ``L`` at most :data:`MAX_TABLE_BITS`.
For any other code, and for a batch in which a block trips an invalid
window or overruns its payload, it returns ``None``: the caller then
decodes the batch block by block with
:class:`~repro.entropy.huffman.HuffmanDecoder`, whose exact error the
failing block raises.  Differential tests pin the two paths together.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.entropy.huffman import DecodeTable, HuffmanCode, decode_table

#: Longest codeword the kernel spreads over every window (2**16 entries).
MAX_TABLE_BITS = 16


def _window_arrays(table: DecodeTable) -> Tuple[np.ndarray, np.ndarray]:
    """Symbol and codeword length (0: none starts) of every window, as
    bytes.  From window 0, in canonical order, a ``length``-bit codeword
    covers ``2 ** (width - length)`` windows, then come the invalid ones."""
    length, shift, _offset = np.array(table.ranges, dtype=np.int64).T
    per_range = np.diff([*table.starts, table.end]) >> shift
    span = np.append(
        np.repeat(1 << shift, per_range), (1 << table.width) - table.end
    )
    symbols = np.array([*table.symbols, 0], dtype=np.uint8)
    lengths = np.zeros_like(symbols)
    lengths[:-1] = np.repeat(length, per_range)
    return np.repeat(symbols, span), np.repeat(lengths, span)


def decode_blocks_fast(
    code: HuffmanCode,
    payloads: Sequence[bytes],
    counts: Sequence[int],
) -> Optional[List[bytes]]:
    """Lockstep batch decode of ``payloads`` (at least one) under
    ``code``; ``None`` when the batch needs the scalar decoder.

    Per symbol step: gather each live block's next L-bit window (three
    byte loads around its bit cursor), look up symbol and length, store
    the symbol, advance the cursor by the length.  A zero length marks a
    window no codeword covers, and a cursor past the payload means the
    stream ran dry mid-block — either way the whole batch is handed back
    so that the scalar decoder re-decodes it in caller order, and the
    failing block raises its exact error.
    """
    table = decode_table(code)
    if not 0 < table.width <= MAX_TABLE_BITS or max(table.symbols) > 255:
        # bytes() must reject a symbol past 255 with the scalar
        # decoder's error.  (Symbols are never negative: an archive
        # stores them as u32.)
        return None
    batch = len(payloads)
    max_count = max(counts)
    symbols, spans = _window_arrays(table)
    stride = max(len(p) for p in payloads) + 4
    padded = bytearray(batch * stride)
    for i, payload in enumerate(payloads):
        padded[i * stride : i * stride + len(payload)] = payload
    flat = np.frombuffer(bytes(padded), dtype=np.uint8).astype(np.int64)
    bit_limit = np.asarray([len(p) * 8 for p in payloads], dtype=np.int64)
    cn = np.asarray(counts, dtype=np.int64)
    base = np.arange(batch, dtype=np.int64) * stride

    cursor = np.zeros(batch, dtype=np.int64)
    out = np.zeros((batch, max_count), dtype=np.uint8)
    window_mask = (1 << table.width) - 1
    pos = np.empty(batch, dtype=np.int64)
    window = np.empty(batch, dtype=np.int64)
    t1 = np.empty(batch, dtype=np.int64)
    symbol = np.empty(batch, dtype=np.uint8)
    step = np.empty(batch, dtype=np.uint8)
    live = np.empty(batch, dtype=bool)
    bad = np.empty(batch, dtype=bool)

    for position in range(max_count):
        np.greater(cn, position, out=live)
        np.right_shift(cursor, 3, out=pos)
        pos += base
        # A block that has run past its payload may also run past the
        # buffer; clip its loads, as the end check hands the batch back.
        np.take(flat, pos, out=window, mode="clip")
        window <<= 8
        pos += 1
        np.take(flat, pos, out=t1, mode="clip")
        window |= t1
        window <<= 8
        pos += 1
        np.take(flat, pos, out=t1, mode="clip")
        window |= t1
        # Align the window: drop the bits already consumed within the
        # first byte, keep the top ``table.width``.
        np.bitwise_and(cursor, 7, out=t1)
        np.subtract(24 - table.width, t1, out=t1)
        np.right_shift(window, t1, out=window)
        window &= window_mask
        np.take(spans, window, out=step)
        np.equal(step, 0, out=bad)
        np.logical_and(bad, live, out=bad)
        if bad.any():
            return None
        np.take(symbols, window, out=symbol)
        out[:, position] = symbol
        np.multiply(step, live, out=step)
        cursor += step
    if bool((cursor > bit_limit).any()):
        return None
    return [out[i, : counts[i]].tobytes() for i in range(batch)]
