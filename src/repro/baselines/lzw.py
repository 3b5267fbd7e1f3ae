"""LZW compression — the UNIX ``compress(1)`` baseline of Figures 7/8.

Variable-width codes growing from 9 to 16 bits, a CLEAR code that resets
the dictionary when it fills, and greedy longest-prefix parsing: the same
algorithm family as ``compress``.  This is a *file-oriented* coder — the
dictionary is built adaptively along the stream, so decompression must
start from byte 0.  That is precisely why the paper rules the Ziv-Lempel
family out for compressed-code memories ("pointers to previous
occurrences of strings … makes an individual block decompression scheme
impossible"); it appears here purely as a compression-ratio yardstick.

Compression runs the integer-keyed kernel
:func:`repro.fastpath.lz_kernel.lzw_compress_fast`; the byte-string
parse it is pinned to lives in ``tests/oracles.py``.
"""

from __future__ import annotations

from typing import List

from repro.bitstream.io import BitReader
from repro.fastpath.lz_kernel import lzw_compress_fast
from repro.obs import get_recorder
from repro.resilience.errors import (
    CATEGORY_BUDGET,
    CATEGORY_SYMBOL,
    CorruptedStreamError,
    decode_guard,
)

MIN_BITS = 9
MAX_BITS = 16
CLEAR_CODE = 256
FIRST_CODE = 257

#: Allocation budget for a declared output length.  The 32-bit header is
#: attacker-controlled on a corrupted stream; nothing this repo
#: compresses approaches the cap, so larger claims are rejected up front
#: instead of allocated.
MAX_DECLARED_OUTPUT = 1 << 28


def lzw_compress(data: bytes) -> bytes:
    """Compress with LZW (compress(1)-style variable-width codes)."""
    rec = get_recorder()
    with rec.span("lzw.compress"):
        out = lzw_compress_fast(data)
    if rec.enabled:
        # The whole stream is the 32-bit length header plus code bits
        # (the final partial byte's padding is charged to the codes).
        rec.add_bits("header", 32)
        rec.add_bits("codes", len(out) * 8 - 32)
    return out


# repro: contract decode-entry
def lzw_decompress(payload: bytes) -> bytes:
    """Inverse of :func:`lzw_compress`.

    Termination on arbitrary bytes: the output loop is bounded by the
    (budget-capped) declared length, every code read consumes at least
    ``MIN_BITS`` of payload, and running off the end surfaces as a
    ``truncated`` :class:`CorruptedStreamError` via the guard.
    """
    with decode_guard("lzw.decompress"):
        reader = BitReader(payload)
        length = reader.read_bits(32)
        out = bytearray()
        if length == 0:
            return bytes(out)
        if length > MAX_DECLARED_OUTPUT:
            raise CorruptedStreamError(
                f"declared output of {length} bytes exceeds the "
                f"{MAX_DECLARED_OUTPUT}-byte budget",
                offset=0,
                category=CATEGORY_BUDGET,
            )

        table: List[bytes] = [bytes([i]) for i in range(256)] + [b""]  # slot 256 = CLEAR
        width = MIN_BITS
        previous = b""
        while len(out) < length:
            code = reader.read_bits(width)
            if code == CLEAR_CODE:
                table = [bytes([i]) for i in range(256)] + [b""]  # slot 256 = CLEAR
                width = MIN_BITS
                previous = b""
                continue
            if code < len(table) and table[code]:
                entry = table[code]
            elif code == len(table) and previous:
                entry = previous + previous[:1]  # the KwKwK corner case
            else:
                raise CorruptedStreamError(
                    f"invalid LZW code {code}",
                    offset=reader.bit_position // 8,
                    category=CATEGORY_SYMBOL,
                )
            out.extend(entry)
            if previous and len(table) < (1 << MAX_BITS):
                table.append(previous + entry[:1])
                # The encoder widens after *assigning* next_code; mirror it.
                if len(table) + 1 > (1 << width) and width < MAX_BITS:
                    width += 1
            previous = entry
        return bytes(out[:length])


def lzw_ratio(data: bytes) -> float:
    """Compressed/original size ratio (the paper's metric)."""
    if not data:
        return 1.0
    return len(lzw_compress(data)) / len(data)
