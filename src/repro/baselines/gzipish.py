"""The ``gzip`` stand-in: LZSS + canonical Huffman (simplified DEFLATE).

Matches and literals from :mod:`repro.baselines.lzss` are coded with two
semiadaptive canonical Huffman tables using DEFLATE's symbol binning:

* **lit/len alphabet** — 256 literal bytes, an end-of-block symbol, and
  29 length bins, each followed by 0-5 raw extra bits;
* **distance alphabet** — 30 distance bins with 0-13 raw extra bits.

The code-length tables travel in the header (5 bits per symbol, 0 for
an absent one), so the output is fully self-contained and the measured
sizes are honest; compression refuses a code longer than the 31 bits an
entry holds.  Like real gzip — and unlike SAMC/SADC — the stream only
decompresses from the beginning; it is the file-oriented upper-bound
comparator in Figures 7 and 8.

Compression bins, counts and emits the parse's columns as arrays, with
one :func:`repro.bitstream.pack_fields` call (DESIGN.md, "Array
emission").
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.baselines.lzss import (
    MAX_MATCH,
    MIN_MATCH,
    Literal,
    Match,
    Token,
    detokenize,
    tokenize_arrays,
)
from repro.bitstream.io import BitReader, pack_fields
from repro.entropy.huffman import (
    HuffmanCode,
    HuffmanDecoder,
    build_code,
    canonical_codewords,
)
from repro.obs import get_recorder
from repro.resilience.errors import decode_guard

END_OF_BLOCK = 256

#: DEFLATE length bins: (symbol, extra_bits, base_length).
_LENGTH_BINS: List[Tuple[int, int, int]] = []
_length_bases = [
    (0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (0, 8), (0, 9), (0, 10),
    (1, 11), (1, 13), (1, 15), (1, 17), (2, 19), (2, 23), (2, 27), (2, 31),
    (3, 35), (3, 43), (3, 51), (3, 59), (4, 67), (4, 83), (4, 99), (4, 115),
    (5, 131), (5, 163), (5, 195), (5, 227), (0, 258),
]
for _i, (_extra, _base) in enumerate(_length_bases):
    _LENGTH_BINS.append((257 + _i, _extra, _base))

#: DEFLATE distance bins: (symbol, extra_bits, base_distance).
_DISTANCE_BINS: List[Tuple[int, int, int]] = []
_distance_bases = [
    (0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (1, 7), (2, 9), (2, 13),
    (3, 17), (3, 25), (4, 33), (4, 49), (5, 65), (5, 97), (6, 129), (6, 193),
    (7, 257), (7, 385), (8, 513), (8, 769), (9, 1025), (9, 1537),
    (10, 2049), (10, 3073), (11, 4097), (11, 6145), (12, 8193), (12, 12289),
    (13, 16385), (13, 24577),
]
for _i, (_extra, _base) in enumerate(_distance_bases):
    _DISTANCE_BINS.append((_i, _extra, _base))


def _length_symbol(length: int) -> Tuple[int, int, int]:
    """(symbol, extra_bits, extra_value) for a match length."""
    for symbol, extra, base in reversed(_LENGTH_BINS):
        if length >= base:
            return symbol, extra, length - base
    raise ValueError(f"match length {length} below minimum")


def _distance_symbol(distance: int) -> Tuple[int, int, int]:
    for symbol, extra, base in reversed(_DISTANCE_BINS):
        if distance >= base:
            return symbol, extra, distance - base
    raise ValueError(f"distance {distance} below minimum")


_LENGTH_BY_SYMBOL = {symbol: (extra, base) for symbol, extra, base in _LENGTH_BINS}
_DISTANCE_BY_SYMBOL = {symbol: (extra, base) for symbol, extra, base in _DISTANCE_BINS}

#: Longest code length a 5-bit table entry can carry.
MAX_CODE_LENGTH = 31


#: Symbol, extra bits and extra value of every match length, from
#: :func:`_length_symbol`; 0 below ``MIN_MATCH`` (length 0 is a literal).
_LENGTH_SYMBOL, _LENGTH_EXTRA, _LENGTH_VALUE = np.array(
    [(0, 0, 0)] * MIN_MATCH
    + [_length_symbol(length) for length in range(MIN_MATCH, MAX_MATCH + 1)],
    dtype=np.int64,
).T
_DISTANCE_EXTRA, _DISTANCE_BASE = np.array(
    [(extra, base) for _symbol, extra, base in _DISTANCE_BINS], dtype=np.int64
).T


def _read_table(reader: BitReader, alphabet: int) -> Dict[int, int]:
    lengths = {}
    for symbol in range(alphabet):
        length = reader.read_bits(5)
        if length:
            lengths[symbol] = length
    return lengths


def gzipish_compress(data: bytes) -> bytes:
    """Compress ``data``; output embeds both Huffman tables.

    Refuses, with :class:`ValueError`, a code longer than the table
    header's ``MAX_CODE_LENGTH`` bits.
    """
    lengths, values = tokenize_arrays(data)
    length = np.asarray(lengths, dtype=np.int64)
    value = np.asarray(values, dtype=np.int64)
    match = np.flatnonzero(length)
    distance = value[match]
    symbol = value.copy()  # a literal's byte is its lit/len symbol
    symbol[match] = _LENGTH_SYMBOL[length[match]]
    # _distance_symbol's bin: the largest base not above the distance.
    dsymbol = np.searchsorted(_DISTANCE_BASE, distance, "right") - 1

    litlen_counts = np.bincount(symbol, minlength=286)
    litlen_counts[END_OF_BLOCK] += 1
    dist_counts = np.bincount(dsymbol, minlength=30)
    litlen_code = build_code(_present(litlen_counts))
    dist_code = build_code(_present(dist_counts))
    litlen_words, litlen_lengths = litlen_code.arrays(286)
    dist_words, dist_lengths = dist_code.arrays(30)
    header = np.concatenate([litlen_lengths, dist_lengths])
    if header.max() > MAX_CODE_LENGTH:
        raise ValueError(
            f"code length {int(header.max())} exceeds the table header's "
            f"{MAX_CODE_LENGTH} bits"
        )

    # Fields in the order a bit writer takes them: both tables' code
    # lengths, then a literal's code, or a match's length code, length
    # extra bits, distance code and distance extra bits (zero-width
    # extras write nothing), then end-of-block.
    is_match = length > 0
    first = header.size + np.arange(length.size) + 3 * (np.cumsum(is_match) - is_match)
    at = first[match]
    size = header.size + length.size + 3 * match.size + 1
    words = np.zeros(size, dtype=np.int64)
    widths = np.zeros(size, dtype=np.int64)
    words[: header.size] = header
    widths[: header.size] = 5
    words[first] = litlen_words[symbol]
    widths[first] = litlen_lengths[symbol]
    words[at + 1] = _LENGTH_VALUE[length[match]]
    widths[at + 1] = _LENGTH_EXTRA[length[match]]
    words[at + 2] = dist_words[dsymbol]
    widths[at + 2] = dist_lengths[dsymbol]
    words[at + 3] = distance - _DISTANCE_BASE[dsymbol]
    widths[at + 3] = _DISTANCE_EXTRA[dsymbol]
    words[-1] = litlen_words[END_OF_BLOCK]
    widths[-1] = litlen_lengths[END_OF_BLOCK]
    out = pack_fields(words, widths)
    rec = get_recorder()
    if rec.enabled:
        # Each field's width is the bits it costs.
        length_bits = int(widths[at].sum() + widths[at + 1].sum())
        distance_bits = int(widths[at + 2].sum() + widths[at + 3].sum())
        literal_bits = int(widths[first].sum()) - int(widths[at].sum())
        rec.add_bits("tables", 5 * header.size)
        if literal_bits:
            rec.add_bits("literals", literal_bits)
        if length_bits:
            rec.add_bits("match_lengths", length_bits)
        if distance_bits:
            rec.add_bits("match_distances", distance_bits)
        rec.add_bits("eob", int(widths[-1]))
        pad = len(out) * 8 - int(widths.sum())
        if pad:
            rec.add_bits("padding", pad)
    return out


def _present(counts: np.ndarray) -> Dict[int, int]:
    """The symbols that occur, with their counts."""
    seen = np.flatnonzero(counts)
    return dict(zip(seen.tolist(), counts[seen].tolist()))


# repro: contract decode-entry
def gzipish_decompress(payload: bytes) -> bytes:
    """Inverse of :func:`gzipish_compress`.

    Termination on arbitrary bytes: each token consumes at least one
    payload bit, matches expand at most 258 bytes each, and exhausting
    the reader raises through the guard as ``truncated``.
    """
    with decode_guard("gzipish.decompress"):
        reader = BitReader(payload)
        litlen_lengths = _read_table(reader, 286)
        dist_lengths = _read_table(reader, 30)
        litlen_code = HuffmanCode(litlen_lengths, canonical_codewords(litlen_lengths))
        dist_code = HuffmanCode(dist_lengths, canonical_codewords(dist_lengths))
        litlen_decoder = HuffmanDecoder(litlen_code)
        dist_decoder = HuffmanDecoder(dist_code)

        tokens: List[Token] = []
        while True:
            symbol = litlen_decoder.decode_symbol(reader)
            if symbol == END_OF_BLOCK:
                break
            if symbol < 256:
                tokens.append(Literal(symbol))
                continue
            extra, base = _LENGTH_BY_SYMBOL[symbol]
            length = base + (reader.read_bits(extra) if extra else 0)
            dsymbol = dist_decoder.decode_symbol(reader)
            dextra, dbase = _DISTANCE_BY_SYMBOL[dsymbol]
            distance = dbase + (reader.read_bits(dextra) if dextra else 0)
            tokens.append(Match(length, distance))
        return detokenize(iter(tokens))


def gzipish_ratio(data: bytes) -> float:
    """Compressed/original ratio for the gzip stand-in."""
    if not data:
        return 1.0
    return len(gzipish_compress(data)) / len(data)
