"""The ``gzip`` stand-in: LZSS + canonical Huffman (simplified DEFLATE).

Matches and literals from :mod:`repro.baselines.lzss` are coded with two
semiadaptive canonical Huffman tables using DEFLATE's symbol binning:

* **lit/len alphabet** — 256 literal bytes, an end-of-block symbol, and
  29 length bins, each followed by 0-5 raw extra bits;
* **distance alphabet** — 30 distance bins with 0-13 raw extra bits.

The code-length tables travel in the header (5 bits per present symbol),
so the output is fully self-contained and the measured sizes are honest.
Like real gzip — and unlike SAMC/SADC — the stream only decompresses
from the beginning; it is the file-oriented upper-bound comparator in
Figures 7 and 8.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.baselines.lzss import Literal, Match, Token, detokenize, tokenize
from repro.bitstream.io import BitReader, BitWriter
from repro.entropy.huffman import (
    HuffmanDecoder,
    HuffmanEncoder,
    build_code,
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


def _write_table(writer: BitWriter, lengths: Dict[int, int], alphabet: int) -> None:
    """Serialise code lengths: 5 bits per symbol, 0 = absent."""
    for symbol in range(alphabet):
        writer.write_bits(min(31, lengths.get(symbol, 0)), 5)


def _read_table(reader: BitReader, alphabet: int) -> Dict[int, int]:
    lengths = {}
    for symbol in range(alphabet):
        length = reader.read_bits(5)
        if length:
            lengths[symbol] = length
    return lengths


def gzipish_compress(data: bytes) -> bytes:
    """Compress ``data``; output embeds both Huffman tables."""
    tokens = tokenize(data)

    litlen_counts: Dict[int, int] = {END_OF_BLOCK: 1}
    dist_counts: Dict[int, int] = {}
    coded: List[Tuple[str, tuple]] = []
    for token in tokens:
        if isinstance(token, Literal):
            litlen_counts[token.byte] = litlen_counts.get(token.byte, 0) + 1
            coded.append(("lit", (token.byte,)))
        else:
            symbol, extra, value = _length_symbol(token.length)
            litlen_counts[symbol] = litlen_counts.get(symbol, 0) + 1
            dsymbol, dextra, dvalue = _distance_symbol(token.distance)
            dist_counts[dsymbol] = dist_counts.get(dsymbol, 0) + 1
            coded.append(("match", (symbol, extra, value, dsymbol, dextra, dvalue)))

    litlen_code = build_code(litlen_counts)
    dist_code = build_code(dist_counts)
    writer = BitWriter()
    _write_table(writer, litlen_code.lengths, 286)
    _write_table(writer, dist_code.lengths, 30)
    litlen_encoder = HuffmanEncoder(litlen_code)
    dist_encoder = HuffmanEncoder(dist_code)
    for kind, payload in coded:
        if kind == "lit":
            litlen_encoder.encode_to(writer, [payload[0]])
        else:
            symbol, extra, value, dsymbol, dextra, dvalue = payload
            litlen_encoder.encode_to(writer, [symbol])
            if extra:
                writer.write_bits(value, extra)
            dist_encoder.encode_to(writer, [dsymbol])
            if dextra:
                writer.write_bits(dvalue, dextra)
    litlen_encoder.encode_to(writer, [END_OF_BLOCK])
    out = writer.getvalue()
    rec = get_recorder()
    if rec.enabled:
        # Each Huffman stream costs sum(count * code length); matches
        # add their raw extra bits.
        lengths = litlen_code.lengths
        literal_bits = length_bits = 0
        for symbol, count in litlen_counts.items():
            if symbol < END_OF_BLOCK:
                literal_bits += count * lengths[symbol]
            elif symbol > END_OF_BLOCK:
                length_bits += count * lengths[symbol]
        distance_bits = sum(
            count * dist_code.lengths[symbol]
            for symbol, count in dist_counts.items()
        )
        for kind, payload in coded:
            if kind == "match":
                length_bits += payload[1]
                distance_bits += payload[4]
        rec.add_bits("tables", 5 * (286 + 30))
        if literal_bits:
            rec.add_bits("literals", literal_bits)
        if length_bits:
            rec.add_bits("match_lengths", length_bits)
        if distance_bits:
            rec.add_bits("match_distances", distance_bits)
        rec.add_bits("eob", lengths[END_OF_BLOCK])
        pad = len(out) * 8 - writer.bit_length
        if pad:
            rec.add_bits("padding", pad)
    return out


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
        from repro.entropy.huffman import HuffmanCode, canonical_codewords

        litlen_code = HuffmanCode(litlen_lengths, canonical_codewords(litlen_lengths))
        dist_code = HuffmanCode(dist_lengths, canonical_codewords(dist_lengths))
        litlen_decoder = HuffmanDecoder(litlen_code)
        dist_decoder = HuffmanDecoder(dist_code)

        tokens: List[Token] = []
        while True:
            symbol = litlen_decoder.decode_from(reader, 1)[0]
            if symbol == END_OF_BLOCK:
                break
            if symbol < 256:
                tokens.append(Literal(symbol))
                continue
            extra, base = _LENGTH_BY_SYMBOL[symbol]
            length = base + (reader.read_bits(extra) if extra else 0)
            dsymbol = dist_decoder.decode_from(reader, 1)[0]
            dextra, dbase = _DISTANCE_BY_SYMBOL[dsymbol]
            distance = dbase + (reader.read_bits(dextra) if dextra else 0)
            tokens.append(Match(length, distance))
        return detokenize(iter(tokens))


def gzipish_ratio(data: bytes) -> float:
    """Compressed/original ratio for the gzip stand-in."""
    if not data:
        return 1.0
    return len(gzipish_compress(data)) / len(data)
