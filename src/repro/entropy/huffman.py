"""Huffman coding: tree construction, canonical codes, and a codec.

Used three ways in this reproduction:

* the **byte-based Huffman baseline** (Kozuch & Wolfe, compared in Fig. 9),
* SADC's final entropy-coding pass over its dictionary-index and operand
  streams (Section 4.1, last step),
* table-size accounting — canonical codes let the decoder table be stored
  as one length per symbol.

Construction is deterministic: ties in the priority queue break on
(symbol count, smallest symbol), so identical inputs always produce
identical tables, a property the tests and the LAT layout rely on.
"""

from __future__ import annotations

import heapq
import os
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.bitstream.io import BitReader, BitWriter
from repro.resilience.errors import CATEGORY_SYMBOL, CorruptedStreamError


@dataclass(frozen=True)
class HuffmanCode:
    """A complete prefix code: symbol -> (codeword, length)."""

    lengths: Dict[int, int]
    codewords: Dict[int, int]

    def mean_length(self, counts: Dict[int, int]) -> float:
        """Average codeword length under the given symbol distribution."""
        total = sum(counts.values())
        if total == 0:
            return 0.0
        return sum(self.lengths[s] * c for s, c in counts.items()) / total

    def arrays(self, alphabet: int) -> Tuple[np.ndarray, np.ndarray]:
        """Codeword and length of each symbol ``0 .. alphabet - 1`` as
        int64 arrays; 0 and 0 for a symbol the code lacks."""
        codewords = np.zeros(alphabet, dtype=np.int64)
        lengths = np.zeros(alphabet, dtype=np.int64)
        for symbol, length in self.lengths.items():
            codewords[symbol] = self.codewords[symbol]
            lengths[symbol] = length
        return codewords, lengths

    def table_bits(self, symbol_bits: int) -> int:
        """Storage cost of the decode table (canonical form).

        Canonical Huffman needs only the code length per symbol plus the
        symbol values themselves: ``(symbol_bits + 5)`` bits per entry
        (5 bits encode lengths up to 31).
        """
        return len(self.lengths) * (symbol_bits + 5)


def code_lengths(counts: Dict[int, int]) -> Dict[int, int]:
    """Optimal prefix-code lengths for an empirical distribution.

    A single-symbol alphabet gets a 1-bit code (the degenerate case every
    real bitstream format also special-cases).  Each merge records the
    new node as its two children's parent; a leaf's length is its depth,
    found in one pass from the root down.
    """
    alive = [(count, symbol) for symbol, count in counts.items() if count > 0]
    if not alive:
        return {}
    if len(alive) == 1:
        return {alive[0][1]: 1}
    # Heap of (weight, tiebreak, node).  Nodes 0..n-1 are the leaves in
    # ``alive`` order; merge k creates node n + k.  Live subtrees hold
    # disjoint symbols, so no two items tie on (weight, tiebreak) and the
    # node never decides the order.
    heap: List[Tuple[int, int, int]] = [
        (count, symbol, node) for node, (count, symbol) in enumerate(alive)
    ]
    heapq.heapify(heap)
    parent = [0] * (2 * len(alive) - 1)
    pop, replace = heapq.heappop, heapq.heapreplace
    for node in range(len(alive), len(parent)):
        w1, t1, n1 = pop(heap)
        # Pop the second item and push the merge in one step.
        w2, t2, n2 = heap[0]
        replace(heap, (w1 + w2, t1 if t1 < t2 else t2, node))
        parent[n1] = parent[n2] = node
    # A parent is created after its children, so a descending walk meets
    # it first; the root, the last node, has depth 0.
    depth = [0] * len(parent)
    for child in range(len(parent) - 2, -1, -1):
        depth[child] = depth[parent[child]] + 1
    return {symbol: depth[leaf] for leaf, (_count, symbol) in enumerate(alive)}


def canonical_codewords(lengths: Dict[int, int]) -> Dict[int, int]:
    """Assign canonical codewords (sorted by length, then symbol)."""
    order = sorted(lengths.items(), key=lambda kv: (kv[1], kv[0]))
    codewords: Dict[int, int] = {}
    code = 0
    previous_length = 0
    for symbol, length in order:
        code <<= length - previous_length
        codewords[symbol] = code
        code += 1
        previous_length = length
    return codewords


def kraft_numerator(lengths: Dict[int, int], scale_bits: int = 32) -> int:
    """Kraft sum of the code lengths, scaled by ``2**scale_bits``.

    Exact integer arithmetic (no floats): a complete prefix code sums to
    exactly ``1 << scale_bits``; more means the lengths cannot form a
    prefix code at all, less means the code wastes bit patterns.
    """
    return sum(1 << (scale_bits - length) for length in lengths.values())


def find_prefix_violation(
    lengths: Dict[int, int], codewords: Dict[int, int]
) -> Optional[Tuple[int, int]]:
    """First pair of symbols whose codewords collide, or ``None``.

    A collision is either a duplicate codeword or one codeword being a
    proper prefix of another — both make the table undecodable.
    """
    by_length: Dict[int, Dict[int, int]] = {}
    for symbol in sorted(lengths):
        length = lengths[symbol]
        word = codewords[symbol]
        if word.bit_length() > length:
            return (symbol, symbol)  # codeword does not fit its length
        table = by_length.setdefault(length, {})
        if word in table:
            return (table[word], symbol)
        table[word] = symbol
    ordered_lengths = sorted(by_length)
    for symbol in sorted(lengths):
        length = lengths[symbol]
        word = codewords[symbol]
        for shorter in ordered_lengths:
            if shorter >= length:
                break
            prefix = word >> (length - shorter)
            if prefix in by_length[shorter]:
                return (by_length[shorter][prefix], symbol)
    return None


def construction_checks_enabled() -> bool:
    """Whether :func:`build_code` self-verifies its output.

    On by default in debug mode; ``python -O`` or ``REPRO_VERIFY=0``
    switches the check off.  Verification never alters the table, so the
    coded bitstream is identical either way.
    """
    return __debug__ and os.environ.get("REPRO_VERIFY", "1") != "0"


def verify_code(lengths: Dict[int, int], codewords: Dict[int, int]) -> None:
    """Raise :class:`ValueError` unless the table is a sound prefix code."""
    violation = find_prefix_violation(lengths, codewords)
    if violation is not None:
        first, second = violation
        raise ValueError(
            f"Huffman table is not prefix-free: symbols {first} and "
            f"{second} have colliding codewords"
        )
    if lengths and kraft_numerator(lengths) > (1 << 32):
        raise ValueError("Huffman table overfull: Kraft sum exceeds 1")


def build_code(counts: Dict[int, int]) -> HuffmanCode:
    """Build a canonical Huffman code from symbol counts.

    In debug mode (see :func:`construction_checks_enabled`) the freshly
    built table is verified for prefix-freeness and Kraft soundness
    before it is released to any encoder — table bugs surface here, at
    construction, not deep inside a block decode.
    """
    lengths = code_lengths(counts)
    codewords = canonical_codewords(lengths)
    if construction_checks_enabled():
        verify_code(lengths, codewords)
    return HuffmanCode(lengths=lengths, codewords=codewords)


def build_code_from_symbols(symbols: Iterable[int]) -> HuffmanCode:
    """Convenience: count then build."""
    counts: Dict[int, int] = {}
    for symbol in symbols:
        counts[symbol] = counts.get(symbol, 0) + 1
    return build_code(counts)


class HuffmanEncoder:
    """Encodes symbol sequences under a fixed :class:`HuffmanCode`."""

    def __init__(self, code: HuffmanCode) -> None:
        self._code = code

    def encode_to(self, writer: BitWriter, symbols: Sequence[int]) -> None:
        """Append the coded symbols to an existing bit writer."""
        codewords = self._code.codewords
        lengths = self._code.lengths
        for symbol in symbols:
            if symbol not in codewords:
                raise KeyError(f"symbol {symbol!r} not in Huffman table")
            writer.write_bits(codewords[symbol], lengths[symbol])

    def encode(self, symbols: Sequence[int]) -> bytes:
        """Encode to fresh bytes (zero-padded to a byte boundary)."""
        writer = BitWriter()
        self.encode_to(writer, symbols)
        return writer.getvalue()

    def encoded_bits(self, symbols: Iterable[int]) -> int:
        """Exact coded length in bits without materialising the stream."""
        lengths = self._code.lengths
        return sum(lengths[s] for s in symbols)


class DecodeTable(NamedTuple):
    """A canonical code's decode table, built from its lengths alone.

    Left-justified to ``width`` bits, the longest length that fits, the
    codewords of each length fill one range of windows, the ranges in
    length order from window 0.  ``starts[k]`` is range ``k``'s first
    window and ``ranges[k]`` its ``(length, shift, offset)``: window
    ``w`` decodes to ``symbols[(w >> shift) + offset]``.  No codeword
    starts at ``end`` or past it.  ``declared`` is the longest length,
    counting codewords too wide for theirs: on an over-full code, the
    first such codeword and every later one, which the table leaves out.
    """

    width: int
    declared: int
    end: int
    starts: Tuple[int, ...]
    ranges: Tuple[Tuple[int, int, int], ...]
    symbols: Tuple[int, ...]


def decode_table(code: HuffmanCode) -> DecodeTable:
    """``code``'s :class:`DecodeTable`, built on first use and memoised
    on the code (a figure sweep builds codes it never decodes)."""
    table = getattr(code, "_decode_table", None)
    if table is not None:
        return table
    firsts: List[Tuple[int, int, int]] = []  # codeword, length, index
    symbols: List[int] = []
    word = length = end = 0
    for symbol, symbol_length in sorted(
        code.lengths.items(), key=lambda kv: (kv[1], kv[0])
    ):
        word <<= symbol_length - length
        length = symbol_length
        if word >> length:
            break  # too wide, and so is every later codeword
        if not firsts or firsts[-1][1] != length:
            firsts.append((word, length, len(symbols)))
        symbols.append(symbol)
        word += 1
        end = word  # at the longest length that fits, once the loop ends
    width = firsts[-1][1] if firsts else 0
    table = DecodeTable(
        width=width,
        declared=max(code.lengths.values(), default=0),
        end=end,
        starts=tuple(first << (width - n) for first, n, _ in firsts),
        ranges=tuple((n, width - n, i - first) for first, n, i in firsts),
        symbols=tuple(symbols),
    )
    # HuffmanCode is frozen; memoise as compiled_model does on a model.
    object.__setattr__(code, "_decode_table", table)
    return table


class HuffmanDecoder:
    """Decodes :class:`HuffmanEncoder` streams through the code's
    :func:`decode_table`; free to build once the code has its table."""

    def __init__(self, code: HuffmanCode) -> None:
        self._table = decode_table(code)

    def decode_symbol(self, reader: BitReader) -> int:
        """Decode one symbol and consume its codeword.

        A window no codeword starts consumes one bit past the longest
        length, then raises a ``symbol`` :class:`CorruptedStreamError`
        at the byte of that bit.  A stream that ends first raises the
        reader's :class:`EOFError`.
        """
        width, declared, end, starts, ranges, symbols = self._table
        window = reader.peek_bits(width)
        if window < end:
            length, shift, offset = ranges[bisect_right(starts, window) - 1]
            reader.skip_bits(length)
            return symbols[(window >> shift) + offset]
        reader.skip_bits(declared + 1)
        raise CorruptedStreamError(
            "invalid Huffman bit sequence",
            offset=reader.bit_position // 8,
            category=CATEGORY_SYMBOL,
        )

    def decode(self, data: bytes, count: int) -> List[int]:
        """Decode ``count`` symbols from bytes."""
        reader = BitReader(data)
        return [self.decode_symbol(reader) for _ in range(count)]
