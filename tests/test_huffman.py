"""Tests for Huffman coding: optimality, canonical form, codec."""

import heapq
import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitstream.io import BitReader, BitWriter
from repro.entropy.huffman import (
    HuffmanDecoder,
    HuffmanEncoder,
    build_code,
    build_code_from_symbols,
    canonical_codewords,
    code_lengths,
    decode_table,
)
from repro.entropy.stats import entropy_bits
from repro.resilience.errors import CATEGORY_SYMBOL, CorruptedStreamError


class TestCodeLengths:
    def test_empty(self):
        assert code_lengths({}) == {}

    def test_single_symbol_gets_one_bit(self):
        assert code_lengths({42: 100}) == {42: 1}

    def test_two_symbols(self):
        assert code_lengths({0: 9, 1: 1}) == {0: 1, 1: 1}

    def test_uniform_four_symbols(self):
        lengths = code_lengths({i: 5 for i in range(4)})
        assert all(length == 2 for length in lengths.values())

    def test_skewed_lengths(self):
        lengths = code_lengths({0: 8, 1: 4, 2: 2, 3: 1, 4: 1})
        assert lengths[0] == 1
        assert lengths[1] == 2
        assert lengths[3] == 4 and lengths[4] == 4

    def test_zero_counts_excluded(self):
        lengths = code_lengths({0: 10, 1: 0})
        assert 1 not in lengths

    def test_deterministic(self):
        counts = {i: (i * 7) % 5 + 1 for i in range(20)}
        assert code_lengths(counts) == code_lengths(dict(counts))


def _leaf_list_code_lengths(counts):
    """The leaf-list construction: each merge copies both leaf lists and
    deepens every leaf under it.  The oracle for :func:`code_lengths`."""
    alive = [(count, symbol) for symbol, count in counts.items() if count > 0]
    if not alive:
        return {}
    if len(alive) == 1:
        return {alive[0][1]: 1}
    heap = [(count, symbol, [symbol]) for count, symbol in alive]
    heapq.heapify(heap)
    lengths = {symbol: 0 for _count, symbol in alive}
    while len(heap) > 1:
        w1, t1, leaves1 = heapq.heappop(heap)
        w2, t2, leaves2 = heapq.heappop(heap)
        for symbol in leaves1 + leaves2:
            lengths[symbol] += 1
        heapq.heappush(heap, (w1 + w2, min(t1, t2), leaves1 + leaves2))
    return lengths


def _fibonacci_counts(size):
    counts, a, b = {}, 1, 1
    for symbol in range(size):
        counts[symbol] = a
        a, b = b, a + b
    return counts


count_tables = st.one_of(
    st.dictionaries(st.integers(0, 300), st.integers(0, 10_000), max_size=80),
    # Small counts tie merged nodes with leaves, so the tiebreak decides
    # which pairs merge, and with them the lengths.
    st.dictionaries(st.integers(0, 300), st.integers(1, 4), max_size=40),
    st.builds(lambda size, count: {s: count for s in range(size)},
              st.integers(0, 70), st.integers(1, 50)),
    # Fibonacci weights build the deepest tree: one leaf per level.
    st.builds(_fibonacci_counts, st.integers(0, 45)),
    st.builds(lambda symbol, count: {symbol: count},
              st.integers(0, 300), st.integers(0, 5)),
)


@settings(max_examples=300, deadline=None)
@given(count_tables)
def test_code_lengths_match_the_leaf_list_construction(counts):
    assert code_lengths(counts) == _leaf_list_code_lengths(counts)


def test_fibonacci_counts_give_a_deep_code():
    lengths = code_lengths(_fibonacci_counts(40))
    assert max(lengths.values()) == 39
    assert lengths == _leaf_list_code_lengths(_fibonacci_counts(40))


@given(st.dictionaries(st.integers(0, 63), st.integers(1, 500),
                       min_size=2, max_size=32))
def test_kraft_equality(counts):
    # Huffman codes are complete: Kraft sum is exactly 1.
    lengths = code_lengths(counts)
    assert sum(2.0 ** -l for l in lengths.values()) == pytest.approx(1.0)


@given(st.dictionaries(st.integers(0, 63), st.integers(1, 500),
                       min_size=2, max_size=32))
def test_huffman_within_one_bit_of_entropy(counts):
    code = build_code(counts)
    mean = code.mean_length(counts)
    h = entropy_bits(counts)
    assert h - 1e-9 <= mean <= h + 1.0


class TestCanonical:
    def test_prefix_free(self):
        counts = {i: (i % 7) + 1 for i in range(30)}
        code = build_code(counts)
        words = [
            format(code.codewords[s], f"0{code.lengths[s]}b")
            for s in code.lengths
        ]
        for a in words:
            for b in words:
                if a is not b:
                    assert not b.startswith(a)

    def test_sorted_by_length_then_symbol(self):
        lengths = {0: 2, 1: 1, 2: 3, 3: 3}
        codewords = canonical_codewords(lengths)
        assert codewords[1] == 0b0
        assert codewords[0] == 0b10
        assert codewords[2] == 0b110
        assert codewords[3] == 0b111


class TestCodec:
    def test_roundtrip(self):
        symbols = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5]
        code = build_code_from_symbols(symbols)
        encoder = HuffmanEncoder(code)
        decoder = HuffmanDecoder(code)
        assert decoder.decode(encoder.encode(symbols), len(symbols)) == symbols

    def test_encoded_bits_exact(self):
        symbols = [0, 0, 0, 1]
        code = build_code_from_symbols(symbols)
        encoder = HuffmanEncoder(code)
        assert encoder.encoded_bits(symbols) == 4  # 3*1 + 1*1

    def test_unknown_symbol_rejected(self):
        code = build_code({0: 1, 1: 1})
        with pytest.raises(KeyError):
            HuffmanEncoder(code).encode([2])

    def test_invalid_bits_rejected(self):
        # {7: 1} is incomplete: its one codeword is 0, so a 1 bit starts
        # no codeword.  The decoder reads one bit past the longest length
        # and raises at the byte holding that bit.  Fifteen symbols come
        # out of 0x00 0x01 first; the bad sequence starts at bit 15.
        decoder = HuffmanDecoder(build_code({7: 1}))
        reader = BitReader(bytes([0x00, 0x01, 0xFF]))
        with pytest.raises(
            CorruptedStreamError, match="invalid Huffman bit sequence"
        ) as info:
            for _ in range(16):
                decoder.decode_symbol(reader)
        assert info.value.category == CATEGORY_SYMBOL
        assert info.value.offset == 2
        assert reader.bit_position == 17

    def test_invalid_bits_at_the_end_are_a_truncation(self):
        # The same bad start with only one bit left: the stream ends
        # before the decoder has read enough to call it invalid.
        decoder = HuffmanDecoder(build_code({7: 1}))
        reader = BitReader(bytes([0x00, 0x01]))
        with pytest.raises(EOFError, match="read past end of bit stream"):
            for _ in range(16):
                decoder.decode_symbol(reader)
        assert reader.bit_position == 16

    def test_stream_ending_inside_a_codeword(self):
        # Lengths {2: 1, 0: 2, 1: 2}: codewords 0, 10 and 11.  0x55 is
        # 0 10 10 10 and one bit of a fifth codeword.
        decoder = HuffmanDecoder(build_code({0: 1, 1: 1, 2: 2}))
        reader = BitReader(bytes([0x55]))
        assert [decoder.decode_symbol(reader) for _ in range(4)] == [2, 0, 0, 0]
        with pytest.raises(EOFError, match="read past end of bit stream"):
            decoder.decode_symbol(reader)
        assert reader.bit_position == 8

    def test_shared_writer_interleaving(self):
        # SADC interleaves several Huffman streams in one writer.
        code_a = build_code({0: 3, 1: 1})
        code_b = build_code({7: 1, 9: 1})
        writer = BitWriter()
        HuffmanEncoder(code_a).encode_to(writer, [0, 1])
        HuffmanEncoder(code_b).encode_to(writer, [9])
        reader = BitReader(writer.getvalue())
        decoder_a, decoder_b = HuffmanDecoder(code_a), HuffmanDecoder(code_b)
        assert [decoder_a.decode_symbol(reader) for _ in range(2)] == [0, 1]
        assert decoder_b.decode_symbol(reader) == 9


@given(st.lists(st.integers(0, 15), min_size=1, max_size=300))
def test_codec_roundtrip_property(symbols):
    code = build_code_from_symbols(symbols)
    encoded = HuffmanEncoder(code).encode(symbols)
    assert HuffmanDecoder(code).decode(encoded, len(symbols)) == symbols


def test_table_bits_accounting():
    code = build_code({0: 1, 1: 2, 2: 4})
    assert code.table_bits(8) == 3 * 13


def test_mean_length_empty_counts():
    code = build_code({0: 1})
    assert code.mean_length({}) == 0.0


def test_decode_table_is_built_once_on_first_decode():
    # A sweep builds codes it never decodes, so build_code leaves the
    # table out; every decoder of a code then shares the one table.
    code = build_code({0: 3, 1: 1, 2: 1})
    assert "_decode_table" not in vars(code)
    table = decode_table(code)
    assert decode_table(code) is table
    assert HuffmanDecoder(code).decode(b"\x5f", 4) == [0, 1, 2, 2]
    assert decode_table(code) is table
