"""Unit and property tests for bit-field gather/scatter helpers."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bitstream.fields import (
    bits_to_word,
    chunk_words,
    deposit_bits,
    extract_bits,
    sign_extend,
    word_array,
    word_to_bits,
    words_to_bytes,
)


class TestExtractDeposit:
    def test_extract_contiguous_opcode_field(self):
        # Top 6 bits of a MIPS word are positions 0..5.
        word = 0x23BD0010  # addiu-ish: op=0x08|..
        assert extract_bits(word, range(0, 6), 32) == word >> 26

    def test_extract_non_adjacent(self):
        word = 0b10000001
        assert extract_bits(word, (0, 7), 8) == 0b11

    def test_deposit_inverts_extract(self):
        positions = (3, 0, 7, 5)
        value = 0b1011
        word = deposit_bits(value, positions, 8)
        assert extract_bits(word, positions, 8) == value

    def test_out_of_range_position_rejected(self):
        with pytest.raises(ValueError):
            extract_bits(0, [8], 8)
        with pytest.raises(ValueError):
            deposit_bits(0, [8], 8)

    def test_duplicate_position_rejected(self):
        # A repeated position cannot round-trip (the second write would
        # clobber the first), so both directions refuse it outright.
        with pytest.raises(ValueError, match="duplicate bit position 3"):
            extract_bits(0xFF, (0, 3, 3), 8)
        with pytest.raises(ValueError, match="duplicate bit position 3"):
            deposit_bits(0b101, (0, 3, 3), 8)

    def test_duplicate_rejected_even_when_bits_agree(self):
        # Rejection is structural, not value-dependent: depositing the
        # same bit value twice at one position is still an error.
        with pytest.raises(ValueError):
            deposit_bits(0b00, (5, 5), 8)


@given(st.integers(0, 2**32 - 1), st.permutations(list(range(32))))
def test_extract_deposit_roundtrip_full_word(word, order):
    value = extract_bits(word, order, 32)
    assert deposit_bits(value, order, 32) == word


@given(st.integers(0, 2**16 - 1))
def test_word_bits_roundtrip(word):
    assert bits_to_word(word_to_bits(word, 16)) == word


class TestSignExtend:
    @pytest.mark.parametrize(
        "value,width,expected",
        [(0x7FFF, 16, 32767), (0x8000, 16, -32768), (0xFFFF, 16, -1),
         (0, 16, 0), (0xFF, 8, -1), (0x7F, 8, 127)],
    )
    def test_values(self, value, width, expected):
        assert sign_extend(value, width) == expected

    def test_masks_extra_bits(self):
        assert sign_extend(0x1_0001, 16) == 1


class TestChunkWords:
    def test_roundtrip(self):
        data = bytes(range(16))
        words = chunk_words(data, 4)
        assert words[0] == 0x00010203
        assert words_to_bytes(words, 4) == data

    def test_misaligned_rejected(self):
        with pytest.raises(ValueError):
            chunk_words(b"\x00" * 5, 4)

    def test_empty(self):
        assert chunk_words(b"", 4) == []


@given(st.binary(max_size=64).filter(lambda b: len(b) % 4 == 0))
def test_chunk_words_roundtrip_property(data):
    assert words_to_bytes(chunk_words(data, 4), 4) == data


def _to_bytes_join(words, word_bytes):
    """The per-word packing ``words_to_bytes`` is pinned to."""
    return b"".join([int(word).to_bytes(word_bytes, "big") for word in words])


@given(st.data())
@pytest.mark.parametrize("word_bytes", range(1, 9))
def test_words_to_bytes_matches_per_word_join(word_bytes, data):
    top = (1 << (8 * word_bytes)) - 1
    words = data.draw(st.lists(st.integers(0, top), max_size=16))
    # The widest word, so that an 8-byte block has bit 63 set.
    words.append(top)
    assert words_to_bytes(words, word_bytes) == _to_bytes_join(words, word_bytes)
    assert words_to_bytes(iter(words), word_bytes) == \
        _to_bytes_join(words, word_bytes)


@pytest.mark.parametrize("word_bytes", range(1, 9))
@pytest.mark.parametrize("misfit", ["too_wide", "negative"])
def test_words_to_bytes_rejects_a_word_that_does_not_fit(word_bytes, misfit):
    bad = 1 << (8 * word_bytes) if misfit == "too_wide" else -1
    words = [1, bad, 2]
    with pytest.raises(Exception) as joined:
        _to_bytes_join(words, word_bytes)
    with pytest.raises(Exception) as packed:
        words_to_bytes(words, word_bytes)
    assert joined.type is OverflowError
    assert packed.type is joined.type


def test_words_to_bytes_of_no_words():
    assert words_to_bytes([], 4) == b""


class TestWordArray:
    @pytest.mark.parametrize("word_bytes", range(1, 9))
    def test_equals_chunk_words_as_int64(self, word_bytes):
        # Every word's top byte is 0x80 or above, so an 8-byte word has
        # bit 63 set and must come back as its two's-complement int64.
        data = bytes(
            0x80 | (i * 37 % 128) if i % word_bytes == 0 else i * 91 % 256
            for i in range(24 * word_bytes)
        )
        words = word_array(data, word_bytes)
        assert words.dtype == np.int64
        expected = np.array(chunk_words(data, word_bytes), dtype=np.uint64)
        assert np.array_equal(words, expected.view(np.int64))

    def test_misaligned_rejected_like_chunk_words(self):
        with pytest.raises(ValueError) as chunked:
            chunk_words(b"\x00" * 5, 4)
        with pytest.raises(ValueError) as arrayed:
            word_array(b"\x00" * 5, 4)
        assert str(arrayed.value) == str(chunked.value)

    def test_nine_byte_words_rejected(self):
        with pytest.raises(ValueError, match="does not fit an int64"):
            word_array(b"\x00" * 18, 9)

    def test_empty(self):
        words = word_array(b"", 4)
        assert words.dtype == np.int64 and words.size == 0
