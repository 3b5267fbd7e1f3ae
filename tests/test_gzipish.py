"""Tests for the gzip stand-in (LZSS + canonical Huffman)."""

import random
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.gzipish import (
    _distance_symbol,
    _length_symbol,
    gzipish_compress,
    gzipish_decompress,
    gzipish_ratio,
)
from repro.entropy.huffman import HuffmanCode, build_code


class TestBinning:
    def test_length_bins_cover_range(self):
        for length in range(3, 259):
            symbol, extra, value = _length_symbol(length)
            assert 257 <= symbol <= 285
            assert 0 <= value < (1 << extra) or extra == 0 and value == 0

    def test_length_bin_roundtrip(self):
        from repro.baselines.gzipish import _LENGTH_BY_SYMBOL

        for length in range(3, 259):
            symbol, extra, value = _length_symbol(length)
            _extra, base = _LENGTH_BY_SYMBOL[symbol]
            assert base + value == length

    def test_distance_bins_cover_range(self):
        from repro.baselines.gzipish import _DISTANCE_BY_SYMBOL

        for distance in (1, 2, 3, 4, 5, 100, 1024, 32768):
            symbol, extra, value = _distance_symbol(distance)
            _extra, base = _DISTANCE_BY_SYMBOL[symbol]
            assert base + value == distance

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            _length_symbol(2)
        with pytest.raises(ValueError):
            _distance_symbol(0)


class TestRoundtrip:
    def test_empty(self):
        assert gzipish_decompress(gzipish_compress(b"")) == b""

    def test_single_byte(self):
        assert gzipish_decompress(gzipish_compress(b"k")) == b"k"

    def test_text(self):
        data = b"a man a plan a canal panama " * 100
        assert gzipish_decompress(gzipish_compress(data)) == data

    def test_binary(self):
        rng = random.Random(3)
        data = bytes(rng.randrange(256) for _ in range(10000))
        assert gzipish_decompress(gzipish_compress(data)) == data

    def test_long_matches(self):
        data = b"\x00" * 5000
        assert gzipish_decompress(gzipish_compress(data)) == data

    def test_program(self, mips_program):
        assert gzipish_decompress(gzipish_compress(mips_program)) == mips_program

    def test_code_longer_than_the_table_entry_is_refused(self, monkeypatch):
        # A 5-bit table entry holds lengths up to 31; a longer code would
        # write a table that does not decode back to the input.
        def with_a_32_bit_code(counts):
            code = build_code(counts)
            symbol = min(code.lengths)
            return HuffmanCode({**code.lengths, symbol: 32}, code.codewords)

        monkeypatch.setenv("REPRO_VERIFY", "0")
        monkeypatch.setattr(
            "repro.baselines.gzipish.build_code", with_a_32_bit_code
        )
        with pytest.raises(ValueError, match="code length 32 exceeds"):
            gzipish_compress(b"a man a plan a canal panama " * 10)


@settings(max_examples=30, deadline=None)
@given(st.binary(max_size=2000))
def test_roundtrip_property(data):
    assert gzipish_decompress(gzipish_compress(data)) == data


class TestQuality:
    def test_tracks_zlib_on_code(self, mips_program_large):
        ours = gzipish_ratio(mips_program_large)
        zlibs = len(zlib.compress(mips_program_large, 9)) / len(mips_program_large)
        # Within 15% relative of a production DEFLATE at max effort.
        assert ours <= zlibs * 1.15

    def test_beats_raw_on_repetitive(self):
        data = b"0123456789abcdef" * 500
        assert gzipish_ratio(data) < 0.1

    def test_near_raw_on_random(self):
        rng = random.Random(1)
        data = bytes(rng.randrange(256) for _ in range(20000))
        assert 0.95 < gzipish_ratio(data) < 1.1

    def test_empty_ratio(self):
        assert gzipish_ratio(b"") == 1.0
