"""Unit and property tests for MSB-first bit I/O."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitstream import io
from repro.bitstream.io import MAX_FIELD_BITS, BitReader, BitWriter, pack_fields


class TestBitWriter:
    def test_single_bits_pack_msb_first(self):
        writer = BitWriter()
        for bit in (1, 0, 1, 0, 0, 0, 0, 0):
            writer.write_bit(bit)
        assert writer.getvalue() == b"\xa0"

    def test_partial_byte_zero_padded(self):
        writer = BitWriter()
        writer.write_bits(0b101, 3)
        assert writer.getvalue() == b"\xa0"

    def test_write_bits_width_zero(self):
        writer = BitWriter()
        writer.write_bits(0, 0)
        assert writer.getvalue() == b""
        assert len(writer) == 0

    def test_len_counts_bits(self):
        writer = BitWriter()
        writer.write_bits(0x1F, 5)
        assert len(writer) == 5
        writer.write_bytes(b"ab")
        assert len(writer) == 21

    def test_value_too_wide_rejected(self):
        writer = BitWriter()
        with pytest.raises(ValueError):
            writer.write_bits(8, 3)

    def test_negative_width_rejected(self):
        with pytest.raises(ValueError):
            BitWriter().write_bits(0, -1)

    def test_bad_bit_rejected(self):
        with pytest.raises(ValueError):
            BitWriter().write_bit(2)

    def test_write_bytes_aligned_fast_path(self):
        writer = BitWriter()
        writer.write_bytes(b"\x12\x34")
        assert writer.getvalue() == b"\x12\x34"

    def test_write_bytes_unaligned(self):
        writer = BitWriter()
        writer.write_bit(1)
        writer.write_bytes(b"\x00")
        assert writer.getvalue() == b"\x80\x00"

    def test_align_to_byte(self):
        writer = BitWriter()
        writer.write_bit(1)
        writer.align_to_byte(fill=1)
        assert writer.getvalue() == b"\xff"
        assert len(writer) == 8


class TestBitReader:
    def test_reads_msb_first(self):
        reader = BitReader(b"\xa0")
        assert [reader.read_bit() for _ in range(3)] == [1, 0, 1]

    def test_read_bits_value(self):
        reader = BitReader(b"\x12\x34")
        assert reader.read_bits(16) == 0x1234

    def test_eof_raises_without_padding(self):
        reader = BitReader(b"\xff")
        reader.read_bits(8)
        with pytest.raises(EOFError):
            reader.read_bit()

    def test_padding_returns_zeros(self):
        reader = BitReader(b"\xff", pad=True)
        reader.read_bits(8)
        assert reader.read_bits(16) == 0

    def test_peek_reads_zeros_past_the_end(self):
        reader = BitReader(b"\xa5")
        reader.read_bits(4)
        assert reader.peek_bits(8) == 0x50  # 0101, then zero fill
        assert reader.bit_position == 4

    def test_skip_past_the_end_stops_at_the_end(self):
        reader = BitReader(b"\xa5")
        reader.skip_bits(3)
        with pytest.raises(EOFError, match="read past end of bit stream"):
            reader.skip_bits(6)
        assert reader.bit_position == 8
        padded = BitReader(b"\xa5", pad=True)
        padded.skip_bits(9)
        assert padded.bit_position == 9

    def test_seek_bit_enables_random_access(self):
        reader = BitReader(b"\x0f")
        reader.seek_bit(4)
        assert reader.read_bits(4) == 0xF

    def test_seek_negative_rejected(self):
        with pytest.raises(ValueError):
            BitReader(b"").seek_bit(-1)

    def test_bits_remaining(self):
        reader = BitReader(b"\x00\x00")
        reader.read_bits(3)
        assert reader.bits_remaining == 13

    def test_read_bytes(self):
        assert BitReader(b"abc").read_bytes(2) == b"ab"


@given(st.lists(st.integers(0, 1), max_size=200))
def test_bit_roundtrip(bits):
    writer = BitWriter()
    for bit in bits:
        writer.write_bit(bit)
    reader = BitReader(writer.getvalue())
    assert [reader.read_bit() for _ in range(len(bits))] == bits


@given(st.lists(st.tuples(st.integers(1, 32), st.data()), max_size=50))
def test_field_roundtrip(fields_data):
    # Draw (width, value) pairs, write them back-to-back, read them back.
    pairs = []
    writer = BitWriter()
    for width, data in fields_data:
        value = data.draw(st.integers(0, (1 << width) - 1))
        pairs.append((width, value))
        writer.write_bits(value, width)
    reader = BitReader(writer.getvalue())
    for width, value in pairs:
        assert reader.read_bits(width) == value


@given(st.binary(max_size=64))
def test_bytes_roundtrip(data):
    writer = BitWriter()
    writer.write_bytes(data)
    assert writer.getvalue() == data
    assert BitReader(data).read_bytes(len(data)) == data


# ---------------------------------------------------------------------------
# pack_fields: the array form of a run of write_bits calls

field_lists = st.lists(
    st.integers(0, MAX_FIELD_BITS).flatmap(
        lambda width: st.tuples(st.integers(0, (1 << width) - 1), st.just(width))
    ),
    max_size=200,
)


def _written(fields):
    writer = BitWriter()
    for value, width in fields:
        writer.write_bits(value, width)
    return writer.getvalue()


@settings(max_examples=200, deadline=None)
@given(field_lists, st.sampled_from([1, 3, 64, 1 << 16]))
def test_pack_fields_matches_bit_writer(fields, chunk):
    # Small chunks carry partial bytes and words across chunk boundaries.
    io._PACK_CHUNK, saved = chunk, io._PACK_CHUNK
    try:
        packed = pack_fields([v for v, _w in fields], [w for _v, w in fields])
    finally:
        io._PACK_CHUNK = saved
    assert packed == _written(fields)


def test_pack_fields_empty_and_array_inputs():
    assert pack_fields([], []) == b""
    values = np.array([5, 0, 1 << 56, 3], dtype=np.int64)
    widths = np.array([3, 0, 57, 2], dtype=np.uint8)
    assert pack_fields(values, widths) == _written(
        [(5, 3), (0, 0), (1 << 56, 57), (3, 2)]
    )


@pytest.mark.parametrize("verify", ["1", "0"])
@pytest.mark.parametrize(
    "fields, message",
    [
        ([(1, 4), (-1, 3)], "value -1 does not fit in 3 bits"),
        ([(1, 4), (8, 3), (9, 3)], "value 8 does not fit in 3 bits"),
        ([(1, 0)], "value 1 does not fit in 0 bits"),
        ([(0, 58)], "field width 58 exceeds 57 bits"),
        ([(0, -1)], "width must be non-negative"),
    ],
)
def test_pack_fields_rejects_bad_fields(fields, message, verify, monkeypatch):
    # A plain check: it holds whether or not tables verify themselves.
    monkeypatch.setenv("REPRO_VERIFY", verify)
    with pytest.raises(ValueError, match=f"^{message}$"):
        pack_fields([v for v, _w in fields], [w for _v, w in fields])


def test_pack_fields_reports_the_first_bad_field_past_a_chunk(monkeypatch):
    monkeypatch.setattr(io, "_PACK_CHUNK", 2)
    with pytest.raises(ValueError, match="^value 4 does not fit in 2 bits$"):
        pack_fields([1, 1, 1, 4, 9], [1, 1, 1, 2, 3])


def test_pack_fields_memory_is_bounded_by_the_chunk():
    # One array element per output bit would need about 500 MB here.
    rng = np.random.default_rng(1)
    widths = rng.integers(1, 33, size=1 << 20)
    values = rng.integers(0, 1 << 62, size=1 << 20) & ((1 << widths) - 1)
    tracemalloc.start()
    try:
        packed = pack_fields(values, widths)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(packed) == (int(widths.sum()) + 7) // 8
    assert peak < 64 * 2**20
