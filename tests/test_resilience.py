"""Resilience subsystem: framing, fault injection, hardened decoders.

The contract under test is *guaranteed termination with structured
errors*: any malformed input to any decode path either round-trips
(framed mode) or raises :class:`CorruptedStreamError` with a meaningful
category/offset — never a hang, never a raw ``IndexError``/``KeyError``/
``struct.error``, never unbounded allocation from a forged length field.
"""

import random
import struct

import numpy as np
import pytest

from repro.baselines.byte_huffman import ByteHuffmanCodec
from repro.baselines.lzw import lzw_compress, lzw_decompress
from repro.baselines.positional_huffman import PositionalHuffmanCodec
from repro.core.lat import build_lat
from repro.core.samc import SamcCodec, samc_decompress
from repro.core.serialize import (
    SerializationError,
    deserialize_image,
    serialize_image,
)
from repro.resilience import (
    FRAME_OVERHEAD,
    CorruptedStreamError,
    framing_enabled,
    is_framed,
    unwrap_frame,
    wrap_frame,
)
from repro.obs import NullRecorder, obs_session, use_recorder
from repro.resilience.errors import (
    CATEGORY_BOUNDS,
    CATEGORY_BUDGET,
    CATEGORY_CHECKSUM,
    CATEGORY_MAGIC,
    CATEGORY_STRUCTURE,
    CATEGORY_SYMBOL,
    CATEGORY_TRUNCATED,
    CATEGORY_VERSION,
    decode_guard,
)
from repro.resilience.fuzz import build_targets, run_fuzz
from repro.resilience.inject import (
    FAULT_KINDS,
    corrupt_lat_entry,
    duplicate_span,
    flip_bit,
    sample_fault,
    splice_bytes,
    truncate,
)


class _BoundsAndValue(IndexError, ValueError):
    """Both a bounds and a value error: the first guarded type wins."""


#: A low-level error raised inside ``decode_guard`` -> its category.
GUARD_CATEGORIES = [
    (EOFError("ran dry"), CATEGORY_TRUNCATED),
    (struct.error("unpack requires a buffer of 4 bytes"), CATEGORY_STRUCTURE),
    (IndexError("list index out of range"), CATEGORY_BOUNDS),
    (KeyError(7), CATEGORY_BOUNDS),
    (MemoryError(), CATEGORY_BUDGET),
    (OverflowError("int too big to convert"), CATEGORY_BUDGET),
    (ValueError("not a symbol"), CATEGORY_SYMBOL),
    (UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte"),
     CATEGORY_SYMBOL),
    (_BoundsAndValue("both"), CATEGORY_BOUNDS),
]


def _guarded_raise(error, offset=None):
    with decode_guard("test.decode", offset=offset):
        raise error


class TestDecodeGuard:
    @pytest.mark.parametrize(
        "error, category", GUARD_CATEGORIES,
        ids=[type(error).__name__ for error, _ in GUARD_CATEGORIES],
    )
    def test_low_level_error_becomes_corrupted_stream(self, error, category):
        with obs_session() as rec:
            with pytest.raises(CorruptedStreamError) as caught:
                _guarded_raise(error, offset=12)
            counters = rec.snapshot()["counters"]
        assert caught.value.category == category
        assert caught.value.offset == 12
        assert caught.value.__cause__ is error
        assert str(caught.value) == (
            f"test.decode: corrupted stream ({type(error).__name__}: "
            f"{error}) [{category} at offset 12]"
        )
        assert counters == {
            "resilience.corruption_detected": 1,
            f"resilience.corruption.{category}": 1,
        }

    def test_corrupted_stream_error_passes_through_counted(self):
        error = CorruptedStreamError("bad crc", offset=3,
                                     category=CATEGORY_CHECKSUM)
        with obs_session() as rec:
            with pytest.raises(CorruptedStreamError) as caught:
                _guarded_raise(error)
            counters = rec.snapshot()["counters"]
        assert caught.value is error
        assert caught.value.__cause__ is None
        assert (caught.value.category, caught.value.offset) == (
            CATEGORY_CHECKSUM, 3)
        assert counters == {
            "resilience.corruption_detected": 1,
            "resilience.corruption.checksum": 1,
        }

    @pytest.mark.parametrize("error", [
        TypeError("unhashable"), ZeroDivisionError(), KeyboardInterrupt(),
        RuntimeError("elsewhere"),
    ], ids=lambda error: type(error).__name__)
    def test_other_exceptions_pass_through_uncounted(self, error):
        with obs_session() as rec:
            with pytest.raises(type(error)) as caught:
                _guarded_raise(error)
            counters = rec.snapshot()["counters"]
        assert caught.value is error
        assert counters == {}

    def test_clean_body_returns_and_counts_nothing(self):
        with obs_session() as rec:
            with decode_guard("test.decode"):
                value = 41 + 1
            counters = rec.snapshot()["counters"]
        assert value == 42 and counters == {}

    def test_telemetry_off_still_converts(self):
        with use_recorder(NullRecorder()):
            with pytest.raises(CorruptedStreamError) as caught:
                _guarded_raise(IndexError("x"))
        assert caught.value.category == CATEGORY_BOUNDS
        assert caught.value.offset is None


class TestFrame:
    def test_roundtrip(self):
        payload = bytes(range(256)) * 3
        framed = wrap_frame(payload)
        assert len(framed) == len(payload) + FRAME_OVERHEAD
        assert is_framed(framed)
        assert unwrap_frame(framed) == payload

    def test_empty_payload_roundtrip(self):
        assert unwrap_frame(wrap_frame(b"")) == b""

    def test_truncated_header(self):
        with pytest.raises(CorruptedStreamError) as info:
            unwrap_frame(b"RF0")
        assert info.value.category == CATEGORY_TRUNCATED

    def test_bad_magic(self):
        framed = bytearray(wrap_frame(b"payload"))
        framed[0] = ord("X")
        with pytest.raises(CorruptedStreamError) as info:
            unwrap_frame(bytes(framed))
        assert info.value.category == CATEGORY_MAGIC
        assert info.value.offset == 0

    def test_bad_version(self):
        framed = bytearray(wrap_frame(b"payload"))
        framed[4] = 99
        with pytest.raises(CorruptedStreamError) as info:
            unwrap_frame(bytes(framed))
        assert info.value.category == CATEGORY_VERSION

    def test_truncated_payload(self):
        framed = wrap_frame(b"payload")
        with pytest.raises(CorruptedStreamError) as info:
            unwrap_frame(framed[:-2])
        assert info.value.category == CATEGORY_TRUNCATED

    def test_trailing_bytes(self):
        with pytest.raises(CorruptedStreamError) as info:
            unwrap_frame(wrap_frame(b"payload") + b"\x00")
        assert info.value.category == CATEGORY_STRUCTURE

    def test_payload_corruption_fails_checksum(self):
        framed = bytearray(wrap_frame(b"payload bytes here"))
        framed[-1] ^= 0x01
        with pytest.raises(CorruptedStreamError) as info:
            unwrap_frame(bytes(framed))
        assert info.value.category == CATEGORY_CHECKSUM

    def test_corrupted_length_field_fails_closed(self):
        # A larger declared length reads as truncation; a smaller one
        # reads as trailing bytes.  Either way: detected, not mis-sliced.
        framed = bytearray(wrap_frame(b"x" * 300))
        framed[9] ^= 0xFF  # low byte of the u32 length
        with pytest.raises(CorruptedStreamError):
            unwrap_frame(bytes(framed))


class TestFramedSerialization:
    def test_framed_archive_roundtrip(self, mips_program):
        image = SamcCodec.for_mips().compress(mips_program)
        raw = serialize_image(image, framed=False)
        framed = serialize_image(image, framed=True)
        assert framed != raw
        assert is_framed(framed)
        assert len(framed) == len(raw) + FRAME_OVERHEAD
        # deserialize_image auto-detects the container.
        assert samc_decompress(deserialize_image(framed)) == mips_program
        assert samc_decompress(deserialize_image(raw)) == mips_program

    def test_env_switch(self, mips_program, monkeypatch):
        image = ByteHuffmanCodec().compress(mips_program)
        monkeypatch.delenv("REPRO_FRAMED", raising=False)
        assert not framing_enabled()
        raw = serialize_image(image)
        monkeypatch.setenv("REPRO_FRAMED", "1")
        assert framing_enabled()
        framed = serialize_image(image)
        assert is_framed(framed) and not is_framed(raw)
        assert unwrap_frame(framed) == raw

    def test_framed_archive_corruption_detected(self, mips_program):
        image = ByteHuffmanCodec().compress(mips_program)
        framed = bytearray(serialize_image(image, framed=True))
        framed[len(framed) // 2] ^= 0x10
        with pytest.raises(CorruptedStreamError):
            deserialize_image(bytes(framed))


class TestInjectors:
    def test_flip_bit_changes_exactly_one_bit(self):
        data = bytes(64)
        out = flip_bit(data, 13)
        assert out != data
        diff = int.from_bytes(data, "big") ^ int.from_bytes(out, "big")
        assert bin(diff).count("1") == 1
        assert flip_bit(out, 13) == data  # involution

    def test_truncate_strictly_shorter(self):
        assert truncate(b"abcdef", 2) == b"ab"
        with pytest.raises(ValueError):
            truncate(b"abc", 3)

    def test_splice_preserves_length(self):
        out = splice_bytes(b"aaaaaa", 2, b"XY")
        assert out == b"aaXYaa"
        assert len(out) == 6

    def test_duplicate_span_grows(self):
        assert duplicate_span(b"abcd", 1, 2) == b"abcbcd"

    def test_sample_fault_never_identity_and_deterministic(self):
        data = bytes(range(48))
        a = [sample_fault(random.Random(11), data) for _ in range(20)]
        b = [sample_fault(random.Random(11), data) for _ in range(20)]
        assert a == b  # same seed, same faults
        for description, corrupted in a:
            assert corrupted != data, description
            assert any(description.startswith(k) for k in FAULT_KINDS)

    def test_corrupt_lat_entry_detected_by_validate(self):
        lat = build_lat([10, 12, 8, 11])
        lat.validate()
        bad = corrupt_lat_entry(lat, 1, delta=1 << 20)
        with pytest.raises(CorruptedStreamError) as info:
            bad.validate()
        assert info.value.category in (CATEGORY_BOUNDS, CATEGORY_STRUCTURE)


class TestLatHardening:
    def test_block_offset_out_of_range(self):
        lat = build_lat([10, 12, 8])
        with pytest.raises(CorruptedStreamError) as info:
            lat.block_offset(17)
        assert info.value.category == CATEGORY_BOUNDS

    def test_negative_index_rejected(self):
        lat = build_lat([10, 12, 8])
        with pytest.raises(CorruptedStreamError):
            lat.block_offset(-1)


class TestSerializerHardening:
    """Forged length/count fields must fail fast, not allocate or loop."""

    def _mutate(self, data: bytes, offset: int, value: int) -> bytes:
        out = bytearray(data)
        out[offset] = value
        return bytes(out)

    def test_empty_input(self):
        with pytest.raises(CorruptedStreamError):
            deserialize_image(b"")

    def test_bad_archive_magic(self, mips_program):
        data = serialize_image(
            ByteHuffmanCodec().compress(mips_program), framed=False
        )
        with pytest.raises(CorruptedStreamError) as info:
            deserialize_image(b"XXXX" + data[4:])
        assert info.value.category == CATEGORY_STRUCTURE

    def test_truncations_always_structured(self, mips_program):
        # Every prefix of a valid archive must raise, never hang or leak
        # a low-level exception.
        data = serialize_image(
            SamcCodec.for_mips().compress(mips_program), framed=False
        )
        for cut in range(0, min(len(data), 600), 17):
            with pytest.raises(CorruptedStreamError):
                deserialize_image(data[:cut])

    def test_huge_declared_counts_bounded(self, mips_program):
        # Forge 0xFF into many single-byte positions; the reader's
        # allocation budget must reject counts the remaining bytes
        # cannot back, without materialising them.
        data = serialize_image(
            SamcCodec.for_mips().compress(mips_program), framed=False
        )
        for offset in range(4, min(len(data), 96)):
            forged = self._mutate(data, offset, 0xFF)
            try:
                image = deserialize_image(forged)
            except CorruptedStreamError:
                continue
            # Rare: the mutation still parses — decode must then either
            # work or raise the structured error.
            try:
                samc_decompress(image)
            except CorruptedStreamError:
                pass

    def test_zero_probability_table_rejected(self, mips_program):
        # Zero the archive's first stored probability: the read rejects
        # the table at the untrusted boundary, before any model exists.
        image = SamcCodec.for_mips().compress(mips_program)
        data = serialize_image(image, framed=False)
        header = 19 + 2 * image.block_count()
        layout = 4 + sum(1 + spec.k for spec in image.metadata["streams"])
        with pytest.raises(SerializationError) as info:
            deserialize_image(self._mutate(data, header + layout, 0))
        assert "outside [1, 65535]" in str(info.value)

    def test_serialization_error_is_corrupted_stream_error(self):
        assert issubclass(SerializationError, CorruptedStreamError)


class TestDecoderHardening:
    def test_lzw_invalid_code(self):
        with pytest.raises(CorruptedStreamError):
            lzw_decompress(b"\xff\xff\xff\xff\xff\xff\xff\xff")

    def test_lzw_roundtrip_still_exact(self):
        data = b"the quick brown fox " * 40
        assert lzw_decompress(lzw_compress(data)) == data

    def test_byte_huffman_corrupt_block(self, mips_program):
        codec = ByteHuffmanCodec()
        image = codec.compress(mips_program)
        image.blocks[0] = b"\xff" * len(image.blocks[0])
        try:
            out = codec.decompress(image)
            assert isinstance(out, bytes)
        except CorruptedStreamError:
            pass

    def test_positional_huffman_truncated_block(self, mips_program):
        # A truncated payload exhausts the BitReader mid-symbol; that
        # must surface as CorruptedStreamError, never a raw EOFError.
        codec = PositionalHuffmanCodec()
        image = codec.compress(mips_program)
        image.blocks[0] = image.blocks[0][:1]
        with pytest.raises(CorruptedStreamError):
            codec.decompress(image)

    def test_positional_huffman_missing_tables_metadata(self, mips_program):
        # Forged metadata (missing table key) must not leak a KeyError.
        codec = PositionalHuffmanCodec()
        image = codec.compress(mips_program)
        del image.metadata["positional_tables"]
        with pytest.raises(CorruptedStreamError):
            codec.decompress(image)


class TestFuzzDriver:
    def test_smoke_run_passes(self):
        report = run_fuzz(seed=5, iters=24)
        assert report.ok, "\n".join(report.format_lines())
        assert report.iterations == 24
        assert report.timeouts == 0
        assert sum(report.detected.values()) > 0

    def test_deterministic_across_runs(self):
        a = run_fuzz(seed=9, iters=12)
        b = run_fuzz(seed=9, iters=12)
        assert a.detected == b.detected
        assert a.roundtrips == b.roundtrips
        assert a.survived == b.survived

    def test_targets_cover_every_codec_family(self):
        names = {t.name for t in build_targets()}
        assert any("samc" in n for n in names)
        assert any("sadc" in n for n in names)
        assert any("huffman" in n for n in names)
        assert any("lzw" in n for n in names)
        assert any("gzip" in n for n in names)

    def test_failure_reported_not_raised(self):
        # A target whose decoder leaks a raw exception must be reported
        # as a failure, not crash the driver.
        from repro.resilience.fuzz import FuzzTarget, _timed, FuzzReport

        def bad_decode(data):
            raise KeyError("leaked")

        report = FuzzReport(seed=0)
        outcome, _ = _timed(report, "bad", 5.0, lambda: bad_decode(b"x"))
        assert outcome == "failure"
        assert report.failures
        assert not report.ok
