"""Tests for the standalone on-ROM image format."""

import hashlib

import numpy as np
import pytest

from repro.baselines.byte_huffman import ByteHuffmanCodec
from repro.core.sadc import MipsSadcCodec, X86SadcCodec, sadc_decompress
from repro.core.samc import SamcCodec, samc_decompress
from repro.core.serialize import (
    SerializationError,
    _decode_table,
    _encode_table,
    _Reader,
    deserialize_image,
    load_image,
    save_image,
    serialize_image,
)
from tests.oracles import decode_probability, encode_probability


class TestSamcRoundtrip:
    @pytest.mark.parametrize("mode", ["full", "full16", "pow2"])
    def test_all_probability_modes(self, mips_program, mode):
        codec = SamcCodec.for_mips(probability_mode=mode)
        image = codec.compress(mips_program)
        restored = deserialize_image(serialize_image(image))
        assert samc_decompress(restored) == mips_program

    def test_probability_tables_bit_exact(self, mips_program):
        codec = SamcCodec.for_mips()
        image = codec.compress(mips_program)
        restored = deserialize_image(serialize_image(image))
        original_model = image.metadata["model"]
        restored_model = restored.metadata["model"]
        for a, b in zip(original_model.tables, restored_model.tables):
            assert (a == b).all()

    def test_byte_mode(self, x86_program):
        codec = SamcCodec.for_bytes()
        image = codec.compress(x86_program)
        restored = deserialize_image(serialize_image(image))
        assert samc_decompress(restored) == x86_program

    def test_header_fields_preserved(self, mips_program):
        image = SamcCodec.for_mips().compress(mips_program)
        restored = deserialize_image(serialize_image(image))
        assert restored.original_size == image.original_size
        assert restored.block_size == image.block_size
        assert restored.model_bytes == image.model_bytes
        assert restored.blocks == image.blocks
        assert restored.compression_ratio == image.compression_ratio


@pytest.mark.parametrize("mode", ["full", "full16", "pow2"])
def test_table_coders_match_the_per_probability_coders(mode):
    """Every valid probability is stored as the reference stores it, and
    every stored pattern reads back as the reference reads it (the read
    check then rejects the 0 and ``PROB_ONE`` that some patterns give)."""
    valid = np.arange(1, 1 << 16, dtype=np.int64)
    assert _encode_table(valid, mode) == b"".join(
        encode_probability(q, mode) for q in valid.tolist()
    )
    width = 2 if mode == "full16" else 1
    stored = np.arange(1 << 8 * width, dtype=">u2" if width == 2 else "u1")
    data = stored.tobytes()
    assert _decode_table(_Reader(data), stored.size, mode).tolist() == [
        decode_probability(data[i : i + width], mode)
        for i in range(0, len(data), width)
    ]


class TestSadcRoundtrip:
    def test_mips(self, mips_program):
        image = MipsSadcCodec().compress(mips_program)
        restored = deserialize_image(serialize_image(image))
        assert sadc_decompress(restored) == mips_program

    def test_mips_with_bindings(self, mips_program_large):
        image = MipsSadcCodec().compress(mips_program_large)
        has_bindings = any(
            e.bound_regs or e.bound_imm16 or e.bound_imm26
            for e in image.metadata["dictionary"].entries
        )
        assert has_bindings  # the serialiser must carry bindings
        restored = deserialize_image(serialize_image(image))
        assert sadc_decompress(restored) == mips_program_large

    def test_x86(self, x86_program):
        image = X86SadcCodec().compress(x86_program)
        restored = deserialize_image(serialize_image(image))
        assert sadc_decompress(restored) == x86_program


class TestByteHuffmanRoundtrip:
    def test_roundtrip(self, mips_program):
        codec = ByteHuffmanCodec()
        image = codec.compress(mips_program)
        restored = deserialize_image(serialize_image(image))
        assert codec.decompress(restored) == mips_program


class TestFileIO:
    def test_save_and_load(self, mips_program, tmp_path):
        image = SamcCodec.for_mips().compress(mips_program)
        path = str(tmp_path / "program.rcc")
        written = save_image(image, path)
        assert written > 0
        restored = load_image(path)
        assert samc_decompress(restored) == mips_program

    def test_serialized_size_comparable_to_accounting(self, mips_program_large):
        # The real byte format should land near the idealised accounting
        # (payload + model + LAT) — within ~30%.
        image = SamcCodec.for_mips().compress(mips_program_large)
        data = serialize_image(image)
        assert len(data) < image.total_bytes * 1.3


class TestErrors:
    def test_bad_magic(self):
        with pytest.raises(SerializationError):
            deserialize_image(b"XXXX" + b"\x00" * 32)

    def test_truncated(self, mips_program):
        data = serialize_image(SamcCodec.for_mips().compress(mips_program))
        with pytest.raises(SerializationError):
            deserialize_image(data[: len(data) // 2])

    def test_unknown_algorithm_id(self):
        with pytest.raises(SerializationError):
            deserialize_image(b"RCC1" + b"\x09" + b"\x00" * 14)


# ---------------------------------------------------------------------------
# Pinned archives: the exact bytes of every image codec's archive, and the
# exact error a malformed one raises.

#: Header bytes before the block-size table: magic, algorithm, original
#: size, block size, model bytes, block count.
HEADER_BYTES = 19

#: SHA-256 of ``serialize_image(image, framed=False)`` per archive.
ARCHIVE_DIGESTS = {
    "samc-full": "0261a24cce3c6f16cc29d536275e183e16e908edaf88e89d875139e56b16c117",
    "samc-full16": "e523324399772474bb85d9cd8df34b95c9b1ee81c022c7af8b1606f1cb172249",
    "samc-pow2": "0a4f22f8b91cf7223e90055dccee1c2765475a966c66061bf6808fbcf80ce745",
    "samc-split": "5fbac2d9fecf9ac52bb6de4265e90c58fdbc1cf706ea31d55b2266cce777c371",
    "samc-bytes": "4a17cf62998131dbeb2b09eae93a8e66ff10a80742608c696e039e3849f97c30",
    "sadc-mips": "53f1d172be38c11cc2c2ef58c382889e8494931ece9d209a57c88cf876e1da78",
    "sadc-x86": "107d6a7c43337d22ad8417d36a3e3658e1e491066b9d7b7977b18692b45d1338",
    "byte-huffman": "6fb3379bc4ceef5ba2e337351ecc8bc2ac62ebad79f455b071a7e2af02504ebd",
}


@pytest.fixture(scope="module")
def archives(mips_program, mips_program_large, x86_program):
    """Every pinned archive, by name: SAMC in each probability mode, on
    a non-contiguous partition without connection, and on bytes; SADC
    for both ISAs (MIPS with bound operands); byte-Huffman."""
    interleaved = [tuple(range(start, 32, 4)) for start in range(4)]
    images = {
        "samc-full": SamcCodec.for_mips().compress(mips_program),
        "samc-full16": SamcCodec.for_mips(probability_mode="full16")
        .compress(mips_program),
        "samc-pow2": SamcCodec.for_mips(probability_mode="pow2")
        .compress(mips_program),
        "samc-split": SamcCodec(streams=interleaved, connect_bits=0)
        .compress(mips_program),
        "samc-bytes": SamcCodec.for_bytes().compress(x86_program),
        "sadc-mips": MipsSadcCodec().compress(mips_program_large),
        "sadc-x86": X86SadcCodec().compress(x86_program),
        "byte-huffman": ByteHuffmanCodec().compress(mips_program),
    }
    return {
        name: serialize_image(image, framed=False)
        for name, image in images.items()
    }


@pytest.mark.parametrize("name", sorted(ARCHIVE_DIGESTS))
def test_archive_bytes_pinned(archives, name):
    assert hashlib.sha256(archives[name]).hexdigest() == ARCHIVE_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(ARCHIVE_DIGESTS))
def test_archive_survives_a_read_and_write(archives, name):
    archive = archives[name]
    assert serialize_image(deserialize_image(archive), framed=False) == archive


def test_sadc_mips_archive_carries_bound_operands(archives):
    dictionary = deserialize_image(archives["sadc-mips"]).metadata["dictionary"]
    assert any(
        entry.bound_regs or entry.bound_imm16 or entry.bound_imm26
        for entry in dictionary.entries
    )


def _model_start(archive):
    """Offset of the model section: the header, then one u16 per block."""
    return HEADER_BYTES + 2 * int.from_bytes(archive[15:19], "big")


def _samc_tables(archive):
    """``(start, end)`` of each stream's probability table in a SAMC
    archive, parsed from the stream sizes and connection order."""
    pos = _model_start(archive)
    _width, n_streams, connect_bits, mode = archive[pos : pos + 4]
    pos += 4
    sizes = []
    for _ in range(n_streams):
        sizes.append(archive[pos])
        pos += 1 + archive[pos]
    spans = []
    for k in sizes:
        end = pos + ((1 << k) - 1 << connect_bits) * (2 if mode == 1 else 1)
        spans.append((pos, end))
        pos = end
    return spans


def _read_error(archive):
    """``(message, category, offset)`` of the archive's read error."""
    with pytest.raises(SerializationError) as info:
        deserialize_image(bytes(archive))
    error = info.value
    return error.args[0], error.category, error.offset


def _with(archive, offset, *values):
    """``archive`` with the bytes from ``offset`` replaced by ``values``."""
    changed = bytearray(archive)
    changed[offset : offset + len(values)] = bytes(values)
    return bytes(changed)


TRUNCATED = "truncated image"
OUT_OF_RANGE = "SAMC probability table holds values outside [1, 65535]"


class TestPinnedCuts:
    """An archive cut inside each of its sections."""

    def test_header(self, archives):
        assert _read_error(archives["samc-full"][:10]) == (
            TRUNCATED, "truncated", 9,
        )

    def test_block_size_table(self, archives):
        assert _read_error(archives["samc-full"][: HEADER_BYTES + 3]) == (
            "block size table: 42 declared entries need at least 84 bytes, "
            "only 3 left",
            "budget", 19,
        )

    def test_samc_table(self, archives):
        archive = archives["samc-full"]
        start, end = _samc_tables(archive)[1]
        assert _read_error(archive[: (start + end) // 2]) == (
            "SAMC table: 510 declared entries need at least 510 bytes, "
            "only 255 left",
            "budget", 653,
        )

    def test_huffman_table(self, archives):
        archive = archives["byte-huffman"]
        cut = _model_start(archive) + 2 + 5 * 3 + 2
        assert _read_error(archive[:cut]) == (
            "Huffman table: 134 declared entries need at least 670 bytes, "
            "only 17 left",
            "budget", 105,
        )

    def test_payloads(self, archives):
        assert _read_error(archives["samc-full"][:-1]) == (
            TRUNCATED, "truncated", 2887,
        )


class TestPinnedSamcErrors:
    def test_unknown_probability_mode(self, archives):
        archive = archives["samc-full"]
        mode_at = _model_start(archive) + 3
        assert _read_error(_with(archive, mode_at, 3)) == (
            "unknown probability mode", "structure", mode_at,
        )

    def test_connect_bits_over_the_format_maximum(self, archives):
        archive = archives["samc-full"]
        assert _read_error(_with(archive, _model_start(archive) + 2, 17)) == (
            "connect_bits 17 exceeds the format maximum 16", "structure", None,
        )

    def test_stream_size_zero(self, archives):
        archive = archives["samc-full"]
        size_at = _model_start(archive) + 4
        assert _read_error(_with(archive, size_at, 0)) == (
            "implausible stream size 0 for width 32", "structure", size_at,
        )

    @pytest.mark.parametrize("name, stream, zero, offset", [
        ("samc-full", 0, (0,), 653),
        ("samc-full", 2, (0,), 1673),
        ("samc-full16", 0, (0, 0), 1163),
        ("samc-full16", 2, (0, 0), 3203),
        ("samc-pow2", 0, (0,), 653),
        ("samc-pow2", 2, (0,), 1673),
    ])
    def test_zero_probability(self, archives, name, stream, zero, offset):
        """The first probability of a stream made 0 (``full`` and
        ``full16``) or ``PROB_ONE`` (``pow2``'s exponent 0); the error
        names the end of that stream's table."""
        archive = archives[name]
        start, _ = _samc_tables(archive)[stream]
        assert _read_error(_with(archive, start, *zero)) == (
            OUT_OF_RANGE, "structure", offset,
        )

    def test_pow2_exponent_over_16(self, archives):
        archive = archives["samc-pow2"]
        start, end = _samc_tables(archive)[1]
        assert _read_error(_with(archive, start + 7, 17)) == (
            OUT_OF_RANGE, "structure", end,
        )


class TestPinnedSamcLayout:
    """The SAMC layout fields the reader checks, at and past each bound."""

    @pytest.mark.parametrize("width", [0, 12, 72])
    def test_implausible_width(self, archives, width):
        archive = archives["samc-full"]
        assert _read_error(_with(archive, _model_start(archive), width)) == (
            f"implausible SAMC word width {width}", "structure", None,
        )

    def test_no_streams(self, archives):
        archive = archives["samc-full"]
        assert _read_error(_with(archive, _model_start(archive) + 1, 0)) == (
            "implausible SAMC stream count 0 for width 32", "structure", None,
        )

    def test_connect_bits_at_the_format_maximum(self, archives):
        # 16 passes the connection check; 2**16 tree replicas of an
        # 8-bit stream then fail the table budget.
        archive = archives["samc-full"]
        assert _read_error(_with(archive, _model_start(archive) + 2, 16)) == (
            "SAMC table: 16711680 declared entries need at least 16711680 "
            "bytes, only 2756 left",
            "budget", 143,
        )

    def test_streams_that_do_not_partition_the_word(self, archives):
        archive = archives["samc-full"]
        covered = [1] + list(range(1, 32))
        assert _read_error(_with(archive, _model_start(archive) + 5, 1)) == (
            "inconsistent SAMC model: streams must partition bit positions "
            f"0..31, got {covered}",
            "structure", None,
        )

    def test_widest_word_and_one_bit_streams(self, mips_program, x86_program):
        """64-bit words, and as many streams as a byte has bits, each of
        one bit, read back and decode."""
        programs_and_codecs = [
            (mips_program[: len(mips_program) // 8 * 8], SamcCodec(
                word_bits=64,
                streams=[tuple(range(s, s + 8)) for s in range(0, 64, 8)],
                connect_bits=0,
            )),
            (x86_program, SamcCodec(
                word_bits=8, streams=[(bit,) for bit in range(8)]
            )),
        ]
        for program, codec in programs_and_codecs:
            archive = serialize_image(codec.compress(program), framed=False)
            restored = deserialize_image(archive)
            assert serialize_image(restored, framed=False) == archive
            assert samc_decompress(restored) == program

    def test_extreme_probabilities_are_kept(self, archives):
        """1 and ``PROB_ONE - 1``, the table check's bounds, are valid."""
        archive = archives["samc-full16"]
        (first, _), (second, _) = _samc_tables(archive)[:2]
        changed = _with(_with(archive, first, 0, 1), second, 0xFF, 0xFF)
        tables = deserialize_image(changed).metadata["model"].tables
        assert (tables[0][0, 0], tables[1][0, 0]) == (1, 65535)
        assert serialize_image(deserialize_image(changed), framed=False) == changed


class TestPinnedHuffmanErrors:
    def test_zero_length_codeword(self, archives):
        archive = archives["byte-huffman"]
        third = _model_start(archive) + 2 + 5 * 2
        assert _read_error(_with(archive, third + 4, 0)) == (
            "Huffman symbol 2 declares a zero-length codeword",
            "structure", third + 4,
        )

    def test_first_of_two_zero_length_codewords_is_named(self, archives):
        archive = archives["byte-huffman"]
        third = _model_start(archive) + 2 + 5 * 2
        fifth = third + 5 * 2
        changed = _with(_with(archive, fifth + 4, 0), third + 4, 0)
        assert _read_error(changed) == (
            "Huffman symbol 2 declares a zero-length codeword",
            "structure", third + 4,
        )

    def test_non_byte_symbol(self, archives):
        archive = archives["byte-huffman"]
        first = _model_start(archive) + 2
        assert _read_error(_with(archive, first, 0, 0, 1, 0)) == (
            "byte-Huffman table holds non-byte symbol 256", "structure", 775,
        )
