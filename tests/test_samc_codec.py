"""End-to-end tests for the SAMC codec."""

import pytest

from repro.core.samc.codec import SamcCodec, samc_compress, samc_decompress
from repro.resilience.errors import CATEGORY_BOUNDS, CorruptedStreamError


class TestConfiguration:
    def test_bad_word_bits(self):
        with pytest.raises(ValueError):
            SamcCodec(word_bits=12)

    def test_words_wider_than_64_bits_rejected(self):
        # The kernels hold a word in an int64, so a 72-bit codec could
        # construct but never compress.
        with pytest.raises(ValueError, match="64-bit word limit"):
            SamcCodec(
                word_bits=72,
                block_size=36,
                streams=[range(i, i + 8) for i in range(0, 72, 8)],
            )

    def test_layout_too_wide_to_count_rejected(self):
        # One 32-bit stream in two contexts has 2 * (2**32 - 1) cells;
        # training would ask for 128 GiB of counts.
        codec = SamcCodec(streams=[range(32)])
        with pytest.raises(ValueError, match="8589934590 table cells"):
            codec.compress(bytes(64))

    def test_block_must_hold_whole_words(self):
        with pytest.raises(ValueError):
            SamcCodec(word_bits=32, block_size=30)

    def test_bad_probability_mode(self):
        with pytest.raises(ValueError):
            SamcCodec(probability_mode="approximate")

    def test_default_streams_mips(self):
        codec = SamcCodec.for_mips()
        assert len(codec.streams) == 4
        assert all(len(s) == 8 for s in codec.streams)

    def test_default_streams_bytes(self):
        codec = SamcCodec.for_bytes()
        assert codec.word_bits == 8
        assert len(codec.streams) == 1


class TestRoundtrip:
    def test_mips(self, mips_program):
        codec = SamcCodec.for_mips()
        image = codec.compress(mips_program)
        assert codec.decompress(image) == mips_program

    def test_byte_mode_on_x86(self, x86_program):
        codec = SamcCodec.for_bytes()
        # Byte mode accepts any length; pad to blocks not required.
        image = codec.compress(x86_program)
        assert codec.decompress(image) == x86_program

    def test_pow2_mode(self, mips_program):
        codec = SamcCodec.for_mips(probability_mode="pow2")
        image = codec.compress(mips_program)
        assert codec.decompress(image) == mips_program

    def test_full16_mode(self, mips_program):
        codec = SamcCodec.for_mips(probability_mode="full16")
        image = codec.compress(mips_program)
        assert codec.decompress(image) == mips_program

    def test_unconnected_trees(self, mips_program):
        codec = SamcCodec.for_mips(connect_bits=0)
        image = codec.compress(mips_program)
        assert codec.decompress(image) == mips_program

    def test_optimized_streams(self, mips_program):
        codec = SamcCodec.for_mips(optimize=True, optimize_iterations=20)
        image = codec.compress(mips_program)
        assert codec.decompress(image) == mips_program

    def test_module_level_helpers(self, mips_program):
        image = samc_compress(mips_program)
        assert samc_decompress(image) == mips_program

    def test_misaligned_input_rejected(self):
        codec = SamcCodec.for_mips()
        with pytest.raises(ValueError):
            codec.compress(b"\x00" * 6)

    @pytest.mark.parametrize("block_size", [16, 32, 64, 128])
    def test_block_sizes(self, mips_program, block_size):
        codec = SamcCodec.for_mips(block_size=block_size)
        image = codec.compress(mips_program)
        assert codec.decompress(image) == mips_program


class TestRandomAccess:
    def test_every_block_independently(self, mips_program):
        codec = SamcCodec.for_mips()
        image = codec.compress(mips_program)
        for index in range(image.block_count()):
            want = mips_program[index * 32 : (index + 1) * 32]
            assert codec.decompress_block(image, index) == want

    def test_out_of_order_access(self, mips_program):
        codec = SamcCodec.for_mips()
        image = codec.compress(mips_program)
        last = image.block_count() - 1
        # Access in reverse: state from one block must not leak into another.
        assert codec.decompress_block(image, last) == \
            mips_program[last * 32 : (last + 1) * 32]
        assert codec.decompress_block(image, 0) == mips_program[:32]

    def test_block_index_out_of_range(self, mips_program):
        codec = SamcCodec.for_mips()
        image = codec.compress(mips_program)
        with pytest.raises(CorruptedStreamError) as raised:
            codec.decompress_block(image, image.block_count())
        assert raised.value.category == CATEGORY_BOUNDS


class TestCompressionQuality:
    def test_compresses_real_code(self, mips_program_large):
        image = SamcCodec.for_mips().compress(mips_program_large)
        assert image.payload_ratio < 0.75

    def test_connected_trees_improve_payload(self, mips_program_large):
        flat = SamcCodec.for_mips(connect_bits=0).compress(mips_program_large)
        conn = SamcCodec.for_mips(connect_bits=1).compress(mips_program_large)
        assert conn.payload_ratio < flat.payload_ratio

    def test_pow2_costs_bounded(self, mips_program_large):
        # Witten et al.: worst-case efficiency ~95% under the power-of-two
        # constraint; allow a 12% band for model/quantisation interplay.
        full = SamcCodec.for_mips().compress(mips_program_large)
        pow2 = SamcCodec.for_mips(probability_mode="pow2").compress(
            mips_program_large
        )
        assert pow2.payload_ratio <= full.payload_ratio * 1.12

    def test_image_metadata_complete(self, mips_program):
        image = SamcCodec.for_mips().compress(mips_program)
        assert image.algorithm == "SAMC"
        assert image.metadata["word_bits"] == 32
        assert image.block_count() == (len(mips_program) + 31) // 32

    def test_model_bytes_positive(self, mips_program):
        image = SamcCodec.for_mips().compress(mips_program)
        assert image.model_bytes > 0
        # 4 streams x 2 contexts x 255 nodes x 1 byte, plus position map.
        assert image.model_bytes == pytest.approx(2040, abs=32)
