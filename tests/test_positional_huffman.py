"""Tests for the positional byte-Huffman codec (the paper's fix to
Kozuch & Wolfe's single-table scheme)."""

import pytest

from repro.baselines.byte_huffman import ByteHuffmanCodec
from repro.baselines.positional_huffman import (
    PositionalHuffmanCodec,
    positional_huffman_ratio,
)
from repro.core import decompress_image
from repro.core.samc import SamcCodec
from repro.core.serialize import SerializationError, serialize_image
from repro.memory.fetchsim import CompressedFetchPort


class TestRoundtrip:
    def test_program(self, mips_program):
        codec = PositionalHuffmanCodec()
        image = codec.compress(mips_program)
        assert codec.decompress(image) == mips_program

    def test_decompress_image(self, mips_program):
        # A positional image names its own algorithm, so the generic
        # entry picks this codec, not byte-Huffman's.
        image = PositionalHuffmanCodec().compress(mips_program)
        assert image.algorithm == "positional-huffman"
        assert decompress_image(image) == mips_program

    def test_fetch_port(self, mips_program):
        image = PositionalHuffmanCodec().compress(mips_program)
        port = CompressedFetchPort(image)
        words = [
            port.fetch(address) for address in range(0, len(mips_program), 4)
        ]
        assert b"".join(w.to_bytes(4, "big") for w in words) == mips_program
        # Refills are timed as byte-Huffman's, one byte per cycle.
        assert port.engine.decompression_cycles(32) == 32

    def test_batch_is_the_block_loop(self, mips_program):
        codec = PositionalHuffmanCodec()
        image = codec.compress(mips_program)
        indices = [3, 0, 3]
        assert codec.decompress_blocks(image, indices) == [
            codec.decompress_block(image, i) for i in indices
        ]

    def test_serialise_refuses_the_algorithm(self, mips_program):
        image = PositionalHuffmanCodec().compress(mips_program)
        with pytest.raises(
            SerializationError, match="cannot serialise algorithm"
        ):
            serialize_image(image)

    def test_random_access(self, mips_program):
        codec = PositionalHuffmanCodec()
        image = codec.compress(mips_program)
        index = image.block_count() // 2
        want = mips_program[index * 32 : (index + 1) * 32]
        assert codec.decompress_block(image, index) == want

    def test_partial_final_block(self):
        codec = PositionalHuffmanCodec(block_size=32)
        data = bytes(range(40))  # 10 words, not a whole block
        image = codec.compress(data)
        assert codec.decompress(image) == data

    def test_misaligned_rejected(self):
        with pytest.raises(ValueError):
            PositionalHuffmanCodec().compress(b"\x00" * 5)

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            PositionalHuffmanCodec(block_size=30)
        with pytest.raises(ValueError):
            PositionalHuffmanCodec(word_bytes=0)


class TestPaperClaim:
    """'8-bit symbols … encoded using the same table … increases the
    entropy of the source significantly' — per-position tables must
    recover part of that loss; SAMC (adds intra-field memory) more."""

    def test_positional_beats_plain_huffman(self, mips_program_large):
        plain = ByteHuffmanCodec().compress(mips_program_large)
        positional = PositionalHuffmanCodec().compress(mips_program_large)
        assert positional.payload_ratio < plain.payload_ratio - 0.02

    def test_samc_beats_positional(self, mips_program_large):
        positional = PositionalHuffmanCodec().compress(mips_program_large)
        samc = SamcCodec.for_mips().compress(mips_program_large)
        assert samc.payload_ratio < positional.payload_ratio

    def test_four_tables_cost_more_model(self, mips_program_large):
        plain = ByteHuffmanCodec().compress(mips_program_large)
        positional = PositionalHuffmanCodec().compress(mips_program_large)
        assert positional.model_bytes > plain.model_bytes

    def test_ratio_helper(self, mips_program_large):
        assert 0.0 < positional_huffman_ratio(mips_program_large) < 1.0
        assert positional_huffman_ratio(b"") == 1.0
