"""Tests for the Kozuch & Wolfe byte-Huffman baseline."""

import random

import pytest

from repro.baselines.byte_huffman import ByteHuffmanCodec, byte_huffman_ratio
from repro.baselines.positional_huffman import PositionalHuffmanCodec
from repro.core.sadc.mips import MipsSadcCodec
from repro.entropy.stats import entropy_bits, frequencies
from repro.resilience.errors import CATEGORY_BOUNDS, CorruptedStreamError


class TestRoundtrip:
    def test_program(self, mips_program):
        codec = ByteHuffmanCodec()
        image = codec.compress(mips_program)
        assert codec.decompress(image) == mips_program

    def test_partial_final_block(self):
        codec = ByteHuffmanCodec(block_size=32)
        data = b"hello world, this is forty-one bytes now"  # not /32
        assert len(data) % 32 != 0
        image = codec.compress(data)
        assert codec.decompress(image) == data

    def test_random_access_block(self, mips_program):
        codec = ByteHuffmanCodec()
        image = codec.compress(mips_program)
        index = image.block_count() // 2
        want = mips_program[index * 32 : (index + 1) * 32]
        assert codec.decompress_block(image, index) == want

    def test_image_without_a_code_is_corrupted(self, mips_program):
        # Each decode entry reads the image's table inside its guard.
        codec = ByteHuffmanCodec()
        image = codec.compress(mips_program)
        del image.metadata["code"]
        for decode in (
            lambda: codec.decompress(image),
            lambda: codec.decompress_block(image, 0),
            lambda: codec.decompress_blocks(image, [0, 1]),
        ):
            with pytest.raises(CorruptedStreamError) as info:
                decode()
            assert info.value.category == CATEGORY_BOUNDS

    def test_block_out_of_range(self, mips_program):
        # These codecs size their blocks through the image, so each
        # rejects an index past the program with the same typed error.
        for codec in (
            ByteHuffmanCodec(), PositionalHuffmanCodec(), MipsSadcCodec()
        ):
            image = codec.compress(mips_program)
            with pytest.raises(CorruptedStreamError) as raised:
                codec.decompress_block(image, image.block_count())
            assert raised.value.category == CATEGORY_BOUNDS


class TestRatios:
    def test_payload_tracks_byte_entropy(self, mips_program_large):
        codec = ByteHuffmanCodec()
        image = codec.compress(mips_program_large)
        h = entropy_bits(frequencies(mips_program_large))
        ideal = h / 8
        assert ideal <= image.payload_ratio <= ideal + 0.05

    def test_ratio_below_one_on_code(self, mips_program_large):
        assert byte_huffman_ratio(mips_program_large) < 0.95

    def test_random_data_near_one(self):
        rng = random.Random(2)
        data = bytes(rng.randrange(256) for _ in range(40000))
        assert byte_huffman_ratio(data) >= 0.98

    def test_empty(self):
        assert byte_huffman_ratio(b"") == 1.0

    def test_bad_block_size(self):
        with pytest.raises(ValueError):
            ByteHuffmanCodec(block_size=0)

    def test_block_size_tradeoff(self, mips_program_large):
        # Smaller blocks pay more per-block padding: ratio should not
        # improve when blocks shrink.
        small = ByteHuffmanCodec(16).compress(mips_program_large)
        large = ByteHuffmanCodec(64).compress(mips_program_large)
        assert small.payload_ratio >= large.payload_ratio - 1e-9
