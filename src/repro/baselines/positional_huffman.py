"""Positional byte-Huffman: one table per byte position in the word.

The paper's critique of Kozuch & Wolfe's byte-Huffman is precise: "all 4
bytes within the same 32-bit word are encoded using the same table.
Since instructions have different fields which have different
statistical characteristics such a choice increases the entropy of the
source significantly."  This codec is the natural fix — a separate
Huffman table for each byte position within the instruction word — and
sits strictly between plain byte-Huffman and SAMC: per-field statistics,
but no intra- or inter-field memory.  The ``tab-positional`` benchmark
uses it to quantify the paper's argument.
"""

from __future__ import annotations

from collections import Counter
from typing import List, Sequence

from repro.bitstream.io import BitReader, BitWriter
from repro.core.lat import CompressedImage, split_blocks
from repro.entropy.huffman import (
    HuffmanCode,
    HuffmanDecoder,
    HuffmanEncoder,
    build_code,
)
from repro.resilience.errors import decode_guard, require_type

DEFAULT_BLOCK_SIZE = 32


class PositionalHuffmanCodec:
    """Byte-Huffman with per-byte-position tables (word-aligned code)."""

    def __init__(
        self, block_size: int = DEFAULT_BLOCK_SIZE, word_bytes: int = 4
    ) -> None:
        if word_bytes < 1:
            raise ValueError("word_bytes must be positive")
        if block_size % word_bytes != 0:
            raise ValueError("block_size must hold whole words")
        self.block_size = block_size
        self.word_bytes = word_bytes

    def compress(self, code: bytes) -> CompressedImage:
        """Compress block by block under one table per byte position."""
        if len(code) % self.word_bytes != 0:
            raise ValueError(
                f"code length {len(code)} is not a multiple of "
                f"{self.word_bytes}"
            )
        counters = [Counter() for _ in range(self.word_bytes)]
        for index, byte in enumerate(code):
            counters[index % self.word_bytes][byte] += 1
        tables = [build_code(counter) for counter in counters]
        encoders = [HuffmanEncoder(table) for table in tables]

        blocks = []
        for block in split_blocks(code, self.block_size):
            writer = BitWriter()
            for index, byte in enumerate(block):
                encoders[index % self.word_bytes].encode_to(writer, [byte])
            blocks.append(writer.getvalue())

        model_bits = sum(table.table_bits(8) for table in tables)
        return CompressedImage(
            algorithm="positional-huffman",
            original_size=len(code),
            block_size=self.block_size,
            blocks=blocks,
            model_bytes=(model_bits + 7) // 8,
            metadata={"positional_tables": tables,
                      "word_bytes": self.word_bytes},
        )

    # repro: contract decode-entry
    def decompress(self, image: CompressedImage) -> bytes:
        return b"".join(
            self.decompress_blocks(image, range(image.block_count()))
        )

    # repro: contract decode-entry
    def decompress_blocks(
        self, image: CompressedImage, indices: Sequence[int]
    ) -> List[bytes]:
        """Batch form of :meth:`decompress_block`: the per-block loop."""
        return [self.decompress_block(image, index) for index in indices]

    def decompress_block(self, image: CompressedImage, block_index: int) -> bytes:
        count = image.original_block_size(block_index)
        with decode_guard("positional_huffman.decompress_block"):
            # Everything derived from the image is untrusted: a missing
            # metadata key, a truncated payload (BitReader EOF), or a
            # symbol outside [0, 255] must surface as
            # CorruptedStreamError, never a low-level exception.
            tables = require_type(
                image.metadata["positional_tables"], list, "positional tables"
            )
            decoders = [
                HuffmanDecoder(require_type(table, HuffmanCode, "positional table"))
                for table in tables
            ]
            reader = BitReader(image.blocks[block_index])
            out = bytearray()
            for index in range(count):
                out.append(
                    decoders[index % self.word_bytes].decode_symbol(reader)
                )
            return bytes(out)


def positional_huffman_ratio(
    code: bytes, block_size: int = DEFAULT_BLOCK_SIZE
) -> float:
    """Compressed/original ratio with per-position tables."""
    if not code:
        return 1.0
    return PositionalHuffmanCodec(block_size).compress(code).compression_ratio
