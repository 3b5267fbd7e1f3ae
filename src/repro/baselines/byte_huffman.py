"""Byte-based Huffman coding — the Kozuch & Wolfe baseline of Figure 9.

One semiadaptive Huffman table over the program's byte distribution;
every cache block encodes independently (Huffman is stateless, so block
random access is free — the property that made this the prior state of
the art for compressed-code memories).  Its weakness, which the paper
calls out, is treating all four bytes of a 32-bit instruction as draws
from a single distribution, ignoring per-field statistics — exactly what
SAMC's stream subdivision fixes.
"""

from __future__ import annotations

from collections import Counter
from typing import List, Sequence

from repro.bitstream.io import BitReader, BitWriter
from repro.core.lat import CompressedImage, split_blocks
from repro.entropy.huffman import (
    HuffmanDecoder,
    HuffmanEncoder,
    build_code,
)
from repro.fastpath.huffman_kernel import decode_blocks_fast
from repro.obs import get_recorder
from repro.resilience.errors import decode_guard

DEFAULT_BLOCK_SIZE = 32


class ByteHuffmanCodec:
    """Block-oriented byte Huffman compressor (Kozuch & Wolfe)."""

    def __init__(self, block_size: int = DEFAULT_BLOCK_SIZE) -> None:
        if block_size <= 0:
            raise ValueError("block size must be positive")
        self.block_size = block_size

    def compress(self, code: bytes) -> CompressedImage:
        """Compress a code image block by block under one shared table."""
        rec = get_recorder()
        table = build_code(Counter(code))
        encoder = HuffmanEncoder(table)
        blocks = []
        with rec.span("byte_huffman.encode"):
            for block in split_blocks(code, self.block_size):
                writer = BitWriter()
                encoder.encode_to(writer, list(block))
                blocks.append(writer.getvalue())
        image = CompressedImage(
            algorithm="byte-huffman",
            original_size=len(code),
            block_size=self.block_size,
            blocks=blocks,
            model_bytes=(table.table_bits(8) + 7) // 8,
            metadata={"code": table},
        )
        if rec.enabled:
            # Σ count × code length is the coded size of a Huffman stream.
            symbol_bits = encoder.encoded_bits(code)
            rec.add_bits("symbols", symbol_bits)
            pad = image.payload_bytes * 8 - symbol_bits
            if pad:
                rec.add_bits("padding", pad)
            rec.add_bits("model", image.model_bytes * 8)
            rec.add_bits("lat", image.compact_lat.storage_bytes * 8)
            rec.count("byte_huffman.blocks_encoded", len(blocks))
        return image

    # repro: contract decode-entry
    def decompress(self, image: CompressedImage) -> bytes:
        return b"".join(
            self.decompress_blocks(image, range(image.block_count()))
        )

    # repro: contract decode-entry
    def decompress_blocks(
        self, image: CompressedImage, indices: Sequence[int]
    ) -> List[bytes]:
        """Random-access decode of a batch of cache blocks.

        The semantics are the per-block loop over
        :meth:`decompress_block`.  The batch decodes in lockstep on the
        code's decode table
        (:func:`repro.fastpath.huffman_kernel.decode_blocks_fast`).
        Codes the kernel does not take, and any batch with a corrupted
        stream, run that per-block loop instead, so the error behaviour
        — which block raises, and what — is exactly the loop's.  Output
        is byte-identical either way.
        """
        indices = list(indices)
        if not indices:
            return []
        counts = [image.original_block_size(i) for i in indices]
        with decode_guard("byte_huffman.decompress_blocks"):
            code = image.metadata["code"]
            payloads = [image.blocks[index] for index in indices]
            decoded = decode_blocks_fast(code, payloads, counts)
        if decoded is not None:
            return decoded
        return [self.decompress_block(image, index) for index in indices]

    def decompress_block(self, image: CompressedImage, block_index: int) -> bytes:
        """Random-access decode of one cache block."""
        count = image.original_block_size(block_index)
        with decode_guard("byte_huffman.decompress_block"):
            decoder = HuffmanDecoder(image.metadata["code"])
            symbols = decoder.decode(image.blocks[block_index], count)
            # bytes() rejects symbols outside [0, 255] — a corrupted table
            # can decode such a symbol, so keep the conversion guarded.
            return bytes(symbols)


def byte_huffman_ratio(code: bytes, block_size: int = DEFAULT_BLOCK_SIZE) -> float:
    """Compressed/original ratio including table and LAT overhead."""
    if not code:
        return 1.0
    return ByteHuffmanCodec(block_size).compress(code).compression_ratio
