"""The paper's core contribution: SAMC and SADC block compressors."""

from repro.core.lat import (
    CompactLAT,
    CompressedImage,
    LineAddressTable,
    build_lat,
    original_block_count,
    split_blocks,
)
from repro.core.sadc import (
    MipsSadcCodec,
    X86SadcCodec,
    sadc_compress,
    sadc_decompress,
)
from repro.core.samc import SamcCodec, samc_compress, samc_decompress
from repro.core.serialize import (
    SerializationError,
    deserialize_image,
    load_image,
    save_image,
    serialize_image,
)
from repro.resilience.errors import decode_guard


def block_codec(image: CompressedImage):
    """The block codec that decodes ``image``, configured from its metadata.

    Every codec it returns serves ``decompress``, ``decompress_block``
    and ``decompress_blocks``.  Build it once per image and reuse it:
    the refill engine's fetch port decodes every miss through one.
    Raises :class:`ValueError` for an algorithm or SADC ISA this package
    does not produce, and :class:`CorruptedStreamError` for metadata
    the codec needs but the image lacks, or holds a value the codec
    rejects.
    """
    with decode_guard("core.block_codec"):
        if image.algorithm == "SAMC":
            return SamcCodec(
                word_bits=image.metadata["word_bits"],
                streams=[spec.positions for spec in image.metadata["streams"]],
                connect_bits=image.metadata["connect_bits"],
                block_size=image.block_size,
                probability_mode=image.metadata["probability_mode"],
            )
        if image.algorithm == "positional-huffman":
            from repro.baselines.positional_huffman import PositionalHuffmanCodec

            return PositionalHuffmanCodec(
                image.block_size, image.metadata["word_bytes"]
            )
    if image.algorithm == "SADC":
        isa = image.metadata.get("isa")
        if isa == "mips":
            return MipsSadcCodec(block_size=image.block_size)
        if isa == "x86":
            return X86SadcCodec(block_size=image.block_size)
        raise ValueError(f"image has unknown ISA {isa!r}")
    if image.algorithm == "byte-huffman":
        from repro.baselines.byte_huffman import ByteHuffmanCodec

        return ByteHuffmanCodec(image.block_size)
    raise ValueError(f"unknown algorithm {image.algorithm!r}")


# repro: contract decode-entry
def decompress_image(image: CompressedImage) -> bytes:
    """Decompress any image this package produced, by algorithm."""
    return block_codec(image).decompress(image)


__all__ = [
    "CompactLAT",
    "CompressedImage",
    "LineAddressTable",
    "MipsSadcCodec",
    "SamcCodec",
    "SerializationError",
    "X86SadcCodec",
    "block_codec",
    "build_lat",
    "decompress_image",
    "deserialize_image",
    "load_image",
    "original_block_count",
    "sadc_compress",
    "sadc_decompress",
    "samc_compress",
    "samc_decompress",
    "save_image",
    "serialize_image",
    "split_blocks",
]
