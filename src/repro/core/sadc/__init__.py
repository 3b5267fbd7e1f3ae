"""SADC — Semiadaptive Dictionary Compression (ISA-dependent, Section 4)."""

from repro.core.lat import CompressedImage
from repro.core.sadc.entry import DictEntry, Dictionary
from repro.core.sadc.mips import InstrRec, MipsSadcCodec
from repro.core.sadc.x86 import X86Dictionary, X86SadcCodec


def sadc_compress(code: bytes, isa: str = "mips", **kwargs) -> CompressedImage:
    """One-call SADC compression for a MIPS or x86 code image."""
    if isa == "mips":
        return MipsSadcCodec(**kwargs).compress(code)
    if isa == "x86":
        return X86SadcCodec(**kwargs).compress(code)
    raise ValueError(f"unknown ISA {isa!r} (expected 'mips' or 'x86')")


def sadc_decompress(image: CompressedImage) -> bytes:
    """Decompress an image produced by :func:`sadc_compress`."""
    from repro.core import block_codec

    return block_codec(image).decompress(image)


__all__ = [
    "DictEntry",
    "Dictionary",
    "InstrRec",
    "MipsSadcCodec",
    "X86Dictionary",
    "X86SadcCodec",
    "sadc_compress",
    "sadc_decompress",
]
