"""Bit-level I/O and bit-field manipulation substrate.

Streams are MSB-first.  :class:`BitWriter` appends one field per call;
:func:`pack_fields` lays down a whole array of ``(value, width)`` fields
at once, with the same bytes and the same value checks, in bounded
chunks.  gzip, LZW and SADC-MIPS compress emit through it.
"""

from repro.bitstream.fields import (
    bits_to_word,
    chunk_words,
    deposit_bits,
    extract_bits,
    sign_extend,
    word_to_bits,
    words_to_bytes,
)
from repro.bitstream.io import BitReader, BitWriter, pack_fields

__all__ = [
    "BitReader",
    "BitWriter",
    "bits_to_word",
    "chunk_words",
    "deposit_bits",
    "extract_bits",
    "pack_fields",
    "sign_extend",
    "word_to_bits",
    "words_to_bytes",
]
