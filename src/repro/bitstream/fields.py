"""Bit-field helpers shared by the ISA models and SAMC stream machinery.

A *bit position* in this package always refers to a bit index within a
fixed-width word, counted from the most significant bit: position 0 of a
32-bit MIPS instruction is bit 31 in hardware terms (the top bit of the
opcode field).  Counting MSB-first keeps the mapping between the paper's
stream diagrams (Figure 2) and our code direct: stream bits are listed in
the order they are fed to the Markov model.
"""

from __future__ import annotations

import sys
from array import array
from typing import Iterable, List, Sequence

import numpy as np

#: ``array`` stores words in host order; bytes are big-endian.
_SWAP = sys.byteorder == "little"


def extract_bits(word: int, positions: Sequence[int], width: int) -> int:
    """Gather the bits of ``word`` at MSB-first ``positions`` into an int.

    The first listed position becomes the most significant bit of the
    result.  ``width`` is the width of ``word``.  Positions must be
    unique: a duplicate raises :class:`ValueError`, since a repeated
    position cannot round-trip through :func:`deposit_bits` (the layout
    verifier's tiling check relies on this).
    """
    value = 0
    seen = 0
    for pos in positions:
        if not 0 <= pos < width:
            raise ValueError(f"bit position {pos} out of range for width {width}")
        bit = 1 << pos
        if seen & bit:
            raise ValueError(f"duplicate bit position {pos}")
        seen |= bit
        value = (value << 1) | ((word >> (width - 1 - pos)) & 1)
    return value


def deposit_bits(value: int, positions: Sequence[int], width: int) -> int:
    """Scatter ``value`` back into a ``width``-bit word at ``positions``.

    Inverse of :func:`extract_bits` for the covered positions; uncovered
    positions are zero.
    """
    word = 0
    nbits = len(positions)
    seen = 0
    for index, pos in enumerate(positions):
        if not 0 <= pos < width:
            raise ValueError(f"bit position {pos} out of range for width {width}")
        mask = 1 << pos
        if seen & mask:
            raise ValueError(f"duplicate bit position {pos}")
        seen |= mask
        bit = (value >> (nbits - 1 - index)) & 1
        word |= bit << (width - 1 - pos)
    return word


def word_to_bits(word: int, width: int) -> List[int]:
    """Explode a word into a list of bits, MSB first."""
    return [(word >> (width - 1 - i)) & 1 for i in range(width)]


def bits_to_word(bits: Iterable[int]) -> int:
    """Collapse an MSB-first bit list back into an integer."""
    value = 0
    for bit in bits:
        if bit not in (0, 1):
            raise ValueError(f"bit must be 0 or 1, got {bit!r}")
        value = (value << 1) | bit
    return value


def sign_extend(value: int, width: int) -> int:
    """Interpret the low ``width`` bits of ``value`` as two's complement."""
    value &= (1 << width) - 1
    if value & (1 << (width - 1)):
        value -= 1 << width
    return value


def _check_whole_words(data: bytes, word_bytes: int) -> None:
    if len(data) % word_bytes != 0:
        raise ValueError(
            f"data length {len(data)} is not a multiple of word size {word_bytes}"
        )


def chunk_words(data: bytes, word_bytes: int) -> List[int]:
    """Split ``data`` into big-endian fixed-width words.

    Raises :class:`ValueError` when the data is not a whole number of words
    — a compressed-code image must cover complete instructions.
    """
    _check_whole_words(data, word_bytes)
    return [
        int.from_bytes(data[i : i + word_bytes], "big")
        for i in range(0, len(data), word_bytes)
    ]


def word_array(data: bytes, word_bytes: int) -> np.ndarray:
    """:func:`chunk_words` as one int64 array, for words of 1 to 8 bytes.

    Each word is right-aligned in an 8-byte big-endian lane, so one view
    serves every whole-byte width.  An 8-byte word keeps its bit pattern
    as a two's-complement int64, which shifts and masks read bit for bit.
    Raises the same :class:`ValueError` as :func:`chunk_words`.
    """
    _check_whole_words(data, word_bytes)
    if not 1 <= word_bytes <= 8:
        raise ValueError(f"a {word_bytes}-byte word does not fit an int64")
    lanes = np.zeros((len(data) // word_bytes, 8), dtype=np.uint8)
    lanes[:, 8 - word_bytes :] = np.frombuffer(data, dtype=np.uint8).reshape(
        -1, word_bytes
    )
    return lanes.view(">u8").ravel().astype(np.int64)


#: Word width in bytes -> the unsigned ``array`` type code of that size.
_TYPECODES = {array(code).itemsize: code for code in "BHILQ"}


def words_to_bytes(words: Iterable[int], word_bytes: int) -> bytes:
    """Serialise fixed-width words back to big-endian bytes.

    Widths of 1, 2, 4 and 8 bytes pack in one ``array`` call, which
    raises :class:`OverflowError`, as ``int.to_bytes`` does, for a word
    that does not fit; other widths pack word by word.
    """
    code = _TYPECODES.get(word_bytes)
    if code is None:
        return b"".join([int(word).to_bytes(word_bytes, "big") for word in words])
    packed = array(code, words)
    if _SWAP:
        packed.byteswap()
    return packed.tobytes()
