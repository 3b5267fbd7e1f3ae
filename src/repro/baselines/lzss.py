"""LZSS: sliding-window match finding (the LZ77 half of gzip).

A hash-chain matcher over a 32 KiB window with 3..258-byte matches —
the same search structure and limits as DEFLATE.  The parse comes as
two number columns (:func:`tokenize_arrays`), which
:mod:`repro.baselines.gzipish` bins and entropy-codes, or as a
:class:`Literal` / :class:`Match` token list (:func:`tokenize`).  The
matcher itself is :func:`repro.fastpath.lz_kernel.tokenize_arrays_fast`;
the byte-string parse it is pinned to lives in ``tests/oracles.py``.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple, Union

from repro.fastpath.lz_kernel import tokenize_arrays_fast
from repro.obs import get_recorder
from repro.resilience.errors import CATEGORY_STRUCTURE, CorruptedStreamError

WINDOW_SIZE = 32 * 1024
MIN_MATCH = 3
MAX_MATCH = 258
#: Hash-chain depth bound: the classic speed/ratio trade-off knob.
MAX_CHAIN = 64


@dataclass(frozen=True)
class Literal:
    """A single uncompressed byte."""

    byte: int


@dataclass(frozen=True)
class Match:
    """A back-reference: copy ``length`` bytes from ``distance`` back."""

    length: int
    distance: int


Token = Union[Literal, Match]


def tokenize(data: bytes) -> List[Token]:
    """Greedy LZSS parse of ``data`` into literals and matches:
    :func:`tokenize_arrays` as tokens."""
    return tokens_of(*tokenize_arrays(data))


def tokenize_arrays(data: bytes) -> Tuple[array, array]:
    """Greedy LZSS parse of ``data`` as two ``array("H")`` columns.

    Token ``i`` is ``Literal(values[i])`` when ``lengths[i]`` is 0, else
    ``Match(lengths[i], values[i])``.
    """
    rec = get_recorder()
    with rec.span("lzss.tokenize"):
        lengths, values = tokenize_arrays_fast(data)
    if rec.enabled:
        matches = [length for length in lengths if length]
        rec.count("lzss.literals", len(lengths) - len(matches))
        rec.count("lzss.matches", len(matches))
        for length in matches:
            rec.observe("lzss.match_length", length)
    return lengths, values


def tokens_of(lengths: Sequence[int], values: Sequence[int]) -> List[Token]:
    """The tokens of :func:`tokenize_arrays`' columns."""
    return [
        Match(length, value) if length else Literal(value)
        for length, value in zip(lengths, values)
    ]


# repro: contract decode-entry
def detokenize(tokens: Iterator[Token]) -> bytes:
    """Expand a token stream back to bytes."""
    out = bytearray()
    for token in tokens:
        if isinstance(token, Literal):
            out.append(token.byte)
        else:
            if token.distance < 1 or token.distance > len(out):
                raise CorruptedStreamError(
                    f"bad match distance {token.distance} with "
                    f"{len(out)} bytes decoded",
                    offset=len(out),
                    category=CATEGORY_STRUCTURE,
                )
            start = len(out) - token.distance
            for i in range(token.length):  # may self-overlap, byte at a time
                out.append(out[start + i])
    return bytes(out)
