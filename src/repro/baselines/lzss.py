"""LZSS: sliding-window match finding (the LZ77 half of gzip).

A hash-chain matcher over a 32 KiB window with 3..258-byte matches —
the same search structure and limits as DEFLATE.  The parse comes as
two number columns (:func:`tokenize_arrays`), which
:mod:`repro.baselines.gzipish` bins and entropy-codes, or as a
:class:`Literal` / :class:`Match` token list (:func:`tokenize`).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple, Union

from repro.fastpath import fastpath_enabled
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
    ``Match(lengths[i], values[i])``.  Dispatches to the kernel in
    :mod:`repro.fastpath.lz_kernel` unless ``REPRO_FASTPATH=0``, where
    the reference parse's tokens are converted; both paths give the
    identical columns.
    """
    rec = get_recorder()
    with rec.span("lzss.tokenize"):
        if fastpath_enabled():
            from repro.fastpath.lz_kernel import tokenize_arrays_fast

            lengths, values = tokenize_arrays_fast(data)
        else:
            tokens = _tokenize_reference(data)
            lengths = array(
                "H", [t.length if isinstance(t, Match) else 0 for t in tokens]
            )
            values = array(
                "H", [t.distance if isinstance(t, Match) else t.byte for t in tokens]
            )
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


def tokenize_blocks(blocks) -> List[List[Token]]:
    """Greedy-parse a batch of independent blocks, one by one."""
    return [tokenize(bytes(block)) for block in blocks]


def _tokenize_reference(data: bytes) -> List[Token]:
    """The clarity-first parse the fastpath kernel is pinned against."""
    tokens: List[Token] = []
    chains: Dict[bytes, List[int]] = {}
    pos = 0
    n = len(data)
    while pos < n:
        best_length = 0
        best_distance = 0
        if pos + MIN_MATCH <= n:
            key = data[pos : pos + MIN_MATCH]
            for candidate in reversed(chains.get(key, ())):
                if pos - candidate > WINDOW_SIZE:
                    break
                length = _match_length(data, candidate, pos)
                if length > best_length:
                    best_length = length
                    best_distance = pos - candidate
                    if length >= MAX_MATCH:
                        break
        if best_length >= MIN_MATCH:
            tokens.append(Match(best_length, best_distance))
            end = pos + best_length
            while pos < end:
                if pos + MIN_MATCH <= n:
                    _insert(chains, data[pos : pos + MIN_MATCH], pos)
                pos += 1
        else:
            tokens.append(Literal(data[pos]))
            if pos + MIN_MATCH <= n:
                _insert(chains, data[pos : pos + MIN_MATCH], pos)
            pos += 1
    return tokens


def _match_length(data: bytes, candidate: int, pos: int) -> int:
    limit = min(MAX_MATCH, len(data) - pos)
    length = 0
    while length < limit and data[candidate + length] == data[pos + length]:
        length += 1
    return length


def _insert(chains: Dict[bytes, List[int]], key: bytes, pos: int) -> None:
    chain = chains.setdefault(key, [])
    chain.append(pos)
    if len(chain) > MAX_CHAIN:
        del chain[0 : len(chain) - MAX_CHAIN]


# repro: contract decode-entry
def detokenize(tokens: Iterator[Token]) -> bytes:  # repro: noqa fastpath-parity (no decode kernel; copy loop is already linear)
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
