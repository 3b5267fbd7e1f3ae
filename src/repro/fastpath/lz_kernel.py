"""Fast LZ kernels: one numpy-keyed LZSS matcher, integer-keyed LZW.

These are the only LZSS and LZW compressors :mod:`repro.baselines.lzss`
and :mod:`repro.baselines.lzw` run.  They are token-for-token and
byte-for-byte identical to the byte-string reference parses kept in
``tests/oracles.py`` (differential tests pin this); the speed comes from
structural changes, not algorithmic ones:

* every 3-byte hash-chain key is computed in one numpy pass over the
  input, and the matcher indexes that array instead of combining three
  bytes per position;
* LZSS match extension compares 16-byte ``memoryview`` slices and only
  falls back to a byte loop inside the final chunk, instead of one
  Python comparison per matched byte;
* the matcher records each token as two numbers, not an object: its
  length (0 for a literal) and its value (the byte, or the match
  distance), in two ``array("H")`` columns that gzip bins and packs as
  arrays;
* LZW's dictionary maps ``(prefix_code << 8) | byte`` integers instead
  of growing byte strings — prefix codes are unique per string, so the
  lookups are equivalent and O(1) with tiny keys — and its codes and
  widths are collected, then packed once by
  :func:`repro.bitstream.pack_fields`.

There is no batch matcher, and no batch entry point: only the keys are
independent of the data; which positions the parse visits, and how far
each match extends, is not.
"""

from __future__ import annotations

from array import array
from typing import List, Tuple

import numpy as np

from repro.bitstream.io import pack_fields


def tokenize_fast(data: bytes) -> List:
    """Greedy LZSS parse as tokens, identical to the reference
    ``tokenize``: :func:`tokenize_arrays_fast` as ``Literal``/``Match``."""
    from repro.baselines.lzss import tokens_of

    return tokens_of(*tokenize_arrays_fast(data))


def tokenize_arrays_fast(data: bytes) -> Tuple[array, array]:
    """Greedy LZSS parse as ``(lengths, values)`` columns.

    Token ``i`` is ``Literal(values[i])`` when ``lengths[i]`` is 0, else
    ``Match(lengths[i], values[i])``: exactly the reference parse.
    """
    from repro.baselines.lzss import MAX_CHAIN, MAX_MATCH, MIN_MATCH, WINDOW_SIZE

    lengths = array("H")
    values = array("H")
    n = len(data)
    # Each position's key, read through a memoryview: as fast to index
    # as a list, without a Python int held per position.
    b = np.frombuffer(data, dtype=np.uint8).astype(np.int32)
    keys = memoryview((b[:-2] << 16) | (b[1:-1] << 8) | b[2:])
    last = n - MIN_MATCH  # the last position with a key
    view = memoryview(data)
    chains: dict = {}
    chains_get = chains.get
    append_length = lengths.append
    append_value = values.append
    pos = 0
    while pos < n:
        best_length = 0
        best_distance = 0
        if pos <= last:
            key = keys[pos]
            chain = chains_get(key)
            if chain:
                limit = min(MAX_MATCH, n - pos)
                for candidate in reversed(chain):
                    if pos - candidate > WINDOW_SIZE:
                        break
                    # Screening byte: a candidate can only *strictly*
                    # beat best_length if it also matches at offset
                    # best_length, so one compare rejects most of the
                    # chain without touching the extension loop.
                    if best_length and (
                        best_length >= limit
                        or data[candidate + best_length] != data[pos + best_length]
                    ):
                        continue
                    # Chain hits share the 3-byte key, so extension
                    # starts at MIN_MATCH: 16-byte view compares first,
                    # a byte loop only inside the mismatching chunk.
                    length = MIN_MATCH
                    while (
                        length + 16 <= limit
                        and view[candidate + length : candidate + length + 16]
                        == view[pos + length : pos + length + 16]
                    ):
                        length += 16
                    while length < limit and data[candidate + length] == data[pos + length]:
                        length += 1
                    if length > best_length:
                        best_length = length
                        best_distance = pos - candidate
                        if length >= MAX_MATCH:
                            break
        if best_length >= MIN_MATCH:
            append_length(best_length)
            append_value(best_distance)
            end = pos + best_length
            for at in range(pos, min(end, last + 1)):
                key = keys[at]
                chain = chains_get(key)
                if chain is None:
                    chains[key] = [at]
                else:
                    chain.append(at)
                    if len(chain) > MAX_CHAIN:
                        del chain[0 : len(chain) - MAX_CHAIN]
            pos = end
        else:
            append_length(0)
            append_value(data[pos])
            if pos <= last:
                # ``key`` and ``chain`` are this position's, from the search.
                if chain is None:
                    chains[key] = [pos]
                else:
                    chain.append(pos)
                    if len(chain) > MAX_CHAIN:
                        del chain[0 : len(chain) - MAX_CHAIN]
            pos += 1
    return lengths, values


def lzw_compress_fast(data: bytes) -> bytes:
    """LZW with integer dictionary keys; output matches the reference.

    A prefix's dictionary code uniquely identifies its byte string
    (single bytes are their own codes), so keying on
    ``(prefix_code << 8) | next_byte`` performs exactly the lookups the
    reference does on ``prefix_string + next_byte`` — without building
    a byte string per input position.  The codes and their widths are
    collected in the order the reference writes them, then packed once.
    """
    from repro.baselines.lzw import CLEAR_CODE, FIRST_CODE, MAX_BITS, MIN_BITS

    header = (len(data) & 0xFFFFFFFF).to_bytes(4, "big")
    if not data:
        return header

    codes = array("H")
    widths = array("B")
    emit_code = codes.append
    emit_width = widths.append
    table: dict = {}
    table_get = table.get
    max_code = 1 << MAX_BITS
    next_code = FIRST_CODE
    width = MIN_BITS
    clear_codes = 0
    prefix = data[0]
    for byte in data[1:]:
        key = (prefix << 8) | byte
        code = table_get(key)
        if code is not None:
            prefix = code
            continue
        emit_code(prefix)
        emit_width(width)
        if next_code < max_code:
            table[key] = next_code
            next_code += 1
            if next_code > (1 << width) and width < MAX_BITS:
                width += 1
        else:
            # Dictionary full: emit CLEAR and start over, like compress
            # does when its ratio-check fires.
            emit_code(CLEAR_CODE)
            emit_width(width)
            table.clear()
            next_code = FIRST_CODE
            width = MIN_BITS
            clear_codes += 1
        prefix = byte
    emit_code(prefix)
    emit_width(width)
    del table, table_get  # free the dictionary before packing
    if clear_codes:
        from repro.obs import get_recorder

        get_recorder().count("lzw.clear_codes", clear_codes)
    # The 32-bit header is four whole bytes, so the codes start on a byte.
    return header + pack_fields(codes, widths)
