"""MSB-first bit-level I/O.

Every coder in this package (Huffman, arithmetic, LZW, LZSS) reads and
writes *bit streams*, not byte streams.  The convention throughout is
MSB-first: the first bit written becomes the most significant bit of the
first output byte.  This matches how the paper's decompression engine
consumes compressed code 8 bits at a time (``val = (val << 8) | get_byte()``
in the Section 3 pseudocode).

The multi-bit primitives (:meth:`BitWriter.write_bits`,
:meth:`BitWriter.write_bytes`, :meth:`BitReader.read_bits`,
:meth:`BitReader.read_bytes`) are *batched*: they move whole words
through a cached bit accumulator instead of looping bit by bit, which is
what makes the Huffman/LZW/gzipish hot paths fast.  Argument validation
happens once at these public entry points; the internal batch loops
assume the invariant ``0 <= value < 2**width`` already holds.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import ArrayLike

#: Widest field :func:`pack_fields` takes.
MAX_FIELD_BITS = 57
#: Fields per :func:`pack_fields` pass: bounds its working memory.
_PACK_CHUNK = 1 << 16


class BitWriter:
    """Accumulates bits MSB-first and renders them to ``bytes``.

    >>> w = BitWriter()
    >>> w.write_bit(1); w.write_bits(0b0100000, 7)
    >>> bytes(w.getvalue())
    b'\\xa0'
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._current = 0
        self._nbits = 0

    def __len__(self) -> int:
        """Total number of bits written so far."""
        return 8 * len(self._buffer) + self._nbits

    @property
    def bit_length(self) -> int:
        """Number of bits written so far (alias of ``len``)."""
        return len(self)

    def write_bit(self, bit: int) -> None:
        """Append a single bit (0 or 1).

        This is the public boundary for single-bit writes, so the 0/1
        check lives here (and only here): the batched writers below
        validate their whole argument once and never re-check per bit.
        """
        if bit not in (0, 1):
            raise ValueError(f"bit must be 0 or 1, got {bit!r}")
        self._current = (self._current << 1) | bit
        self._nbits += 1
        if self._nbits == 8:
            self._buffer.append(self._current)
            self._current = 0
            self._nbits = 0

    def write_bits(self, value: int, width: int) -> None:
        """Append ``width`` bits of ``value``, most significant first.

        Validates once, then drains the accumulator a byte at a time —
        no per-bit calls, so Huffman codewords and LZW codes land in one
        pass.
        """
        if width < 0:
            raise ValueError("width must be non-negative")
        if value < 0 or (width < value.bit_length()):
            raise ValueError(f"value {value} does not fit in {width} bits")
        nbits = self._nbits + width
        acc = (self._current << width) | value
        buffer = self._buffer
        while nbits >= 8:
            nbits -= 8
            buffer.append((acc >> nbits) & 0xFF)
        self._current = acc & ((1 << nbits) - 1)
        self._nbits = nbits

    def write_bytes(self, data: bytes) -> None:
        """Append whole bytes (8 bits each, MSB-first).

        Byte-aligned streams extend the buffer directly; unaligned ones
        shift each byte through the cached accumulator (one append per
        byte, not eight).
        """
        if self._nbits == 0:
            self._buffer.extend(data)
            return
        nbits = self._nbits
        acc = self._current
        mask = (1 << nbits) - 1
        append = self._buffer.append
        for byte in data:
            acc = (acc << 8) | byte
            append((acc >> nbits) & 0xFF)
            acc &= mask
        self._current = acc

    def align_to_byte(self, fill: int = 0) -> None:
        """Pad with ``fill`` bits until the stream is byte-aligned."""
        while self._nbits != 0:
            self.write_bit(fill)

    def getvalue(self) -> bytes:
        """Return the stream as bytes, zero-padding a partial final byte."""
        if self._nbits == 0:
            return bytes(self._buffer)
        tail = self._current << (8 - self._nbits)
        return bytes(self._buffer) + bytes([tail])


class BitReader:
    """Reads bits MSB-first from a ``bytes`` object.

    Reading past the end raises :class:`EOFError` unless the reader was
    constructed with ``pad=True``, in which case it yields 0 bits forever
    (arithmetic decoders legitimately read a few bits past the payload).
    """

    def __init__(self, data: bytes, pad: bool = False) -> None:
        self._data = data
        self._pos = 0  # bit position
        self._pad = pad

    @property
    def bit_position(self) -> int:
        """Current read position, in bits from the start."""
        return self._pos

    @property
    def bits_remaining(self) -> int:
        """Bits left before the physical end of the buffer."""
        return max(0, 8 * len(self._data) - self._pos)

    def seek_bit(self, position: int) -> None:
        """Jump to an absolute bit offset (enables block random access)."""
        if position < 0:
            raise ValueError("bit position must be non-negative")
        self._pos = position

    def read_bit(self) -> int:
        """Read one bit; 0-fill past the end when padding is enabled."""
        byte_index, bit_index = divmod(self._pos, 8)
        if byte_index >= len(self._data):
            if self._pad:
                self._pos += 1
                return 0
            raise EOFError("read past end of bit stream")
        self._pos += 1
        return (self._data[byte_index] >> (7 - bit_index)) & 1

    def read_bits(self, width: int) -> int:
        """Read ``width`` bits as an unsigned integer: :meth:`peek_bits`,
        then :meth:`skip_bits`."""
        if width < 0:
            raise ValueError("width must be non-negative")
        value = self.peek_bits(width)
        self.skip_bits(width)
        return value

    def peek_bits(self, width: int) -> int:
        """The next ``width`` bits as an unsigned integer, left unread;
        bits past the end of the data read as 0.

        Batched: the covered byte span is lifted into one integer via
        ``int.from_bytes`` and the field extracted with a single shift.
        """
        data = self._data
        end = self._pos + width
        first = self._pos >> 3
        last = (end + 7) >> 3
        chunk = int.from_bytes(data[first:last], "big")
        if last > len(data):
            chunk <<= 8 * (last - max(first, len(data)))
        return (chunk >> (8 * last - end)) & ((1 << width) - 1)

    def skip_bits(self, count: int) -> None:
        """Consume ``count`` (>= 0) bits.  Past the end of the data,
        unless the reader pads, this consumes the bits up to the end and
        raises :class:`EOFError`."""
        end = self._pos + count
        available = max(8 * len(self._data), self._pos)
        if end > available and not self._pad:
            self._pos = available
            raise EOFError("read past end of bit stream")
        self._pos = end

    def read_bytes(self, count: int) -> bytes:
        """Read ``count`` whole bytes."""
        if count <= 0:
            return b""
        pos = self._pos
        if pos & 7 == 0 and pos + 8 * count <= 8 * len(self._data):
            start = pos >> 3
            self._pos = pos + 8 * count
            return bytes(self._data[start : start + count])
        return self.read_bits(8 * count).to_bytes(count, "big")


def pack_fields(values: ArrayLike, widths: ArrayLike) -> bytes:
    """Lay ``(value, width)`` fields down MSB-first, zero-padded to a byte.

    The output equals :meth:`BitWriter.getvalue` after one
    :meth:`BitWriter.write_bits` call per field.  The first field whose
    value is negative or does not fit raises ``write_bits``'
    :class:`ValueError`, as does a width over :data:`MAX_FIELD_BITS`.

    Fields go through in chunks of ``_PACK_CHUNK``, so memory grows with
    the chunk, not the output.  A chunk ORs each field into the 64-bit
    word it starts in, and what runs past that word into the next.
    """
    value_array = np.asarray(values)
    width_array = np.asarray(widths)
    if value_array.ndim != 1 or value_array.shape != width_array.shape:
        raise ValueError("values and widths must be equal-length 1-D arrays")
    one = np.uint64(1)
    out = bytearray()
    carry = 0  # the unfinished last byte, its bits at the top
    carry_bits = 0
    for lo in range(0, value_array.size, _PACK_CHUNK):
        value = np.asarray(value_array[lo : lo + _PACK_CHUNK], dtype=np.int64)
        width = np.asarray(width_array[lo : lo + _PACK_CHUNK], dtype=np.int64)
        _check_fields(value, width)
        end = np.cumsum(width)
        if carry_bits:
            end += carry_bits
        start = end - width
        total = int(end[-1])
        word = start >> 6
        offset = (start & 63).view(np.uint64)
        # Each field at the top of a word, then split where its first
        # word ends.  Shifts go in two steps, as none may reach 64.
        top = (value.view(np.uint64) << (63 - width).view(np.uint64)) << one
        head = top >> offset
        tail = (top << (np.uint64(63) - offset)) << one
        words = np.zeros((total >> 6) + 1, dtype=np.uint64)
        # Fields come in order, so the fields a word starts are one run.
        run = np.empty(word.size, dtype=bool)
        run[0] = True
        np.not_equal(word[1:], word[:-1], out=run[1:])
        starts = np.flatnonzero(run)
        words[word[starts]] = np.bitwise_or.reduceat(head, starts)
        # At most one field runs into each word.
        spill = np.flatnonzero(tail)
        words[word[spill] + 1] |= tail[spill]
        chunk = bytearray(words.astype(">u8").tobytes())
        chunk[0] |= carry
        out += chunk[: total >> 3]
        carry_bits = total & 7
        carry = chunk[total >> 3] if carry_bits else 0
    if carry_bits:
        out.append(carry)
    return bytes(out)


def _check_fields(value: np.ndarray, width: np.ndarray) -> None:
    """Raise for the first field whose width is negative or over
    :data:`MAX_FIELD_BITS`, or whose value is negative or does not fit."""
    if (
        width.min() >= 0
        and width.max() <= MAX_FIELD_BITS
        and value.min() >= 0
        and not (value >> width).any()
    ):
        return
    bad = (
        (width < 0)
        | (width > MAX_FIELD_BITS)
        | (value < 0)
        | ((value >> np.clip(width, 0, MAX_FIELD_BITS)) != 0)
    )
    index = int(np.argmax(bad))
    field_value, field_width = int(value[index]), int(width[index])
    if field_width < 0:
        raise ValueError("width must be non-negative")
    if field_width > MAX_FIELD_BITS:
        raise ValueError(
            f"field width {field_width} exceeds {MAX_FIELD_BITS} bits"
        )
    raise ValueError(f"value {field_value} does not fit in {field_width} bits")
