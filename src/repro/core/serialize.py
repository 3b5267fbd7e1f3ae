"""On-ROM serialisation of compressed images.

Inside the library a :class:`~repro.core.lat.CompressedImage` carries its
decoder model (Markov tables / dictionary / Huffman codes) as live
objects.  This module defines the standalone byte format — what would
actually be burned into an embedded system's memory next to the LAT and
the compressed code — and rebuilds a fully decompressible image from it.

Layout (all integers big-endian)::

    "RCC1" | algo u8 | original u32 | block_size u16 | model_bytes u32
    n_blocks u32 | n_blocks x (payload size u16)
    <model section, per algorithm>
    <payload blocks, concatenated>

The format is versioned by the magic; unknown algorithm ids or truncated
sections raise :class:`SerializationError`.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.lat import CompressedImage, original_block_count
from repro.core.samc.model import SamcModel
from repro.entropy.arith import PROB_ONE
from repro.entropy.huffman import HuffmanCode, canonical_codewords
from repro.resilience.errors import (
    CATEGORY_BUDGET,
    CATEGORY_STRUCTURE,
    CATEGORY_TRUNCATED,
    CorruptedStreamError,
    decode_guard,
)
from repro.resilience.frame import framing_enabled, is_framed, unwrap_frame, wrap_frame

MAGIC = b"RCC1"

ALGO_SAMC = 1
ALGO_SADC_MIPS = 2
ALGO_SADC_X86 = 3
ALGO_BYTE_HUFFMAN = 4

_PROB_MODES = {"full": 0, "full16": 1, "pow2": 2}
_PROB_MODE_NAMES = {v: k for k, v in _PROB_MODES.items()}


class SerializationError(CorruptedStreamError):
    """Raised for malformed or truncated serialised images.

    A :class:`CorruptedStreamError` (and therefore a ``ValueError``)
    carrying the byte offset and corruption category of the failure.
    """


class _Writer:
    def __init__(self) -> None:
        self._parts: List[bytes] = []

    def u8(self, value: int) -> None:
        self._parts.append(struct.pack(">B", value))

    def u16(self, value: int) -> None:
        self._parts.append(struct.pack(">H", value))

    def u32(self, value: int) -> None:
        self._parts.append(struct.pack(">I", value))

    def raw(self, data: bytes) -> None:
        self._parts.append(data)

    def getvalue(self) -> bytes:
        return b"".join(self._parts)


class _Reader:
    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    @property
    def offset(self) -> int:
        return self._pos

    @property
    def remaining(self) -> int:
        return len(self._data) - self._pos

    def _take(self, count: int) -> bytes:
        if self._pos + count > len(self._data):
            raise SerializationError(
                "truncated image",
                offset=self._pos,
                category=CATEGORY_TRUNCATED,
            )
        chunk = self._data[self._pos : self._pos + count]
        self._pos += count
        return chunk

    def check_budget(self, items: int, bytes_per_item: int, what: str) -> None:
        """Reject a declared count the remaining bytes cannot satisfy.

        Every variable-length section states its element count up front;
        validating the count against the bytes actually present bounds
        all allocations by ``len(data)`` — a corrupted header cannot ask
        for gigabytes.
        """
        if items * bytes_per_item > self.remaining:
            raise SerializationError(
                f"{what}: {items} declared entries need at least "
                f"{items * bytes_per_item} bytes, only {self.remaining} left",
                offset=self._pos,
                category=CATEGORY_BUDGET,
            )

    def u8(self) -> int:
        return self._take(1)[0]

    def u16(self) -> int:
        return struct.unpack(">H", self._take(2))[0]

    def u32(self) -> int:
        return struct.unpack(">I", self._take(4))[0]

    def raw(self, count: int) -> bytes:
        return self._take(count)

    def array(self, count: int, dtype) -> np.ndarray:
        """The next ``count`` items of ``dtype``, as one read-only array."""
        dtype = np.dtype(dtype)
        return np.frombuffer(self._take(count * dtype.itemsize), dtype=dtype)


# -- Huffman tables -----------------------------------------------------------

#: One Huffman table record: a symbol and its code length.
_HUFFMAN_RECORD = np.dtype([("symbol", ">u4"), ("length", "u1")])


def _write_huffman(writer: _Writer, code: HuffmanCode) -> None:
    symbols = sorted(code.lengths)
    records = np.empty(len(symbols), dtype=_HUFFMAN_RECORD)
    records["symbol"] = symbols
    records["length"] = [code.lengths[symbol] for symbol in symbols]
    writer.u16(len(symbols))
    writer.raw(records.tobytes())


def _read_huffman(reader: _Reader) -> HuffmanCode:
    count = reader.u16()
    reader.check_budget(count, _HUFFMAN_RECORD.itemsize, "Huffman table")
    start = reader.offset
    records = reader.array(count, _HUFFMAN_RECORD)
    symbols = records["symbol"].tolist()
    zero = np.flatnonzero(records["length"] == 0)
    if zero.size:
        index = int(zero[0])
        raise SerializationError(
            f"Huffman symbol {symbols[index]} declares a zero-length codeword",
            offset=start + index * _HUFFMAN_RECORD.itemsize + 4,
            category=CATEGORY_STRUCTURE,
        )
    # A repeated symbol keeps its last length, as a dict insert does.
    lengths = dict(zip(symbols, records["length"].tolist()))
    return HuffmanCode(lengths=lengths, codewords=canonical_codewords(lengths))


# -- SAMC model ----------------------------------------------------------------

def _write_samc_model(writer: _Writer, image: CompressedImage) -> None:
    model: SamcModel = image.metadata["model"]
    mode = image.metadata["probability_mode"]
    writer.u8(model.width)
    writer.u8(len(model.specs))
    writer.u8(model.connect_bits)
    writer.u8(_PROB_MODES[mode])
    for spec in model.specs:
        writer.u8(spec.k)
        for position in spec.positions:
            writer.u8(position)
    for table in model.tables:
        writer.raw(_encode_table(table, mode))


#: ``2**0 .. 2**16``: a positive integer's bit length is the number of
#: these at or below it.
_POWERS_OF_TWO = 1 << np.arange(17)


def _encode_table(table: np.ndarray, mode: str) -> bytes:
    """One stream's probabilities as stored, in C (context, node) order.

    ``full`` keeps a probability's high byte, ``full16`` all 16 bits,
    and ``pow2`` a byte of the side bit (set when P(0) is the larger
    side) and the exponent ``e`` of the smaller side's ``2**-e``.
    """
    if mode == "full":
        return (table >> 8).astype(np.uint8).tobytes()
    if mode == "full16":
        return table.astype(">u2").tobytes()
    side = table > (1 << 15)
    lps = np.where(side, PROB_ONE - table, table)
    # 16 - floor(log2(lps)), that is 17 - lps.bit_length().
    exponent = 17 - np.searchsorted(_POWERS_OF_TWO, lps, side="right")
    return ((side << 7) | exponent).astype(np.uint8).tobytes()


def _decode_table(reader: _Reader, count: int, mode: str) -> np.ndarray:
    """The next ``count`` stored probabilities (:func:`_encode_table`'s
    inverse), as 16-bit P(0)."""
    if mode == "full16":
        return reader.array(count, ">u2").astype(np.int64)
    stored = reader.array(count, np.uint8).astype(np.int64)
    if mode == "full":
        return stored << 8
    lps = PROB_ONE >> (stored & 0x1F)
    return np.where(stored >> 7, PROB_ONE - lps, lps)

#: Bytes one stored probability occupies per coding mode.
_PROB_MODE_BYTES = {"full": 1, "full16": 2, "pow2": 1}

#: Largest inter-stream connection order the format accepts (2**16
#: tree replicas); a corrupted u8 would otherwise request ``1 << 255``
#: contexts before a single table byte is read.
_MAX_CONNECT_BITS = 16

#: Most probability cells a SAMC model may hold across its streams.  The
#: scalar decoder builds 118–140 bytes of Markov trees per cell (the
#: more, the wider the streams), so this bounds what one archive can
#: make a decode build at about 37 MB.  It admits every layout the
#: repository trains: the largest, the stream ablation's two 16-bit
#: streams with one connection bit, has 262,140 cells, and the paper's
#: four 8-bit streams 2,040.
_MAX_SAMC_CELLS = 1 << 18


def _read_samc_model(reader: _Reader) -> Tuple[SamcModel, str]:
    width = reader.u8()
    n_streams = reader.u8()
    connect_bits = reader.u8()
    mode = _PROB_MODE_NAMES.get(reader.u8())
    if mode is None:
        raise SerializationError(
            "unknown probability mode",
            offset=reader.offset - 1,
            category=CATEGORY_STRUCTURE,
        )
    if not 1 <= width <= 64 or width % 8 != 0:
        raise SerializationError(
            f"implausible SAMC word width {width}",
            category=CATEGORY_STRUCTURE,
        )
    if not 1 <= n_streams <= width:
        raise SerializationError(
            f"implausible SAMC stream count {n_streams} for width {width}",
            category=CATEGORY_STRUCTURE,
        )
    if connect_bits > _MAX_CONNECT_BITS:
        raise SerializationError(
            f"connect_bits {connect_bits} exceeds the format maximum "
            f"{_MAX_CONNECT_BITS}",
            category=CATEGORY_STRUCTURE,
        )
    streams = []
    for _ in range(n_streams):
        k = reader.u8()
        if not 1 <= k <= width:
            raise SerializationError(
                f"implausible stream size {k} for width {width}",
                offset=reader.offset - 1,
                category=CATEGORY_STRUCTURE,
            )
        streams.append(tuple(reader.u8() for _ in range(k)))
    tables = []
    contexts = 1 << connect_bits
    prob_bytes = _PROB_MODE_BYTES[mode]
    cells = 0
    for stream in streams:
        nodes = (1 << len(stream)) - 1
        reader.check_budget(contexts * nodes, prob_bytes, "SAMC table")
        cells += contexts * nodes
        if cells > _MAX_SAMC_CELLS:
            raise SerializationError(
                f"SAMC tables: {cells} cells exceed the format maximum "
                f"{_MAX_SAMC_CELLS}",
                offset=reader.offset,
                category=CATEGORY_BUDGET,
            )
        table = _decode_table(reader, contexts * nodes, mode)
        # A probability of 0 (or PROB_ONE) collapses one half of the
        # range coder's interval, which the decode loop would spin on
        # forever — reject untrusted tables here, at the boundary.
        if table.min() < 1 or table.max() > PROB_ONE - 1:
            raise SerializationError(
                "SAMC probability table holds values outside "
                f"[1, {PROB_ONE - 1}]",
                offset=reader.offset,
                category=CATEGORY_STRUCTURE,
            )
        tables.append(table.reshape(contexts, nodes))
    try:
        model = SamcModel(width, streams, connect_bits, tables)
    except ValueError as error:  # bad stream partition, wrong table shape
        raise SerializationError(
            f"inconsistent SAMC model: {error}",
            category=CATEGORY_STRUCTURE,
        ) from error
    return model, mode


# -- SADC models ----------------------------------------------------------------

_MIPS_CODE_KEYS = ("tokens", "regs", "imm16_hi", "imm16_lo",
                   "imm26_hi", "imm26_lo")
_X86_CODE_KEYS = ("tokens", "modrm_sib", "imm_disp")


def _write_sadc_mips_model(writer: _Writer, image: CompressedImage) -> None:
    from repro.core.sadc.entry import Dictionary

    dictionary: Dictionary = image.metadata["dictionary"]
    writer.u16(len(dictionary))
    for entry in dictionary.entries:
        writer.u8(len(entry.opcodes))
        for opcode in entry.opcodes:
            writer.u8(opcode)
        writer.u8(len(entry.bound_regs))
        for instr, slot, value in entry.bound_regs:
            writer.u8(instr)
            writer.u8(slot)
            writer.u8(value)
        writer.u8(len(entry.bound_imm16))
        for instr, value in entry.bound_imm16:
            writer.u8(instr)
            writer.u16(value)
        writer.u8(len(entry.bound_imm26))
        for instr, value in entry.bound_imm26:
            writer.u8(instr)
            writer.u32(value)
    for key in _MIPS_CODE_KEYS:
        _write_huffman(writer, image.metadata["codes"][key])


def _read_sadc_mips_model(reader: _Reader) -> Tuple[object, Dict[str, HuffmanCode]]:
    from repro.core.sadc.entry import DictEntry, Dictionary

    count = reader.u16()
    reader.check_budget(count, 4, "SADC dictionary")
    dictionary = Dictionary(max_entries=max(256, count))
    for index in range(count):
        opcodes = tuple(reader.u8() for _ in range(reader.u8()))
        if not opcodes:
            raise SerializationError(
                f"dictionary entry {index} declares zero opcodes",
                offset=reader.offset,
                category=CATEGORY_STRUCTURE,
            )
        regs = tuple(
            (reader.u8(), reader.u8(), reader.u8())
            for _ in range(reader.u8())
        )
        imm16 = tuple((reader.u8(), reader.u16()) for _ in range(reader.u8()))
        imm26 = tuple((reader.u8(), reader.u32()) for _ in range(reader.u8()))
        dictionary.add(DictEntry(opcodes, regs, imm16, imm26))
    codes = {key: _read_huffman(reader) for key in _MIPS_CODE_KEYS}
    return dictionary, codes


def _write_sadc_x86_model(writer: _Writer, image: CompressedImage) -> None:
    dictionary = image.metadata["dictionary"]
    writer.u16(len(dictionary))
    for entry in dictionary.entries:
        writer.u8(len(entry))
        for part in entry:
            writer.u8(len(part))
            writer.raw(part)
    for key in _X86_CODE_KEYS:
        _write_huffman(writer, image.metadata["codes"][key])
    counts = image.metadata["block_instruction_counts"]
    writer.u32(len(counts))
    writer.raw(np.asarray(counts, dtype=">u2").tobytes())


def _read_sadc_x86_model(reader: _Reader):
    from repro.core.sadc.x86 import X86Dictionary

    count = reader.u16()
    reader.check_budget(count, 2, "SADC x86 dictionary")
    dictionary = X86Dictionary(max_entries=max(256, count))
    for index in range(count):
        parts = tuple(
            reader.raw(reader.u8()) for _ in range(reader.u8())
        )
        if not parts or not all(parts):
            raise SerializationError(
                f"x86 dictionary entry {index} holds an empty opcode string",
                offset=reader.offset,
                category=CATEGORY_STRUCTURE,
            )
        dictionary.add(parts)
    codes = {key: _read_huffman(reader) for key in _X86_CODE_KEYS}
    n_counts = reader.u32()
    reader.check_budget(n_counts, 2, "block instruction counts")
    counts = reader.array(n_counts, ">u2").tolist()
    return dictionary, codes, counts


# -- public API -------------------------------------------------------------------

def _algorithm_id(image: CompressedImage) -> int:
    if image.algorithm == "SAMC":
        return ALGO_SAMC
    if image.algorithm == "SADC":
        return ALGO_SADC_MIPS if image.metadata.get("isa") == "mips" \
            else ALGO_SADC_X86
    if image.algorithm == "byte-huffman":
        return ALGO_BYTE_HUFFMAN
    raise SerializationError(f"cannot serialise algorithm {image.algorithm!r}")


# repro: contract determinism-sink
def serialize_image(image: CompressedImage, framed: Optional[bool] = None) -> bytes:
    """Serialise a compressed image to its standalone byte format.

    ``framed=True`` wraps the archive in the resilience container
    (:mod:`repro.resilience.frame`: magic, version, length, CRC-32) so
    any corruption is detected before deserialisation begins.  The
    default follows the ``REPRO_FRAMED`` environment switch and is off —
    raw archives stay byte-identical with pre-framing releases.
    """
    if framed is None:
        framed = framing_enabled()
    writer = _Writer()
    writer.raw(MAGIC)
    algo = _algorithm_id(image)
    writer.u8(algo)
    writer.u32(image.original_size)
    writer.u16(image.block_size)
    writer.u32(image.model_bytes)
    sizes = [len(block) for block in image.blocks]
    if sizes and max(sizes) > 0xFFFF:
        raise SerializationError("block payload exceeds format limit")
    writer.u32(len(sizes))
    writer.raw(np.asarray(sizes, dtype=">u2").tobytes())
    if algo == ALGO_SAMC:
        _write_samc_model(writer, image)
    elif algo == ALGO_SADC_MIPS:
        _write_sadc_mips_model(writer, image)
    elif algo == ALGO_SADC_X86:
        _write_sadc_x86_model(writer, image)
    else:
        _write_huffman(writer, image.metadata["code"])
    for block in image.blocks:
        writer.raw(block)
    archive = writer.getvalue()
    return wrap_frame(archive) if framed else archive


# repro: contract decode-entry
def deserialize_image(data: bytes) -> CompressedImage:
    """Rebuild a decompressible :class:`CompressedImage` from bytes.

    Framed archives (see :func:`serialize_image`) are detected by their
    magic and CRC-checked before any field is parsed; unframed archives
    parse as before.  All parse failures raise
    :class:`SerializationError` with offset and category.
    """
    with decode_guard("serialize.deserialize_image"):
        if is_framed(data):
            try:
                data = unwrap_frame(data)
            except SerializationError:
                raise
            except CorruptedStreamError as error:
                # Uniform contract: every deserialize_image failure is a
                # SerializationError, framed or not.
                raise SerializationError(
                    f"bad archive frame: {error.args[0]}",
                    offset=error.offset,
                    category=error.category,
                ) from error
        return _deserialize_archive(data)


def _deserialize_archive(data: bytes) -> CompressedImage:
    reader = _Reader(data)
    if reader.raw(4) != MAGIC:
        raise SerializationError(
            "bad magic", offset=0, category=CATEGORY_STRUCTURE
        )
    algo = reader.u8()
    original_size = reader.u32()
    block_size = reader.u16()
    model_bytes = reader.u32()
    n_blocks = reader.u32()
    reader.check_budget(n_blocks, 2, "block size table")
    # The block count is implied by the header: a forged count would
    # send block decoders past the original image or silently drop
    # blocks.  Enforce consistency at this boundary.
    if block_size == 0:
        raise SerializationError(
            "block size is zero", category=CATEGORY_STRUCTURE
        )
    expected_blocks = original_block_count(original_size, block_size)
    if n_blocks != expected_blocks:
        raise SerializationError(
            f"archive declares {n_blocks} blocks but {original_size} bytes "
            f"at block size {block_size} require {expected_blocks}",
            category=CATEGORY_STRUCTURE,
        )
    sizes = reader.array(n_blocks, ">u2").tolist()

    if algo == ALGO_SAMC:
        model, mode = _read_samc_model(reader)
        metadata = {
            "model": model,
            "word_bits": model.width,
            "streams": model.specs,
            "connect_bits": model.connect_bits,
            "probability_mode": mode,
        }
        algorithm = "SAMC"
    elif algo == ALGO_SADC_MIPS:
        dictionary, codes = _read_sadc_mips_model(reader)
        metadata = {"isa": "mips", "dictionary": dictionary, "codes": codes}
        algorithm = "SADC"
    elif algo == ALGO_SADC_X86:
        dictionary, codes, counts = _read_sadc_x86_model(reader)
        metadata = {
            "isa": "x86", "dictionary": dictionary, "codes": codes,
            "block_instruction_counts": counts,
        }
        algorithm = "SADC"
    elif algo == ALGO_BYTE_HUFFMAN:
        code = _read_huffman(reader)
        # Huffman tables are generic u32-symbol maps (SADC token streams
        # need that), but this table decodes to raw bytes.
        bad = [s for s in code.lengths if not 0 <= s <= 0xFF]
        if bad:
            raise SerializationError(
                f"byte-Huffman table holds non-byte symbol {bad[0]}",
                offset=reader.offset,
                category=CATEGORY_STRUCTURE,
            )
        metadata = {"code": code}
        algorithm = "byte-huffman"
    else:
        raise SerializationError(f"unknown algorithm id {algo}")

    blocks = [reader.raw(size) for size in sizes]
    return CompressedImage(
        algorithm=algorithm,
        original_size=original_size,
        block_size=block_size,
        blocks=blocks,
        model_bytes=model_bytes,
        metadata=metadata,
    )


def save_image(image: CompressedImage, path: str) -> int:
    """Write a serialised image to disk; returns the byte count."""
    data = serialize_image(image)
    with open(path, "wb") as handle:
        handle.write(data)
    return len(data)


def load_image(path: str) -> CompressedImage:
    """Read a serialised image from disk."""
    with open(path, "rb") as handle:
        return deserialize_image(handle.read())
