"""Line Address Table (LAT) and the compressed-image container.

In the Wolfe/Chanin organisation the paper adopts, each cache block of
the original program compresses to a different size, so the refill engine
needs a map from *program* block addresses to *compressed* byte offsets.
That map is the LAT, stored in main memory next to the compressed code
(and cached by the CLB, see :mod:`repro.memory.clb`).

The LAT and the model tables (Markov probabilities or the SADC
dictionary) are overhead that honest compression ratios must include;
:class:`CompressedImage` accounts for all three components.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.resilience.errors import (
    CATEGORY_BOUNDS,
    CATEGORY_STRUCTURE,
    CorruptedStreamError,
)


@dataclass(frozen=True)
class LineAddressTable:
    """Maps block index -> byte offset of its compressed data.

    ``entry_bits`` is the width of one stored entry: enough bits to
    address any byte of the compressed payload.  A real implementation
    would pack entries; we model the storage cost exactly and keep the
    offsets as plain integers.
    """

    offsets: Sequence[int]
    payload_bytes: int

    @property
    def entry_bits(self) -> int:
        """Bits per LAT entry (byte-addressing the compressed payload)."""
        if self.payload_bytes <= 1:
            return 1
        return max(1, math.ceil(math.log2(self.payload_bytes)))

    @property
    def storage_bits(self) -> int:
        """Total LAT storage in bits."""
        return len(self.offsets) * self.entry_bits

    @property
    def storage_bytes(self) -> int:
        """Total LAT storage in whole bytes."""
        return (self.storage_bits + 7) // 8

    def _check_index(self, block_index: int) -> None:
        if not 0 <= block_index < len(self.offsets):
            raise CorruptedStreamError(
                f"LAT lookup for block {block_index} outside "
                f"[0, {len(self.offsets)})",
                category=CATEGORY_BOUNDS,
            )

    def block_offset(self, block_index: int) -> int:
        """Compressed byte offset of a block (refill-engine lookup)."""
        self._check_index(block_index)
        offset = self.offsets[block_index]
        if not 0 <= offset <= self.payload_bytes:
            raise CorruptedStreamError(
                f"LAT entry {block_index} points at {offset}, outside the "
                f"{self.payload_bytes}-byte payload",
                offset=offset,
                category=CATEGORY_BOUNDS,
            )
        return offset

    def block_span(self, block_index: int) -> tuple:
        """(start, end) compressed byte span of a block."""
        start = self.block_offset(block_index)
        if block_index + 1 < len(self.offsets):
            end = self.block_offset(block_index + 1)
        else:
            end = self.payload_bytes
        if end < start:
            raise CorruptedStreamError(
                f"LAT entries {block_index}/{block_index + 1} are not "
                f"monotone ({start} > {end})",
                offset=start,
                category=CATEGORY_STRUCTURE,
            )
        return start, end

    def validate(self) -> None:
        """Structural check: offsets monotone and inside the payload.

        Raises :class:`CorruptedStreamError` on the first violation —
        the fuzz driver's LAT-corruption oracle.
        """
        previous = 0
        for index, offset in enumerate(self.offsets):
            if not 0 <= offset <= self.payload_bytes:
                raise CorruptedStreamError(
                    f"LAT entry {index} points at {offset}, outside the "
                    f"{self.payload_bytes}-byte payload",
                    offset=offset,
                    category=CATEGORY_BOUNDS,
                )
            if offset < previous:
                raise CorruptedStreamError(
                    f"LAT entry {index} ({offset}) precedes entry "
                    f"{index - 1} ({previous})",
                    offset=offset,
                    category=CATEGORY_STRUCTURE,
                )
            previous = offset


@dataclass(frozen=True)
class CompactLAT:
    """Wolfe/Chanin-style compacted LAT.

    Storing a full byte offset per block is wasteful: offsets are
    monotone and block sizes are small.  The compacted table keeps one
    full base offset per *group* of ``group_size`` blocks plus a short
    length field for each block in the group; the refill engine adds up
    at most ``group_size - 1`` lengths to locate a line — one extra adder
    pass, which is why the paper pairs the LAT with a CLB cache.
    """

    offsets: Sequence[int]
    block_sizes: Sequence[int]
    payload_bytes: int
    group_size: int = 8

    @property
    def base_bits(self) -> int:
        """Bits for one full base offset."""
        if self.payload_bytes <= 1:
            return 1
        return max(1, math.ceil(math.log2(self.payload_bytes)))

    @property
    def length_bits(self) -> int:
        """Bits for one per-block compressed-length field."""
        largest = max(self.block_sizes, default=1)
        return max(1, math.ceil(math.log2(largest + 1)))

    @property
    def storage_bits(self) -> int:
        n = len(self.block_sizes)
        groups = (n + self.group_size - 1) // self.group_size
        return groups * self.base_bits + n * self.length_bits

    @property
    def storage_bytes(self) -> int:
        return (self.storage_bits + 7) // 8

    def block_offset(self, block_index: int) -> int:
        """Locate a block: group base plus the lengths before it."""
        if not 0 <= block_index < len(self.block_sizes):
            raise CorruptedStreamError(
                f"compact LAT lookup for block {block_index} outside "
                f"[0, {len(self.block_sizes)})",
                category=CATEGORY_BOUNDS,
            )
        group_start = (block_index // self.group_size) * self.group_size
        offset = self.offsets[group_start]
        for i in range(group_start, block_index):
            offset += self.block_sizes[i]
        if not 0 <= offset <= self.payload_bytes:
            raise CorruptedStreamError(
                f"compact LAT resolved block {block_index} to {offset}, "
                f"outside the {self.payload_bytes}-byte payload",
                offset=offset,
                category=CATEGORY_BOUNDS,
            )
        return offset


def build_lat(block_sizes: Sequence[int]) -> LineAddressTable:
    """Build a LAT from per-block compressed sizes (bytes)."""
    offsets: List[int] = []
    position = 0
    for size in block_sizes:
        if size < 0:
            raise ValueError("block size cannot be negative")
        offsets.append(position)
        position += size
    return LineAddressTable(offsets=tuple(offsets), payload_bytes=position)


@dataclass
class CompressedImage:
    """A fully compressed program: payload blocks + model + LAT.

    ``blocks[i]`` holds the bytes that decompress to original block ``i``
    (each original block is ``block_size`` bytes, except possibly the
    last).  ``model_bytes`` is the storage the decompressor's tables need
    (Markov probabilities for SAMC, dictionary + Huffman tables for SADC).
    """

    algorithm: str
    original_size: int
    block_size: int
    blocks: List[bytes]
    model_bytes: int
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        sizes = [len(block) for block in self.blocks]
        self.lat = build_lat(sizes)
        self.compact_lat = CompactLAT(
            offsets=self.lat.offsets,
            block_sizes=tuple(sizes),
            payload_bytes=self.lat.payload_bytes,
        )

    @property
    def payload_bytes(self) -> int:
        """Compressed code bytes, excluding tables."""
        return sum(len(block) for block in self.blocks)

    @property
    def total_bytes(self) -> int:
        """Everything stored in memory: payload + model tables + LAT.

        Uses the compacted (Wolfe/Chanin) LAT representation, the design
        the paper's memory organisation assumes.
        """
        return self.payload_bytes + self.model_bytes + self.compact_lat.storage_bytes

    @property
    def compression_ratio(self) -> float:
        """compressed size / original size — the paper's metric (< 1 is good)."""
        if self.original_size == 0:
            return 1.0
        return self.total_bytes / self.original_size

    @property
    def payload_ratio(self) -> float:
        """Ratio counting only the coded payload (no tables / LAT)."""
        if self.original_size == 0:
            return 1.0
        return self.payload_bytes / self.original_size

    def block_count(self) -> int:
        return len(self.blocks)

    def original_block_size(self, block_index: int) -> int:
        """Uncompressed bytes of block ``block_index`` (the last may be short).

        This is how many bytes (or symbols) a decoder must produce for
        the block.  An index outside the program raises a
        ``CATEGORY_BOUNDS`` :class:`CorruptedStreamError`, like the LAT
        lookups.
        """
        full_blocks, tail = divmod(self.original_size, self.block_size)
        if 0 <= block_index < full_blocks:
            return self.block_size
        if block_index == full_blocks and tail:
            return tail
        raise CorruptedStreamError(
            f"block {block_index} outside the "
            f"{original_block_count(self.original_size, self.block_size)} "
            f"blocks of a {self.original_size}-byte program",
            category=CATEGORY_BOUNDS,
        )

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.algorithm}: {self.original_size} -> {self.total_bytes} bytes "
            f"(payload {self.payload_bytes}, model {self.model_bytes}, "
            f"LAT {self.lat.storage_bytes}), ratio {self.compression_ratio:.3f}"
        )


def original_block_count(original_size: int, block_size: int) -> int:
    """Number of cache blocks a program of ``original_size`` occupies."""
    if block_size <= 0:
        raise ValueError("block size must be positive")
    return (original_size + block_size - 1) // block_size


def split_blocks(code: bytes, block_size: int) -> List[bytes]:  # repro: noqa dual-path-drift (block slicing utility, not a batch codec entry)
    """Slice a code image into cache blocks (last may be short)."""
    if block_size <= 0:
        raise ValueError("block size must be positive")
    return [code[i : i + block_size] for i in range(0, len(code), block_size)]
