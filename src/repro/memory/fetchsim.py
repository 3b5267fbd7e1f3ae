"""Execution-driven simulation: run a CPU out of compressed memory.

This closes the loop of Figure 1: a :class:`~repro.isa.mips.interp.MipsMachine`
executes a program, but every instruction fetch is served by the
compressed memory system — on an I-cache miss the refill engine locates
the block via the LAT/CLB and *actually decompresses it* with the real
codec, and the fetched word comes out of that decompressed block.  The
program's results are therefore computed through the entire compression
pipeline; a single wrong bit anywhere would corrupt execution.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, Optional

from repro.core import block_codec, decompress_image
from repro.core.lat import CompressedImage
from repro.isa.mips.interp import MipsMachine
from repro.memory.cache import InstructionCache
from repro.memory.clb import CLB
from repro.memory.refill import RefillEngine, RefillTiming
from repro.resilience.errors import CorruptedStreamError

#: One big-endian 32-bit instruction word.
_WORD = struct.Struct(">I")


@dataclass
class ExecutionResult:
    """Outcome of one execution-driven run."""

    instructions: int
    fetch_cycles: int
    hit_ratio: float
    clb_hit_ratio: float
    refills: int

    @property
    def fetch_cycles_per_instruction(self) -> float:
        if self.instructions == 0:
            return 0.0
        return self.fetch_cycles / self.instructions


class CompressedFetchPort:
    """Serves instruction fetches from a compressed image.

    Installed as the machine's fetch hook.  Decompressed blocks are held
    in a dictionary standing in for the I-cache's data array; hit/miss
    and timing behaviour come from the cache/CLB/refill models.  Every
    refill runs the real block decompressor: the image's
    :func:`~repro.core.block_codec`, resolved once per port, unless
    ``decompress_block``/``decompress_blocks`` replace it.  A refill
    whose decode raises leaves no line behind, so every fetch of a
    corrupted block raises the decoder's error and none counts as a hit.

    ``refill_burst`` > 1 decodes the missing block and its ``burst-1``
    successors in one ``decompress_blocks`` call (the batch engine's
    sweet spot) and parks the extras in a prefetch buffer.  The modelled
    machine is unchanged — prefetched lines enter the cache, and are
    charged their refill cycles, only when their own miss arrives — so
    all statistics are burst-invariant; bursting only amortises host-side
    decode cost.
    """

    def __init__(
        self,
        image: CompressedImage,
        cache_size: int = 1024,
        associativity: int = 2,
        timing: RefillTiming = RefillTiming(),
        clb_entries: int = 8,
        decompress_block=None,
        decompress_blocks=None,
        refill_burst: int = 1,
    ) -> None:
        if refill_burst < 1:
            raise ValueError("refill_burst must be >= 1")
        self.image = image
        self.cache = InstructionCache(cache_size, image.block_size, associativity)
        self.clb = CLB(clb_entries, image.compact_lat.group_size)
        self.engine = RefillEngine(image.algorithm, timing)
        self.cycles = 0
        self.refills = 0
        self.refill_burst = refill_burst
        self._lines: Dict[int, bytes] = {}
        #: Blocks decoded ahead of demand by a miss burst.  A prefetched
        #: line is *not* installed in the cache or charged any cycles
        #: until its own miss arrives, so hit/refill/cycle statistics are
        #: identical for every burst size — only the number of codec
        #: invocations changes.
        self._prefetched: Dict[int, bytes] = {}
        if decompress_block is None or decompress_blocks is None:
            codec = block_codec(image)
            decompress_block = decompress_block or codec.decompress_block
            decompress_blocks = decompress_blocks or codec.decompress_blocks
        self._decompress_block = decompress_block
        self._decompress_blocks = decompress_blocks
        #: The highest address :meth:`fetch` accepts.
        self._last_word = image.original_size - 4

    def _decode(self, block_index: int) -> bytes:
        """The decompressed line for a miss on ``block_index``."""
        line = self._prefetched.pop(block_index, None)
        if line is not None:
            return line
        if self.refill_burst == 1:
            return self._decompress_block(self.image, block_index)
        burst = range(
            block_index,
            min(block_index + self.refill_burst, self.image.block_count()),
        )
        try:
            lines = self._decompress_blocks(self.image, burst)
        except CorruptedStreamError:
            # A corrupted block further on must not fail this miss.
            return self._decompress_block(self.image, block_index)
        for ahead, decoded in zip(burst[1:], lines[1:]):
            self._prefetched[ahead] = decoded
        return lines[0]

    def _refill(self, address: int) -> bytes:
        """The miss path of :meth:`fetch` and :meth:`_touch_block`:
        decode the block holding ``address``, install its line and
        charge the refill."""
        block_index = address // self.image.block_size
        clb_hit = self.clb.lookup(block_index)
        try:
            line = self._decode(block_index)
        except BaseException:
            # The miss already placed the tag; without a line behind it
            # the next fetch would hit on nothing.
            self.cache.invalidate(address)
            raise
        self._lines[block_index] = line
        self.refills += 1
        self.cycles += 1 + self.engine.refill_cycles(
            len(self.image.blocks[block_index]), len(line), clb_hit
        )
        return line

    def _touch_block(self, address: int) -> bytes:
        """Access one block through the cache, refilling on a miss."""
        if self.cache.access(address):
            self.cycles += 1
            return self._lines[address // self.image.block_size]
        return self._refill(address)

    def fetch(self, address: int) -> int:
        """Fetch one 32-bit instruction word (big-endian, MIPS).

        ``address`` must be a multiple of 4 whose word lies inside the
        program, or :class:`ValueError` is raised before the cache is
        touched.
        """
        if address & 3 or not 0 <= address <= self._last_word:
            raise ValueError(
                f"fetch address {address} is not a word-aligned address "
                f"inside the {self.image.original_size}-byte program"
            )
        block_size = self.image.block_size
        if self.cache.access(address):
            self.cycles += 1
            line = self._lines[address // block_size]
        else:
            line = self._refill(address)
        return _WORD.unpack_from(line, address % block_size)[0]

    def fetch_bytes(self, address: int, length: int) -> bytes:
        """Fetch ``length`` raw bytes, spanning blocks when needed.

        This is the CISC fetch path: x86 instructions are variable
        length, so the decoder asks for a window that may straddle a
        cache-block boundary (each block touched counts as an access).
        The window is clamped at the end of the program image.
        """
        block_size = self.image.block_size
        end = min(address + length, self.image.original_size)
        out = bytearray()
        position = address
        while position < end:
            line = self._touch_block(position)
            offset = position % block_size
            take = min(block_size - offset, end - position)
            out.extend(line[offset : offset + take])
            position += take
        return bytes(out)


def run_compressed(
    image: CompressedImage,
    machine: Optional[MipsMachine] = None,
    max_instructions: int = 1_000_000,
    **port_kwargs,
) -> ExecutionResult:
    """Run a (pre-loaded, pre-set-up) machine fetching from ``image``.

    The machine's data memory stays its own; only instruction fetches go
    through the compressed system, mirroring the paper's design (data is
    never compressed).
    """
    if machine is None:
        machine = MipsMachine()
        machine.load_code(decompress_image(image))
    port = CompressedFetchPort(image, **port_kwargs)
    machine._fetch_hook = port.fetch
    machine.run(max_instructions=max_instructions)
    return ExecutionResult(
        instructions=machine.instructions_executed,
        fetch_cycles=port.cycles,
        hit_ratio=port.cache.stats.hit_ratio,
        clb_hit_ratio=port.clb.stats.hit_ratio,
        refills=port.refills,
    )
