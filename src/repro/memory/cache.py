"""Set-associative instruction cache with LRU replacement.

In the paper's memory organisation (Figure 1) the I-cache doubles as the
*decompression buffer*: it holds recently used blocks in uncompressed
form, and only a miss invokes the decompression engine.  The simulator
therefore only needs hit/miss behaviour, not data storage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional


@dataclass
class CacheStats:
    """Access counters for one simulation run."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0

    @property
    def hit_ratio(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses

    @property
    def miss_ratio(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses


class InstructionCache:
    """A set-associative cache indexed by byte address.

    Parameters use the usual triple: total ``size_bytes``, ``block_size``
    (the paper's experiments fix 32 bytes), and ``associativity``.

    The cache remembers the block of its last access.  Whether that
    access hit or filled, it left the block's tag most recently used in
    its set, and only a later access, :meth:`invalidate` or :meth:`flush`
    can move it.  So an access to the same block again is a hit that
    leaves the LRU order as it is, and is counted without a tag search
    (DESIGN.md, "Decompress on miss: the fetch port").
    """

    def __init__(
        self,
        size_bytes: int = 4096,
        block_size: int = 32,
        associativity: int = 2,
    ) -> None:
        if size_bytes % (block_size * associativity) != 0:
            raise ValueError(
                "cache size must be a multiple of block_size * associativity"
            )
        self.block_size = block_size
        self.associativity = associativity
        self.n_sets = size_bytes // (block_size * associativity)
        #: Each set's tags, most recently used last.
        self._sets: List[List[int]] = [[] for _ in range(self.n_sets)]
        #: Block of the last access, or None after a flush or invalidate.
        self._last: Optional[int] = None
        self.stats = CacheStats()

    def _locate(self, address: int) -> tuple:
        block = address // self.block_size
        return block % self.n_sets, block // self.n_sets

    def access(self, address: int) -> bool:
        """Touch ``address``; returns True on hit, False on miss (fills)."""
        stats = self.stats
        stats.accesses += 1
        block = address // self.block_size
        if block == self._last:
            stats.hits += 1
            return True
        self._last = block
        ways = self._sets[block % self.n_sets]
        tag = block // self.n_sets
        if tag in ways:
            ways.remove(tag)
            ways.append(tag)
            stats.hits += 1
            return True
        stats.misses += 1
        ways.append(tag)
        if len(ways) > self.associativity:
            ways.pop(0)
        return False

    def contains(self, address: int) -> bool:
        """Non-mutating lookup (no stats, no LRU update)."""
        set_index, tag = self._locate(address)
        return tag in self._sets[set_index]

    def invalidate(self, address: int) -> None:
        """Drop the line holding ``address``, if any (stats are kept)."""
        set_index, tag = self._locate(address)
        ways = self._sets[set_index]
        if tag in ways:
            ways.remove(tag)
        self._last = None

    def flush(self) -> None:
        """Invalidate all lines (stats are kept)."""
        for ways in self._sets:
            ways.clear()
        self._last = None

    def block_index(self, address: int) -> int:
        """Program block number an address falls in."""
        return address // self.block_size
