"""The complete decompress-on-miss memory system (Figure 1).

Ties together the I-cache, the CLB, and the refill engine, and runs an
instruction-fetch trace through them.  Comparing a compressed system's
cycle count against an uncompressed one quantifies the paper's central
architecture trade: memory savings vs. refill-time slowdown, governed by
the I-cache hit ratio.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence

from repro.core.lat import CompressedImage
from repro.memory.cache import CacheStats, InstructionCache
from repro.memory.clb import CLB, CLBStats
from repro.memory.refill import RefillEngine, RefillTiming
from repro.obs import get_recorder


@dataclass
class SimulationResult:
    """Outcome of one trace simulation."""

    algorithm: str
    cycles: int
    fetches: int
    cache: CacheStats
    clb: Optional[CLBStats]

    @property
    def cycles_per_fetch(self) -> float:
        if self.fetches == 0:
            return 0.0
        return self.cycles / self.fetches

    def slowdown_vs(self, baseline: "SimulationResult") -> float:
        """Cycle ratio against another run of the same trace."""
        if baseline.cycles == 0:
            return 1.0
        return self.cycles / baseline.cycles


class CompressedMemorySystem:
    """An I-cache + CLB + refill engine serving one program image.

    Pass ``image=None`` for the uncompressed baseline system (no CLB, no
    decompressor, full-size refills).
    """

    def __init__(
        self,
        code_size: int,
        image: Optional[CompressedImage] = None,
        cache_size: int = 4096,
        block_size: int = 32,
        associativity: int = 2,
        timing: RefillTiming = RefillTiming(),
        clb_entries: int = 16,
    ) -> None:
        if image is not None and image.block_size != block_size:
            raise ValueError(
                f"image block size {image.block_size} != cache block {block_size}"
            )
        self.code_size = code_size
        self.image = image
        self.cache = InstructionCache(cache_size, block_size, associativity)
        self.block_size = block_size
        algorithm = image.algorithm if image is not None else "uncompressed"
        self.engine = RefillEngine(algorithm, timing)
        self.clb = (
            CLB(clb_entries, image.compact_lat.group_size)
            if image is not None
            else None
        )

    def run(self, trace: Iterable[int]) -> SimulationResult:
        """Simulate a fetch trace; each hit costs 1 cycle.

        With telemetry on, the run is a ``memory.run`` span, each refill
        stall is observed in ``memory.refill_stall_cycles``, and the
        run's share of the cache and CLB stats is counted.
        """
        rec = get_recorder()
        image, clb = self.image, self.clb
        cache_before = replace(self.cache.stats)
        clb_before = replace(clb.stats) if clb is not None else CLBStats()
        # The uncompressed system refills a full block, never via a CLB.
        full_refill = self.engine.refill_cycles(
            self.block_size, self.block_size, True
        )
        cycles = 0
        fetches = 0
        with rec.span("memory.run", algorithm=self.engine.algorithm):
            for address in trace:
                fetches += 1
                if self.cache.access(address):
                    cycles += 1
                    continue
                if image is None or clb is None:
                    refill = full_refill
                else:
                    block_index = self.cache.block_index(address)
                    refill = self.engine.refill_cycles(
                        len(image.blocks[block_index]),
                        image.original_block_size(block_index),
                        clb.lookup(block_index),
                    )
                if rec.enabled:
                    rec.observe("memory.refill_stall_cycles", refill)
                cycles += 1 + refill
        if rec.enabled:
            prefix = f"memory.{self.engine.algorithm}"
            cache = self.cache.stats
            rec.count(f"{prefix}.fetches", fetches)
            rec.count(f"{prefix}.cache_hits", cache.hits - cache_before.hits)
            rec.count(f"{prefix}.cache_misses",
                      cache.misses - cache_before.misses)
            rec.count(f"{prefix}.refill_stall_cycles", cycles - fetches)
            if clb is not None:
                hits = clb.stats.hits - clb_before.hits
                rec.count(f"{prefix}.clb_hits", hits)
                rec.count(f"{prefix}.clb_misses",
                          clb.stats.lookups - clb_before.lookups - hits)
        return SimulationResult(
            algorithm=self.engine.algorithm,
            cycles=cycles,
            fetches=fetches,
            cache=self.cache.stats,
            clb=clb.stats if clb is not None else None,
        )


def simulate(
    code_size: int,
    trace: Sequence[int],
    image: Optional[CompressedImage] = None,
    **kwargs,
) -> SimulationResult:
    """One-call simulation of a trace against an (optional) image."""
    system = CompressedMemorySystem(code_size, image=image, **kwargs)
    return system.run(trace)
