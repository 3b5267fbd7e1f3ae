"""The cache refill engine: timing model for decompress-on-miss.

A miss in the Wolfe/Chanin organisation costs, in order:

1. a CLB lookup — a miss adds a main-memory access for the LAT entry;
2. reading the compressed line from main memory (fewer bus beats than an
   uncompressed line: compression *helps* refill bandwidth);
3. running the line through the decompressor.

Per-algorithm decompression throughputs follow the paper's hardware
sketches: the SAMC decoder produces 4 bits per cycle (15 parallel
midpoint units, Section 3); the SADC decoder emits roughly one
instruction every two cycles (dictionary lookup + instruction
generation, Figure 6); byte-Huffman decodes a byte per cycle; an
uncompressed system has no decompression stage at all.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Decompressor throughput models: decompressed-bits per cycle.
DECOMPRESS_BITS_PER_CYCLE = {
    "uncompressed": float("inf"),
    "SAMC": 4.0,
    "SADC": 16.0,  # ~one 32-bit instruction per 2 cycles
    "byte-huffman": 8.0,
    # Byte-Huffman's decoder class and timing, one table per byte position.
    "positional-huffman": 8.0,
}


@dataclass(frozen=True)
class RefillTiming:
    """Main-memory and bus parameters (cycles)."""

    memory_latency: int = 30  # first-word access
    bus_bytes_per_cycle: int = 4
    clb_lookup: int = 1

    def transfer_cycles(self, nbytes: int) -> int:
        """Burst-transfer time for ``nbytes`` from main memory."""
        return (nbytes + self.bus_bytes_per_cycle - 1) // self.bus_bytes_per_cycle


class RefillEngine:
    """Computes the miss penalty for one block refill."""

    def __init__(
        self,
        algorithm: str = "uncompressed",
        timing: RefillTiming = RefillTiming(),
    ) -> None:
        if algorithm not in DECOMPRESS_BITS_PER_CYCLE:
            raise ValueError(
                f"unknown algorithm {algorithm!r}; choose from "
                f"{sorted(DECOMPRESS_BITS_PER_CYCLE)}"
            )
        self.algorithm = algorithm
        self.timing = timing

    def decompression_cycles(self, decompressed_bytes: int) -> int:
        """Cycles the decompressor needs for one block."""
        throughput = DECOMPRESS_BITS_PER_CYCLE[self.algorithm]
        if throughput == float("inf"):
            return 0
        return int(-(-8 * decompressed_bytes // throughput))  # ceil

    def refill_cycles(
        self,
        compressed_bytes: int,
        decompressed_bytes: int,
        clb_hit: bool = True,
    ) -> int:
        """Total miss penalty for one block."""
        cycles = self.timing.clb_lookup
        if not clb_hit:
            cycles += self.timing.memory_latency  # fetch the LAT entry
        cycles += self.timing.memory_latency
        cycles += self.timing.transfer_cycles(compressed_bytes)
        cycles += self.decompression_cycles(decompressed_bytes)
        return cycles
