"""Integration tests for the decompress-on-miss memory system."""

from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.samc import SamcCodec
from repro.memory.system import CompressedMemorySystem
from repro.memory.trace import generate_trace
from repro.obs import obs_session
from repro.workloads.suite import generate_benchmark
from tests.oracles import trace_walk


@pytest.fixture(scope="module")
def samc_image(mips_program):
    return SamcCodec.for_mips().compress(mips_program)


@pytest.fixture(scope="module")
def short_trace(mips_program):
    return list(generate_trace(len(mips_program), length=20_000, seed=1))


class TestTrace:
    def test_addresses_in_range(self, mips_program, short_trace):
        assert all(0 <= a < len(mips_program) for a in short_trace)

    def test_word_aligned(self, short_trace):
        assert all(a % 4 == 0 for a in short_trace)

    def test_deterministic(self, mips_program):
        a = list(generate_trace(len(mips_program), 1000, seed=5))
        b = list(generate_trace(len(mips_program), 1000, seed=5))
        assert a == b

    def test_length_exact(self, mips_program):
        assert len(list(generate_trace(len(mips_program), 1234))) == 1234

    def test_locality_tunable(self, mips_program):
        tight = list(generate_trace(len(mips_program), 20_000, seed=2,
                                    mean_loop_bytes=64, mean_iterations=64))
        loose = list(generate_trace(len(mips_program), 20_000, seed=2,
                                    mean_loop_bytes=2048, mean_iterations=2))
        from repro.memory.cache import InstructionCache

        def hit_ratio(trace):
            cache = InstructionCache(1024, 32, 2)
            for address in trace:
                cache.access(address)
            return cache.stats.hit_ratio

        assert hit_ratio(tight) > hit_ratio(loose)

    def test_tiny_program_rejected(self):
        with pytest.raises(ValueError):
            list(generate_trace(4, 10))
        with pytest.raises(ValueError):  # one byte short of two words
            generate_trace(7, 10)

    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(st.integers(8, 64), st.integers(8, 100_000)),
        st.integers(0, 3000),
        st.integers(0, 2**32 - 1),
        st.sampled_from([8, 64, 256, 1024, 1 << 20]),
        st.sampled_from([1, 3, 24]),
    )
    def test_matches_the_address_walk(self, size, length, seed, loop, iterations):
        """The trace is the reference walk's, address for address, as
        one ``array('I')``: loops larger than the program, traces cut
        mid-iteration and empty traces included."""
        trace = generate_trace(size, length, seed, loop, iterations)
        assert isinstance(trace, array) and trace.typecode == "I"
        assert trace.tolist() == list(
            trace_walk(size, length, seed, loop, iterations)
        )


class TestSystem:
    def test_uncompressed_baseline(self, mips_program, short_trace):
        system = CompressedMemorySystem(len(mips_program))
        result = system.run(short_trace)
        assert result.algorithm == "uncompressed"
        assert result.clb is None
        assert result.fetches == len(short_trace)
        assert result.cycles >= result.fetches

    def test_compressed_slower_than_uncompressed(
        self, mips_program, samc_image, short_trace
    ):
        base = CompressedMemorySystem(len(mips_program)).run(short_trace)
        comp = CompressedMemorySystem(
            len(mips_program), image=samc_image
        ).run(short_trace)
        assert comp.cycles >= base.cycles
        assert comp.slowdown_vs(base) >= 1.0

    def test_slowdown_shrinks_with_bigger_cache(
        self, mips_program, samc_image, short_trace
    ):
        def slowdown(cache_size):
            base = CompressedMemorySystem(
                len(mips_program), cache_size=cache_size
            ).run(short_trace)
            comp = CompressedMemorySystem(
                len(mips_program), image=samc_image, cache_size=cache_size
            ).run(short_trace)
            return comp.slowdown_vs(base)

        assert slowdown(8192) <= slowdown(512) + 1e-9

    def test_clb_stats_collected(self, mips_program, samc_image, short_trace):
        system = CompressedMemorySystem(len(mips_program), image=samc_image)
        result = system.run(short_trace)
        assert result.clb is not None
        assert result.clb.lookups == result.cache.misses

    def test_block_size_mismatch_rejected(self, mips_program, samc_image):
        with pytest.raises(ValueError):
            CompressedMemorySystem(
                len(mips_program), image=samc_image, block_size=64
            )

    def test_cycles_per_fetch(self, mips_program, short_trace):
        result = CompressedMemorySystem(len(mips_program)).run(short_trace)
        assert result.cycles_per_fetch == result.cycles / result.fetches

    def test_empty_trace(self, mips_program):
        result = CompressedMemorySystem(len(mips_program)).run([])
        assert result.cycles == 0
        assert result.cycles_per_fetch == 0.0


#: algorithm -> (cycles of the two runs, counters, stall histogram) for
#: ``mgrid`` at scale 0.05, seed 3 (764 bytes: the last block is 28
#: bytes), a 256-byte cache, and trace seed 3, which fetches that short
#: block.  The same system runs the first 1000 fetches and then the
#: rest, so the counters must be per-run amounts, not running totals.
PINNED_MEMORY_TELEMETRY = {
    "SAMC": (
        (13747, 28181),
        {"memory.SAMC.fetches": 3000, "memory.SAMC.cache_hits": 2607,
         "memory.SAMC.cache_misses": 393,
         "memory.SAMC.refill_stall_cycles": 38928,
         "memory.SAMC.clb_hits": 390, "memory.SAMC.clb_misses": 3},
        {"buckets": {8: 3, 7: 390}, "count": 393, "total": 38928,
         "overflow": 0, "underflow": 0},
    ),
    "uncompressed": (
        (5992, 12335),
        {"memory.uncompressed.fetches": 3000,
         "memory.uncompressed.cache_hits": 2607,
         "memory.uncompressed.cache_misses": 393,
         "memory.uncompressed.refill_stall_cycles": 15327},
        {"buckets": {6: 393}, "count": 393, "total": 15327,
         "overflow": 0, "underflow": 0},
    ),
}


@pytest.mark.parametrize("algorithm", sorted(PINNED_MEMORY_TELEMETRY))
def test_pinned_run_telemetry(algorithm):
    """Counters, the refill-stall histogram and the span, per run."""
    code = generate_benchmark("mgrid", "mips", scale=0.05, seed=3).code
    image = SamcCodec.for_mips().compress(code) if algorithm == "SAMC" else None
    trace = list(generate_trace(len(code), length=3000, seed=3))
    system = CompressedMemorySystem(len(code), image=image, cache_size=256)
    with obs_session() as rec:
        cycles = (system.run(trace[:1000]).cycles,
                  system.run(trace[1000:]).cycles)
        snapshot = rec.snapshot()
    assert (cycles, snapshot["counters"],
            snapshot["histograms"]["memory.refill_stall_cycles"]) == (
        PINNED_MEMORY_TELEMETRY[algorithm]
    )
    assert {path: cell["count"] for path, cell in snapshot["spans"].items()} \
        == {f"memory.run{{algorithm={algorithm}}}": 2}
    plain = CompressedMemorySystem(len(code), image=image, cache_size=256)
    assert plain.run(trace).cycles == sum(cycles)
