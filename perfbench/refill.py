"""The ``refill`` workload: decompress-on-miss through ``CompressedFetchPort``.

A seeded, branchy fetch trace replays against a SAMC image of ``gcc``
at scale 2.0 (about 72 KB, 2,250 blocks) behind a 1 KB two-way I-cache
with the default refill burst of one block.  Loops average 1 KB with
about three iterations, so the loop body (1 KB) just fits the cache
while a loop's neighbours do not: roughly one fetch in ten misses, and
every miss decodes one block with the fused scalar SAMC kernel.  The
service, serialize, training and the batch kernel are all bypassed.

The program is the same for every seed (program seed 0) and the seed
draws the trace: block decode cost depends on the program, so a seeded
program would move the figures between seeds for reasons no change to
the code caused.

The trace is generated once per set-up.  The port is warmed up with the
end of the trace, so that every pass starts from the cache state every
pass ends in, and the trace is replayed pass after pass until the time
is up.  The passes are identical work that misses on the same fetches
(found beforehand by replaying the cache model alone, and checked
through the port's counters).  Fetched words are recorded and compared
with the raw program after the timed loop.

Times are CPU time rescaled to the reference host's speed (README.md,
"Host speed"): the reference loop runs before every chunk of ``CHUNK``
fetches, and the chunk and its misses are rescaled by the mean of the
loops before and after it.  Each chunk and each miss is charged its
median over the passes.
"""

from __future__ import annotations

import time
from array import array
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np

from common import (
    Outcome, host_scaled, median, quantile, reference_ns, timed_on_host,
)

from repro.core.samc import SamcCodec
from repro.memory.cache import InstructionCache
from repro.memory.fetchsim import CompressedFetchPort
from repro.memory.trace import generate_trace
from repro.workloads.suite import generate_benchmark

BENCHMARK = "gcc"
SCALE = 2.0
#: Program seed: fixed, so only the trace varies with the seed.
PROGRAM_SEED = 0
CACHE_BYTES = 1024
MEAN_LOOP_BYTES = 1024
MEAN_ITERATIONS = 3
#: Fetches per trace pass: about 260 loops, enough that the miss ratio
#: varies between seeds by a few percent (quartile distance 3.5% over
#: 20 seeds at 400,000 fetches, 7% at 200,000, 11% at 100,000).  One
#: pass takes about 4 s on the reference host, so a 30 s run makes
#: about seven passes.
TRACE_LENGTH = 200_000
#: Fetches per timing chunk (about 35 ms); the reference loop (about
#: 3 ms) runs between chunks.
CHUNK = 2000
#: Fetches from the end of the trace replayed before the first pass, so
#: the first pass starts from the cache state every pass ends in.
WARMUP_FETCHES = 8192
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5


def set_up(seed: int):
    """Program, image and trace; returns them with the generation time."""
    started = time.perf_counter()
    code = generate_benchmark(BENCHMARK, "mips", SCALE, PROGRAM_SEED).code
    generate_s = time.perf_counter() - started
    image = SamcCodec.for_mips().compress(code)
    trace = array("I", generate_trace(
        len(code), TRACE_LENGTH, seed, MEAN_LOOP_BYTES, MEAN_ITERATIONS
    ))
    return code, image, trace, generate_s


def block_decoder(image) -> Tuple[Callable, List[int]]:
    """A timed stand-in for the port's default single-block decoder.

    Builds the same :class:`SamcCodec` the port would and records the
    CPU nanoseconds of every ``decompress_block`` call.
    """
    codec = SamcCodec(
        word_bits=image.metadata["word_bits"],
        streams=[spec.positions for spec in image.metadata["streams"]],
        connect_bits=image.metadata["connect_bits"],
        block_size=image.block_size,
        probability_mode=image.metadata["probability_mode"],
    )
    samples: List[int] = []

    def decode(image_, index):
        started = time.thread_time_ns()
        line = codec.decompress_block(image_, index)
        samples.append(time.thread_time_ns() - started)
        return line

    return decode, samples


def _counters(port) -> Dict[str, int]:
    return {
        "cycles": port.cycles,
        "refills": port.refills,
        "cache_misses": port.cache.stats.misses,
        "clb_lookups": port.clb.stats.lookups,
        "clb_hits": port.clb.stats.hits,
    }


def miss_positions(trace, block_size: int, associativity: int) -> array:
    """Positions in the trace of the fetches that miss, in every pass.

    Replays the cache model alone: the warm-up, then the trace twice.
    Both passes must miss on the same fetches, or the warm-up did not
    bring the cache to the state every pass ends in.
    """
    cache = InstructionCache(CACHE_BYTES, block_size, associativity)
    for address in trace[-WARMUP_FETCHES:]:
        cache.access(address)
    found = [
        array("I", (i for i, a in enumerate(trace) if not cache.access(a)))
        for _ in range(2)
    ]
    if found[0] != found[1]:
        raise RuntimeError("the warm-up does not reach the trace's steady state")
    return found[0]


def _chunks(trace, positions) -> List[Tuple[int, int, array]]:
    """``(start, end, miss positions in it)`` for every ``CHUNK`` fetches."""
    cuts = np.searchsorted(np.frombuffer(positions, np.uint32),
                           np.arange(0, len(trace) + CHUNK, CHUNK))
    return [
        (start, min(start + CHUNK, len(trace)), positions[cuts[k]:cuts[k + 1]])
        for k, start in enumerate(range(0, len(trace), CHUNK))
    ]


def _timed_pass(port, trace, chunks, words) -> Tuple[array, array, array]:
    """Fetch the trace once.

    Returns the CPU ns of every miss and of every chunk, and of the
    reference loop before every chunk and after the last one.
    """
    fetch = port.fetch
    cpu = time.thread_time_ns
    misses, chunk_ns, references = array("q"), array("q"), array("q")
    for start, end, positions in chunks:
        references.append(reference_ns())
        chunk_started = cpu()
        for position in positions:
            for address in trace[start:position]:
                words.append(fetch(address))
            before = cpu()
            words.append(fetch(trace[position]))
            misses.append(cpu() - before)
            start = position + 1
        for address in trace[start:end]:
            words.append(fetch(address))
        chunk_ns.append(cpu() - chunk_started)
    references.append(reference_ns())
    return misses, chunk_ns, references


def replay(port, trace, positions, seconds: float) -> List[Dict[str, object]]:
    """Fetch the trace pass after pass until ``seconds`` have passed.

    Every pass is timed and there are at least two.  Returns one record
    per pass: its fetched words, the rescaled CPU ns of every miss and
    of every chunk, its fetch CPU seconds and wall seconds, and the
    change in the port's counters over it.
    """
    chunks = _chunks(trace, positions)
    chunk_of_miss = np.repeat(np.arange(len(chunks)),
                              [len(c[2]) for c in chunks])
    passes: List[Dict[str, object]] = []
    started = time.perf_counter()
    while len(passes) < 2 or time.perf_counter() - started < seconds:
        words = array("I")
        before_pass = _counters(port)
        wall_started = time.perf_counter()
        misses, chunk_ns, references = _timed_pass(port, trace, chunks, words)
        wall_s = time.perf_counter() - wall_started
        after_pass = _counters(port)
        ref = np.frombuffer(references, np.int64).astype(float)
        around = (ref[:-1] + ref[1:]) / 2
        passes.append({
            "words": words,
            "misses": host_scaled(np.frombuffer(misses, np.int64),
                                  around[chunk_of_miss]),
            "chunks": host_scaled(np.frombuffer(chunk_ns, np.int64), around),
            "fetch_cpu_s": sum(chunk_ns) / 1e9,
            "wall_s": wall_s,
            "reference_ms": float(np.median(ref)) / 1e6,
            **{k: after_pass[k] - before_pass[k] for k in after_pass},
        })
    return passes


def check(code: bytes, trace, words) -> int:
    """Fetched words that differ from the raw program's (big-endian)."""
    program = np.frombuffer(code, dtype=">u4").astype(np.uint32)
    expected = program[np.frombuffer(trace, dtype=np.uint32) // 4]
    return int(np.count_nonzero(expected != np.frombuffer(words, np.uint32)))


def run(root: Path, seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    setups = [timed_on_host(lambda: set_up(seed)) for _ in range(SETUPS)]
    code, image, fetch_trace, _ = setups[-1][0]
    if trace:
        decode, decode_ns = block_decoder(image)
        port = CompressedFetchPort(
            image, cache_size=CACHE_BYTES, decompress_block=decode
        )
    else:
        port = CompressedFetchPort(image, cache_size=CACHE_BYTES)
    positions = miss_positions(
        fetch_trace, image.block_size, port.cache.associativity
    )
    warmup = fetch_trace[-WARMUP_FETCHES:]
    wrong = check(code, warmup, array("I", map(port.fetch, warmup)))
    if trace:
        decode_ns.clear()
    passes = replay(port, fetch_trace, positions, seconds)
    wrong += sum(check(code, fetch_trace, p["words"]) for p in passes)
    if any(
        (p["cycles"], p["refills"]) != (passes[0]["cycles"], len(positions))
        for p in passes
    ):
        outcome.invalid.append("refill passes did not repeat the same misses")
        return outcome
    miss_ms = (np.median([p["misses"] for p in passes], axis=0) / 1e6).tolist()
    chunk_ns = np.median([p["chunks"] for p in passes], axis=0)
    one = passes[0]
    fetches = len(fetch_trace)
    outcome.attempted = (len(passes) * fetches) + len(warmup)
    outcome.failed = wrong
    outcome.corpus = [code]
    outcome.metrics.update({
        "setup_s": median([elapsed for _, elapsed in setups]),
        "p50_ms": quantile(miss_ms, 0.5),
        "p99_ms": quantile(miss_ms, 0.99),
        "ops_s": fetches / (float(chunk_ns.sum()) / 1e9),
        "ratio": image.compression_ratio,
    })
    outcome.layers.update({
        "memory.miss_ratio": one["cache_misses"] / fetches,
        "memory.clb_hit_ratio": one["clb_hits"] / one["clb_lookups"],
        "memory.cycles_per_fetch": one["cycles"] / fetches,
        "workloads.generate_s": median([s[0][3] for s in setups]),
    })
    if trace:
        fetch_ns = sum(p["fetch_cpu_s"] for p in passes) * 1e9
        decode_total = sum(decode_ns)
        outcome.layers.update({
            "memory.decode_share": decode_total / fetch_ns,
            "memory.model.ns_per_fetch":
                (fetch_ns - decode_total) / (len(passes) * fetches),
            "samc.decode_block.p50_us": quantile(decode_ns, 0.5) / 1e3,
            "samc.decode_block.p99_us": quantile(decode_ns, 0.99) / 1e3,
        })
    outcome.detail.update({
        "program_bytes": len(code),
        "blocks": image.block_count(),
        "passes": len(passes),
        "fetches_per_pass": fetches,
        "misses_per_pass": len(miss_ms),
        "chunks_per_pass": len(chunk_ns),
        "pass_fetch_cpu_s": [p["fetch_cpu_s"] for p in passes],
        "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_reference_ms": [p["reference_ms"] for p in passes],
        "wrong_words": wrong,
        "setup_s_samples": [elapsed for _, elapsed in setups],
    })
    return outcome
