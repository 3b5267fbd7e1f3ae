"""Batch codec engine throughput (pytest-benchmark group ``throughput-batch``).

The tentpole numbers for the vectorised batch engine: decoding every
block of a program as *one* ``decompress_blocks`` call versus the
per-block refill loop, for SAMC (the lockstep range decoder) and
byte-Huffman (the lockstep decoder over every window of the code's
decode table), plus the vectorised SAMC batch encoder.  The paired
``*_perblock`` / ``*_batch`` benchmarks share one image, so their
ns/byte ratio is the batch speedup on this machine.

The comparison gate lives in CI: a timed run of this file followed by
``python -m repro bench-diff --group throughput-batch`` against the
committed ``BENCH_baseline.json``, and, in the same run, the in-process
speedup floors below.
"""

import os

import pytest

from repro.baselines.byte_huffman import ByteHuffmanCodec
from repro.core.samc import SamcCodec

pytestmark = pytest.mark.benchmark(group="throughput-batch")


@pytest.fixture(scope="module")
def code(mips_suite) -> bytes:
    # ~35 KB at the default bench scale: ~1100 cache blocks, far past
    # the vector dispatch threshold.
    return mips_suite["ijpeg"]


@pytest.fixture(scope="module")
def samc_image(code):
    codec = SamcCodec.for_mips()
    return codec, codec.compress(code)


@pytest.fixture(scope="module")
def huffman_image(code):
    codec = ByteHuffmanCodec()
    return codec, codec.compress(code)


def test_samc_decode_perblock(benchmark, samc_image, code):
    codec, image = samc_image
    indices = range(image.block_count())

    def perblock():
        return [codec.decompress_block(image, i) for i in indices]

    benchmark.extra_info["bytes"] = len(code)
    blocks = benchmark(perblock)
    assert b"".join(blocks) == code


def test_samc_decode_batch(benchmark, samc_image, code):
    codec, image = samc_image
    indices = range(image.block_count())

    def batch():
        return codec.decompress_blocks(image, indices)

    benchmark.extra_info["bytes"] = len(code)
    blocks = benchmark(batch)
    assert b"".join(blocks) == code


def test_samc_encode_batch(benchmark, samc_image, code):
    codec, image = samc_image

    def encode():
        return codec.compress_with_model(code, image.metadata["model"])

    benchmark.extra_info["bytes"] = len(code)
    out = benchmark(encode)
    assert out.blocks == image.blocks


def test_byte_huffman_decode_perblock(benchmark, huffman_image, code):
    codec, image = huffman_image
    indices = range(image.block_count())

    def perblock():
        return [codec.decompress_block(image, i) for i in indices]

    benchmark.extra_info["bytes"] = len(code)
    blocks = benchmark(perblock)
    assert b"".join(blocks) == code


def test_byte_huffman_decode_batch(benchmark, huffman_image, code):
    codec, image = huffman_image
    indices = range(image.block_count())

    def batch():
        return codec.decompress_blocks(image, indices)

    benchmark.extra_info["bytes"] = len(code)
    blocks = benchmark(batch)
    assert b"".join(blocks) == code


def test_batch_speedup_target(samc_image, code):
    """The acceptance floor, asserted outside the timing harness: the
    batch path must beat the per-block fastpath by >= 3x on a full-image
    batch.  Guarded by REPRO_BENCH_ASSERT_SPEEDUP so plain test runs
    (shared CI boxes, --benchmark-disable smoke) don't flake on load;
    the benchmarks CI job sets it."""
    assert _batch_speedup("samc", *samc_image) >= 3.0


def test_byte_huffman_batch_speedup_floor(huffman_image, code):
    """The byte-Huffman kernel's floor, under the same guard: >= 1.5x
    its per-block loop on the same image.  ``bench-diff``'s threshold
    over the committed baseline would still pass with the kernel
    falling back to that loop on every batch; this does not."""
    assert _batch_speedup("byte-huffman", *huffman_image) >= 1.5


#: Timed runs per side; the floors compare the best of each.
SPEEDUP_ROUNDS = 7


def _batch_speedup(name, codec, image) -> float:
    """The best of ``SPEEDUP_ROUNDS`` per-block loops over the best of as
    many batch decodes of every block of ``image``, timed in thread CPU
    time so that time the host steals from the test does not count;
    skips unless REPRO_BENCH_ASSERT_SPEEDUP is set."""
    if not os.environ.get("REPRO_BENCH_ASSERT_SPEEDUP"):
        pytest.skip("set REPRO_BENCH_ASSERT_SPEEDUP=1 to assert the floor")
    indices = range(image.block_count())
    best_loop = min(
        _timed(lambda: [codec.decompress_block(image, i) for i in indices])
        for _ in range(SPEEDUP_ROUNDS)
    )
    best_batch = min(
        _timed(lambda: codec.decompress_blocks(image, indices))
        for _ in range(SPEEDUP_ROUNDS)
    )
    speedup = best_loop / best_batch
    print(f"\n{name} batch decode speedup: {speedup:.2f}x "
          f"({best_loop * 1e3:.1f} ms -> {best_batch * 1e3:.1f} ms, "
          f"{image.block_count()} blocks)")
    return speedup


def _timed(fn) -> float:
    """Thread CPU seconds that one call of ``fn`` takes."""
    import time

    start = time.thread_time()
    fn()
    return time.thread_time() - start
