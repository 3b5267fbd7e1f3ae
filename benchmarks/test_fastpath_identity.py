"""Kernel/oracle output identity over the benchmark workloads.

The fastpath kernels must give the reference coders' bytes
(``tests/oracles.py``) on the programs the throughput groups time, not
only on the small test inputs: ijpeg at scale 0.5 (MIPS and x86, the
``throughput-compress``/``throughput-decompress`` image), ijpeg at
bench scale (the ``throughput-batch`` image), and the pipeline sweep's
LZW jobs.  Every assertion compares *coded bytes*, never timings, so
the file stays deterministic on any runner.
"""

from __future__ import annotations

import pytest

from repro.baselines.byte_huffman import ByteHuffmanCodec
from repro.baselines.gzipish import gzipish_compress, gzipish_decompress
from repro.baselines.lzss import tokenize
from repro.baselines.lzw import lzw_compress, lzw_decompress
from repro.core.samc import SamcCodec
from repro.workloads.suite import generate_benchmark
from tests import oracles


@pytest.fixture(scope="module")
def code() -> bytes:
    return generate_benchmark("ijpeg", "mips", scale=0.5, seed=1).code


@pytest.fixture(scope="module")
def x86_code() -> bytes:
    return generate_benchmark("ijpeg", "x86", scale=0.5, seed=1).code


def _samc_identity(codec, code):
    """The codec's image equals the reference coder's, and both decode."""
    image = codec.compress(code)
    model, blocks = oracles.samc_compress(codec, code)
    assert image.blocks == blocks
    assert oracles.samc_decompress(codec, model, blocks, len(code)) == code
    assert codec.decompress(image) == code


def test_samc_mips_identity(code):
    _samc_identity(SamcCodec.for_mips(), code)


def test_samc_bytes_identity(x86_code):
    _samc_identity(SamcCodec.for_bytes(), x86_code)


def test_samc_decode_identity(code):
    codec = SamcCodec.for_mips()
    image = codec.compress(code)
    indices = range(image.block_count())
    reference = [oracles.samc_decompress_block(codec, image, i) for i in indices]
    assert [codec.decompress_block(image, i) for i in indices] == reference
    assert b"".join(reference) == code


def test_samc_batch_decode_identity(monkeypatch, code):
    """The full-image batch decode equals the reference decoder, with
    the vector threshold forced down so the lockstep kernel itself
    runs, not the small-batch scalar fallback."""
    codec = SamcCodec.for_mips()
    image = codec.compress(code)
    monkeypatch.setenv("REPRO_BATCH_MIN", "1")
    indices = range(image.block_count())
    reference = [oracles.samc_decompress_block(codec, image, i) for i in indices]
    assert codec.decompress_blocks(image, indices) == reference


def test_byte_huffman_batch_decode_identity(code):
    """The lockstep batch decode equals the per-block decoder."""
    codec = ByteHuffmanCodec()
    image = codec.compress(code)
    indices = range(image.block_count())
    perblock = [codec.decompress_block(image, i) for i in indices]
    assert codec.decompress_blocks(image, indices) == perblock
    assert b"".join(perblock) == code


def test_samc_batch_encode_identity(monkeypatch, code):
    """Vectorised batch encode emits the scalar encoder's exact blocks."""
    image = SamcCodec.for_mips().compress(code)
    model = image.metadata["model"]
    monkeypatch.setenv("REPRO_BATCH_MIN", "1")
    vec = SamcCodec.for_mips().compress_with_model(code, model)
    assert vec.blocks == image.blocks


def test_samc_bench_scale_identity(mips_suite):
    """The ``throughput-batch`` image: encode and every block's decode."""
    _samc_identity(SamcCodec.for_mips(), mips_suite["ijpeg"])


def test_lzss_tokenize_identity(code):
    assert tokenize(code) == oracles._tokenize_reference(code)


def test_lzw_identity(code):
    payload = lzw_compress(code)
    assert payload == oracles._lzw_compress_reference(code)
    assert lzw_decompress(payload) == code


@pytest.mark.parametrize("name", ["compress", "xlisp"])
def test_pipeline_lzw_identity(name):
    """The programs ``throughput-pipeline`` compresses with LZW."""
    program = generate_benchmark(name, "mips", scale=0.2, seed=1).code
    assert lzw_compress(program) == oracles._lzw_compress_reference(program)


def test_gzipish_identity(code):
    """gzip codes the parse :func:`test_lzss_tokenize_identity` pins to
    the reference parse; its output round-trips."""
    assert gzipish_decompress(gzipish_compress(code)) == code
