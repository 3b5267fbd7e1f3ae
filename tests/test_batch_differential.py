"""Differential tests for the batch codec engine.

The batch entry points (``decompress_blocks`` / ``encode_blocks`` and
the service's ``compress_batch``) are specified as *exactly* the
per-item loop — byte-identical output for every input — and the SAMC
and LZ ones also equal the reference coders in ``tests/oracles.py``.
Hypothesis drives random programs, ragged batches (mixed word counts,
short tails), repeated and reordered indices, and empty batches through
both forms.  ``REPRO_BATCH_MIN=1`` forces the lockstep vectorised
kernels even at tiny batch sizes, so the vector path itself is what
gets exercised, not the small-batch scalar fallback.
"""

from __future__ import annotations

import functools
import os
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.byte_huffman import ByteHuffmanCodec
from repro.baselines.gzipish import gzipish_compress
from repro.baselines.lzss import tokenize
from repro.baselines.lzw import lzw_compress
from repro.bitstream.fields import chunk_words
from repro.core.samc.codec import SamcCodec
from repro.entropy.huffman import HuffmanCode, HuffmanEncoder, canonical_codewords
from repro.fastpath.huffman_kernel import decode_blocks_fast
from repro.obs import OBS_ENV, NullRecorder, use_recorder
from repro.resilience.errors import CorruptedStreamError
from repro.service.codecs import build_codecs
from repro.service.registry import WarmModelRegistry
from repro.workloads.suite import generate_benchmark
from tests.oracles import (
    BinaryArithmeticEncoder,
    _lzw_compress_reference,
    _tokenize_reference,
    samc_compress,
    samc_decode_block,
    samc_decompress_block,
    walk_encode,
)


@contextmanager
def _env(**overrides):
    """Set env vars for the duration (hypothesis-safe, unlike the
    function-scoped ``monkeypatch`` fixture)."""
    saved = {key: os.environ.get(key) for key in overrides}
    try:
        for key, value in overrides.items():
            os.environ[key] = value
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def _word_data(data: bytes) -> bytes:
    return data[: len(data) - len(data) % 4]


# ---------------------------------------------------------------------------
# SAMC: batch decode vs per-block decode

@settings(max_examples=25, deadline=None)
@given(st.binary(min_size=16, max_size=512).map(_word_data),
       st.randoms(use_true_random=False))
def test_samc_decompress_blocks_differential(data, rng):
    """Every index order — contiguous, shuffled, repeated — decodes as
    the reference decoder does, per block and through the batch API on
    both batch kernels."""
    if not data:
        return
    codec = SamcCodec.for_mips(block_size=16)
    image = codec.compress(data)
    indices = list(range(image.block_count()))
    shuffled = indices[:]
    rng.shuffle(shuffled)
    ragged = shuffled + shuffled[: max(1, len(shuffled) // 2)]
    expected = [samc_decompress_block(codec, image, i) for i in ragged]
    assert [codec.decompress_block(image, i) for i in ragged] == expected
    with _env(REPRO_BATCH_MIN="1"):
        assert codec.decompress_blocks(image, ragged) == expected
    # Scalar fallback (batch below the dispatch threshold).
    with _env(REPRO_BATCH_MIN="10000"):
        assert codec.decompress_blocks(image, ragged) == expected


@settings(max_examples=15, deadline=None)
@given(st.binary(min_size=8, max_size=256))
def test_samc_bytes_decompress_blocks_differential(data):
    """The byte-stream SAMC variant (ragged tail blocks included)."""
    if not data:
        return
    codec = SamcCodec.for_bytes(block_size=32)
    image = codec.compress(data)
    indices = list(range(image.block_count()))
    expected = [samc_decompress_block(codec, image, i) for i in indices]
    assert codec.decompress_blocks(image, indices) == expected
    with _env(REPRO_BATCH_MIN="1"):
        assert codec.decompress_blocks(image, indices) == expected
    assert b"".join(expected) == data


@functools.lru_cache(maxsize=None)
def _go_model():
    image = SamcCodec.for_mips().compress(
        generate_benchmark("go", "mips", 0.5, 0).code
    )
    return image.metadata["model"]


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.tuples(
        st.one_of(
            st.binary(max_size=40),
            st.integers(1, 40).map(lambda n: b"\xff" * n),
        ),
        st.integers(0, 16),
    ),
    min_size=1,
    max_size=24,
))
def test_samc_decode_blocks_arbitrary_payloads(blocks):
    """The lockstep decoder equals the scalar one, and both the
    reference decoder, on corrupted payloads too: a block that reads far
    past its payload sees zeros there, never its neighbour's bytes or
    the end of the batch buffer."""
    model = _go_model()
    payloads = [payload for payload, _ in blocks]
    counts = [count for _, count in blocks]
    expected = [samc_decode_block(model, p, c) for p, c in blocks]
    assert [model.decode_block(p, c) for p, c in blocks] == expected
    with _env(REPRO_BATCH_MIN="1"):
        assert model.decode_blocks(payloads, counts) == expected


def test_samc_decompress_blocks_empty():
    codec = SamcCodec.for_mips(block_size=16)
    image = codec.compress(bytes(range(64)))
    assert codec.decompress_blocks(image, []) == []
    with _env(REPRO_BATCH_MIN="1"):
        assert codec.decompress_blocks(image, []) == []


def test_samc_decode_blocks_rejects_mismatched_lengths():
    codec = SamcCodec.for_mips(block_size=16)
    image = codec.compress(bytes(range(64)))
    with pytest.raises(ValueError):
        image.metadata["model"].decode_blocks(list(image.blocks), [4])


# ---------------------------------------------------------------------------
# SAMC: vectorised encode vs scalar encode

@settings(max_examples=20, deadline=None)
@given(st.binary(min_size=16, max_size=512).map(_word_data),
       st.sampled_from([1, 3, 4, 7]))
def test_samc_encode_blocks_vec_vs_scalar(data, words_per_block):
    """The vector encoder emits the scalar encoder's exact bytes, and
    both the reference encoder's, block for block, including the final
    short block."""
    from repro.fastpath.samc_kernel import walk_program

    if not data:
        return
    codec = SamcCodec.for_mips(block_size=16)
    image = codec.compress(data)  # trains + freezes a model for us
    model = image.metadata["model"]
    words = [int.from_bytes(data[i : i + 4], "big")
             for i in range(0, len(data), 4)]
    expected = []
    for start in range(0, len(words), words_per_block):
        encoder = BinaryArithmeticEncoder()
        block = words[start : start + words_per_block]
        walk_encode(model, block, encoder.encode_bit)
        expected.append(encoder.finish())
    walk = walk_program(
        model.width, model.specs, model.connect_bits, words, words_per_block
    )
    with _env(REPRO_BATCH_MIN="10000"):
        scalar = model.encode_blocks(walk)
    with _env(REPRO_BATCH_MIN="1"):
        vec = model.encode_blocks(walk)
    assert vec == scalar == expected


def test_samc_encode_dispatch_boundary_matches_reference(monkeypatch):
    """With ``REPRO_BATCH_MIN`` unset, a program one block short of
    ``DEFAULT_ENCODE_BATCH_MIN`` encodes on the scalar loop and one of
    exactly that many blocks on the lockstep encoder; both images hold
    the reference encoder's bytes.  Telemetry is off for the compresses
    even when the suite runs with ``REPRO_OBS=1``: with it on, every
    batch takes the attributing scalar loop."""
    from repro.fastpath import samc_kernel

    monkeypatch.delenv("REPRO_BATCH_MIN", raising=False)
    monkeypatch.delenv(OBS_ENV, raising=False)
    lockstep_runs = []
    lockstep = samc_kernel._encode_blocks_vec

    def counted(*args):
        lockstep_runs.append(args)
        return lockstep(*args)

    monkeypatch.setattr(samc_kernel, "_encode_blocks_vec", counted)
    codec = SamcCodec.for_mips()
    crossover = samc_kernel.DEFAULT_ENCODE_BATCH_MIN
    code = generate_benchmark("gcc", "mips", 1.0, 0).code
    for blocks, runs in ((crossover - 1, 0), (crossover, 1)):
        program = code[: blocks * codec.block_size]
        assert len(program) == blocks * codec.block_size
        lockstep_runs.clear()
        with use_recorder(NullRecorder()):
            image = codec.compress(program)
        assert len(lockstep_runs) == runs
        assert image.blocks == samc_compress(codec, program)[1]


def test_samc_deep_stream_decodes_on_the_scalar_loop():
    """A stream deeper than ``_MAX_LUT_DEPTH`` gets no lockstep tables,
    so a forced batch decode runs the per-block loop, and still returns
    each block's own decode and the input."""
    from repro.fastpath.samc_kernel import _MAX_LUT_DEPTH

    assert 13 > _MAX_LUT_DEPTH
    codec = SamcCodec(word_bits=16, streams=[range(13), range(13, 16)])
    data = generate_benchmark("go", "mips", 0.05, 0).code[:1024]
    image = codec.compress(data)
    assert image.metadata["model"]._compile_batch() is None
    indices = list(range(image.block_count()))
    per_block = [codec.decompress_block(image, i) for i in indices]
    with _env(REPRO_BATCH_MIN="1"):
        assert codec.decompress_blocks(image, indices) == per_block
    assert b"".join(per_block) == data


def test_samc_64_bit_words_keep_their_top_bit():
    """64-bit words with bit 63 set ride through the int64 walk and the
    batch decoder's deposit tables as their two's-complement bit
    pattern: both encoders give the reference encoder's bytes, and the
    per-block and lockstep decodes give the input back."""
    codec = SamcCodec(
        word_bits=64, streams=[range(i, i + 8) for i in range(0, 64, 8)]
    )
    data = generate_benchmark("gcc", "mips", 0.1, 0).code[:3584]
    assert any(word >> 63 for word in chunk_words(data, 8))
    expected = samc_compress(codec, data)[1]
    for threshold in ("1", "10000"):
        with _env(REPRO_BATCH_MIN=threshold):
            image = codec.compress(data)
        assert image.blocks == expected
    indices = list(range(image.block_count()))
    per_block = [codec.decompress_block(image, i) for i in indices]
    assert b"".join(per_block) == data
    with _env(REPRO_BATCH_MIN="1"):
        assert codec.decompress_blocks(image, indices) == per_block


# ---------------------------------------------------------------------------
# Byte-Huffman: the lockstep kernel vs the per-block decoder

@settings(max_examples=25, deadline=None)
@given(st.binary(min_size=1, max_size=400))
def test_byte_huffman_decompress_blocks_differential(data):
    codec = ByteHuffmanCodec(block_size=32)
    image = codec.compress(data)
    indices = list(range(image.block_count()))
    ragged = indices + indices[::-1]
    expected = [codec.decompress_block(image, i) for i in ragged]
    assert codec.decompress_blocks(image, ragged) == expected
    assert codec.decompress_blocks(image, []) == []
    assert b"".join(expected[: len(indices)]) == data


@settings(max_examples=40, deadline=None)
@given(st.binary(min_size=8, max_size=200), st.integers(0, 10_000),
       st.integers(0, 255))
def test_byte_huffman_corruption_differential(data, position, flip):
    """On corrupted payloads the batch decode agrees with the per-block
    loop: same bytes out, or the same error category (the batch path
    falls back to that loop whenever the table decode goes off the
    rails)."""
    codec = ByteHuffmanCodec(block_size=16)
    image = codec.compress(data)
    target = position % len(image.blocks)
    payload = bytearray(image.blocks[target])
    if not payload:
        return
    payload[position % len(payload)] ^= (flip or 1)
    image.blocks[target] = bytes(payload)
    indices = list(range(image.block_count()))

    def outcome(decode):
        try:
            return decode()
        except CorruptedStreamError as error:
            return ("error", error.category)

    expected = outcome(
        lambda: [codec.decompress_block(image, i) for i in indices]
    )
    assert outcome(lambda: codec.decompress_blocks(image, indices)) == expected


@pytest.mark.parametrize("width, largest, taken", [
    (1, 255, True),     # the shallowest code
    (16, 255, True),    # the deepest code of byte symbols it takes
    (17, 255, False),   # one bit deeper
    (16, 256, False),   # a symbol bytes() rejects
])
def test_byte_huffman_kernel_takes_byte_codes_up_to_16_bits(
    width, largest, taken
):
    """The lockstep kernel decodes a batch itself, rather than handing
    it back, exactly when every symbol is a byte and no codeword is
    longer than MAX_TABLE_BITS."""
    # Lengths 1 .. width - 1, then two of ``width`` bits: complete.
    lengths = {symbol: symbol + 1 for symbol in range(width - 1)}
    lengths[width - 1] = lengths[largest] = width
    code = HuffmanCode(lengths, canonical_codewords(lengths))
    symbols = sorted(lengths) + [largest]
    encoder = HuffmanEncoder(code)
    payloads = [encoder.encode(symbols), encoder.encode(symbols[:1]), b""]
    decoded = decode_blocks_fast(code, payloads, [len(symbols), 1, 0])
    if taken:
        assert decoded == [bytes(symbols), bytes(symbols[:1]), b""]
    else:
        assert decoded is None


@pytest.mark.parametrize("corrupt", ["empty payload", "empty code"])
def test_byte_huffman_batch_raises_the_loops_error(corrupt):
    """A block whose payload ends long before its symbols do, last in
    its batch, runs the kernel's cursor past the batch's buffer; a code
    with no symbols has no windows.  Either way the batch raises the
    per-block loop's error."""
    codec = ByteHuffmanCodec(block_size=32)
    image = codec.compress(bytes(range(64)))
    if corrupt == "empty payload":
        image.blocks[1] = b""
    else:
        image.metadata["code"] = HuffmanCode({}, {})

    def outcome(decode):
        try:
            return decode()
        except CorruptedStreamError as error:
            return (str(error), error.category, error.offset)

    expected = outcome(lambda: [codec.decompress_block(image, 1)])
    assert expected[1] in ("truncated", "symbol")
    assert outcome(lambda: codec.decompress_blocks(image, [1])) == expected


def test_byte_huffman_kernel_ignores_a_finished_blocks_window():
    # {0: 1, 1: 2} is incomplete: codewords 0 and 10, so 11 starts none.
    # Block 0 ends after one symbol on bits 111111 that decode nothing;
    # the kernel must not look at them.
    code = HuffmanCode({0: 1, 1: 2}, canonical_codewords({0: 1, 1: 2}))
    assert decode_blocks_fast(code, [b"\xbf", b"\x00"], [1, 3]) == [
        b"\x01", b"\x00\x00\x00"
    ]


# ---------------------------------------------------------------------------
# LZ batches: the service's compress_batch

lz_blocks = st.lists(
    st.one_of(
        st.binary(max_size=200),
        st.builds(
            lambda unit, reps: unit * reps,
            st.binary(min_size=1, max_size=6),
            st.integers(1, 60),
        ),
    ),
    max_size=8,
)


@functools.lru_cache(maxsize=None)
def _service_codecs():
    return build_codecs(WarmModelRegistry())


@settings(max_examples=30, deadline=None)
@given(lz_blocks)
def test_lzss_parse_differential(blocks):
    """Each block's LZSS parse is the reference parse, and the service's
    ``gzipish`` batch, every block repeated, equals the per-block loop:
    the dedup path must replay, not alias-skip."""
    for block in blocks:
        assert tokenize(block) == _tokenize_reference(block)
    doubled = blocks + blocks
    gzipped = [gzipish_compress(block) for block in blocks]
    assert _service_codecs()["gzipish"].compress_batch(doubled) == (
        gzipped + gzipped
    )


@settings(max_examples=30, deadline=None)
@given(lz_blocks)
def test_lzw_compress_differential(blocks):
    """LZW's bytes are the reference coder's, per block and through the
    service's ``lzw`` batch with every block repeated."""
    expected = [_lzw_compress_reference(block) for block in blocks]
    assert [lzw_compress(block) for block in blocks] == expected
    assert _service_codecs()["lzw"].compress_batch(blocks + blocks) == (
        expected + expected
    )


# ---------------------------------------------------------------------------
# SADC: the batch API is the per-block loop by definition

def test_sadc_decompress_blocks_matches_loop():
    from repro.core.sadc import MipsSadcCodec
    from repro.workloads.suite import generate_benchmark

    data = generate_benchmark("compress", "mips", scale=0.1, seed=7).code
    codec = MipsSadcCodec(block_size=32)
    image = codec.compress(data)
    indices = list(range(image.block_count()))[::-1]
    assert codec.decompress_blocks(image, indices) == [
        codec.decompress_block(image, i) for i in indices
    ]
    assert codec.decompress_blocks(image, []) == []
