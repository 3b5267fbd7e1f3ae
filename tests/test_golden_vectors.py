"""Golden compressed-output vectors: bit-exactness pinned forever.

The hex blobs and digests below were produced by the reference coders
(``tests/oracles.py``) on a fixed-seed workload
(``generate_benchmark("compress", "mips", scale=0.1, seed=1998)``).
Every test parametrised by ``coding_path`` asserts against them twice:
with the reference coder (``reference``) and with the codec as shipped,
on its kernels (``fastpath``), so three properties are pinned at once:

1. the reference coders never drift from their historical output,
2. the fastpath kernels never drift from the reference,
3. the workload generator stays deterministic.

gzip's reference is its parse: gzip codes the LZSS tokens, so the
``reference`` check is that the kernel's parse is the reference parse.
SADC-MIPS, byte-Huffman, positional Huffman and SADC-x86 have a single
coder each and are pinned once.

If an intentional format change ever breaks these, regenerate the
vectors with the reference coders *and* bump
:data:`repro.fastpath.FASTPATH_VERSION` (or ``CODEC_SCHEMA_VERSION``)
so cached pipeline results are invalidated alongside.
"""
from __future__ import annotations

import hashlib

import pytest

from repro.baselines.byte_huffman import ByteHuffmanCodec
from repro.baselines.gzipish import gzipish_compress
from repro.baselines.lzss import tokenize
from repro.baselines.lzw import lzw_compress
from repro.baselines.positional_huffman import PositionalHuffmanCodec
from repro.core.sadc import X86SadcCodec, sadc_compress
from repro.core.samc import SamcCodec
from repro.workloads.suite import generate_benchmark
from tests import oracles

# -- the fixed-seed workload ------------------------------------------------

WORKLOAD_BYTES = 512

# First 128 bytes of the workload: small enough to check in the full
# compressed payload, byte for byte.
TINY_BYTES = 128

SAMC_TINY = (
    "3e2281d20c50ec64dee2594608b5686609f7f71f0c684f2a5ed0076868acfab9"
    "cb3519bc9f94cc2125fe63"
)
SAMC_BLOCK_LENGTHS = (10, 10, 12, 11)

SADC_TINY = (
    "475f2b8977010455e8bb80822ae1ec3f99002ae109dca867b91e7cf871ecfaee"
    "78208aa86e18"
)
SADC_BLOCK_LENGTHS = (9, 9, 10, 10)

GZIPISH_TINY = (
    "1800628000280003000030000000000000000000018000000530000300003000"
    "0000000000030000000c00180030000000000000000000000003000000000000"
    "0000000300000000000000000000000000000000000000001804000000000000"
    "0000000000000018000000000004318000000000000010060000000000000000"
    "0000300000000000000000003000000000300000000030000000000000000006"
    "30c0601800300003140000000000000000000000000001806018c20000000000"
    "000000000008375b2ea295cc518de26461819b85dc4e675c6aedff5a1fe84783"
    "0aa4dc3cafc95e538deba07783e5ef3b3e6fb0"
)

LZW_TINY = (
    "0000008013af5fed057afc002c57ac0002846970001047af4006c84800080024"
    "3a04311000f21b0f8e45215178cc6e251e22c8225228b462351c1e23e142847c"
    "185901000c006e00002202ff78414000c8a8215eb18b47e20a589c562e4297c9"
    "e940"
)

# SHA-256 of the compressed output over the full 512-byte workload.
SAMC_FULL_DIGEST = "e24723678ed1e0869ddf1abd6a2477184b27152d765734e1fe4a259620d9f4b3"
SADC_FULL_DIGEST = "91543f6a4466122ec12fd3f25b45ddc1013e52728cbdd85c7d14418f0b6bb61e"
GZIPISH_FULL_DIGEST = "d8d66e0e684b06c525d9ff98298ba36ada0f67c59b728cc261611927391bf2cb"
LZW_FULL_DIGEST = "2e8da66834854a434ca37ee3d0a2531ea6ec95e4cb91237f0af8370e64160e8a"
BYTE_HUFFMAN_FULL_DIGEST = "b5a3609b558a9a27bf074e402c2f200b59293de5a1a6e9bea3bd84ae4cb5178c"
POSITIONAL_HUFFMAN_FULL_DIGEST = "f1021bbd3d8b05c5bec128f3c05da2ce739eb2eb8e6aaa7568453dc45f4ba343"

# SADC-x86 codes byte streams, so it is pinned on the x86 build of the
# same benchmark: ``generate_benchmark("compress", "x86", 0.1, 1998)``.
X86_WORKLOAD_BYTES = 262
SADC_X86_FULL_DIGEST = "8dfcf318bcdf28415d89dd7d9b9e4ebef1222c16cfacd61e0b0dbca6bb9cfea8"


@pytest.fixture(scope="module")
def workload() -> bytes:
    code = generate_benchmark("compress", "mips", scale=0.1, seed=1998).code
    assert len(code) == WORKLOAD_BYTES, "workload generator drifted"
    return code


@pytest.fixture(scope="module")
def x86_workload() -> bytes:
    code = generate_benchmark("compress", "x86", scale=0.1, seed=1998).code
    assert len(code) == X86_WORKLOAD_BYTES, "workload generator drifted"
    return code


@pytest.fixture(params=["reference", "fastpath"])
def coding_path(request) -> str:
    """Run each golden check with the reference coder and the codec."""
    return request.param


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _samc_round_trip(coding_path, code):
    """SAMC's blocks for ``code``, and their decode, on one path."""
    codec = SamcCodec.for_mips()
    if coding_path == "reference":
        model, blocks = oracles.samc_compress(codec, code)
        return blocks, oracles.samc_decompress(codec, model, blocks, len(code))
    image = codec.compress(code)
    return image.blocks, codec.decompress(image)


def test_samc_golden(coding_path, workload):
    tiny, _ = _samc_round_trip(coding_path, workload[:TINY_BYTES])
    assert tuple(len(block) for block in tiny) == SAMC_BLOCK_LENGTHS
    assert b"".join(tiny).hex() == SAMC_TINY
    full, decoded = _samc_round_trip(coding_path, workload)
    assert _sha256(b"".join(full)) == SAMC_FULL_DIGEST
    assert decoded == workload


def test_samc_golden_batch(coding_path, workload, monkeypatch):
    """Every block of the pinned image decodes back to the workload.

    ``fastpath`` decodes the image as one batch with
    ``REPRO_BATCH_MIN=1``, which forces the lockstep vectorised decoder
    even at this tiny block count, so the golden digests pin the batch
    engine too; ``reference`` decodes the same blocks one by one with
    the reference decoder.
    """
    monkeypatch.setenv("REPRO_BATCH_MIN", "1")
    codec = SamcCodec.for_mips()
    full = codec.compress(workload)
    assert _sha256(b"".join(full.blocks)) == SAMC_FULL_DIGEST
    indices = range(full.block_count())
    if coding_path == "reference":
        decoded = [oracles.samc_decompress_block(codec, full, i) for i in indices]
    else:
        decoded = codec.decompress_blocks(full, indices)
    assert b"".join(decoded) == workload


def test_sadc_golden(workload):
    """SADC-MIPS has one coder, its own reference, pinned once."""
    tiny = workload[:TINY_BYTES]
    image = sadc_compress(tiny, isa="mips")
    assert tuple(len(block) for block in image.blocks) == SADC_BLOCK_LENGTHS
    assert b"".join(image.blocks).hex() == SADC_TINY
    full = sadc_compress(workload, isa="mips")
    assert _sha256(b"".join(full.blocks)) == SADC_FULL_DIGEST


def test_gzipish_golden(coding_path, workload):
    if coding_path == "reference":
        for code in (workload[:TINY_BYTES], workload):
            assert tokenize(code) == oracles._tokenize_reference(code)
    assert gzipish_compress(workload[:TINY_BYTES]).hex() == GZIPISH_TINY
    assert _sha256(gzipish_compress(workload)) == GZIPISH_FULL_DIGEST


def test_lzw_golden(coding_path, workload):
    compress = lzw_compress
    if coding_path == "reference":
        compress = oracles._lzw_compress_reference
    assert compress(workload[:TINY_BYTES]).hex() == LZW_TINY
    assert _sha256(compress(workload)) == LZW_FULL_DIGEST


# -- encoders with a single path ---------------------------------------------


def test_byte_huffman_golden(workload):
    codec = ByteHuffmanCodec()
    image = codec.compress(workload)
    assert _sha256(b"".join(image.blocks)) == BYTE_HUFFMAN_FULL_DIGEST
    assert codec.decompress(image) == workload


def test_positional_huffman_golden(workload):
    codec = PositionalHuffmanCodec()
    image = codec.compress(workload)
    assert _sha256(b"".join(image.blocks)) == POSITIONAL_HUFFMAN_FULL_DIGEST
    assert codec.decompress(image) == workload


def test_sadc_x86_golden(x86_workload):
    codec = X86SadcCodec()
    image = codec.compress(x86_workload)
    assert _sha256(b"".join(image.blocks)) == SADC_X86_FULL_DIGEST
    assert codec.decompress(image) == x86_workload
