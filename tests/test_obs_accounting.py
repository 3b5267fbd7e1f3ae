"""Bit-accounting invariants and the free-when-off contract.

Two properties, both acceptance criteria for the telemetry layer:

1. **Exact accounting** — for every codec, the sum of the bit categories
   a compression attributes equals the compressed size in bits exactly
   (``total_bytes * 8`` for block codecs, ``len(payload) * 8`` for the
   file codecs).  No bit is unattributed, none is double-counted.
2. **Byte identity** — enabling telemetry never changes compressed
   output, from the codecs or from the reference coders in
   ``tests/oracles.py``.

Tests parametrised by ``coder`` run each codec as shipped (``"1"``) and,
under ``"0"``, check it against its oracle where it has one: SAMC's
reference coder (both tests), LZW's reference coder
(:class:`TestByteIdentity`) and gzip's reference parse (both tests).
SADC and byte-Huffman have a single coder and run the same code under
both ids.
"""

import pytest

from repro.baselines.byte_huffman import ByteHuffmanCodec
from repro.baselines.gzipish import gzipish_compress, gzipish_decompress
from repro.baselines.lzss import tokenize
from repro.baselines.lzw import lzw_compress, lzw_decompress
from repro.core.samc.codec import SamcCodec, samc_compress
from repro.core.sadc.mips import MipsSadcCodec
from repro.core.sadc.x86 import X86SadcCodec
from repro.obs import obs_session
from repro.pipeline import ExperimentJob, NullCache, run_pipeline
from repro.service.codecs import build_codecs
from repro.service.registry import WarmModelRegistry
from repro.workloads.suite import generate_benchmark
from tests import oracles


@pytest.fixture(scope="module")
def mips_code():
    return generate_benchmark("compress", "mips", scale=0.15, seed=3).code


@pytest.fixture(scope="module")
def x86_code():
    return generate_benchmark("compress", "x86", scale=0.15, seed=3).code


def _scope_bits(recorder, scope=""):
    categories = recorder.snapshot()["bits"][scope]
    return categories, sum(categories.values())


class TestExactAccounting:
    """Per-scope totals equal the compressed size in bits."""

    def test_samc_total_matches_image(self, mips_code):
        with obs_session() as rec:
            image = samc_compress(mips_code)
            categories, total = _scope_bits(rec)
        assert total == image.total_bytes * 8
        # Per-stream payload bits plus the structural categories.
        assert {"model", "lat", "flush"} <= set(categories)
        assert any(name.startswith("stream") for name in categories)

    def test_sadc_mips_total_matches_image(self, mips_code):
        with obs_session() as rec:
            image = MipsSadcCodec().compress(mips_code)
            categories, total = _scope_bits(rec)
        assert total == image.total_bytes * 8
        assert {"tokens", "model.dictionary", "model.tables", "lat"} <= set(
            categories
        )

    def test_sadc_x86_total_matches_image(self, x86_code):
        with obs_session() as rec:
            image = X86SadcCodec().compress(x86_code)
            categories, total = _scope_bits(rec)
        assert total == image.total_bytes * 8
        assert {"tokens", "model.dictionary", "lat"} <= set(categories)

    def test_byte_huffman_total_matches_image(self, mips_code):
        with obs_session() as rec:
            image = ByteHuffmanCodec().compress(mips_code)
            _, total = _scope_bits(rec)
        assert total == image.total_bytes * 8

    def test_gzipish_total_matches_payload(self, mips_code):
        with obs_session() as rec:
            payload = gzipish_compress(mips_code)
            categories, total = _scope_bits(rec)
        assert total == len(payload) * 8
        assert {"tables", "literals", "eob"} <= set(categories)

    def test_lzw_total_matches_payload(self, mips_code):
        with obs_session() as rec:
            payload = lzw_compress(mips_code)
            categories, total = _scope_bits(rec)
        assert total == len(payload) * 8
        assert categories["header"] == 32

    def test_service_lzw_batch_total_matches_payloads(self):
        """The service's LZW batch compresses each distinct payload once,
        through ``lzw_compress``: one span and one split per payload."""
        code = generate_benchmark("gcc", "mips", scale=0.1, seed=1998).code
        first, second = code[:1024], code[1024:2048]
        lzw = build_codecs(WarmModelRegistry())["lzw"]
        with obs_session() as rec:
            outputs = lzw.compress_batch([first, second, first])
            snapshot = rec.snapshot()
        assert outputs == [lzw_compress(p) for p in (first, second, first)]
        assert snapshot["spans"]["lzw.compress"]["count"] == 2
        bits = snapshot["bits"][""]
        assert bits["header"] + bits["codes"] == 8 * (
            len(outputs[0]) + len(outputs[1])
        )

    def test_pipeline_scope_totals_match_bytes_out(self):
        jobs = [
            ExperimentJob("compress", "mips", algorithm, scale=0.15, seed=3)
            for algorithm in ("compress", "gzip", "huffman", "SAMC")
        ]
        with obs_session() as rec:
            report = run_pipeline(jobs, cache=NullCache())
            bits = rec.snapshot()["bits"]
        assert report.telemetry is not None
        for result in report.results:
            job = result.job
            scope = f"{job.benchmark}/{job.isa}/{job.algorithm}"
            assert sum(bits[scope].values()) == result.bytes_out * 8


#: SAMC ``samc.stream{row}.depth{column}.bits`` for the pinned program.
_SAMC_DEPTH_BITS = (
    (152, 88, 112, 80, 56, 32, 120, 112),
    (112, 128, 96, 136, 104, 24, 64, 32),
    (128, 64, 8, 88, 40, 16, 8, 80),
    (120, 104, 120, 144, 136, 144, 96, 64),
)

#: (codec, program) -> (bit categories, counters), the same from both
#: coders.  "small" is ``mgrid`` at scale 0.05, seed 3: its one
#: jump fills the MIPS ``imm26`` stream.  The empty program keeps each
#: codec's edge cases: MIPS SADC has no blocks and so no
#: ``sadc.tokens_emitted``, x86 SADC encodes one empty block,
#: byte-Huffman records ``symbols: 0``, and gzipish codes only its
#: tables and a one-bit end-of-block.
PINNED_TELEMETRY = {
    ("SAMC", "small"): (
        {"flush": 192, "lat": 152, "model": 16480, "stream0": 752,
         "stream1": 696, "stream2": 432, "stream3": 928},
        {
            "samc.blocks_encoded": 24,
            "samc.words_encoded": 191,
            **{
                f"samc.stream{stream}.depth{depth}.bits": bits
                for stream, row in enumerate(_SAMC_DEPTH_BITS)
                for depth, bits in enumerate(row)
            },
        },
    ),
    ("SAMC", "empty"): ({"lat": 0, "model": 16480}, {}),
    ("SADC-mips", "small"): (
        {"imm16": 376, "imm26": 3, "lat": 152, "model.dictionary": 1482,
         "model.pad": 4, "model.tables": 1226, "padding": 73,
         "regs": 1286, "tokens": 750},
        {"sadc.blocks_encoded": 24, "sadc.tokens_emitted": 143},
    ),
    ("SADC-mips", "empty"): (
        {"lat": 0, "model.dictionary": 0, "model.tables": 0}, {},
    ),
    ("SADC-x86", "small"): (
        {"imm_disp": 492, "lat": 72, "model.dictionary": 620,
         "model.pad": 4, "model.tables": 728, "modrm_sib": 458,
         "padding": 56, "tokens": 282},
        {"sadc.blocks_encoded": 14, "sadc.tokens_emitted": 72},
    ),
    ("SADC-x86", "empty"): (
        {"lat": 8, "model.dictionary": 0, "model.tables": 0},
        {"sadc.blocks_encoded": 1, "sadc.tokens_emitted": 0},
    ),
    ("byte-huffman", "small"): (
        {"lat": 152, "model": 1184, "padding": 70, "symbols": 4210},
        {"byte_huffman.blocks_encoded": 24},
    ),
    ("byte-huffman", "empty"): (
        {"lat": 0, "model": 0, "symbols": 0},
        {"byte_huffman.blocks_encoded": 0},
    ),
    ("gzipish", "small"): (
        {"eob": 8, "literals": 1326, "match_distances": 499,
         "match_lengths": 326, "padding": 5, "tables": 1580},
        {"lzss.literals": 216, "lzss.matches": 58},
    ),
    ("gzipish", "empty"): (
        {"eob": 1, "padding": 3, "tables": 1580},
        {"lzss.literals": 0, "lzss.matches": 0},
    ),
}

_PINNED_CODECS = {
    "SAMC": ("mips", samc_compress),
    "SADC-mips": ("mips", lambda code: MipsSadcCodec().compress(code)),
    "SADC-x86": ("x86", lambda code: X86SadcCodec().compress(code)),
    "byte-huffman": ("mips", lambda code: ByteHuffmanCodec().compress(code)),
    "gzipish": ("mips", gzipish_compress),
}


def _samc_reference(code):
    """SAMC's reference coder.  It records the coder's categories and
    counters; ``model`` and ``lat`` come from the image it does not
    build."""
    oracles.samc_compress(SamcCodec.for_mips(), code)


#: SAMC and gzip run under coder ``"0"`` (the reference coder, the
#: reference parse) and ``"1"`` (the codec); SADC and byte-Huffman have
#: one coder, so they run once, under ``"1"``.
_PINNED_CASES = [
    (codec, program, coder)
    for codec, program in sorted(PINNED_TELEMETRY)
    for coder in (("0", "1") if codec in ("SAMC", "gzipish") else ("1",))
]


@pytest.mark.parametrize("codec, program, coder", _PINNED_CASES)
def test_pinned_bit_split(codec, program, coder):
    """The full per-category split and codec counters, not just totals.

    Under ``"0"`` SAMC's split comes from its reference coder, and
    gzip's parse, which its ``lzss`` counters count, must be the
    reference parse.
    """
    isa, compress = _PINNED_CODECS[codec]
    bits, counters = PINNED_TELEMETRY[codec, program]
    if coder == "0" and codec == "SAMC":
        compress = _samc_reference
        bits = {k: v for k, v in bits.items() if k not in ("model", "lat")}
    code = b""
    if program == "small":
        code = generate_benchmark("mgrid", isa, scale=0.05, seed=3).code
    if coder == "0" and codec == "gzipish":
        assert tokenize(code) == oracles._tokenize_reference(code)
    with obs_session() as rec:
        compress(code)
        snapshot = rec.snapshot()
    assert (snapshot["bits"].get("", {}), snapshot["counters"]) == (bits, counters)


class TestByteIdentity:
    """Telemetry on vs off produces bit-identical compressed output.

    SAMC and LZW run their reference coder under coder ``"0"``, and gzip
    checks that its parse is the reference parse; SADC and byte-Huffman
    have a single coder and run once.
    """

    @staticmethod
    def _image_state(image):
        return (image.blocks, image.model_bytes, image.original_size)

    @pytest.mark.parametrize("coder", ["0", "1"])
    def test_samc(self, mips_code, coder):
        def compress(code):
            if coder == "0":
                return oracles.samc_compress(SamcCodec.for_mips(), code)[1]
            return self._image_state(samc_compress(code))

        plain = compress(mips_code)
        with obs_session():
            instrumented = compress(mips_code)
        assert plain == instrumented

    def test_sadc_mips(self, mips_code):
        plain = MipsSadcCodec().compress(mips_code)
        with obs_session():
            instrumented = MipsSadcCodec().compress(mips_code)
        assert self._image_state(plain) == self._image_state(instrumented)

    def test_sadc_x86(self, x86_code):
        plain = X86SadcCodec().compress(x86_code)
        with obs_session():
            instrumented = X86SadcCodec().compress(x86_code)
        assert self._image_state(plain) == self._image_state(instrumented)

    def test_byte_huffman(self, mips_code):
        plain = ByteHuffmanCodec().compress(mips_code)
        with obs_session():
            instrumented = ByteHuffmanCodec().compress(mips_code)
        assert self._image_state(plain) == self._image_state(instrumented)

    @pytest.mark.parametrize("coder", ["0", "1"])
    def test_gzipish_round_trip(self, mips_code, coder):
        plain = gzipish_compress(mips_code)
        with obs_session():
            instrumented = gzipish_compress(mips_code)
            if coder == "0":
                parse = oracles._tokenize_reference(mips_code)
                assert tokenize(mips_code) == parse
        assert plain == instrumented
        assert gzipish_decompress(instrumented) == mips_code

    @pytest.mark.parametrize("coder", ["0", "1"])
    def test_lzw_round_trip(self, mips_code, coder):
        compress = (
            oracles._lzw_compress_reference if coder == "0" else lzw_compress
        )
        plain = compress(mips_code)
        with obs_session():
            instrumented = compress(mips_code)
        assert plain == instrumented
        assert lzw_decompress(instrumented) == mips_code
