"""Differential tests: fastpath kernels vs the reference oracles.

The reference coders in ``tests/oracles.py`` are the specification;
every fastpath kernel must match them bit for bit on *arbitrary*
inputs, not just the benchmark workloads.  Hypothesis drives random
byte strings (plus the adversarial shapes it likes: runs, near-periodic
data, empty input) through the kernel and the oracle, and through the
codec entry points that wrap the kernels.
"""

from __future__ import annotations

import functools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import lzss
from repro.baselines.lzw import lzw_decompress
from repro.bitstream.io import BitReader, BitWriter
from repro.core.samc.codec import QUANTIZERS, SamcCodec
from repro.core.samc.model import SamcModel, train_model
from repro.fastpath.lz_kernel import lzw_compress_fast, tokenize_fast
from repro.fastpath.samc_kernel import (
    _MAX_LUT_DEPTH,
    _encode_span,
    _encode_span_obs,
)
from repro.obs import obs_session
from repro.resilience.errors import CorruptedStreamError
from repro.workloads.suite import generate_benchmark
from tests.oracles import (
    BinaryArithmeticDecoder,
    BinaryArithmeticEncoder,
    _lzw_compress_reference,
    _tokenize_reference,
    MarkovCounts,
    samc_compress,
    samc_decode_block,
    train_block,
    walk_decode,
    walk_encode,
)


# ---------------------------------------------------------------------------
# LZ kernels

lz_data = st.one_of(
    st.binary(max_size=600),
    # Highly repetitive inputs: long matches, self-overlap, chain churn.
    st.builds(
        lambda unit, reps, tail: unit * reps + tail,
        st.binary(min_size=1, max_size=8),
        st.integers(1, 120),
        st.binary(max_size=8),
    ),
)


@settings(max_examples=80, deadline=None)
@given(lz_data)
def test_lzss_tokenize_differential(data):
    assert tokenize_fast(data) == _tokenize_reference(data)


@settings(max_examples=80, deadline=None)
@given(lz_data)
def test_lzw_differential(data):
    fast = lzw_compress_fast(data)
    assert fast == _lzw_compress_reference(data)
    assert lzw_decompress(fast) == data


def _window_edge_data(seed: int) -> bytes:
    """A seeded input longer than the 32 KiB window.

    Three units recur at distances 32,767, 32,768 (the farthest a match
    may reach) and 32,769 (one past it).  One 3-byte key recurs 100
    times, more than ``MAX_CHAIN``; its oldest and newest occurrences
    share a long continuation, which a parse keeping more than
    ``MAX_CHAIN`` candidates would find.
    """
    rng = np.random.default_rng(seed)
    data = bytearray(rng.integers(0, 256, size=33_200, dtype=np.uint8).tobytes())
    for start, distance in ((100, 32_767), (200, 32_768), (300, 32_769)):
        unit = rng.integers(0, 256, size=40, dtype=np.uint8).tobytes()
        data[start : start + 40] = unit
        data[start + distance : start + distance + 40] = unit
    key = b"\x5a\xa5\x3c"
    tail = rng.integers(0, 256, size=9, dtype=np.uint8).tobytes()
    for index in range(100):
        at = 1_000 + 12 * index
        data[at : at + 3] = key
        if index in (0, 99):
            data[at + 3 : at + 12] = tail
    assert data.count(key) > lzss.MAX_CHAIN
    return bytes(data)


@pytest.mark.parametrize("seed", [19, 20])
def test_lz_window_edge_differential(seed):
    data = _window_edge_data(seed)
    assert len(data) > lzss.WINDOW_SIZE
    tokens = tokenize_fast(data)
    assert tokens == _tokenize_reference(data)
    distances = {t.distance for t in tokens if isinstance(t, lzss.Match)}
    assert {32_767, 32_768} <= distances
    assert max(distances) == lzss.WINDOW_SIZE
    assert lzss.detokenize(iter(tokens)) == data
    assert lzw_compress_fast(data) == _lzw_compress_reference(data)


def test_lzss_key_recurring_past_the_window_differential():
    """A key whose older occurrence has left the window codes as
    literals, and still joins the hash chain: its next occurrence
    matches it."""
    rng = np.random.default_rng(21)
    data = bytearray(rng.integers(0, 256, size=33_400, dtype=np.uint8).tobytes())
    unit = rng.integers(0, 256, size=12, dtype=np.uint8).tobytes()
    for at in (100, 32_900, 33_100):
        data[at : at + 12] = unit
    data = bytes(data)
    tokens = tokenize_fast(data)
    assert tokens == _tokenize_reference(data)
    assert lzss.Match(12, 200) in tokens


def test_lzss_chain_truncated_after_literals_differential():
    """A key coded as a literal more than ``MAX_CHAIN`` times: each
    occurrence lies more than a window after the one before, so it
    finds no candidate and joins its chain from the literal branch,
    which must trim the chain to ``MAX_CHAIN`` as the match branch
    does.  The filler between occurrences is a repeated seeded unit of
    bytes the key does not use, so it parses as long matches."""
    rng = np.random.default_rng(23)
    key = b"\x01\x02\x03"
    unit = rng.integers(16, 256, size=4096, dtype=np.uint8).tobytes()
    gap = lzss.WINDOW_SIZE + 64
    filler = (unit * (gap // len(unit) + 1))[: gap - len(key)]
    count = lzss.MAX_CHAIN + 3
    data = (key + filler) * (count - 1) + key
    tokens = tokenize_fast(data)
    assert tokens == _tokenize_reference(data)
    literal_keys = 0
    pos = 0
    for token in tokens:
        if isinstance(token, lzss.Literal):
            literal_keys += data[pos : pos + 3] == key
            pos += 1
        else:
            pos += token.length
    assert literal_keys == count > lzss.MAX_CHAIN


def test_lzw_dictionary_reset_differential():
    """Enough distinct digrams to overflow the 16-bit dictionary: the
    same codes, and the same count of CLEAR codes recorded."""
    rng = np.random.default_rng(42)
    data = rng.integers(0, 256, size=150_000, dtype=np.uint8).tobytes()
    payloads, clears = [], []
    for compress in (lzw_compress_fast, _lzw_compress_reference):
        with obs_session() as rec:
            payloads.append(compress(data))
            clears.append(rec.snapshot()["counters"]["lzw.clear_codes"])
    assert payloads[0] == payloads[1]
    assert clears == [1, 1]


# ---------------------------------------------------------------------------
# Batched bit I/O vs bit-at-a-time

ops = st.lists(
    st.one_of(
        st.integers(0, 1).map(lambda b: ("bit", b)),
        st.tuples(st.integers(0, 40), st.integers(0, 2**40 - 1)).map(
            lambda t: ("bits", t[0], t[1] & ((1 << t[0]) - 1))
        ),
        st.binary(max_size=12).map(lambda d: ("bytes", d)),
    ),
    max_size=30,
)


@settings(max_examples=100, deadline=None)
@given(ops)
def test_bitwriter_batched_matches_bitwise(sequence):
    batched = BitWriter()
    bitwise = BitWriter()
    for op in sequence:
        if op[0] == "bit":
            batched.write_bit(op[1])
            bitwise.write_bit(op[1])
        elif op[0] == "bits":
            _, width, value = op
            batched.write_bits(value, width)
            for shift in range(width - 1, -1, -1):
                bitwise.write_bit((value >> shift) & 1)
        else:
            batched.write_bytes(op[1])
            for byte in op[1]:
                for shift in range(7, -1, -1):
                    bitwise.write_bit((byte >> shift) & 1)
    assert len(batched) == len(bitwise)
    assert batched.getvalue() == bitwise.getvalue()


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=20), st.lists(st.integers(0, 19), max_size=12),
       st.booleans())
def test_bitreader_batched_matches_bitwise(data, widths, pad):
    batched = BitReader(data, pad=pad)
    bitwise = BitReader(data, pad=pad)
    for width in widths:
        try:
            expected = 0
            for _ in range(width):
                expected = (expected << 1) | bitwise.read_bit()
        except EOFError:
            with pytest.raises(EOFError):
                batched.read_bits(width)
            return
        assert batched.read_bits(width) == expected
        assert batched.bit_position == bitwise.bit_position


# ---------------------------------------------------------------------------
# SAMC kernels vs the object walk

def _random_words(draw_bytes, word_bits):
    word_bytes = word_bits // 8
    usable = len(draw_bytes) - len(draw_bytes) % word_bytes
    return [
        int.from_bytes(draw_bytes[i : i + word_bytes], "big")
        for i in range(0, usable, word_bytes)
    ]


def _skewed_program(word, count, outliers):
    """``count`` copies of one word with a few others written over it."""
    words = [word] * count
    for index, value in outliers:
        words[index % count] = value
    return b"".join(w.to_bytes(4, "big") for w in words)


#: Besides hypothesis's byte strings: one word with a few outliers, on
#: which a model learns probabilities at the quantisers' clamps, and
#: seeded random words, whose near-even bits emit enough bytes for the
#: range coder's rare underflows to occur.
samc_programs = st.one_of(
    st.binary(min_size=4, max_size=320),
    st.builds(
        _skewed_program,
        st.integers(0, 2**32 - 1),
        st.integers(1, 380),
        st.lists(st.tuples(st.integers(0, 379), st.integers(0, 2**32 - 1)),
                 max_size=6),
    ),
    st.builds(
        lambda seed, count: random.Random(seed).randbytes(4 * count),
        st.integers(0, 2**32 - 1),
        st.integers(1, 760),
    ),
)


@settings(max_examples=60, deadline=None)
@given(samc_programs, st.integers(0, 3), st.sampled_from([1, 2, 4, 8]),
       st.sampled_from(sorted(QUANTIZERS)))
def test_samc_kernel_differential(data, connect_bits, words_per_block, mode):
    """Trained tables, coded blocks, and decode all match the reference
    in every probability mode, on inputs that reach the quantisers'
    clamps and the range coder's underflows (see ``samc_programs``).
    The reference counts every bit of the per-block walk and quantises
    every cell on its own; training counts one walk of the whole program
    with a bincount and quantises each distinct probability once."""
    words = _random_words(data, 32)
    if not words:
        return
    streams = [[0, 1, 2, 3, 4, 5, 6, 7], [8, 9, 10, 11, 12, 13, 14, 15],
               [16, 17, 18, 19, 20, 21, 22, 23], [24, 25, 26, 27, 28, 29, 30, 31]]

    counts = MarkovCounts(32, streams, connect_bits)
    blocks = [
        words[i : i + words_per_block]
        for i in range(0, len(words), words_per_block)
    ]
    for block in blocks:
        train_block(counts, block)
    reference = counts.freeze(QUANTIZERS[mode])
    model, walk = train_model(
        32, streams, connect_bits, words, words_per_block, QUANTIZERS[mode]
    )
    for ref_table, table in zip(reference.tables, model.tables):
        assert ref_table.tolist() == table.tolist()

    expected_payloads = []
    for block in blocks:
        encoder = BinaryArithmeticEncoder()
        walk_encode(reference, block, encoder.encode_bit)
        expected_payloads.append(encoder.finish())
    assert model.encode_blocks(walk) == expected_payloads

    for block, payload in zip(blocks, expected_payloads):
        decoder = BinaryArithmeticDecoder(payload)
        assert walk_decode(reference, len(block), decoder.decode_bit) == block
        assert model.decode_block(payload, len(block)) == block


@pytest.mark.parametrize("mode", sorted(QUANTIZERS))
@pytest.mark.parametrize("layout", ["mips", "bytes"])
def test_training_matches_the_cell_by_cell_reference(layout, mode):
    """On a real program, in every probability mode, the tables training
    builds are the reference's, counted bit by bit and quantised cell by
    cell."""
    make = SamcCodec.for_bytes if layout == "bytes" else SamcCodec.for_mips
    codec = make(probability_mode=mode)
    code = generate_benchmark("go", "mips", 0.05, 0).code
    reference, _ = samc_compress(codec, code)
    tables = codec.train(code).tables
    assert [table.tolist() for table in tables] == [
        table.tolist() for table in reference.tables
    ]


@pytest.mark.parametrize("bad", [0, 1 << 16])
def test_model_rejects_out_of_range_probabilities(bad):
    """A stored probability of 0 or 1 empties one side of the coder's
    split, so the decoder's renormalisation would never end; a model
    holding one cannot be built."""
    table = np.full((1, 255), 1 << 15, dtype=np.int64)
    table[0, 7] = bad
    with pytest.raises(CorruptedStreamError) as info:
        SamcModel(8, [range(8)], 0, [table])
    assert info.value.category == "structure"


#: Layouts at the edges of a stream's tree, as ``(word bits, streams)``:
#: a one-bit stream (a tree that is one node), streams of one and two
#: bits, narrower than three connection bits, a stream deeper than the
#: lockstep decoder's ``_MAX_LUT_DEPTH``, and 64-bit words, whose top
#: bit is the first one coded.
EDGE_LAYOUTS = {
    "one-bit": (16, [[0], list(range(1, 9)), list(range(9, 16))]),
    "narrow": (8, [[0], [1, 2], list(range(3, 8))]),
    "deep": (16, [list(range(13)), list(range(13, 16))]),
    "wide": (64, [list(range(i, i + 8)) for i in range(0, 64, 8)]),
}

#: (layout, probability mode, connect bits) of every decode configuration.
DECODE_CONFIGS = [
    (layout, mode, connect)
    for layout in ("mips", "bytes", "optimized")
    for mode in ("full", "full16", "pow2")
    for connect in (0, 1, 2)
] + [
    (layout, mode, connect)
    for layout in EDGE_LAYOUTS
    for mode in ("full", "full16", "pow2")
    for connect in (0, 1, 3)
]


@functools.lru_cache(maxsize=None)
def _decode_config(layout, mode, connect):
    """A trained image of a small program, its model and block words."""
    code = generate_benchmark("go", "mips", 0.05, 0).code
    if layout in EDGE_LAYOUTS:
        word_bits, streams = EDGE_LAYOUTS[layout]
        codec = SamcCodec(
            word_bits=word_bits,
            streams=streams,
            probability_mode=mode,
            connect_bits=connect,
        )
        code = code[: len(code) - len(code) % codec.word_bytes]
    elif layout == "bytes":
        codec = SamcCodec.for_bytes(probability_mode=mode, connect_bits=connect)
    else:
        codec = SamcCodec.for_mips(
            probability_mode=mode,
            connect_bits=connect,
            optimize=layout == "optimized",
            optimize_iterations=40,
        )
    image = codec.compress(code)
    return image, image.metadata["model"], codec.block_size // codec.word_bytes


def test_optimized_decode_config_has_non_contiguous_streams():
    _, model, _ = _decode_config("optimized", "full", 1)
    assert any(
        list(spec.positions) != list(range(spec.positions[0], spec.positions[0] + spec.k))
        for spec in model.specs
    )


def test_edge_decode_configs_reach_their_edges():
    """Each edge layout holds the tree it is there for, and the 64-bit
    program codes words with the top bit set."""
    ks = {
        layout: [spec.k for spec in _decode_config(layout, "full", 3)[1].specs]
        for layout in EDGE_LAYOUTS
    }
    assert min(ks["one-bit"]) == 1
    assert ks["narrow"][:2] == [1, 2]
    assert max(ks["deep"]) > _MAX_LUT_DEPTH
    assert _decode_config("deep", "full", 3)[1]._compile_batch() is None
    image, model, block_words = _decode_config("wide", "full", 3)
    assert model.width == 64
    words = model.decode_block(image.blocks[0], block_words)
    assert any(word >> 63 for word in words)


@settings(max_examples=600, deadline=None)
@given(st.sampled_from(DECODE_CONFIGS), st.data())
def test_samc_decode_block_matches_reference_walk(config, data):
    """The fused decoder (and, on the edge layouts, the lockstep one on
    a batch of one block) equals the object walk over the reference
    range decoder on any payload, valid or not, and any word count."""
    image, model, block_words = _decode_config(*config)
    payload = data.draw(st.one_of(
        st.just(b""),
        st.binary(max_size=6),
        st.binary(max_size=80),
        # Runs (0xFF above all) start the code register at or past the
        # top of the range, the corrupted-stream states.
        st.builds(
            lambda byte, length, tail: bytes([byte]) * length + tail,
            st.sampled_from([0x00, 0x7F, 0x80, 0xFE, 0xFF]),
            st.integers(1, 48),
            st.binary(max_size=8),
        ),
        st.builds(
            lambda index, cut: image.blocks[index][:cut],
            st.integers(0, image.block_count() - 1),
            st.integers(0, 64),
        ),
    ))
    word_count = data.draw(st.integers(0, 2 * block_words))
    expected = samc_decode_block(model, payload, word_count)
    assert model.decode_block(payload, word_count) == expected
    compiled = model._compile_batch()
    if config[0] in EDGE_LAYOUTS and compiled is not None:
        # tests/test_batch_differential.py drives the lockstep decoder
        # on the other layouts; "deep" has no lockstep tables.
        assert model._decode_blocks_vec(
            compiled, [payload], [word_count]
        ) == [expected]


def test_renormalisation_never_needed_while_range_is_wide():
    """The fused decoder's renormalisation guard, checked on a seeded walk
    over coder states: while ``rng >= 2**24`` neither condition of the
    reference loop holds, and ``low + rng <= 2**32`` throughout.  Also
    the lockstep decoder's test for a second shift round: a shift
    follows a shift only if ``min(x, rng) < 2**16``, with ``x = low ^
    (low + rng)`` before the first and ``rng`` after it.

    Bits are drawn independently of the probabilities, so improbable
    branches, underflows and the ``low + rng == 2**32`` states they
    leave behind all occur; any bit sequence is some payload's decode.
    """
    mask, top, bot = 0xFFFFFFFF, 1 << 24, 1 << 16
    rand = random.Random(1998)
    extremes = [1, 2, 255, 256, 257, 32768, 65279, 65280, 65534, 65535]
    low, rng = 0, mask
    wide = underflows = at_ceiling = again = 0
    for _ in range(150_000):
        if rand.random() < 0.5:
            p0 = rand.choice(extremes)
        else:
            p0 = rand.randint(1, 65535)
        split = (rng >> 16) * p0
        if rand.random() < 0.5:
            rng = split
        else:
            low = (low + split) & mask
            rng -= split
        x = None
        while True:
            assert 1 <= rng and low + rng <= 1 << 32
            at_ceiling += low + rng == 1 << 32
            before, x = x, (low ^ (low + rng)) & mask
            settled = x < top
            if rng >= top:
                wide += 1
                assert not settled and rng >= bot
            if before is not None and (settled or rng < bot):
                assert min(before, rng) < bot
                again += 1
            if settled:
                pass
            elif rng < bot:
                rng = (-low) & (bot - 1)
                underflows += 1
            else:
                break
            low = (low << 8) & mask
            rng = (rng << 8) & mask
    assert wide > 100_000 and underflows > 100 and at_ceiling > 100
    assert again > 100


#: Signed spans (``p0`` codes a 0-bit, ``-p0`` a 1-bit) that bring the
#: range coder to a renormalisation boundary, found by a seeded search
#: over the reference coder's states: ``rng == 2**16`` with unsettled
#: top bytes and ``low`` off a multiple of ``2**16`` (so an encoder that
#: wrongly takes the underflow branch there emits a byte instead of
#: looping on a zero range), and ``rng == 2**24``, each reached by a
#: 0-bit, by a 1-bit and by a shift.
BOUNDARY_SPANS = {
    "rng16-bit0": [-32768, 2],
    "rng16-bit1": [-65280, 257, -256],
    "rng16-shift": [-2, 257, 1],
    "rng24-bit0": [-32768, 512],
    "rng24-bit1": [-65280, 2, -32768],
    "rng24-shift": [257, 1],
}
#: Coded after every boundary span, so the state reached there flows
#: through more bits, renormalisations and the flush.
BOUNDARY_TAIL = [40000, -20000, 3, -65535, 32768, -1, 65535, -12345]


def _renormalisation_checks(signed):
    """``(rng, unsettled, low)`` at every test of the reference
    renormalisation loop while coding ``signed``."""
    mask, top, bot = 0xFFFFFFFF, 1 << 24, 1 << 16
    low, rng = 0, mask
    checks = []
    for q in signed:
        split = (rng >> 16) * abs(q)
        if q > 0:
            rng = split
        else:
            low += split
            rng -= split
        while True:
            unsettled = ((low ^ (low + rng)) & mask) >= top
            checks.append((rng, unsettled, low))
            if unsettled:
                if rng >= bot:
                    break
                rng = (-low) & (bot - 1)
            low = (low << 8) & mask
            rng = (rng << 8) & mask
    return checks


@pytest.mark.parametrize("name", sorted(BOUNDARY_SPANS))
def test_scalar_encoders_match_reference_at_renormalisation_boundaries(name):
    """At ``rng == 2**16`` with unsettled top bytes the loop stops
    (``rng >= bot``) instead of taking the underflow branch, and at
    ``rng == 2**24`` it does not shift.  There the plain and telemetry
    scalar encoders emit the reference encoder's bytes, and the
    telemetry one charges every byte to a bit or to the flush."""
    boundary = BOUNDARY_SPANS[name]
    checks = _renormalisation_checks(boundary)
    if name.startswith("rng16"):
        assert any(
            rng == 1 << 16 and unsettled and low % (1 << 16)
            for rng, unsettled, low in checks
        )
    else:
        assert any(rng == 1 << 24 for rng, _, _ in checks)
    span = boundary + BOUNDARY_TAIL
    encoder = BinaryArithmeticEncoder()
    for q in span:
        encoder.encode_bit(int(q < 0), abs(q))
    expected = encoder.finish()
    assert _encode_span(span) == expected
    per_label: dict = {}
    labels = [(0, depth) for depth in range(len(span))]
    payload, flush_bits = _encode_span_obs(span, labels, per_label)
    assert payload == expected
    assert sum(per_label.values()) + flush_bits == 8 * len(expected)


@settings(max_examples=20, deadline=None)
@given(st.binary(min_size=8, max_size=256).map(lambda b: b[: len(b) - len(b) % 4]))
def test_samc_codec_oracle_differential(data):
    """The codec's entry points produce the reference coder's image:
    its training, its blocks, and a decode back to the input."""
    if not data:
        return
    codec = SamcCodec.for_mips(block_size=16)
    image = codec.compress(data)
    model, blocks = samc_compress(codec, data)
    assert image.blocks == blocks
    for table, ref_table in zip(image.metadata["model"].tables, model.tables):
        assert table.tolist() == ref_table.tolist()
    assert codec.decompress(image) == data
