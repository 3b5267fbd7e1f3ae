"""Differentials of the range-table Huffman decoder against the bit walk.

:class:`repro.entropy.huffman.HuffmanDecoder` reads a canonical code's
range table; :class:`tests.oracles.BitWalkDecoder` walks the code one
bit at a time.  The first differential runs both over arbitrary bytes
and arbitrary length tables: complete, incomplete and over-full, with
lengths up to 255, on readers that pad and readers that do not.  Every
symbol, the exception's type, message, category and offset, and the
reader's final position must agree.

The second puts the bit walk in place of the decoder in every codec
that decodes Huffman (SADC-MIPS, SADC-x86, byte-Huffman one block at a
time and in a batch, positional Huffman, gzipish), corrupts an image
or its code, and asks for the same bytes, or the same error, from both.
"""

from __future__ import annotations

from typing import Dict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import byte_huffman, gzipish, positional_huffman
from repro.baselines.byte_huffman import ByteHuffmanCodec
from repro.baselines.gzipish import gzipish_compress, gzipish_decompress
from repro.baselines.positional_huffman import PositionalHuffmanCodec
from repro.bitstream.io import BitReader
from repro.core.lat import CompressedImage
from repro.core.sadc import mips as sadc_mips
from repro.core.sadc import x86 as sadc_x86
from repro.core.sadc.mips import MipsSadcCodec
from repro.core.sadc.x86 import X86SadcCodec
from repro.entropy.huffman import (
    HuffmanCode,
    HuffmanDecoder,
    build_code,
    canonical_codewords,
)
from repro.resilience.errors import CorruptedStreamError
from repro.workloads.suite import generate_benchmark
from tests.oracles import BitWalkDecoder


def _code(lengths: Dict[int, int]) -> HuffmanCode:
    return HuffmanCode(lengths, canonical_codewords(lengths))


def _perturb(lengths: Dict[int, int], changes) -> Dict[int, int]:
    """``lengths`` with the length of the ``i``-th symbol (mod the
    alphabet) set to ``n``, for each ``(i, n)`` in ``changes``."""
    out = dict(lengths)
    symbols = sorted(out)
    for i, n in changes if symbols else ():
        out[symbols[i % len(symbols)]] = n
    return out


complete = st.dictionaries(
    st.integers(0, 300), st.integers(1, 1000), min_size=1, max_size=60
).map(lambda counts: build_code(counts).lengths)

length_tables = st.one_of(
    complete,
    # Complete codes with a few lengths moved: over-full or incomplete.
    st.builds(
        _perturb,
        complete,
        st.lists(
            st.tuples(st.integers(0, 59), st.integers(1, 24)),
            min_size=1, max_size=4,
        ),
    ),
    st.builds(
        _perturb,
        complete,
        st.lists(
            st.tuples(st.integers(0, 59), st.integers(1, 255)),
            min_size=1, max_size=2,
        ),
    ),
    st.dictionaries(st.integers(0, 300), st.integers(1, 12), max_size=40),
    st.dictionaries(
        st.integers(0, 2**32 - 1), st.integers(1, 255), max_size=8
    ),
)


def _run(decoder, data: bytes, pad: bool, count: int):
    """Decode up to ``count`` symbols: the symbols, how it stopped, and
    where the reader ended."""
    reader = BitReader(data, pad=pad)
    symbols = []
    stop = None
    try:
        for _ in range(count):
            symbols.append(decoder.decode_symbol(reader))
    except CorruptedStreamError as error:
        stop = ("CorruptedStreamError", str(error), error.category, error.offset)
    except EOFError as error:
        stop = ("EOFError", str(error))
    return symbols, stop, reader.bit_position


@settings(max_examples=400, deadline=None)
@given(
    length_tables,
    st.binary(max_size=48),
    st.booleans(),
    st.integers(0, 120),
)
def test_decoder_matches_the_bit_walk(lengths, data, pad, count):
    code = _code(lengths)
    assert _run(HuffmanDecoder(code), data, pad, count) == _run(
        BitWalkDecoder(code), data, pad, count
    )


@settings(max_examples=100, deadline=None)
@given(length_tables, st.binary(max_size=48))
def test_decode_matches_the_bit_walk(lengths, data):
    """``decode`` returns a list, as the bit walk's did, or raises its
    error."""
    code = _code(lengths)
    count = 8 * len(data) + 1

    def outcome(decoder):
        try:
            return decoder.decode(data, count)
        except CorruptedStreamError as error:
            return (str(error), error.category, error.offset)
        except EOFError as error:
            return str(error)

    assert outcome(HuffmanDecoder(code)) == outcome(BitWalkDecoder(code))


# ---------------------------------------------------------------------------
# Every consumer, with the bit walk put in place of the decoder


_MIPS = generate_benchmark("gcc", "mips", scale=0.03).code
_X86 = generate_benchmark("gcc", "x86", scale=0.03).code


def _images():
    return {
        "sadc-mips": (sadc_mips, MipsSadcCodec(), MipsSadcCodec().compress(_MIPS)),
        "sadc-x86": (sadc_x86, X86SadcCodec(), X86SadcCodec().compress(_X86)),
        "byte-huffman": (
            byte_huffman, ByteHuffmanCodec(), ByteHuffmanCodec().compress(_MIPS)
        ),
        "positional": (
            positional_huffman,
            PositionalHuffmanCodec(),
            PositionalHuffmanCodec().compress(_MIPS),
        ),
    }


_IMAGES = _images()


def _outcome(decode):
    try:
        return ("ok", decode())
    except CorruptedStreamError as error:
        return ("error", str(error), error.category, error.offset)


def _codes_of(image: CompressedImage) -> Dict[str, HuffmanCode]:
    if "codes" in image.metadata:
        return image.metadata["codes"]
    if "code" in image.metadata:
        return {"code": image.metadata["code"]}
    return dict(enumerate(image.metadata["positional_tables"]))


def _with(image: CompressedImage, blocks, codes) -> CompressedImage:
    metadata = dict(image.metadata)
    if "codes" in metadata:
        metadata["codes"] = codes
    elif "code" in metadata:
        metadata["code"] = codes["code"]
    else:
        metadata["positional_tables"] = [codes[i] for i in sorted(codes)]
    return CompressedImage(
        algorithm=image.algorithm,
        original_size=image.original_size,
        block_size=image.block_size,
        blocks=blocks,
        model_bytes=image.model_bytes,
        metadata=metadata,
    )


def _corrupted(image, block, position, flip, cut, table, changes):
    """``image`` with one byte of one block flipped, that block cut
    short by ``cut`` bytes, and, when ``table`` picks one, a code whose
    lengths were moved."""
    blocks = list(image.blocks)
    index = block % len(blocks)
    payload = bytearray(blocks[index])
    if payload and flip:
        payload[position % len(payload)] ^= flip
    blocks[index] = bytes(payload[: max(0, len(payload) - cut)])
    codes = dict(_codes_of(image))
    if table is not None:
        name = sorted(codes, key=str)[table % len(codes)]
        codes[name] = _code(_perturb(codes[name].lengths, changes))
    return _with(image, blocks, codes)


corruptions = dict(
    block=st.integers(0, 10_000),
    position=st.integers(0, 10_000),
    flip=st.integers(0, 255),
    cut=st.integers(0, 3),
    table=st.none() | st.integers(0, 6),
    changes=st.lists(
        st.tuples(st.integers(0, 300), st.integers(1, 40)),
        min_size=1, max_size=3,
    ),
)


@pytest.mark.parametrize("name", sorted(_IMAGES))
@settings(max_examples=40, deadline=None)
@given(**corruptions)
def test_consumers_match_the_bit_walk(
    name, block, position, flip, cut, table, changes
):
    module, codec, image = _IMAGES[name]
    image = _corrupted(image, block, position, flip, cut, table, changes)
    indices = list(range(image.block_count()))

    def per_block():
        return [codec.decompress_block(image, i) for i in indices]

    expected = _outcome(per_block)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, "HuffmanDecoder", BitWalkDecoder)
        assert _outcome(per_block) == expected
    # The batch entry decodes through the same decoder, or, for
    # byte-Huffman, through the lockstep kernel.
    assert _outcome(lambda: codec.decompress_blocks(image, indices)) == expected


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 10_000), st.integers(1, 255), st.integers(0, 3)
)
def test_gzipish_matches_the_bit_walk(position, flip, cut):
    payload = bytearray(gzipish_compress(_MIPS[:1200]))
    payload[position % len(payload)] ^= flip
    payload = bytes(payload[: len(payload) - cut])
    expected = _outcome(lambda: gzipish_decompress(payload))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gzipish, "HuffmanDecoder", BitWalkDecoder)
        assert _outcome(lambda: gzipish_decompress(payload)) == expected
