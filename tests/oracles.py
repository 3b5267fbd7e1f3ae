"""Reference coders: the executable specification of each fast kernel.

The production codecs in ``src/`` run one path each: SAMC's compiled
tables and fused range-coder loops, the numpy-keyed LZSS matcher and
the integer-keyed LZW.  This module keeps the clarity-first versions
they are pinned to, written as the paper describes them.  Golden
vectors, hypothesis differentials and the benchmark identity checks
call these functions directly and compare with production.

* **SAMC** (Section 3).  :func:`train_block` replays the per-block
  Markov walk into :class:`MarkovCounts`, one :func:`observe` per bit,
  and :meth:`MarkovCounts.freeze` quantises each cell's KT estimate on
  its own; :func:`walk_encode` and :func:`walk_decode` ask the model's
  tables for each bit's prediction (:func:`p0_quantized`).
  :class:`BinaryArithmeticEncoder` and :class:`BinaryArithmeticDecoder`
  are the carry-less range coder, one method call per bit, and
  :func:`flush_interval` ends one block.
  :func:`_encode_reference` is the whole encoder, with the
  per-``(stream, depth)`` bit accounting of :func:`_counting_emit` when
  telemetry is on.  :func:`encode_probability` and
  :func:`decode_probability` store one probability of an archive's
  tables.
* **LZSS** -- :func:`_tokenize_reference`, a hash-chain parse over byte
  strings.
* **LZW** -- :func:`_lzw_compress_reference`, a dictionary of byte
  strings written through ``BitWriter``.
* **I-cache** -- :class:`InstructionCache`, the set-associative LRU
  model as first written: a dict of sets, and a tag search on every
  access.
* **Huffman** -- :class:`BitWalkDecoder`, the bit-at-a-time decoder that
  probes a ``(length, codeword)`` dictionary after every bit.
* **Workload draws** -- :func:`weighted_choice_scan` and
  :func:`zipf_sample_scan`, the linear scans the generators' draw
  tables replace, and :func:`trace_walk`, the fetch-trace generator one
  address at a time.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

import numpy as np

from repro.baselines.lzss import (
    MAX_CHAIN,
    MAX_MATCH,
    MIN_MATCH,
    WINDOW_SIZE,
    Literal,
    Match,
    Token,
)
from repro.baselines.lzw import CLEAR_CODE, FIRST_CODE, MAX_BITS, MIN_BITS
from repro.bitstream.fields import chunk_words, words_to_bytes
from repro.bitstream.io import BitReader, BitWriter
from repro.core.samc.model import Quantizer, SamcModel, node_index
from repro.entropy.arith import PROB_BITS, PROB_ONE, quantize_probability
from repro.fastpath.samc_kernel import StreamSpec
from repro.memory.cache import CacheStats
from repro.obs import get_recorder
from repro.resilience.errors import CATEGORY_SYMBOL, CorruptedStreamError

_TOP = 1 << 24
_BOT = 1 << 16
_MASK = 0xFFFFFFFF


# ---------------------------------------------------------------------------
# The binary range coder


def flush_interval(low: int, range_: int, out: bytearray) -> None:
    """Append the shortest byte prefix of a value in ``[low, low+range)``.

    The one-block flush, trying 0 to 4 bytes in turn: the reference
    encoder ends every block with it, and
    :func:`repro.entropy.arith.flush_blocks`, which flushes every block
    of an image at once, is pinned to it.
    """
    top = low + range_
    for nbytes in range(5):
        shift = 32 - 8 * nbytes
        step = 1 << shift
        value = ((low + step - 1) >> shift) << shift if shift else low
        if low <= value < top or (value == low == 0):
            for byte_index in range(nbytes):
                out.append((value >> (24 - 8 * byte_index)) & 0xFF)
            return
    raise AssertionError("flush failed to find an in-interval value")


class BinaryArithmeticEncoder:
    """Carry-less binary range encoder.

    Call :meth:`encode_bit` once per bit with the model's quantised
    P(bit=0), then :meth:`finish` to flush; the result is a standalone
    byte string decodable by :class:`BinaryArithmeticDecoder`.
    """

    def __init__(self) -> None:
        self._low = 0
        self._range = _MASK
        self._out = bytearray()
        self._finished = False

    def encode_bit(self, bit: int, p0_q: int) -> None:
        """Encode one bit under quantised probability ``p0_q`` of a 0."""
        if self._finished:
            raise RuntimeError("encoder already finished")
        if not 1 <= p0_q <= PROB_ONE - 1:
            raise ValueError(f"quantised probability {p0_q} out of range")
        split = (self._range >> PROB_BITS) * p0_q
        if bit == 0:
            self._range = split
        elif bit == 1:
            self._low = (self._low + split) & _MASK
            self._range -= split
        else:
            raise ValueError(f"bit must be 0 or 1, got {bit!r}")
        self._normalize()

    def _normalize(self) -> None:
        while True:
            if ((self._low ^ (self._low + self._range)) & _MASK) < _TOP:
                pass  # top byte settled: emit it
            elif self._range < _BOT:
                self._range = (-self._low) & (_BOT - 1)
            else:
                break
            self._out.append((self._low >> 24) & 0xFF)
            self._low = (self._low << 8) & _MASK
            self._range = (self._range << 8) & _MASK

    def finish(self) -> bytes:
        """Flush and return the compressed bytes.

        Emits the *shortest* byte prefix of a value inside the final
        interval: the decoder zero-pads reads past the end, so trailing
        zero bytes need not be stored.  Block-oriented compression calls
        this per cache block, so a short flush matters for the ratio.
        """
        if not self._finished:
            flush_interval(self._low, self._range, self._out)
            self._finished = True
        return bytes(self._out)

    @property
    def bytes_emitted(self) -> int:
        """Bytes produced so far (pre-flush)."""
        return len(self._out)


class BinaryArithmeticDecoder:
    """Decoder matching :class:`BinaryArithmeticEncoder`.

    Reading past the end of the payload is legal (the flush tail and the
    final interval allow a few phantom zero bytes), mirroring how the
    paper's refill engine can read slightly beyond a compressed block
    without harm.
    """

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0
        self._low = 0
        self._range = _MASK
        self._code = 0
        for _ in range(4):
            self._code = ((self._code << 8) | self._next_byte()) & _MASK

    def _next_byte(self) -> int:
        byte = self._data[self._pos] if self._pos < len(self._data) else 0
        self._pos += 1
        return byte

    def decode_bit(self, p0_q: int) -> int:
        """Decode one bit under quantised probability ``p0_q`` of a 0."""
        if not 1 <= p0_q <= PROB_ONE - 1:
            raise ValueError(f"quantised probability {p0_q} out of range")
        split = (self._range >> PROB_BITS) * p0_q
        if ((self._code - self._low) & _MASK) < split:
            bit = 0
            self._range = split
        else:
            bit = 1
            self._low = (self._low + split) & _MASK
            self._range -= split
        self._normalize()
        return bit

    def _normalize(self) -> None:
        while True:
            if ((self._low ^ (self._low + self._range)) & _MASK) < _TOP:
                pass
            elif self._range < _BOT:
                self._range = (-self._low) & (_BOT - 1)
            else:
                break
            self._code = ((self._code << 8) | self._next_byte()) & _MASK
            self._low = (self._low << 8) & _MASK
            self._range = (self._range << 8) & _MASK


def encode_bits(bits: List[int], probabilities: List[int]) -> bytes:
    """Encode a bit list under per-bit quantised probabilities."""
    if len(bits) != len(probabilities):
        raise ValueError("bits and probabilities must have equal length")
    encoder = BinaryArithmeticEncoder()
    for bit, p0_q in zip(bits, probabilities):
        encoder.encode_bit(bit, p0_q)
    return encoder.finish()


def decode_bits(data: bytes, probabilities: List[int]) -> List[int]:
    """Decode ``len(probabilities)`` bits (inverse of :func:`encode_bits`)."""
    decoder = BinaryArithmeticDecoder(data)
    return [decoder.decode_bit(p0_q) for p0_q in probabilities]


# ---------------------------------------------------------------------------
# SAMC's Markov walk, one bit at a time


class MarkovCounts:
    """The first pass's state: a (context, node, bit) count per stream.

    It has a model's layout (``width``, ``specs`` and
    ``connect_bits``), so the walks below take either.
    """

    def __init__(
        self, width: int, streams: Sequence[Sequence[int]], connect_bits: int
    ) -> None:
        self.width = width
        self.connect_bits = connect_bits
        self.specs = [StreamSpec(tuple(stream)) for stream in streams]
        self.counts = [
            np.zeros((1 << connect_bits, (1 << spec.k) - 1, 2), dtype=np.int64)
            for spec in self.specs
        ]

    def freeze(self, quantizer: Quantizer = quantize_probability) -> SamcModel:
        """The model: each cell's KT-smoothed P(0), quantised on its own."""
        tables = [
            [
                [
                    quantizer((zeros + 0.5) / (zeros + ones + 1.0))
                    for zeros, ones in row
                ]
                for row in counts.tolist()
            ]
            for counts in self.counts
        ]
        return SamcModel(
            self.width,
            [spec.positions for spec in self.specs],
            self.connect_bits,
            tables,
        )


def observe(counts: np.ndarray, context: int, node: int, bit: int) -> None:
    """Record one training observation in a stream's counts."""
    counts[context, node, bit] += 1


def p0_quantized(table: np.ndarray, context: int, node: int) -> int:
    """Quantised P(next bit = 0) at (context, node) of a stream's table."""
    return int(table[context, node])


def _context_from_bits(model: SamcModel, bits: List[int]) -> int:
    """Connection context: the trailing ``connect_bits`` bits."""
    if model.connect_bits == 0:
        return 0
    context = 0
    for bit in bits[-model.connect_bits :]:
        context = (context << 1) | bit
    return context


def train_block(model: MarkovCounts, words: Sequence[int]) -> None:
    """Accumulate counts over one cache block of words.

    Training replays exactly the walk the coder will perform —
    including the context reset at the block start — so the model
    sees the same conditional events the coder asks it about.
    """
    context = 0
    for word in words:
        for spec, stream in zip(model.specs, model.counts):
            bits: List[int] = []
            prefix = 0
            for depth, pos in enumerate(spec.positions):
                bit = (word >> (model.width - 1 - pos)) & 1
                observe(stream, context, node_index(depth, prefix), bit)
                prefix = (prefix << 1) | bit
                bits.append(bit)
            context = _context_from_bits(model, bits)


def walk_encode(
    model: SamcModel, words: Sequence[int], emit: Callable[[int, int], None]
) -> None:
    """Walk one block, calling ``emit(bit, p0_q)`` for every bit.

    The decompressor performs the mirror-image walk via
    :func:`walk_decode`.  Context and node pointers start fresh, so
    the block is independently decodable.
    """
    context = 0
    for word in words:
        for spec, table in zip(model.specs, model.tables):
            bits: List[int] = []
            prefix = 0
            for depth, pos in enumerate(spec.positions):
                bit = (word >> (model.width - 1 - pos)) & 1
                emit(bit, p0_quantized(table, context, node_index(depth, prefix)))
                prefix = (prefix << 1) | bit
                bits.append(bit)
            context = _context_from_bits(model, bits)


def walk_decode(
    model: SamcModel, word_count: int, next_bit: Callable[[int], int]
) -> List[int]:
    """Decode ``word_count`` words; ``next_bit(p0_q)`` supplies bits."""
    words: List[int] = []
    context = 0
    for _ in range(word_count):
        word = 0
        for spec, table in zip(model.specs, model.tables):
            bits: List[int] = []
            prefix = 0
            for depth, pos in enumerate(spec.positions):
                bit = next_bit(p0_quantized(table, context, node_index(depth, prefix)))
                prefix = (prefix << 1) | bit
                bits.append(bit)
                word |= bit << (model.width - 1 - pos)
            context = _context_from_bits(model, bits)
        words.append(word)
    return words


# ---------------------------------------------------------------------------
# The SAMC codec around the walk


def _block_words(codec, code: bytes) -> List[List[int]]:
    """Words grouped by cache block (last block may be short)."""
    words = chunk_words(code, codec.word_bytes)
    per_block = codec.block_size // codec.word_bytes
    return [
        words[i : i + per_block] for i in range(0, len(words), per_block)
    ]


def _bit_labels(model: SamcModel) -> List[tuple]:
    """Per-word coding order: the ``(stream, depth)`` of each bit.

    :func:`walk_encode` visits bits stream by stream, depth by depth, so
    bit ``i`` of every word maps to the same label — the key the
    bit-accounting channel attributes arithmetic-coder output to.
    """
    return [
        (index, depth)
        for index, spec in enumerate(model.specs)
        for depth in range(spec.k)
    ]


def _encode_reference(codec, model: SamcModel, code: bytes, rec) -> List[bytes]:
    """The reference encoder: one arithmetic-coded payload per block.

    With telemetry on, bits are emitted through
    :func:`_counting_emit` and each block's flush bytes are charged
    to ``flush``; the coded output is the same either way.
    """
    labels = _bit_labels(model)
    per_label: dict = {}
    flush_bits = 0
    blocks: List[bytes] = []
    for block_words in _block_words(codec, code):
        encoder = BinaryArithmeticEncoder()
        emit = encoder.encode_bit
        if rec.enabled:
            emit = _counting_emit(encoder, labels, per_label)
        walk_encode(model, block_words, emit)
        coded = encoder.bytes_emitted
        blocks.append(encoder.finish())
        flush_bits += (len(blocks[-1]) - coded) * 8
    if rec.enabled and blocks:
        for (stream, depth), bits in sorted(per_label.items()):
            rec.add_bits(f"stream{stream}", bits)
            rec.count(f"samc.stream{stream}.depth{depth}.bits", bits)
        rec.add_bits("flush", flush_bits)
        rec.count("samc.blocks_encoded", len(blocks))
        rec.count("samc.words_encoded", len(code) // codec.word_bytes)
    return blocks


def _counting_emit(encoder: BinaryArithmeticEncoder, labels, per_label: dict):
    """``encoder.encode_bit`` that also charges the renormalisation bytes
    each coded bit forces, as bits, to its label in ``per_label``.

    ``labels`` is the per-word coding order from :func:`_bit_labels`;
    bit ``i`` of a block's walk carries ``labels[i % len(labels)]``.
    """
    encode_bit = encoder.encode_bit
    position = 0

    def emit(bit: int, p0_q: int) -> None:
        nonlocal position
        before = encoder.bytes_emitted
        encode_bit(bit, p0_q)
        emitted = encoder.bytes_emitted - before
        if emitted:
            label = labels[position % len(labels)]
            per_label[label] = per_label.get(label, 0) + emitted * 8
        position += 1

    return emit


def samc_compress(codec, code: bytes) -> Tuple[SamcModel, List[bytes]]:
    """The reference two-pass SAMC compression, for a codec built
    without ``optimize``: the model :func:`train_block` counts and
    :meth:`MarkovCounts.freeze` freezes with the codec's quantiser, and
    the coded blocks, with bit accounting when telemetry is on."""
    counts = MarkovCounts(codec.word_bits, codec.streams, codec.connect_bits)
    for block in _block_words(codec, code):
        train_block(counts, block)
    model = counts.freeze(codec._quantizer())
    return model, _encode_reference(codec, model, code, get_recorder())


def samc_decode_block(model: SamcModel, payload: bytes, word_count: int) -> List[int]:
    """One block's words through the reference walk and range decoder."""
    return walk_decode(model, word_count, BinaryArithmeticDecoder(payload).decode_bit)


def samc_decompress(
    codec, model: SamcModel, blocks: Sequence[bytes], size: int
) -> bytes:
    """The first ``size`` bytes back from the reference coder's blocks."""
    per_block = codec.block_size // codec.word_bytes
    left = size // codec.word_bytes
    words: List[int] = []
    for payload in blocks:
        count = min(per_block, left)
        words += samc_decode_block(model, payload, count)
        left -= count
    return words_to_bytes(words, codec.word_bytes)


def samc_decompress_block(codec, image, index: int) -> bytes:
    """One block of a SAMC image, decoded by the reference coder."""
    words = samc_decode_block(
        image.metadata["model"],
        image.blocks[index],
        image.original_block_size(index) // codec.word_bytes,
    )
    return words_to_bytes(words, codec.word_bytes)


def encode_probability(q: int, mode: str) -> bytes:
    """One stored probability of a SAMC archive, as first written: the
    high byte (``full``), all 16 bits (``full16``), or the side bit and
    the smaller side's exponent (``pow2``)."""
    if mode == "full":
        return bytes([q >> 8])
    if mode == "full16":
        return q.to_bytes(2, "big")
    side = 1 if q > 1 << 15 else 0
    lps = (1 << 16) - q if side else q
    return bytes([(side << 7) | (16 - (lps.bit_length() - 1))])


def decode_probability(stored: bytes, mode: str) -> int:
    """The 16-bit P(0) of one stored probability (``stored`` is one
    byte, or two in ``full16``)."""
    if mode == "full":
        return stored[0] << 8
    if mode == "full16":
        return int.from_bytes(stored, "big")
    lps = (1 << 16) >> (stored[0] & 0x1F)
    return (1 << 16) - lps if stored[0] >> 7 else lps


# ---------------------------------------------------------------------------
# LZSS and LZW


def _tokenize_reference(data: bytes) -> List[Token]:
    """The clarity-first parse the fastpath kernel is pinned against."""
    tokens: List[Token] = []
    chains: Dict[bytes, List[int]] = {}
    pos = 0
    n = len(data)
    while pos < n:
        best_length = 0
        best_distance = 0
        if pos + MIN_MATCH <= n:
            key = data[pos : pos + MIN_MATCH]
            for candidate in reversed(chains.get(key, ())):
                if pos - candidate > WINDOW_SIZE:
                    break
                length = _match_length(data, candidate, pos)
                if length > best_length:
                    best_length = length
                    best_distance = pos - candidate
                    if length >= MAX_MATCH:
                        break
        if best_length >= MIN_MATCH:
            tokens.append(Match(best_length, best_distance))
            end = pos + best_length
            while pos < end:
                if pos + MIN_MATCH <= n:
                    _insert(chains, data[pos : pos + MIN_MATCH], pos)
                pos += 1
        else:
            tokens.append(Literal(data[pos]))
            if pos + MIN_MATCH <= n:
                _insert(chains, data[pos : pos + MIN_MATCH], pos)
            pos += 1
    return tokens


def _match_length(data: bytes, candidate: int, pos: int) -> int:
    limit = min(MAX_MATCH, len(data) - pos)
    length = 0
    while length < limit and data[candidate + length] == data[pos + length]:
        length += 1
    return length


def _insert(chains: Dict[bytes, List[int]], key: bytes, pos: int) -> None:
    chain = chains.setdefault(key, [])
    chain.append(pos)
    if len(chain) > MAX_CHAIN:
        del chain[0 : len(chain) - MAX_CHAIN]


def _lzw_compress_reference(data: bytes) -> bytes:
    """The string-keyed parse the fastpath kernel is pinned against."""
    writer = BitWriter()
    # 32-bit big-endian length header so decompression is self-delimiting.
    writer.write_bits(len(data) & 0xFFFFFFFF, 32)
    if not data:
        return writer.getvalue()

    table: Dict[bytes, int] = {bytes([i]): i for i in range(256)}
    next_code = FIRST_CODE
    width = MIN_BITS
    clear_codes = 0
    prefix = bytes([data[0]])
    for byte in data[1:]:
        candidate = prefix + bytes([byte])
        if candidate in table:
            prefix = candidate
            continue
        writer.write_bits(table[prefix], width)
        if next_code < (1 << MAX_BITS):
            table[candidate] = next_code
            next_code += 1
            if next_code > (1 << width) and width < MAX_BITS:
                width += 1
        else:
            # Dictionary full: emit CLEAR and start over, like compress
            # does when its ratio-check fires.
            writer.write_bits(CLEAR_CODE, width)
            table = {bytes([i]): i for i in range(256)}
            next_code = FIRST_CODE
            width = MIN_BITS
            clear_codes += 1
        prefix = bytes([byte])
    writer.write_bits(table[prefix], width)
    if clear_codes:
        get_recorder().count("lzw.clear_codes", clear_codes)
    return writer.getvalue()


# ---------------------------------------------------------------------------
# I-cache


class InstructionCache:
    """The set-associative LRU cache model ``repro.memory.cache`` is
    pinned to: every access locates its set and searches its tags."""

    def __init__(
        self,
        size_bytes: int = 4096,
        block_size: int = 32,
        associativity: int = 2,
    ) -> None:
        if size_bytes % (block_size * associativity) != 0:
            raise ValueError(
                "cache size must be a multiple of block_size * associativity"
            )
        self.block_size = block_size
        self.associativity = associativity
        self.n_sets = size_bytes // (block_size * associativity)
        #: set index -> list of tags, most recently used last.
        self._sets: Dict[int, List[int]] = {}
        self.stats = CacheStats()

    def _locate(self, address: int) -> tuple:
        block = address // self.block_size
        return block % self.n_sets, block // self.n_sets

    def access(self, address: int) -> bool:
        """Touch ``address``; returns True on hit, False on miss (fills)."""
        set_index, tag = self._locate(address)
        ways = self._sets.setdefault(set_index, [])
        self.stats.accesses += 1
        if tag in ways:
            ways.remove(tag)
            ways.append(tag)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        ways.append(tag)
        if len(ways) > self.associativity:
            ways.pop(0)
        return False

    def contains(self, address: int) -> bool:
        """Non-mutating lookup (no stats, no LRU update)."""
        set_index, tag = self._locate(address)
        return tag in self._sets.get(set_index, [])

    def invalidate(self, address: int) -> None:
        """Drop the line holding ``address``, if any (stats are kept)."""
        set_index, tag = self._locate(address)
        ways = self._sets.get(set_index, [])
        if tag in ways:
            ways.remove(tag)

    def flush(self) -> None:
        """Invalidate all lines (stats are kept)."""
        self._sets.clear()


# ---------------------------------------------------------------------------
# Huffman: the bit walk


class BitWalkDecoder:
    """:class:`repro.entropy.huffman.HuffmanDecoder` one bit at a time.

    After every bit it looks the bits read so far up among the code's
    ``(length, codeword)`` pairs.  One bit past the longest length it
    gives up with a ``symbol`` error at the byte holding that bit; the
    stream ending first is the reader's :class:`EOFError`.
    """

    def __init__(self, code) -> None:
        self._table = {
            (code.lengths[s], code.codewords[s]): s for s in code.lengths
        }
        self._max_length = max(code.lengths.values(), default=0)

    def decode_symbol(self, reader: BitReader) -> int:
        length = 0
        word = 0
        while True:
            word = (word << 1) | reader.read_bit()
            length += 1
            if (length, word) in self._table:
                return self._table[(length, word)]
            if length > self._max_length:
                raise CorruptedStreamError(
                    "invalid Huffman bit sequence",
                    offset=reader.bit_position // 8,
                    category=CATEGORY_SYMBOL,
                )

    def decode(self, data: bytes, count: int) -> List[int]:
        reader = BitReader(data)
        return [self.decode_symbol(reader) for _ in range(count)]


# ---------------------------------------------------------------------------
# Workload draws


def weighted_choice_scan(rng, table: Sequence[Tuple[float, object]]) -> object:
    """Choose from ``[(weight, item), ...]``: the first item whose
    running weight reaches ``rng.random()`` times the total."""
    total = sum(weight for weight, _item in table)
    point = rng.random() * total
    acc = 0.0
    for weight, item in table:
        acc += weight
        if point <= acc:
            return item
    return table[-1][1]


def zipf_sample_scan(rng, items: Sequence[object], skew: float) -> object:
    """One Zipf draw, p(rank r) ∝ 1/(r+1)**skew: the first item whose
    running normalised weight reaches ``rng.random()``."""
    weights = [1.0 / (rank + 1) ** skew for rank in range(len(items))]
    total = sum(weights)
    point = rng.random()
    acc = 0.0
    for weight, item in zip(weights, items):
        acc += weight / total
        if point <= acc:
            return item
    return items[-1]


def trace_walk(
    code_size: int,
    length: int,
    seed: int,
    mean_loop_bytes: int,
    mean_iterations: int,
) -> Iterator[int]:
    """:func:`repro.memory.trace.generate_trace` one address at a time:
    each loop draws its size, start and iteration count, in that order,
    and yields its words until ``length`` addresses are out."""
    if code_size < 8:
        raise ValueError("code_size too small to trace")
    rng = random.Random(seed)
    emitted = 0
    while emitted < length:
        loop_bytes = max(8, int(rng.expovariate(1.0 / mean_loop_bytes)))
        loop_bytes = min(loop_bytes, code_size)
        start = rng.randrange(0, max(1, code_size - loop_bytes)) & ~3
        iterations = max(1, int(rng.expovariate(1.0 / mean_iterations)))
        for _ in range(iterations):
            address = start
            while address < start + loop_bytes and emitted < length:
                yield address
                emitted += 1
                address += 4
            if emitted >= length:
                return
