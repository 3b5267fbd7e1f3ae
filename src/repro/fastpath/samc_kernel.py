"""SAMC's probability memory, and the kernels that code against it.

:class:`SamcModel` is the one SAMC model: the quantised left-branch
probability of every node of every stream's Markov tree, one tree per
connection context, validated once when the model is built, and the
coders that index those tables.  Training
(:func:`repro.core.samc.model.train_model`) and the archive reader
(:mod:`repro.core.serialize`) both build it directly.

The reference SAMC coder (``tests/oracles.py``) costs three Python
calls and a numpy scalar index *per coded bit*: a step of the walk, a
probability lookup and a coder step.  This module, the one SAMC coding
path the codec runs, removes all of it:

* **The walk** (:func:`walk_program`) — the Markov walk is fully
  determined by the data, so every coded bit and the table cell that
  predicts it (a ``(context, node)`` entry) are computed for the *whole
  program at once* with numpy array arithmetic.  It reads only the
  stream layout, so a compress walks once, before its model exists:
  training counts the walk and encoding codes the same one.
* **Encoding** (:meth:`SamcModel.encode_blocks`) — the per-bit
  quantised probabilities are one gather from the stream tables laid end
  to end (laid out on the first encode, so a model that only decodes
  never holds that copy), and one ``numpy.where`` signs them: ``p0``
  for a 0-bit, ``-p0`` for a 1-bit.  Each block's span of that one list
  runs a single tight Python loop of the carry-less range coder, whose
  split's sign is the bit, appending renormalisation bytes straight into
  a ``bytearray``.  The final flush is the *same function* the reference
  encoder uses (:func:`repro.entropy.arith.flush_interval`).
* **Decoding** (:meth:`SamcModel.decode_block`) — inherently
  sequential (each decoded bit steers the walk), so the win comes from
  spending fewer Python operations per coded bit.  The range decoder is
  inlined and keeps ``D = (code - low) mod 2**32`` instead of the code
  register; each stream's Markov trees, one per context, are nested
  tuples, so a coded bit unpacks the node it has reached into its
  probability and its two children, and the leaf the stream ends on
  unpacks into its word bits and the next context; and the
  renormalisation loop is entered only while ``rng < 2**24``, the one
  range in which it can shift.  No attribute lookups, method calls or
  index arithmetic per bit, and the trees are built on the first
  decode, so a model that only encodes never builds them.
* **Batch decoding** (:meth:`SamcModel.decode_blocks`) — blocks
  are independent by construction (coder state, Markov context, and tree
  pointers all reset at block boundaries), and every block follows the
  *same* (stream, depth) bit schedule; only the per-block coder state
  differs.  The lockstep decoder therefore runs the range decoder across
  the whole batch at once: one vectorised split/branch/renormalisation
  step over all blocks per scheduled bit, with numpy boolean masks
  selecting the blocks that renormalise at each step.  Masked blocks
  simply do not advance their read pointers or shift their coder
  registers, so every block's state trajectory is bit-for-bit the
  trajectory the scalar loop would have produced — which is why the
  batch path is byte-identical, not merely equivalent.  A block past
  its word count keeps decoding its own lane, and its extra words are
  dropped.
* **Batch encoding** (:meth:`SamcModel.encode_blocks` above a
  batch threshold) — the same lockstep structure in reverse: the walk's
  bit matrix and the gathered probability matrix of the full blocks are
  transposed to bit-major order and all blocks' range coders advance
  together, with renormalisation bytes stored at per-block cursors in
  one output row per block; a short last block runs the scalar loop.

The lockstep step has a fixed numpy-call cost per scheduled bit that is
(nearly) independent of the batch size, while the scalar loops scale
linearly in it — so vectorisation only wins above a crossover batch,
measured separately for each direction: :data:`DEFAULT_BATCH_MIN` for
decode and :data:`DEFAULT_ENCODE_BATCH_MIN` for encode
(``REPRO_BATCH_MIN`` overrides both).  Below its threshold a batch
entry point falls back to the fused scalar loop, so small batches never
regress.

Every loop follows the reference control flow (where the scalar decoder
departs from it, its docstring shows why the state trajectory is the
same), so the output is bit-identical; the golden-vector and
differential tests pin it.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.entropy.arith import PROB_BITS, PROB_ONE, flush_interval
from repro.obs import get_recorder
from repro.resilience.errors import CATEGORY_STRUCTURE, CorruptedStreamError

_MASK = 0xFFFFFFFF
_TOP = 1 << 24
_BOT = 1 << 16

#: Batch size from which :meth:`SamcModel.decode_blocks` runs the
#: lockstep decoder (each numpy call costs ~1µs regardless of batch
#: size, so the vectorised step only amortises over enough blocks).  It
#: sits below the measured decode crossover, ~150–190 blocks, so that
#: ``serve``'s hot set decodes on both kernels (DESIGN.md, "Dispatch
#: threshold").
DEFAULT_BATCH_MIN = 96

#: Measured crossover from which :meth:`SamcModel.encode_blocks`
#: runs the lockstep encoder instead of the signed scalar loop
#: (DESIGN.md, "Dispatch threshold").
DEFAULT_ENCODE_BATCH_MIN = 96

#: Streams deeper than this would need oversized prefix-deposit LUTs
#: (2**k entries); no real configuration comes close, but stay safe.
_MAX_LUT_DEPTH = 12


def batch_min(default: int = DEFAULT_BATCH_MIN) -> int:
    """Batch size at which a lockstep kernel engages.

    ``default`` is the kernel's measured crossover:
    :data:`DEFAULT_BATCH_MIN` for decode, :data:`DEFAULT_ENCODE_BATCH_MIN`
    for encode.  ``REPRO_BATCH_MIN`` overrides both — set it to ``1`` to
    force the vectorised paths (the differential tests do, so small
    ragged batches exercise the lockstep code), or very high to pin the
    scalar loops.
    """
    raw = os.environ.get("REPRO_BATCH_MIN")
    if raw is None:
        return default
    try:
        return max(1, int(raw))
    except ValueError:
        return default


@dataclass(frozen=True)
class StreamSpec:
    """One stream: the MSB-first bit positions it covers in the word."""

    positions: Tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.positions)


def stream_specs(
    width: int, streams: Sequence[Sequence[int]], connect_bits: int
) -> List[StreamSpec]:
    """The layout of a ``width``-bit word's streams, checked.

    The streams must partition the word's bit positions, each covering
    at least one bit, and ``connect_bits`` must be non-negative; a
    ``ValueError`` says which rule failed.
    """
    if connect_bits < 0:
        raise ValueError("connect_bits must be non-negative")
    covered = sorted(pos for stream in streams for pos in stream)
    if covered != list(range(width)):
        raise ValueError(
            f"streams must partition bit positions 0..{width - 1}, got {covered}"
        )
    specs = [StreamSpec(tuple(stream)) for stream in streams]
    if any(spec.k == 0 for spec in specs):
        raise ValueError("stream must cover at least one bit")
    return specs


class SamcWalk(NamedTuple):
    """A program's Markov walk: every coded bit and the cell predicting it.

    ``bits`` and ``cells`` are ``(n_words, width)`` int64 matrices in
    coding order (stream by stream, depth by depth).  A cell indexes the
    model's stream tables laid end to end: the bit stream ``s`` codes at
    depth ``d`` under context ``c`` after the prefix ``p`` is predicted
    by cell ``offset[s] + c * nodes[s] + (1 << d) - 1 + p``, where
    ``offset[s]`` counts the cells of the streams before it.  Training
    counts the walk and encoding codes it, so a compress computes it
    once.
    """

    bits: np.ndarray
    cells: np.ndarray
    words_per_block: int


def walk_program(
    width: int,
    specs: Sequence[StreamSpec],
    connect_bits: int,
    words: Sequence[int],
    words_per_block: int,
) -> SamcWalk:
    """Vectorised Markov walk over a whole program.

    Only the stream layout is read, so a program is walked before its
    model is trained.  The walk visits exactly the (context, node, bit)
    triples of the reference walk (``tests/oracles.py``), with the
    context reset at every cache-block boundary.  Each stream's bits are
    read as one integer ``value``; the prefix before depth ``d`` is
    ``value >> (k - d)``, and the value's low ``connect_bits`` bits are
    the next stream's context.
    """
    arr = np.asarray(words, dtype=np.int64)
    ks = np.array([spec.k for spec in specs], dtype=np.int64)
    stream = np.repeat(np.arange(len(specs)), ks)  # column -> stream
    depth = np.concatenate([np.arange(k, dtype=np.int64) for k in ks])
    shifts = np.array(
        [width - 1 - p for spec in specs for p in spec.positions], dtype=np.int64
    )
    bits = (arr[:, None] >> shifts) & 1
    starts = np.cumsum(ks) - ks
    values = np.add.reduceat(
        bits << (ks[stream] - 1 - depth), starts, axis=1
    )
    tails = values & ((1 << np.minimum(connect_bits, ks)) - 1)
    contexts = np.empty_like(values)
    contexts[:, 1:] = tails[:, :-1]
    contexts[1:, 0] = tails[:-1, -1]
    contexts[::words_per_block, 0] = 0  # context resets at block starts
    nodes = (1 << ks) - 1
    sizes = nodes << connect_bits  # one tree per context
    offsets = np.cumsum(sizes) - sizes
    cells = values[:, stream] >> (ks[stream] - depth)
    cells += contexts[:, stream] * nodes[stream]
    cells += offsets[stream] + (1 << depth) - 1
    return SamcWalk(bits, cells, words_per_block)


def _deposit_table(shifts: Sequence[int]) -> Sequence[int]:
    """Prefix → word bits for one stream.

    Entry ``p`` places the bits of the ``len(shifts)``-bit prefix ``p``
    (first decoded bit most significant) at their word positions, so a
    whole stream's decoded bits land in the word with one lookup.
    Adjacent positions form a run (their shifts fall by one, so index
    plus shift is constant along it), and a run's slice of the prefix
    lands in the word as one shifted count: a stream of adjacent
    positions is a single ``range``, and each further run multiplies the
    table by its counts.
    """
    runs = [
        [shift for _, shift in run]
        for _, run in itertools.groupby(enumerate(shifts), key=sum)
    ]
    counts = [range(0, (1 << len(run)) << run[-1], 1 << run[-1]) for run in runs]
    table = counts[0]
    for run_counts in counts[1:]:
        table = [word | count for word in table for count in run_counts]
    return table


def _markov_trees(
    table: np.ndarray, shifts: Sequence[int], ctx_mask: int
) -> list:
    """One stream's Markov trees as nested tuples: the root per context.

    An internal node is ``(p0, child0, child1)`` and a leaf is ``(word
    bits, next context)``.  A leaf depends only on the prefix that
    reaches it, so every context's tree shares one leaf tuple per
    prefix.  Each tree is built bottom up, one level per step: the nodes
    at depth ``d`` are its row's entries ``2**d - 1`` to ``2**(d+1) -
    2``, and the children of a level's ``i``-th node are the next
    level's nodes ``2i`` and ``2i + 1``.
    """
    # The next context is the prefix's low bits, which cycle.
    leaves = list(zip(
        _deposit_table(shifts), itertools.cycle(range(ctx_mask + 1))
    ))
    roots = []
    for row in table.tolist():
        level = leaves
        for depth in range(len(shifts) - 1, -1, -1):
            children = iter(level)
            level = list(zip(
                row[(1 << depth) - 1 : (2 << depth) - 1], children, children
            ))
        roots += level
    return roots


class SamcModel:
    """The complete per-program SAMC model, and its coders.

    Parameters
    ----------
    width:
        Instruction width in bits (32 for MIPS, 8 for byte-oriented x86).
    streams:
        Bit-position groups.  Together they must cover every position of
        the word exactly once (a partition), in coding order.
    connect_bits:
        How many trailing bits of the previous stream select the tree
        replica of the next stream (0 disables connection — independent
        trees, the Figure 3 baseline).
    tables:
        Per stream, its ``(1 << connect_bits, 2**k - 1)`` table of
        quantised P(0), one row per context, indexed by heap node.

    Construction checks the partition and every table's shape
    (``ValueError``), and that every probability lies in ``[1,
    PROB_ONE - 1]``: a 0 or ``PROB_ONE`` collapses one side of the range
    coder's split, and the decoder's renormalisation loop would spin
    forever on it, so such a table raises a ``structure``
    :class:`CorruptedStreamError`.  The tables are kept read-only, so a
    model is immutable and safe to share across threads and requests.
    Each direction's coder tables are built on its first use, so a model
    that only encodes (or only decodes) never builds the other's.
    """

    def __init__(
        self,
        width: int,
        streams: Sequence[Sequence[int]],
        connect_bits: int,
        tables: Sequence[np.ndarray],
    ) -> None:
        specs = stream_specs(width, streams, connect_bits)
        if len(tables) != len(specs):
            raise ValueError("one table per stream required")
        contexts = 1 << connect_bits
        held = []
        for spec, table in zip(specs, tables):
            table = np.array(table, dtype=np.int64)
            shape = (contexts, (1 << spec.k) - 1)
            if table.shape != shape:
                raise ValueError(f"table shape {table.shape} != {shape}")
            table.setflags(write=False)
            held.append(table)
        for table in held:
            if table.min() < 1 or table.max() > PROB_ONE - 1:
                raise CorruptedStreamError(
                    "SAMC table holds probabilities outside "
                    f"[1, {PROB_ONE - 1}]",
                    category=CATEGORY_STRUCTURE,
                )
        self.width = width
        self.connect_bits = connect_bits
        self.specs = specs
        self.tables = held
        #: Per stream: bit-placement shifts and next-context mask.
        self._streams = [
            (
                tuple(width - 1 - p for p in spec.positions),
                (1 << min(connect_bits, spec.k)) - 1 if connect_bits else 0,
            )
            for spec in specs
        ]
        # Coder tables are built lazily: the encoder's on the first
        # encode_blocks, the scalar decoder's on the first decode_block,
        # the lockstep batch ones on the first batch call.
        self._flat_tables: Optional[np.ndarray] = None
        self._decode_streams: Optional[list] = None
        self._batch_streams: Optional[list] = None

    # -- storage accounting ---------------------------------------------

    def probability_count(self) -> int:
        """Stored probabilities across all trees and replicas."""
        return sum(table.size for table in self.tables)

    def storage_bits(self, bits_per_probability: int = 16) -> int:
        """Model table size: probabilities plus the stream position map."""
        position_map_bits = self.width * max(1, (self.width - 1).bit_length())
        return self.probability_count() * bits_per_probability + position_map_bits

    def storage_bytes(self, bits_per_probability: int = 16) -> int:
        return (self.storage_bits(bits_per_probability) + 7) // 8

    # -- coder tables ---------------------------------------------------

    def _compile_encode(self) -> np.ndarray:
        """Every stream's table laid end to end, which a walk's cells
        index (cached)."""
        if self._flat_tables is None:
            self._flat_tables = np.concatenate(
                [table.ravel() for table in self.tables]
            )
        return self._flat_tables

    def _compile_decode(self) -> list:
        """Per-stream trees for :meth:`decode_block` (cached).

        For each stream: its :func:`_markov_trees` roots, indexed by
        context, and its depth range.
        """
        if self._decode_streams is None:
            self._decode_streams = [
                (_markov_trees(table, shifts, ctx_mask), range(len(shifts)))
                for table, (shifts, ctx_mask) in zip(self.tables, self._streams)
            ]
        return self._decode_streams

    def _compile_batch(self) -> Optional[list]:
        """Per-stream arrays for the lockstep batch coders (cached).

        For each stream: its quantised-probability table as ``uint32``
        (the decoder's coder arrays are ``uint32``), split into one array
        per tree depth ``d`` whose entry ``(context << d) | prefix`` is
        the node that prefix reaches under that context, so the next
        depth's index is twice this one plus the decoded bit; the
        prefix→word-bits :func:`_deposit_table`, which places a whole
        stream's decoded bits with one gather instead of one shift-or
        per bit; and the masks that take the prefix and the next
        context from the index the stream ends on.
        """
        if self._batch_streams is not None:
            return self._batch_streams
        if any(len(shifts) > _MAX_LUT_DEPTH for shifts, _ in self._streams):
            return None
        compiled = []
        for table, (shifts, ctx_mask) in zip(self.tables, self._streams):
            k = len(shifts)
            probs = table.astype(np.uint32)
            levels = [
                probs[:, (1 << depth) - 1 : (2 << depth) - 1].ravel()
                for depth in range(k)
            ]
            # Built unsigned and viewed as int64, so a 64-bit word's
            # top bit is the sign bit (as in ``word_array``).
            lut = np.array(_deposit_table(shifts), dtype=np.uint64).view(
                np.int64
            )
            compiled.append((levels, lut, (1 << k) - 1, ctx_mask))
        self._batch_streams = compiled
        return compiled

    # -- encode --------------------------------------------------------

    def encode_blocks(  # repro: noqa dual-path-drift (whole-program vectorised encode; oracle is the per-block reference encoder in tests/oracles.py, differential-tested)
        self, walk: SamcWalk
    ) -> List[bytes]:
        """Encode a program's walk (:func:`walk_program` over this
        model's layout), one payload per cache block.

        Every coded bit's probability is one gather from the stream
        tables laid end to end.  From :data:`DEFAULT_ENCODE_BATCH_MIN`
        blocks up the lockstep encoder codes the full blocks; every
        other block's span goes to :func:`_encode_span` as one signed
        list, ``p0`` for a 0-bit and ``-p0`` for a 1-bit.
        """
        n, width = walk.bits.shape
        if n == 0:
            return []
        words_per_block = walk.words_per_block
        probs = self._compile_encode().take(walk.cells)
        rec = get_recorder()
        payloads: List[bytes] = []
        full = 0
        if not rec.enabled and -(-n // words_per_block) >= batch_min(
            DEFAULT_ENCODE_BATCH_MIN
        ):
            full = n - n % words_per_block
        if full:
            payloads = _encode_blocks_vec(
                walk.bits[:full], probs[:full], words_per_block
            )
        bits = walk.bits[full:]
        signed = np.where(bits, -probs[full:], probs[full:]).ravel().tolist()
        step = words_per_block * width
        spans = [
            signed[start : start + step] for start in range(0, len(signed), step)
        ]
        if rec.enabled:
            return self._encode_blocks_instrumented(rec, spans, n)
        payloads.extend(_encode_span(span) for span in spans)
        return payloads

    def _encode_blocks_instrumented(self, rec, spans, n) -> List[bytes]:
        """Obs-on encode path: same spans through :func:`_encode_span_obs`,
        which attributes renormalisation bytes to the (stream, depth) bit
        that forced them — output stays byte-identical."""
        labels = [
            (index, depth)
            for index, spec in enumerate(self.specs)
            for depth in range(spec.k)
        ]
        per_label: dict = {}
        flush_bits = 0
        payloads: List[bytes] = []
        for span in spans:
            payload, block_flush = _encode_span_obs(span, labels, per_label)
            flush_bits += block_flush
            payloads.append(payload)
        for (stream, depth), bits in sorted(per_label.items()):
            rec.add_bits(f"stream{stream}", bits)
            rec.count(f"samc.stream{stream}.depth{depth}.bits", bits)
        rec.add_bits("flush", flush_bits)
        rec.count("samc.blocks_encoded", len(payloads))
        rec.count("samc.words_encoded", n)
        return payloads

    # -- decode --------------------------------------------------------

    def decode_block(self, payload: bytes, word_count: int) -> List[int]:
        """Decode one cache block: fused Markov walk + range decoder.

        The coder state lives in locals, and each coded bit costs one
        tuple unpack, a multiply, a compare and a few adds:

        * Instead of the ``code`` register the loop keeps ``D = (code -
          low) mod 2**32``, as :meth:`_decode_blocks_vec` does: the bit
          test is ``D < split``, a 1-bit subtracts ``split`` from ``D``,
          and a renormalisation shifts the next byte into ``D``.
        * Each stream walks the current context's tree
          (:func:`_markov_trees`) from its root.  A node unpacks into
          ``p0`` and its two children; ``node`` takes the first child
          in the unpack, and a 1-bit replaces it with the second.  After
          the stream's last bit ``node`` is a leaf, which unpacks into
          the stream's word bits and the next stream's context.
        * Renormalisation is entered only while ``rng < 2**24``.  Every
          reachable state has ``low + rng <= 2**32``: a 0-bit shrinks
          ``rng``, a 1-bit moves ``split`` from ``rng`` to ``low`` (so
          ``low`` needs no mask there), a settled shift drops the top
          byte that ``low`` and ``low + rng`` share, and an underflow
          shift lands the sum exactly on ``2**32``.  The sum stays at
          ``2**32`` only while ``rng < 2**24``: bits shrink ``rng``, no
          shift there can be settled, and an underflow shift keeps
          ``rng`` and scales it from below ``2**16``.  So while ``rng >=
          2**24``, ``low + rng`` is below ``2**32`` and at least ``2**24``
          above ``low``: their top bytes differ (not settled) and ``rng
          >= 2**16`` (no underflow), so the reference loop would not
          shift either.  Inside the loop ``rng << 8`` stays within 32
          bits, and the settled test needs no mask on ``low + rng`` (at
          ``2**32`` both forms read unsettled).

        Reads past the end of ``payload`` see zeros, as in the reference
        range decoder (``tests/oracles.py``).
        """
        mask, top, bot, prob_bits = _MASK, _TOP, _BOT, PROB_BITS
        streams = self._compile_decode()
        data = payload
        dlen = len(data)
        low = 0
        rng = mask
        D = 0
        pos = 0
        for _ in range(4):
            D = (D << 8) | (data[pos] if pos < dlen else 0)
            pos += 1
        words: List[int] = []
        context = 0
        for _ in range(word_count):
            word = 0
            for trees, depths in streams:
                node = trees[context]
                for _ in depths:
                    p0, node, one = node
                    split = (rng >> prob_bits) * p0
                    if D < split:
                        rng = split
                    else:
                        D -= split
                        low += split
                        rng -= split
                        node = one
                    while rng < top:  # repro: noqa loop-progress (pos advances every iteration; rng >= 1 grows 256x per shift, bar one underflow that cannot raise it, so the loop ends within a few shifts - differential-tested)
                        if (low ^ (low + rng)) >= top:
                            if rng >= bot:
                                break
                            rng = (-low) & (bot - 1)
                        D = ((D << 8) | (data[pos] if pos < dlen else 0)) & mask
                        pos += 1
                        low = (low << 8) & mask
                        rng <<= 8
                bits, context = node
                word |= bits
            words.append(word)
        return words

    def decode_blocks(
        self, payloads: Sequence[bytes], word_counts: Sequence[int]
    ) -> List[List[int]]:
        """Decode a batch of independent cache blocks.

        Byte-identical to calling :meth:`decode_block` per element; above
        :func:`batch_min` blocks the lockstep vectorised decoder runs,
        below it the fused scalar loop (which is faster there) does.
        """
        if len(payloads) != len(word_counts):
            raise ValueError("payloads and word_counts must align")
        if len(payloads) >= batch_min():
            compiled = self._compile_batch()
            if compiled is not None:
                return self._decode_blocks_vec(compiled, payloads, word_counts)
        return [
            self.decode_block(payload, count)
            for payload, count in zip(payloads, word_counts)
        ]

    def _decode_blocks_vec(
        self,
        compiled: list,
        payloads: Sequence[bytes],
        word_counts: Sequence[int],
    ) -> List[List[int]]:
        """The lockstep batch range decoder.

        All blocks share one bit schedule — (stream, depth) pairs in
        coding order — so the only per-block state is the coder triple
        and the Markov node index, held as length-``batch`` arrays.
        Instead of the coder's ``code`` register we track
        ``D = (code - low) & MASK`` (the branch test needs only ``D``,
        saving one vector op per bit).  The coder arrays are ``uint32``,
        so a shift drops the bits past 32 with no mask.  Every reachable
        state keeps ``low + rng <= 2**32`` (see :meth:`decode_block`):
        ``split < rng`` and ``low + split < 2**32``, so a bit neither
        wraps nor needs a mask, a shifting block's ``rng < 2**24``, and
        ``low + rng`` wraps to 0 only at ``2**32``, where ``rng < 2**24``
        and ``low ^ 0 = low >= 2**24`` reads unsettled, as the unwrapped
        sum does.  A block that does not renormalise shifts by 0 bits
        and ORs in a zeroed byte, which keeps every step unmasked
        arithmetic.

        Renormalisation runs one shift round per coded bit and tests
        whether any block needs another, which is rare (38 of the
        282,000 coded bits of a 1,100-block image).  With ``x = low ^
        (low + rng)`` taken before the round, a block needs another
        only if ``min(x, rng) < 2**16`` after it: a block that did not
        shift is unchanged and had ``x >= 2**24`` and ``rng >= 2**16``;
        a settled shift drops the top byte that ``low`` and ``low +
        rng`` share, so its new ``x`` is ``x << 8``, settled again only
        if ``x < 2**16``; and after an underflow shift the sum is
        ``2**32``, unsettled, so only a range below ``2**16`` shifts it
        again.  When the test holds, the loop runs the full reference
        condition.

        Lanes never mix, so a block past its word count keeps decoding
        its own lane, as the scalar loop would with a larger count, and
        its extra words are trimmed at the end.  Payload bytes live in
        one flat zero-padded array with a per-block stride, and a read
        past a block's payload is clamped to the zero just after it —
        the same "reads past the end see zeros" convention as the
        scalar loop, however far a corrupted or finished block reads.
        Scalar operands are held as full-batch arrays, which numpy
        combines with the coder arrays faster than a Python int.  The
        words are read back unsigned, so a 64-bit word's top bit is not
        a sign.
        """
        batch = len(payloads)
        if batch == 0:
            return []
        max_words = max(word_counts)
        if max_words == 0:
            return [[] for _ in payloads]
        stride = max(len(p) for p in payloads) + 8
        padded = bytearray(batch * stride)
        for i, payload in enumerate(payloads):
            padded[i * stride : i * stride + len(payload)] = payload
        flat = np.frombuffer(bytes(padded), dtype=np.uint8).astype(np.uint32)

        low = np.zeros(batch, dtype=np.uint32)
        rng = np.full(batch, _MASK, dtype=np.uint32)
        D = np.zeros(batch, dtype=np.uint32)
        pos = np.arange(batch, dtype=np.int64) * stride
        end = pos + np.array([len(p) for p in payloads], dtype=np.int64)
        for _ in range(4):
            D <<= 8
            D |= flat.take(np.minimum(pos, end))
            pos += 1
        node = np.zeros(batch, dtype=np.int64)  # (context << depth) | prefix
        words = np.zeros((batch, max_words), dtype=np.int64)

        # Preallocated scratch for the per-bit step.
        at = np.empty(batch, dtype=np.int64)
        prefix = np.empty(batch, dtype=np.int64)
        split = np.empty(batch, dtype=np.uint32)
        t1 = np.empty(batch, dtype=np.uint32)
        bs = np.empty(batch, dtype=np.uint32)
        shift = np.empty(batch, dtype=np.uint32)
        bit = np.empty(batch, dtype=bool)
        settled = np.empty(batch, dtype=bool)
        under = np.empty(batch, dtype=bool)
        shift_in = np.empty(batch, dtype=bool)
        word = np.empty(batch, dtype=np.int64)
        prob_bits, top, bot, low_bits, eight = (
            np.full(batch, value, dtype=np.uint32)
            for value in (PROB_BITS, _TOP, _BOT, _BOT - 1, 8)
        )
        # The per-bit and per-round ufuncs, bound once.
        add, subtract, multiply = np.add, np.subtract, np.multiply
        right_shift, minimum, copyto = np.right_shift, np.minimum, np.copyto
        less, greater_equal, nonzero = np.less, np.greater_equal, np.count_nonzero
        bitwise_xor, logical_or = np.bitwise_xor, np.logical_or

        for w in range(max_words):
            word[:] = 0
            for levels, lut, prefix_mask, ctx_mask in compiled:
                for level in levels:
                    p0 = level[node]
                    right_shift(rng, prob_bits, out=t1)
                    multiply(t1, p0, out=split)
                    greater_equal(D, split, out=bit)
                    multiply(split, bit, out=bs)
                    D -= bs
                    low += bs
                    subtract(rng, split, out=t1)
                    copyto(split, t1, where=bit)
                    rng, split = split, rng  # the new range; old as scratch
                    node += node
                    node += bit
                    while True:
                        # Carry-less renorm condition, vectorised: a
                        # block shifts a byte when its top byte settled
                        # (low and low+rng agree) or its range
                        # underflowed below 2**16.
                        add(low, rng, out=t1)
                        bitwise_xor(t1, low, out=t1)
                        less(t1, top, out=settled)
                        less(rng, bot, out=under)
                        logical_or(settled, under, out=shift_in)
                        if not nonzero(shift_in):
                            break
                        if nonzero(under):
                            np.greater(under, settled, out=under)  # underflow
                            np.negative(low, out=bs)
                            bs &= low_bits
                            copyto(rng, bs, where=under)
                        multiply(shift_in, eight, out=shift)
                        byte = flat.take(minimum(pos, end, out=at))
                        byte *= shift_in
                        D <<= shift
                        D |= byte
                        pos += shift_in
                        low <<= shift
                        rng <<= shift
                        minimum(t1, rng, out=t1)  # another round? (above)
                        less(t1, bot, out=shift_in)
                        if not nonzero(shift_in):
                            break
                np.bitwise_and(node, prefix_mask, out=prefix)
                word |= lut[prefix]
                np.bitwise_and(node, ctx_mask, out=node)
            words[:, w] = word
        return [
            row[:count]
            for row, count in zip(words.view(np.uint64).tolist(), word_counts)
        ]


def _encode_blocks_vec(
    bits_mat: np.ndarray, probs_mat: np.ndarray, words_per_block: int
) -> List[bytes]:
    """Lockstep batch range encoder over whole blocks: all blocks
    advance one bit at a time.

    The mirror image of :meth:`SamcModel._decode_blocks_vec`.  The
    walk's bits and their gathered probabilities, which cover whole
    blocks only (the caller codes a short last block with
    :func:`_encode_span`), are reshaped to (block, bit) and transposed
    to bit-major order, as ``bool`` and ``uint32``, so per scheduled bit
    the inputs are contiguous row views and the only work is the
    vectorised coder step.  The coder arrays are ``uint32``: the
    encoder's ``(low, rng)`` trajectory is the decoder's, so the
    decoder's docstring shows that a bit needs no mask, that ``low +
    rng`` wraps only where the wrapped sum reads unsettled too, and
    that a block needs a second shift round only if ``min(x, rng) <
    2**16`` after the first, with ``x = low ^ (low + rng)`` taken
    before it.

    Each round writes ``low >> 24`` at every block's cursor and
    advances the cursors of the blocks that shift.  A row holds 2
    bytes per coded bit, a hard bound since quantised probabilities
    are at least ``2**-16``, so a stray byte stays inside its row,
    where the block's next byte overwrites it or the final slice drops
    it.  Each block finishes with the *same* :func:`flush_interval` the
    scalar encoders use, so payloads are byte-identical to
    :func:`_encode_span`'s.
    """
    width = bits_mat.shape[1]
    block_bits = words_per_block * width
    n_blocks = bits_mat.shape[0] // words_per_block
    # Cast, then transpose: the transpose moves 1- and 4-byte items.
    bits_bm = np.ascontiguousarray(
        bits_mat.astype(bool).reshape(n_blocks, block_bits).T
    )
    probs_bm = np.ascontiguousarray(
        probs_mat.astype(np.uint32).reshape(n_blocks, block_bits).T
    )

    cap = 2 * block_bits + 8
    out = np.zeros(n_blocks * cap, dtype=np.uint8)
    opos = np.arange(n_blocks, dtype=np.int64) * cap
    low = np.zeros(n_blocks, dtype=np.uint32)
    rng = np.full(n_blocks, _MASK, dtype=np.uint32)
    split = np.empty(n_blocks, dtype=np.uint32)
    t1 = np.empty(n_blocks, dtype=np.uint32)
    bs = np.empty(n_blocks, dtype=np.uint32)
    shift = np.empty(n_blocks, dtype=np.uint32)
    settled = np.empty(n_blocks, dtype=bool)
    under = np.empty(n_blocks, dtype=bool)
    shift_in = np.empty(n_blocks, dtype=bool)
    prob_bits, top, bot, low_bits, eight, byte_shift = (
        np.full(n_blocks, value, dtype=np.uint32)
        for value in (PROB_BITS, _TOP, _BOT, _BOT - 1, 8, 24)
    )
    # The per-bit and per-round ufuncs, bound once.
    add, subtract, multiply = np.add, np.subtract, np.multiply
    right_shift, left_shift, minimum = np.right_shift, np.left_shift, np.minimum
    copyto, less, nonzero = np.copyto, np.less, np.count_nonzero
    bitwise_xor, logical_or = np.bitwise_xor, np.logical_or

    for bit, p0 in zip(bits_bm, probs_bm):
        right_shift(rng, prob_bits, out=t1)
        multiply(t1, p0, out=split)
        multiply(split, bit, out=bs)
        low += bs
        subtract(rng, split, out=t1)
        copyto(split, t1, where=bit)
        rng, split = split, rng  # the new range; old as scratch
        while True:
            add(low, rng, out=t1)
            bitwise_xor(t1, low, out=t1)
            less(t1, top, out=settled)
            less(rng, bot, out=under)
            logical_or(settled, under, out=shift_in)
            if not nonzero(shift_in):
                break
            if nonzero(under):
                np.greater(under, settled, out=under)  # underflow
                np.negative(low, out=bs)
                bs &= low_bits
                copyto(rng, bs, where=under)
            right_shift(low, byte_shift, out=bs)
            out[opos] = bs
            opos += shift_in
            multiply(shift_in, eight, out=shift)
            left_shift(low, shift, out=low)
            left_shift(rng, shift, out=rng)
            minimum(t1, rng, out=t1)  # another round? (see above)
            less(t1, bot, out=shift_in)
            if not nonzero(shift_in):
                break
    raw = out.tobytes()
    payloads: List[bytes] = []
    for base, end, low_i, rng_i in zip(
        range(0, n_blocks * cap, cap), opos.tolist(), low.tolist(), rng.tolist()
    ):
        buf = bytearray(raw[base:end])
        flush_interval(low_i, rng_i, buf)
        payloads.append(bytes(buf))
    return payloads


def _encode_span(signed: List[int]) -> bytes:
    """Range-encode one block's span of signed probabilities.

    ``signed`` holds ``p0`` for each 0-bit and ``-p0`` for each 1-bit,
    so one multiply gives the reference encoder's split with its sign
    (``tests/oracles.py``): ``split = (rng >> PROB_BITS) * q`` is
    positive exactly for a 0-bit.  It is never zero:
    :class:`SamcModel` admits only probabilities in ``[1,
    PROB_ONE - 1]``, and ``rng >> 16 >= 1`` at every bit, because the
    range starts at ``2**32 - 1`` and the renormalisation loop exits
    only with ``rng >= 2**16`` (at ``2**24`` or above, or on the
    ``rng >= bot`` break).  A 1-bit's ``low -= split; rng += split`` is
    the reference's ``low += split'; rng -= split'`` with ``split' =
    -split``.

    Renormalisation bytes are appended directly to the output
    ``bytearray``, and the block ends with the shared
    :func:`flush_interval`, so the payload matches the reference encoder
    byte for byte.  The encoder's (low, rng) trajectory is the one
    :meth:`SamcModel.decode_block` walks, so its proof holds
    here: ``low + rng <= 2**32`` throughout, and renormalisation can
    only shift while ``rng < 2**24``.  Hence the loop is entered only
    there, and neither ``low - split``, ``low >> 24`` nor ``rng << 8``
    needs a mask.
    """
    mask, top, bot, prob_bits = _MASK, _TOP, _BOT, PROB_BITS
    low = 0
    rng = mask
    out = bytearray()
    append = out.append
    for q in signed:
        split = (rng >> prob_bits) * q
        if split > 0:
            rng = split
        else:
            low -= split
            rng += split
        while rng < top:
            if (low ^ (low + rng)) >= top:
                if rng >= bot:
                    break
                rng = (-low) & (bot - 1)
            append(low >> 24)
            low = (low << 8) & mask
            rng <<= 8
    flush_interval(low, rng, out)
    return bytes(out)


def _encode_span_obs(
    signed: List[int], labels: List[tuple], per_label: dict
) -> Tuple[bytes, int]:
    """:func:`_encode_span` with bit attribution (obs-on path only).

    Identical coding loop; after each coded bit the renormalisation
    bytes just appended are charged (as bits) to that bit's
    ``(stream, depth)`` label in ``per_label``.  Returns the payload and
    the flush size in bits, which the caller accounts separately.
    """
    mask, top, bot, prob_bits = _MASK, _TOP, _BOT, PROB_BITS
    low = 0
    rng = mask
    out = bytearray()
    append = out.append
    n_labels = len(labels)
    position = 0
    for q in signed:
        before = len(out)
        split = (rng >> prob_bits) * q
        if split > 0:
            rng = split
        else:
            low -= split
            rng += split
        while rng < top:
            if (low ^ (low + rng)) >= top:
                if rng >= bot:
                    break
                rng = (-low) & (bot - 1)
            append(low >> 24)
            low = (low << 8) & mask
            rng <<= 8
        emitted = len(out) - before
        if emitted:
            label = labels[position % n_labels]
            per_label[label] = per_label.get(label, 0) + emitted * 8
        position += 1
    coded = len(out)
    flush_interval(low, rng, out)
    return bytes(out), (len(out) - coded) * 8
