"""Table-compiled SAMC kernels: vectorised training, fused coding loops.

The reference SAMC coder (``tests/oracles.py``) costs three Python
calls and a numpy scalar index *per coded bit*: a step of the walk, a
probability lookup and a coder step.  This module, the one SAMC coding
path the codec runs, removes all of it:

* **The walk** (:func:`walk_program`) — the Markov walk is fully
  determined by the data, so every coded bit and the table cell that
  predicts it (a ``(context, node)`` entry) are computed for the *whole
  program at once* with numpy array arithmetic.  A compress walks once:
  training counts the walk and encoding codes the same one.
* **Training** (:func:`train_model_fast`) — one :func:`numpy.bincount`
  over the walk's cells fills every stream's count table.
* **Encoding** (:meth:`CompiledSamcModel.encode_blocks`) — the per-bit
  quantised probabilities are one gather from the stream tables laid end
  to end (laid out on the first encode, so a model compiled only to
  decode never holds that copy), and one ``numpy.where`` signs them:
  ``p0`` for a 0-bit, ``-p0`` for a 1-bit.  Each block's span of that one list runs a single tight
  Python loop of the carry-less range coder, whose split's sign is the
  bit, appending renormalisation bytes straight into a ``bytearray``.
  The final flush is the *same function* the reference encoder uses
  (:func:`repro.entropy.arith.flush_interval`).
* **Decoding** (:meth:`CompiledSamcModel.decode_block`) — inherently
  sequential (each decoded bit steers the walk), so the win comes from
  spending fewer Python operations per coded bit.  The range decoder is
  inlined and keeps ``D = (code - low) mod 2**32`` instead of the code
  register; each stream walks its tree by heap index into one Python
  row per context; the leaf node it ends on looks up the stream's word
  bits and the next context; and the renormalisation loop is entered
  only while ``rng < 2**24``, the one range in which it can shift.  No
  attribute lookups or method calls per bit, and the tables are built
  on the first decode, so compiling a model for encoding stays cheap.
* **Batch decoding** (:meth:`CompiledSamcModel.decode_blocks`) — blocks
  are independent by construction (coder state, Markov context, and tree
  pointers all reset at block boundaries), and every block follows the
  *same* (stream, depth) bit schedule; only the per-block coder state
  differs.  The lockstep decoder therefore runs the range decoder across
  the whole batch at once: one vectorised split/branch/renormalisation
  step over all live blocks per scheduled bit, with numpy boolean masks
  selecting the blocks that renormalise (or have already finished) at
  each step.  Masked blocks simply do not advance their read pointers or
  shift their coder registers, so every block's state trajectory is
  bit-for-bit the trajectory the scalar loop would have produced — which
  is why the batch path is byte-identical, not merely equivalent.
* **Batch encoding** (:meth:`CompiledSamcModel.encode_blocks` above a
  batch threshold) — the same lockstep structure in reverse: the walk's
  bit matrix and the gathered probability matrix are transposed to
  bit-major order and all blocks' range coders advance together, with
  renormalisation bytes scattered into per-block output rows.

The lockstep step has a fixed numpy-call cost per scheduled bit that is
(nearly) independent of the batch size, while the scalar loops scale
linearly in it — so vectorisation only wins above a crossover batch,
measured separately for each direction: :data:`DEFAULT_BATCH_MIN` for
decode and :data:`DEFAULT_ENCODE_BATCH_MIN` for encode, whose scalar
loop is cheaper per block (``REPRO_BATCH_MIN`` overrides both).  Below
its threshold a batch entry point falls back to the fused scalar loop,
so small batches never regress.

Every loop follows the reference control flow (where the scalar decoder
departs from it, its docstring shows why the state trajectory is the
same), so the output is bit-identical; the golden-vector and
differential tests pin it.
"""

from __future__ import annotations

import os
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.entropy.arith import PROB_BITS, flush_interval
from repro.core.samc.model import SamcModel
from repro.obs import get_recorder

_MASK = 0xFFFFFFFF
_TOP = 1 << 24
_BOT = 1 << 16

#: Batch size from which :meth:`CompiledSamcModel.decode_blocks` runs the
#: lockstep decoder (each numpy call costs ~1µs regardless of batch
#: size, so the vectorised step only amortises over enough blocks).  It
#: sits below the measured decode crossover, ~150–190 blocks, so that
#: ``serve``'s hot set decodes on both kernels (DESIGN.md, "Dispatch
#: threshold").
DEFAULT_BATCH_MIN = 96

#: Measured crossover from which :meth:`CompiledSamcModel.encode_blocks`
#: runs the lockstep encoder instead of the signed scalar loop.
DEFAULT_ENCODE_BATCH_MIN = 224

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
    model: SamcModel, words: Sequence[int], words_per_block: int
) -> SamcWalk:
    """Vectorised Markov walk over a whole program.

    Only ``model``'s layout (``width``, ``specs`` and ``connect_bits``)
    is read, so a model can be walked before it is trained.  The walk
    visits exactly the (context, node, bit) triples of the reference
    walk (``tests/oracles.py``), with the context reset at every
    cache-block boundary.  Each stream's bits are read as one integer
    ``value``; the prefix before depth ``d`` is ``value >> (k - d)``,
    and the value's low ``connect_bits`` bits are the next stream's
    context.
    """
    width, specs, connect_bits = model.width, model.specs, model.connect_bits
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


def train_model_fast(model: SamcModel, walk: SamcWalk) -> None:
    """Accumulate all training counts of ``walk`` into ``model``.

    Bit-identical to the per-block reference trainer
    (``tests/oracles.py``): the same (context, node, bit) events are
    counted, just via one bincount over the whole walk instead of one
    numpy scalar ``+=`` per bit.
    """
    sizes = [sm.contexts * sm.node_count for sm in model.stream_models]
    counts = np.bincount(
        (walk.cells * 2 + walk.bits).ravel(), minlength=2 * sum(sizes)
    )
    start = 0
    for stream_model, size in zip(model.stream_models, sizes):
        stream_model.observe_counts(
            counts[start : start + 2 * size].reshape(
                stream_model.contexts, stream_model.node_count, 2
            )
        )
        start += 2 * size


def _deposit_table(shifts: Sequence[int]) -> List[int]:
    """Prefix → word bits for one stream.

    Entry ``p`` places the bits of the ``len(shifts)``-bit prefix ``p``
    (first decoded bit most significant) at their word positions, so a
    whole stream's decoded bits land in the word with one lookup.
    """
    table = [0]
    for shift in shifts:
        bit = 1 << shift
        table = [word | extra for word in table for extra in (0, bit)]
    return table


class CompiledSamcModel:
    """A frozen :class:`SamcModel` compiled to integer tables.

    Construction validates every stream's quantised-probability table
    and precomputes the bit-placement shifts and context masks; the
    coders' tables are built from them on first use, so compiling a
    model for one direction builds nothing the other needs.
    Quantisation happened once at freeze time; nothing here ever
    re-quantises.
    """

    def __init__(self, model: SamcModel) -> None:
        self.width = model.width
        self.connect_bits = model.connect_bits
        self.specs = model.specs
        self._tables = [sm.frozen_table for sm in model.stream_models]
        prob_one = 1 << PROB_BITS
        for table in self._tables:
            # A probability of 0 (or PROB_ONE) collapses the range
            # coder's split to nothing and the decode renormalisation
            # loop would never terminate; tables reaching this point
            # from deserialisation are untrusted, so reject here.
            if table.size and not (
                1 <= table.min() and table.max() <= prob_one - 1
            ):
                from repro.resilience.errors import (
                    CATEGORY_STRUCTURE,
                    CorruptedStreamError,
                )

                raise CorruptedStreamError(
                    "compiled SAMC table holds probabilities outside "
                    f"[1, {prob_one - 1}]",
                    category=CATEGORY_STRUCTURE,
                )
        #: Per stream: bit-placement shifts and next-context mask.
        self._streams = [
            (
                tuple(model.width - 1 - p for p in spec.positions),
                (1 << min(model.connect_bits, spec.k)) - 1
                if model.connect_bits else 0,
            )
            for spec in model.specs
        ]
        # Coder tables are built lazily: the encoder's on the first
        # encode_blocks, the scalar decoder's on the first decode_block,
        # the lockstep batch ones on the first batch call.
        self._flat_tables: Optional[np.ndarray] = None
        self._decode_streams: Optional[list] = None
        self._batch_streams: Optional[list] = None

    def _compile_encode(self) -> np.ndarray:
        """Every stream's table laid end to end, which a walk's cells
        index (cached)."""
        if self._flat_tables is None:
            self._flat_tables = np.concatenate(
                [table.ravel() for table in self._tables]
            )
        return self._flat_tables

    def _compile_decode(self) -> list:
        """Per-stream tables for :meth:`decode_block` (cached).

        For each stream: its probability table as one Python row per
        context (indexed by heap node), the depth range, and two tables
        indexed by the leaf node the walk ends on — the stream's word
        bits (the :func:`_deposit_table` prefix entries behind one
        zero per internal node) and the next stream's context.
        """
        if self._decode_streams is None:
            compiled = []
            for table, (shifts, ctx_mask) in zip(self._tables, self._streams):
                deposit = _deposit_table(shifts)
                internal = [0] * (len(deposit) - 1)
                compiled.append((
                    table.tolist(),
                    range(len(shifts)),
                    internal + deposit,
                    internal + [p & ctx_mask for p in range(len(deposit))],
                ))
            self._decode_streams = compiled
        return self._decode_streams

    def _compile_batch(self) -> Optional[list]:
        """Per-stream arrays for the lockstep batch coders (cached).

        For each stream: the quantised-probability table sliced into one
        view per tree depth (folding the ``(1 << depth) - 1`` node base
        into the view offset, so the per-bit gather is a single ``take``)
        and the prefix→word-bits deposit table shared with
        :meth:`decode_block`, which places a whole stream's decoded bits
        with one gather instead of one shift-or per bit.
        """
        if self._batch_streams is not None:
            return self._batch_streams
        if any(len(shifts) > _MAX_LUT_DEPTH for shifts, _ in self._streams):
            return None
        compiled = []
        for table, (shifts, ctx_mask), (_, _, leaf_word, _) in zip(
            self._tables, self._streams, self._compile_decode()
        ):
            k = len(shifts)
            flat = table.ravel()
            # Built unsigned and viewed as int64, so a 64-bit word's
            # top bit is the sign bit (as in ``word_array``).
            lut = np.asarray(
                leaf_word[(1 << k) - 1:], dtype=np.uint64
            ).view(np.int64)
            views = [flat[(1 << depth) - 1:] for depth in range(k)]
            compiled.append((k, table.shape[1], views, lut, ctx_mask))
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
        blocks up the lockstep encoder runs; below it each block's span
        goes to :func:`_encode_span` as one signed list, ``p0`` for a
        0-bit and ``-p0`` for a 1-bit.
        """
        n, width = walk.bits.shape
        if n == 0:
            return []
        words_per_block = walk.words_per_block
        probs = self._compile_encode().take(walk.cells)
        rec = get_recorder()
        if not rec.enabled and -(-n // words_per_block) >= batch_min(
            DEFAULT_ENCODE_BATCH_MIN
        ):
            return _encode_blocks_vec(walk.bits, probs, n, words_per_block)
        signed = np.where(walk.bits, -probs, probs).ravel().tolist()
        step = words_per_block * width
        spans = [
            signed[start : start + step] for start in range(0, n * width, step)
        ]
        if rec.enabled:
            return self._encode_blocks_instrumented(rec, spans, n)
        return [_encode_span(span) for span in spans]

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
        row lookup, a multiply, a compare and a few adds:

        * Instead of the ``code`` register the loop keeps ``D = (code -
          low) mod 2**32``, as :meth:`_decode_blocks_vec` does: the bit
          test is ``D < split``, a 1-bit subtracts ``split`` from ``D``,
          and a renormalisation shifts the next byte into ``D``.
        * Each stream walks its tree by heap index (``node = 2*node + 1 +
          bit`` from the root 0) into the current context's probability
          row.  The leaf node it ends on indexes two tables, the
          stream's word bits and the next stream's context.
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
            for rows, depths, leaf_word, leaf_context in streams:
                row = rows[context]
                node = 0
                for _ in depths:
                    split = (rng >> prob_bits) * row[node]
                    if D < split:
                        rng = split
                        node += node + 1
                    else:
                        D -= split
                        low += split
                        rng -= split
                        node += node + 2
                    while rng < top:  # repro: noqa loop-progress (pos advances every iteration; rng >= 1 grows 256x per shift, bar one underflow that cannot raise it, so the loop ends within a few shifts - differential-tested)
                        if (low ^ (low + rng)) >= top:
                            if rng >= bot:
                                break
                            rng = (-low) & (bot - 1)
                        D = ((D << 8) | (data[pos] if pos < dlen else 0)) & mask
                        pos += 1
                        low = (low << 8) & mask
                        rng <<= 8
                word |= leaf_word[node]
                context = leaf_context[node]
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
        and the Markov prefix/context, held as length-``batch`` arrays.
        Instead of the coder's ``code`` register we track
        ``D = (code - low) & MASK`` (the branch test needs only ``D``,
        saving one vector op per bit).  Every reachable state keeps
        ``low + rng <= 2**32`` (see :meth:`decode_block`), so ``low``
        needs no mask after a 1-bit, the settled test none on ``low +
        rng``, and a shifting block's ``rng << 8`` none either.  A block
        that does not renormalise shifts by 0 bits and ORs in a zeroed
        byte, which keeps every step unmasked arithmetic.  Finished
        blocks (past their word count) never renormalise, so their read
        pointers freeze and live blocks march through *exactly* the
        scalar byte sequence.  Payload bytes live in one flat
        zero-padded array with a per-block stride, and a read past a
        block's payload is clamped to the zero just after it — the same
        "reads past the end see zeros" convention as the scalar loop,
        however far a corrupted block reads.  The words are read back
        unsigned, so a 64-bit word's top bit is not a sign.
        """
        batch = len(payloads)
        if batch == 0:
            return []
        max_words = max(word_counts)
        if max_words == 0:
            return [[] for _ in payloads]
        min_words = min(word_counts)
        stride = max(len(p) for p in payloads) + 8
        padded = bytearray(batch * stride)
        for i, payload in enumerate(payloads):
            padded[i * stride : i * stride + len(payload)] = payload
        flat = np.frombuffer(bytes(padded), dtype=np.uint8).astype(np.int64)
        wc = np.asarray(word_counts, dtype=np.int64)

        low = np.zeros(batch, dtype=np.int64)
        rng = np.full(batch, _MASK, dtype=np.int64)
        D = np.zeros(batch, dtype=np.int64)
        pos = np.arange(batch, dtype=np.int64) * stride
        end = pos + np.array([len(p) for p in payloads], dtype=np.int64)
        for _ in range(4):
            D <<= 8
            D |= flat.take(np.minimum(pos, end))
            pos += 1
        context = np.zeros(batch, dtype=np.int64)
        words = np.zeros((batch, max_words), dtype=np.int64)

        # Preallocated scratch for the per-bit step.
        idx = np.empty(batch, dtype=np.int64)
        ctx_base = np.empty(batch, dtype=np.int64)
        p0 = np.empty(batch, dtype=np.int64)
        split = np.empty(batch, dtype=np.int64)
        t1 = np.empty(batch, dtype=np.int64)
        bs = np.empty(batch, dtype=np.int64)
        shift = np.empty(batch, dtype=np.int64)
        prefix = np.empty(batch, dtype=np.int64)
        bit = np.empty(batch, dtype=bool)
        settled = np.empty(batch, dtype=bool)
        under = np.empty(batch, dtype=bool)
        need = np.empty(batch, dtype=bool)
        shift_in = np.empty(batch, dtype=bool)
        word = np.empty(batch, dtype=np.int64)
        live = np.empty(batch, dtype=bool)

        for w in range(max_words):
            ragged = w >= min_words  # some block has finished
            np.greater(wc, w, out=live)
            word[:] = 0
            for k, nodes, views, lut, ctx_mask in compiled:
                np.multiply(context, nodes, out=ctx_base)
                prefix[:] = 0
                for depth in range(k):
                    np.add(ctx_base, prefix, out=idx)
                    np.take(views[depth], idx, out=p0)
                    np.right_shift(rng, PROB_BITS, out=t1)
                    np.multiply(t1, p0, out=split)
                    np.greater_equal(D, split, out=bit)
                    np.multiply(split, bit, out=bs)
                    D -= bs
                    low += bs
                    np.subtract(rng, split, out=t1)
                    rng = np.where(bit, t1, split)
                    prefix += prefix
                    prefix += bit
                    while True:
                        # Carry-less renorm condition, vectorised: a
                        # block shifts a byte when its top byte settled
                        # (low and low+rng agree) or its range
                        # underflowed below 2**16.
                        np.add(low, rng, out=t1)
                        np.bitwise_xor(t1, low, out=t1)
                        np.less(t1, _TOP, out=settled)
                        np.less(rng, _BOT, out=under)
                        np.logical_or(settled, under, out=shift_in)
                        if ragged:
                            np.logical_and(shift_in, live, out=shift_in)
                        if not shift_in.any():
                            break
                        np.greater(under, settled, out=need)  # underflow
                        if ragged:
                            np.logical_and(need, live, out=need)
                        if need.any():
                            np.negative(low, out=t1)
                            t1 &= _BOT - 1
                            rng = np.where(need, t1, rng)
                        np.multiply(shift_in, 8, out=shift)
                        byte = flat.take(np.minimum(pos, end, out=t1))
                        byte *= shift_in
                        D <<= shift
                        D |= byte
                        D &= _MASK
                        pos += shift_in
                        low <<= shift
                        low &= _MASK
                        rng <<= shift
                np.take(lut, prefix, out=bs)
                word |= bs
                np.bitwise_and(prefix, ctx_mask, out=context)
            words[:, w] = word
        return [
            row[:count]
            for row, count in zip(words.view(np.uint64).tolist(), word_counts)
        ]


def _encode_blocks_vec(
    bits_mat: np.ndarray,
    probs_mat: np.ndarray,
    n_words: int,
    words_per_block: int,
) -> List[bytes]:
    """Lockstep batch range encoder: all blocks advance one bit at a time.

    The mirror image of ``_decode_blocks_vec`` — the walk's bit matrix
    and its gathered probabilities are reshaped to (block, bit) and
    transposed to bit-major order, so per scheduled bit the inputs are
    contiguous row views and the only work is the vectorised coder step.
    Renormalisation bytes scatter into one ``uint8`` row per block
    (capacity 2 bytes per coded bit — a hard bound, since quantised
    probabilities are at least 2**-16); a short tail block is masked out
    once its own bits run dry.  Each block finishes with the *same*
    :func:`flush_interval` the scalar encoders use, so payloads are
    byte-identical to ``_encode_span``'s.
    """
    width = bits_mat.shape[1]
    n_blocks = -(-n_words // words_per_block)
    block_bits = words_per_block * width
    padded_words = n_blocks * words_per_block
    if padded_words != n_words:
        pad = np.zeros((padded_words - n_words, width), dtype=np.int64)
        bits_mat = np.concatenate([bits_mat, pad])
        probs_mat = np.concatenate([probs_mat, pad])
    bits_bm = np.ascontiguousarray(
        bits_mat.reshape(n_blocks, block_bits).T
    )
    probs_bm = np.ascontiguousarray(
        probs_mat.reshape(n_blocks, block_bits).T
    )
    bools_bm = bits_bm.astype(bool)
    nbits = np.full(n_blocks, block_bits, dtype=np.int64)
    tail_words = n_words - (n_blocks - 1) * words_per_block
    nbits[-1] = tail_words * width

    cap = 2 * block_bits + 8
    out = np.zeros(n_blocks * cap, dtype=np.uint8)
    opos = np.arange(n_blocks, dtype=np.int64) * cap
    low = np.zeros(n_blocks, dtype=np.int64)
    rng = np.full(n_blocks, _MASK, dtype=np.int64)
    split = np.empty(n_blocks, dtype=np.int64)
    t1 = np.empty(n_blocks, dtype=np.int64)
    bs = np.empty(n_blocks, dtype=np.int64)
    need = np.empty(n_blocks, dtype=bool)
    under = np.empty(n_blocks, dtype=bool)
    emit = np.empty(n_blocks, dtype=bool)
    live = np.empty(n_blocks, dtype=bool)

    for j in range(block_bits):
        np.greater(nbits, j, out=live)
        np.right_shift(rng, PROB_BITS, out=t1)
        np.multiply(t1, probs_bm[j], out=split)
        np.multiply(split, bits_bm[j], out=bs)
        low += bs  # bs is 0 past a tail block's end (padded bits are 0)
        # split becomes the candidate new rng; a finished block's rng
        # must stay frozen (its padded probability is 0, which would
        # zero rng and poison the final flush), hence the live mask.
        np.subtract(rng, split, out=t1)
        np.copyto(split, t1, where=bools_bm[j])
        np.copyto(rng, split, where=live)
        while True:
            np.add(low, rng, out=t1)
            np.bitwise_xor(t1, low, out=t1)
            t1 &= _MASK
            np.greater_equal(t1, _TOP, out=need)  # unsettled
            np.less(rng, _BOT, out=under)
            np.logical_not(need, out=emit)        # settled
            np.logical_or(emit, under, out=emit)
            np.logical_and(emit, live, out=emit)
            if not emit.any():
                break
            np.logical_and(need, under, out=need)  # underflow
            np.logical_and(need, live, out=need)
            if need.any():
                np.negative(low, out=t1)
                t1 &= _BOT - 1
                np.copyto(rng, t1, where=need)
            np.right_shift(low, 24, out=t1)
            t1 &= 0xFF
            out[opos[emit]] = t1[emit]
            opos += emit
            np.left_shift(low, 8, out=t1)
            t1 &= _MASK
            np.copyto(low, t1, where=emit)
            np.left_shift(rng, 8, out=t1)
            t1 &= _MASK
            np.copyto(rng, t1, where=emit)
    payloads: List[bytes] = []
    for i in range(n_blocks):
        base = i * cap
        buf = bytearray(out[base : opos[i]].tobytes())
        flush_interval(int(low[i]) & _MASK, int(rng[i]), buf)
        payloads.append(bytes(buf))
    return payloads


def _encode_span(signed: List[int]) -> bytes:
    """Range-encode one block's span of signed probabilities.

    ``signed`` holds ``p0`` for each 0-bit and ``-p0`` for each 1-bit,
    so one multiply gives the reference encoder's split with its sign
    (``tests/oracles.py``): ``split = (rng >> PROB_BITS) * q`` is
    positive exactly for a 0-bit.  It is never zero:
    :class:`CompiledSamcModel` admits only probabilities in ``[1,
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
    :meth:`CompiledSamcModel.decode_block` walks, so its proof holds
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


def compiled_model(model: SamcModel) -> CompiledSamcModel:
    """Compile ``model`` once and cache the result on the instance.

    Random-access block decompression calls this per refill; the cache
    makes repeat compilation free while keying on the model object
    itself, so a retrained model can never serve stale tables.
    """
    cached = getattr(model, "_fastpath_compiled", None)
    if cached is None:
        cached = CompiledSamcModel(model)
        model._fastpath_compiled = cached
    return cached
