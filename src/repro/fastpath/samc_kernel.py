"""Table-compiled SAMC kernels: vectorised training, fused coding loops.

The reference SAMC coder (``tests/oracles.py``) costs three Python
calls and a numpy scalar index *per coded bit*: a step of the walk, a
probability lookup and a coder step.  This module, the one SAMC coding
path the codec runs, removes all of it:

* **Training** (:func:`train_model_fast`) — the Markov walk is fully
  determined by the data, so the (context, node, bit) triple of every
  training observation is computed for the *whole program at once* with
  numpy array arithmetic, and the per-stream count tables accumulate via
  one :func:`numpy.bincount` per stream.
* **Encoding** (:meth:`CompiledSamcModel.encode_blocks`) — the per-bit
  quantised probabilities are gathered with one fancy-index per stream,
  then each block runs a single tight Python loop that fuses the Markov
  walk with the carry-less range coder, appending renormalisation bytes
  straight into a ``bytearray``.  The final flush is the *same function*
  the reference encoder uses (:func:`repro.entropy.arith.flush_interval`).
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
  batch threshold) — the same lockstep structure in reverse: the bit and
  probability matrices from :func:`_walk_arrays` are transposed to
  bit-major order and all blocks' range coders advance together, with
  renormalisation bytes scattered into per-block output rows.

The lockstep step has a fixed numpy-call cost per scheduled bit that is
(nearly) independent of the batch size, while the scalar loops scale
linearly in it — so vectorisation only wins above a crossover batch
(roughly 10²  blocks; override with ``REPRO_BATCH_MIN``).  Below the
threshold the batch entry points fall back to the fused scalar loops, so
small batches never regress.

Every loop follows the reference control flow (where the scalar decoder
departs from it, its docstring shows why the state trajectory is the
same), so the output is bit-identical; the golden-vector and
differential tests pin it.
"""

from __future__ import annotations

import os
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.entropy.arith import PROB_BITS, flush_interval
from repro.core.samc.model import SamcModel
from repro.obs import get_recorder

_MASK = 0xFFFFFFFF
_TOP = 1 << 24
_BOT = 1 << 16

#: Measured crossover below which the lockstep batch kernels lose to the
#: fused scalar loops (each numpy call costs ~1µs regardless of batch
#: size, so the vectorised step only amortises over enough blocks).
DEFAULT_BATCH_MIN = 96

#: Streams deeper than this would need oversized prefix-deposit LUTs
#: (2**k entries); no real configuration comes close, but stay safe.
_MAX_LUT_DEPTH = 12


def batch_min() -> int:
    """Batch size at which the lockstep kernels engage.

    ``REPRO_BATCH_MIN`` overrides the measured default — set it to ``1``
    to force the vectorised path (the differential tests do, so small
    ragged batches exercise the lockstep code), or very high to pin the
    scalar loops.
    """
    raw = os.environ.get("REPRO_BATCH_MIN")
    if raw is None:
        return DEFAULT_BATCH_MIN
    try:
        return max(1, int(raw))
    except ValueError:
        return DEFAULT_BATCH_MIN


def _walk_arrays(
    width: int,
    specs: Sequence,
    connect_bits: int,
    words: Sequence[int],
    words_per_block: int,
) -> Tuple[list, list]:
    """Vectorised Markov walk over a whole program.

    Returns, per stream, the ``(n_words, k)`` bit and node-index matrices
    plus the ``(n_words,)`` context vector — exactly the (context, node,
    bit) triples the reference walk visits, with the context reset at
    every cache-block boundary.
    """
    arr = np.asarray(words, dtype=np.int64)
    n = arr.shape[0]
    per_stream = []
    for spec in specs:
        k = spec.k
        shifts = np.array([width - 1 - p for p in spec.positions], dtype=np.int64)
        bits = (arr[:, None] >> shifts[None, :]) & 1
        prefix = np.zeros((n, k), dtype=np.int64)
        for depth in range(1, k):
            prefix[:, depth] = (prefix[:, depth - 1] << 1) | bits[:, depth - 1]
        node = ((1 << np.arange(k, dtype=np.int64)) - 1)[None, :] + prefix
        value = (prefix[:, k - 1] << 1) | bits[:, k - 1]
        mask = (1 << min(connect_bits, k)) - 1 if connect_bits else 0
        per_stream.append((bits, node, value & mask))
    contexts = []
    for index in range(len(specs)):
        if index == 0:
            ctx = np.empty(n, dtype=np.int64)
            if n:
                ctx[0] = 0
                ctx[1:] = per_stream[-1][2][:-1]
                ctx[::words_per_block] = 0  # context resets at block starts
        else:
            ctx = per_stream[index - 1][2]
        contexts.append(ctx)
    return per_stream, contexts


def train_model_fast(
    model: SamcModel, words: Sequence[int], words_per_block: int
) -> None:
    """Accumulate all training counts for ``words`` into ``model``.

    Bit-identical to the per-block reference trainer
    (``tests/oracles.py``): the same (context, node, bit) events are
    counted, just via one bincount per stream instead of one numpy
    scalar ``+=`` per bit.
    """
    if not len(words):
        return
    per_stream, contexts = _walk_arrays(
        model.width, model.specs, model.connect_bits, words, words_per_block
    )
    for stream_model, (bits, node, _tail), ctx in zip(
        model.stream_models, per_stream, contexts
    ):
        nodes = stream_model.node_count
        flat = ((ctx[:, None] * nodes + node) * 2 + bits).ravel()
        counts = np.bincount(flat, minlength=stream_model.contexts * nodes * 2)
        stream_model.observe_counts(
            counts.reshape(stream_model.contexts, nodes, 2)
        )


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
    decoders' tables are built from them on first use, so compiling a
    model for encoding alone stays cheap.  Quantisation happened once at
    freeze time; nothing here ever re-quantises.
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
        # Decoder tables are built lazily: the scalar ones on the first
        # decode_block, the lockstep batch ones on the first batch call.
        self._decode_streams: Optional[list] = None
        self._batch_streams: Optional[list] = None

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
            lut = np.asarray(leaf_word[(1 << k) - 1:], dtype=np.int64)
            views = [flat[(1 << depth) - 1:] for depth in range(k)]
            compiled.append((k, table.shape[1], views, lut, ctx_mask))
        self._batch_streams = compiled
        return compiled

    # -- encode --------------------------------------------------------

    def encode_blocks(  # repro: noqa dual-path-drift (whole-program vectorised encode; oracle is the per-block reference encoder in tests/oracles.py, differential-tested)
        self, words: Sequence[int], words_per_block: int
    ) -> List[bytes]:
        """Encode a whole program, one payload per cache block."""
        n = len(words)
        if n == 0:
            return []
        per_stream, contexts = _walk_arrays(
            self.width, self.specs, self.connect_bits, words, words_per_block
        )
        bit_cols = []
        prob_cols = []
        for table, (bits, node, _tail), ctx in zip(
            self._tables, per_stream, contexts
        ):
            bit_cols.append(bits)
            prob_cols.append(table[ctx[:, None], node])
        width = self.width
        bits_mat = np.concatenate(bit_cols, axis=1)
        probs_mat = np.concatenate(prob_cols, axis=1)
        rec = get_recorder()
        if rec.enabled:
            return self._encode_blocks_instrumented(
                rec,
                bits_mat.ravel().tolist(),
                probs_mat.ravel().tolist(),
                n,
                words_per_block,
            )
        n_blocks = -(-n // words_per_block)
        if n_blocks >= batch_min():
            return _encode_blocks_vec(bits_mat, probs_mat, n, words_per_block)
        bits_flat = bits_mat.ravel().tolist()
        probs_flat = probs_mat.ravel().tolist()
        return [
            _encode_span(
                bits_flat[start * width : min(n, start + words_per_block) * width],
                probs_flat[start * width : min(n, start + words_per_block) * width],
            )
            for start in range(0, n, words_per_block)
        ]

    def _encode_blocks_instrumented(
        self, rec, bits_flat, probs_flat, n, words_per_block
    ) -> List[bytes]:
        """Obs-on encode path: same spans through :func:`_encode_span_obs`,
        which attributes renormalisation bytes to the (stream, depth) bit
        that forced them — output stays byte-identical."""
        width = self.width
        labels = [
            (index, depth)
            for index, spec in enumerate(self.specs)
            for depth in range(spec.k)
        ]
        per_label: dict = {}
        flush_bits = 0
        payloads: List[bytes] = []
        for start in range(0, n, words_per_block):
            payload, block_flush = _encode_span_obs(
                bits_flat[start * width : min(n, start + words_per_block) * width],
                probs_flat[start * width : min(n, start + words_per_block) * width],
                labels,
                per_label,
            )
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
        however far a corrupted block reads.
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
            row[:count] for row, count in zip(words.tolist(), word_counts)
        ]


def _encode_blocks_vec(
    bits_mat: np.ndarray,
    probs_mat: np.ndarray,
    n_words: int,
    words_per_block: int,
) -> List[bytes]:
    """Lockstep batch range encoder: all blocks advance one bit at a time.

    The mirror image of ``_decode_blocks_vec`` — the bit/probability
    matrices from ``_walk_arrays`` are reshaped to (block, bit) and
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


def _encode_span(bits: List[int], probs: List[int]) -> bytes:
    """Range-encode one block's bit/probability span.

    The reference range encoder's bit step and renormalisation
    (``tests/oracles.py``) inlined, with
    the state in locals and renormalisation bytes appended directly to
    the output ``bytearray``; terminated by the shared
    :func:`flush_interval`, so the payload matches the reference encoder
    byte for byte.  The encoder's (low, rng) trajectory is the one
    :meth:`CompiledSamcModel.decode_block` walks, so its proof holds
    here: ``low + rng <= 2**32`` throughout, and renormalisation can
    only shift while ``rng < 2**24``.  Hence the loop is entered only
    there, and neither ``low + split``, ``low >> 24`` nor ``rng << 8``
    needs a mask.
    """
    mask, top, bot, prob_bits = _MASK, _TOP, _BOT, PROB_BITS
    low = 0
    rng = mask
    out = bytearray()
    append = out.append
    for bit, p0 in zip(bits, probs):
        split = (rng >> prob_bits) * p0
        if bit:
            low += split
            rng -= split
        else:
            rng = split
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
    bits: List[int], probs: List[int], labels: List[tuple], per_label: dict
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
    for bit, p0 in zip(bits, probs):
        before = len(out)
        split = (rng >> prob_bits) * p0
        if bit:
            low += split
            rng -= split
        else:
            rng = split
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
