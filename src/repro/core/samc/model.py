"""SAMC's semiadaptive Markov model (Section 3 of the paper).

Each *stream* — a chosen group of bit positions within the fixed-width
instruction word — gets a **binary Markov tree**: one probability per
internal node, where the node reached after consuming a bit-prefix
``b0 b1 .. b(d-1)`` predicts the next bit of the stream.  A tree for a
``k``-bit stream has ``2**k - 1`` internal nodes (the paper's
``(2**(k+1) - 2) / 2`` stored probabilities: only left-branch
probabilities are kept, right branches being their complements).

Trees of adjacent streams are *connected* (Figure 4): the starting
distribution of stream ``i+1`` is conditioned on the last
``connect_bits`` bits produced by stream ``i``.  This gives the model
limited memory across streams (and across instruction boundaries)
without exploding storage — each tree is replicated once per context.

The model is **semiadaptive**: trained in a first pass over the subject
program, then frozen; compressor and decompressor walk the identical
frozen tables, and the walk (context and node pointer) resets at every
cache-block boundary so any block can be decompressed independently.

This module holds the first pass: :func:`train_model` counts a
program's walk and :func:`freeze` turns the counts into quantised
probabilities.  The model they build, :class:`SamcModel`, is frozen by
construction; it lives with its coders in
:mod:`repro.fastpath.samc_kernel`, whose walk and coding loops run on
integers only.  The bit-at-a-time form of the walk, its trainer and its
freeze are the reference in ``tests/oracles.py``.
"""

from __future__ import annotations

from typing import Callable, Sequence, Tuple

import numpy as np

from repro.entropy.arith import quantize_probability
from repro.fastpath.samc_kernel import (
    SamcModel,
    SamcWalk,
    stream_specs,
    walk_program,
)

#: A quantiser maps a float probability to its 16-bit coded value.
Quantizer = Callable[[float], int]


def node_index(depth: int, prefix: int) -> int:
    """Flat index of the Markov-tree node at ``depth`` with bit-``prefix``.

    Depth-0 is the root (no bits consumed); a ``k``-bit stream has
    internal nodes at depths ``0 .. k-1``, ``2**k - 1`` in total.
    """
    return (1 << depth) - 1 + prefix


def freeze(
    counts: np.ndarray, quantizer: Quantizer = quantize_probability
) -> np.ndarray:
    """Quantised, KT-smoothed P(0) of every ``(zeros, ones)`` count pair.

    ``counts`` has a last axis of two; the result has the other axes.
    Many cells share a probability (every unvisited one is 0.5), so
    each distinct value is quantised once.
    """
    zeros = counts[..., 0].astype(np.float64)
    p0 = (zeros + 0.5) / (counts.sum(axis=-1) + 1.0)
    values, inverse = np.unique(p0, return_inverse=True)
    quantized = np.array(
        [quantizer(value) for value in values.tolist()], dtype=np.int64
    )
    return quantized[inverse].reshape(p0.shape)


def train_model(
    width: int,
    streams: Sequence[Sequence[int]],
    connect_bits: int,
    words: Sequence[int],
    words_per_block: int,
    quantizer: Quantizer = quantize_probability,
) -> Tuple[SamcModel, SamcWalk]:
    """Train a model on a program; return it with the walk it counted.

    One :func:`~repro.fastpath.samc_kernel.walk_program`, one
    :func:`numpy.bincount` over the walk's ``(cell, bit)`` events and
    one :func:`freeze` fill every stream's table: the same events as the
    reference trainer's per-bit counts (``tests/oracles.py``).
    """
    specs = stream_specs(width, streams, connect_bits)
    walk = walk_program(width, specs, connect_bits, words, words_per_block)
    contexts = 1 << connect_bits
    sizes = [contexts * ((1 << spec.k) - 1) for spec in specs]
    counts = np.bincount(
        (walk.cells * 2 + walk.bits).ravel(), minlength=2 * sum(sizes)
    )
    p0 = freeze(counts.reshape(-1, 2), quantizer)
    tables = [
        table.reshape(contexts, -1)
        for table in np.split(p0, np.cumsum(sizes)[:-1])
    ]
    return SamcModel(width, streams, connect_bits, tables), walk

