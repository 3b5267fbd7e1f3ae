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

This module holds the trees' data.  The walk runs compiled, fused with
the range coder, in :mod:`repro.fastpath.samc_kernel`; its
bit-at-a-time form is the reference coder in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np

from repro.entropy.arith import quantize_probability

#: A quantiser maps a float probability to its 16-bit coded value.
Quantizer = Callable[[float], int]


@dataclass(frozen=True)
class StreamSpec:
    """One stream: the MSB-first bit positions it covers in the word."""

    positions: Tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.positions)


def node_index(depth: int, prefix: int) -> int:
    """Flat index of the Markov-tree node at ``depth`` with bit-``prefix``.

    Depth-0 is the root (no bits consumed); a ``k``-bit stream has
    internal nodes at depths ``0 .. k-1``, ``2**k - 1`` in total.
    """
    return (1 << depth) - 1 + prefix


class StreamModel:
    """The Markov tree(s) for a single stream.

    ``contexts`` replicas of the tree exist, selected by the connection
    context (the trailing bits of the previous stream).
    """

    def __init__(self, spec: StreamSpec, contexts: int) -> None:
        if spec.k == 0:
            raise ValueError("stream must cover at least one bit")
        self.spec = spec
        self.contexts = contexts
        self._nodes = (1 << spec.k) - 1
        self._counts = np.zeros((contexts, self._nodes, 2), dtype=np.int64)
        self._p0_q: np.ndarray = np.array([])
        self._frozen = False

    @property
    def node_count(self) -> int:
        """Internal nodes per tree replica (stored probabilities)."""
        return self._nodes

    def observe_counts(self, counts: np.ndarray) -> None:
        """Bulk-accumulate a whole table of training observations.

        The trainer (:mod:`repro.fastpath.samc_kernel`) computes every
        (context, node, bit) event of a program with vectorised array
        arithmetic and lands them here in one integer add — the count
        table ends up identical to the reference trainer's per-event
        ``observe`` calls (``tests/oracles.py``).
        """
        if self._frozen:
            raise RuntimeError("model is frozen; cannot train further")
        if counts.shape != self._counts.shape:
            raise ValueError(
                f"counts shape {counts.shape} != {self._counts.shape}"
            )
        self._counts += counts

    def freeze(self, quantizer: Quantizer = quantize_probability) -> None:
        """Convert counts to quantised probabilities (KT-smoothed)."""
        zeros = self._counts[:, :, 0].astype(np.float64)
        totals = self._counts.sum(axis=2).astype(np.float64)
        p0 = (zeros + 0.5) / (totals + 1.0)
        # Many cells share a probability (every unvisited one is 0.5),
        # so quantise each distinct value once.
        values, inverse = np.unique(p0, return_inverse=True)
        quantized = np.array(
            [quantizer(value) for value in values.tolist()], dtype=np.int64
        )
        self._p0_q = quantized[inverse].reshape(p0.shape)
        self._frozen = True

    @property
    def frozen_table(self) -> np.ndarray:
        """The (contexts, nodes) table of quantised probabilities."""
        if not self._frozen:
            raise RuntimeError("model must be frozen first")
        return self._p0_q

    def load_frozen(self, table: np.ndarray) -> None:
        """Restore a frozen probability table (deserialisation path).

        Only the shape is enforced here: the verifier deliberately
        constructs models with out-of-range probabilities to exercise
        its ``samc-distribution`` check, so range validation of
        *untrusted* tables lives at the deserialisation boundary
        (:mod:`repro.core.serialize`) and in the fastpath kernel
        compile.
        """
        if table.shape != (self.contexts, self._nodes):
            raise ValueError(
                f"table shape {table.shape} != "
                f"({self.contexts}, {self._nodes})"
            )
        self._p0_q = table.astype(np.int64)
        self._frozen = True


class SamcModel:
    """The complete per-program SAMC model: one tree group per stream.

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
    """

    def __init__(
        self,
        width: int,
        streams: Sequence[Sequence[int]],
        connect_bits: int = 1,
    ) -> None:
        if connect_bits < 0:
            raise ValueError("connect_bits must be non-negative")
        covered = sorted(pos for stream in streams for pos in stream)
        if covered != list(range(width)):
            raise ValueError(
                f"streams must partition bit positions 0..{width - 1}, got {covered}"
            )
        self.width = width
        self.connect_bits = connect_bits
        self.specs = [StreamSpec(tuple(stream)) for stream in streams]
        contexts = 1 << connect_bits
        self.stream_models = [StreamModel(spec, contexts) for spec in self.specs]
        self._frozen = False

    @property
    def frozen(self) -> bool:
        """True once :meth:`freeze` (or :meth:`from_frozen`) has run.

        A frozen model is immutable and safe to share across threads and
        requests — the warm-model registry in :mod:`repro.service` keys
        on this guarantee.
        """
        return self._frozen

    def freeze(self, quantizer: Quantizer = quantize_probability) -> None:
        """Freeze all stream models for coding."""
        for model in self.stream_models:
            model.freeze(quantizer)
        self._frozen = True

    # -- storage accounting ---------------------------------------------

    def probability_count(self) -> int:
        """Stored probabilities across all trees and replicas."""
        return sum(
            model.contexts * model.node_count for model in self.stream_models
        )

    def storage_bits(self, bits_per_probability: int = 16) -> int:
        """Model table size: probabilities plus the stream position map."""
        position_map_bits = self.width * max(1, (self.width - 1).bit_length())
        return self.probability_count() * bits_per_probability + position_map_bits

    def storage_bytes(self, bits_per_probability: int = 16) -> int:
        return (self.storage_bits(bits_per_probability) + 7) // 8

    @classmethod
    def from_frozen(
        cls,
        width: int,
        streams: Sequence[Sequence[int]],
        connect_bits: int,
        tables: Sequence[np.ndarray],
    ) -> "SamcModel":
        """Rebuild a ready-to-code model from serialised tables."""
        model = cls(width, streams, connect_bits)
        if len(tables) != len(model.stream_models):
            raise ValueError("one table per stream required")
        for stream_model, table in zip(model.stream_models, tables):
            stream_model.load_frozen(table)
        model._frozen = True
        return model
