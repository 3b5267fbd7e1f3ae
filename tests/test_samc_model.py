"""Tests for SAMC's Markov model (trees, connection, walks, storage).

The walks and per-event training are the reference coder's, from
``tests/oracles.py``.
"""

import numpy as np
import pytest

from repro.bitstream.fields import chunk_words
from repro.core.samc.codec import QUANTIZERS
from repro.core.samc.model import SamcModel, freeze, node_index
from repro.entropy.arith import quantize_probability
from tests.oracles import (
    MarkovCounts,
    train_block,
    walk_decode,
    walk_encode,
)


def _uniform(width, streams, connect_bits):
    """A model whose every stored probability is one half."""
    tables = [
        np.full((1 << connect_bits, (1 << len(stream)) - 1), 1 << 15)
        for stream in streams
    ]
    return SamcModel(width, streams, connect_bits, tables)


class TestNodeIndex:
    def test_root(self):
        assert node_index(0, 0) == 0

    def test_depth_one(self):
        assert node_index(1, 0) == 1
        assert node_index(1, 1) == 2

    def test_depth_two(self):
        assert [node_index(2, p) for p in range(4)] == [3, 4, 5, 6]

    def test_tree_size_matches_paper_formula(self):
        # (2^(k+1) - 2) / 2 == 2^k - 1 stored probabilities for k bits.
        for k in (1, 2, 4, 8):
            assert node_index(k - 1, (1 << (k - 1)) - 1) == (1 << k) - 2


class TestStreamModel:
    def test_node_count(self):
        # A 3-bit stream's tree has 7 internal nodes: one table column
        # each, and a table of any other width is refused.
        assert _uniform(3, [(0, 1, 2)], 0).tables[0].shape == (1, 7)
        with pytest.raises(ValueError):
            SamcModel(3, [(0, 1, 2)], 0, [np.full((1, 8), 1 << 15)])

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError, match="at least one bit"):
            _uniform(1, [(0,), ()], 0)

    def test_one_bit_streams(self):
        # The smallest stream: one node per tree, one tree per context.
        assert _uniform(2, [(0,), (1,)], 1).probability_count() == 4

    def test_probabilities_reflect_counts(self):
        p = freeze(np.array([[99, 1]]))[0] / (1 << 16)
        assert p > 0.95

    def test_unseen_node_gets_half(self):
        assert freeze(np.zeros((3, 2), dtype=np.int64)).tolist() == [
            quantize_probability(0.5)
        ] * 3

    def test_no_training_after_freeze(self):
        # A model's tables are read-only: once built it never changes.
        model = _uniform(8, [range(8)], 0)
        with pytest.raises(ValueError):
            model.tables[0][0, 0] = 1

    @pytest.mark.parametrize("mode", sorted(QUANTIZERS))
    def test_freeze_quantises_every_cell_as_its_quantiser(self, mode):
        # Counts from empty to lopsided: repeated, skewed and clamped
        # probabilities all occur.
        rng = np.random.default_rng(1998)
        counts = rng.integers(0, 8, size=(16, 15, 2))
        counts[::3, :, 1] = 0
        counts[1::4] *= rng.integers(1, 5000, size=(4, 15, 1))
        quantize = QUANTIZERS[mode]
        expected = [
            [quantize((zeros + 0.5) / (zeros + ones + 1.0)) for zeros, ones in row]
            for row in counts.tolist()
        ]
        frozen = freeze(counts, quantize)
        assert frozen.dtype == np.int64
        assert frozen.tolist() == expected


class TestSamcModel:
    def test_streams_must_partition_word(self):
        with pytest.raises(ValueError):
            _uniform(8, [(0, 1, 2)], 1)  # misses positions 3..7
        with pytest.raises(ValueError):
            _uniform(8, [(0, 1, 2, 3), (3, 4, 5, 6)], 1)  # duplicate 3

    def test_probability_count(self):
        model = _uniform(32, [range(0, 8), range(8, 16),
                              range(16, 24), range(24, 32)], connect_bits=0)
        assert model.probability_count() == 4 * 255
        connected = _uniform(32, [range(0, 8), range(8, 16),
                                  range(16, 24), range(24, 32)], connect_bits=1)
        assert connected.probability_count() == 4 * 255 * 2

    def test_storage_bytes_scales_with_precision(self):
        model = _uniform(8, [range(8)], connect_bits=0)
        assert model.storage_bytes(8) < model.storage_bytes(16)

    def test_walk_encode_decode_symmetry(self):
        counts = MarkovCounts(8, [range(8)], connect_bits=1)
        words = [0x12, 0x12, 0x34, 0x12, 0x56, 0x12]
        train_block(counts, words)
        model = counts.freeze()

        emitted = []
        walk_encode(model, words, lambda bit, p: emitted.append((bit, p)))
        assert len(emitted) == 8 * len(words)

        # Feed the recorded bits back through the decode walk; the
        # probability sequence must be identical (proof the two walks
        # consult the model in the same order and state).
        queue = list(emitted)

        def next_bit(p0_q):
            bit, expected_p = queue.pop(0)
            assert p0_q == expected_p
            return bit

        decoded = walk_decode(model, len(words), next_bit)
        assert decoded == words

    def test_block_reset_makes_blocks_independent(self):
        # Identical blocks must produce identical (bit, prob) traces even
        # when preceded by different history.
        counts = MarkovCounts(8, [range(8)], connect_bits=2)
        block_a = [0xAA, 0xBB, 0xCC]
        block_b = [0x01, 0x02, 0x03]
        train_block(counts, block_a)
        train_block(counts, block_b)
        model = counts.freeze()

        def trace(block):
            out = []
            walk_encode(model, block, lambda b, p: out.append((b, p)))
            return out

        assert trace(block_a) == trace(block_a)  # deterministic
        first = trace(block_a)
        trace(block_b)  # interleave other work
        assert trace(block_a) == first

    def test_negative_connect_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            SamcModel(8, [range(8)], -1, [np.full((1, 255), 1 << 15)])


def test_model_on_real_program(mips_program):
    words = chunk_words(mips_program, 4)
    counts = MarkovCounts(32, [range(0, 8), range(8, 16),
                               range(16, 24), range(24, 32)], 1)
    train_block(counts, words)
    model = counts.freeze()
    decoded_bits = []
    walk_encode(model, words[:16], lambda b, p: decoded_bits.append(b))
    assert len(decoded_bits) == 512
