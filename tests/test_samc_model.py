"""Tests for SAMC's Markov model (trees, connection, walks, storage).

The walks and per-event training are the reference coder's, from
``tests/oracles.py``.
"""

import numpy as np
import pytest

from repro.bitstream.fields import chunk_words
from repro.core.samc.codec import QUANTIZERS
from repro.core.samc.model import SamcModel, StreamModel, StreamSpec, node_index
from repro.entropy.arith import quantize_probability
from tests.oracles import (
    observe,
    p0_quantized,
    train_block,
    walk_decode,
    walk_encode,
)


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
        model = StreamModel(StreamSpec((0, 1, 2)), contexts=1)
        assert model.node_count == 7

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError):
            StreamModel(StreamSpec(()), contexts=1)

    def test_probabilities_reflect_counts(self):
        model = StreamModel(StreamSpec((0,)), contexts=1)
        for _ in range(99):
            observe(model, 0, 0, 0)
        observe(model, 0, 0, 1)
        model.freeze()
        p = p0_quantized(model, 0, 0) / (1 << 16)
        assert p > 0.95

    def test_unseen_node_gets_half(self):
        model = StreamModel(StreamSpec((0, 1)), contexts=1)
        model.freeze()
        assert p0_quantized(model, 0, 0) == quantize_probability(0.5)

    def test_freeze_required_before_lookup(self):
        model = StreamModel(StreamSpec((0,)), contexts=1)
        with pytest.raises(RuntimeError):
            p0_quantized(model, 0, 0)

    def test_no_training_after_freeze(self):
        model = StreamModel(StreamSpec((0,)), contexts=1)
        model.freeze()
        with pytest.raises(RuntimeError):
            observe(model, 0, 0, 0)

    @pytest.mark.parametrize("mode", sorted(QUANTIZERS))
    def test_freeze_quantises_every_cell_as_its_quantiser(self, mode):
        # Counts from empty to lopsided: repeated, skewed and clamped
        # probabilities all occur.
        rng = np.random.default_rng(1998)
        counts = rng.integers(0, 8, size=(16, 15, 2))
        counts[::3, :, 1] = 0
        counts[1::4] *= rng.integers(1, 5000, size=(4, 15, 1))
        model = StreamModel(StreamSpec((0, 1, 2, 3)), contexts=16)
        model.observe_counts(counts)
        model.freeze(QUANTIZERS[mode])
        quantize = QUANTIZERS[mode]
        expected = [
            [quantize((zeros + 0.5) / (zeros + ones + 1.0)) for zeros, ones in row]
            for row in counts.tolist()
        ]
        assert model.frozen_table.dtype == np.int64
        assert model.frozen_table.tolist() == expected


class TestSamcModel:
    def test_streams_must_partition_word(self):
        with pytest.raises(ValueError):
            SamcModel(8, [(0, 1, 2)])  # misses positions 3..7
        with pytest.raises(ValueError):
            SamcModel(8, [(0, 1, 2, 3), (3, 4, 5, 6)])  # duplicate 3

    def test_probability_count(self):
        model = SamcModel(32, [range(0, 8), range(8, 16),
                               range(16, 24), range(24, 32)], connect_bits=0)
        assert model.probability_count() == 4 * 255
        connected = SamcModel(32, [range(0, 8), range(8, 16),
                                   range(16, 24), range(24, 32)], connect_bits=1)
        assert connected.probability_count() == 4 * 255 * 2

    def test_storage_bytes_scales_with_precision(self):
        model = SamcModel(8, [range(8)], connect_bits=0)
        assert model.storage_bytes(8) < model.storage_bytes(16)

    def test_walk_encode_decode_symmetry(self):
        model = SamcModel(8, [range(8)], connect_bits=1)
        words = [0x12, 0x12, 0x34, 0x12, 0x56, 0x12]
        train_block(model, words)
        model.freeze()

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
        model = SamcModel(8, [range(8)], connect_bits=2)
        block_a = [0xAA, 0xBB, 0xCC]
        block_b = [0x01, 0x02, 0x03]
        train_block(model, block_a)
        train_block(model, block_b)
        model.freeze()

        def trace(block):
            out = []
            walk_encode(model, block, lambda b, p: out.append((b, p)))
            return out

        assert trace(block_a) == trace(block_a)  # deterministic
        first = trace(block_a)
        trace(block_b)  # interleave other work
        assert trace(block_a) == first

    def test_negative_connect_rejected(self):
        with pytest.raises(ValueError):
            SamcModel(8, [range(8)], connect_bits=-1)

    def test_train_after_freeze_rejected(self):
        model = SamcModel(8, [range(8)])
        model.freeze()
        with pytest.raises(RuntimeError):
            train_block(model, [0])


def test_model_on_real_program(mips_program):
    words = chunk_words(mips_program, 4)
    model = SamcModel(32, [range(0, 8), range(8, 16),
                           range(16, 24), range(24, 32)])
    train_block(model, words)
    model.freeze()
    decoded_bits = []
    walk_encode(model, words[:16], lambda b, p: decoded_bits.append(b))
    assert len(decoded_bits) == 512
