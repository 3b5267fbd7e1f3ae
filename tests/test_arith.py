"""Tests for the binary arithmetic (range) coder: the quantisers, and
the reference coder in ``tests/oracles.py``."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.entropy.arith import (
    PROB_ONE,
    quantize_power_of_two,
    quantize_probability,
    quantize_probability_8bit,
)
from tests.oracles import (
    BinaryArithmeticDecoder,
    BinaryArithmeticEncoder,
    decode_bits,
    encode_bits,
)


class TestQuantizers:
    def test_full_range(self):
        assert quantize_probability(0.5) == PROB_ONE // 2
        assert quantize_probability(0.0) == 1
        assert quantize_probability(1.0) == PROB_ONE - 1

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            quantize_probability(1.5)
        with pytest.raises(ValueError):
            quantize_probability(-0.1)

    def test_8bit_is_multiple_of_256(self):
        for p in (0.0, 0.1, 0.5, 0.9, 1.0):
            q = quantize_probability_8bit(p)
            assert q % 256 == 0
            assert 1 <= q <= PROB_ONE - 1

    def test_pow2_lps_is_power_of_two(self):
        for p in (0.03, 0.2, 0.5, 0.8, 0.97):
            q = quantize_power_of_two(p)
            lps = min(q, PROB_ONE - q)
            assert lps & (lps - 1) == 0, f"p={p} lps={lps}"

    def test_pow2_side_preserved(self):
        assert quantize_power_of_two(0.9) > PROB_ONE // 2
        assert quantize_power_of_two(0.1) < PROB_ONE // 2

    def test_pow2_extremes(self):
        assert 1 <= quantize_power_of_two(0.0) < PROB_ONE
        assert 1 <= quantize_power_of_two(1.0) < PROB_ONE


class TestCoderBasics:
    def test_empty_stream(self):
        encoder = BinaryArithmeticEncoder()
        payload = encoder.finish()
        assert isinstance(payload, bytes)

    def test_single_bit(self):
        for bit in (0, 1):
            payload = encode_bits([bit], [PROB_ONE // 2])
            assert decode_bits(payload, [PROB_ONE // 2]) == [bit]

    def test_bad_bit_rejected(self):
        encoder = BinaryArithmeticEncoder()
        with pytest.raises(ValueError):
            encoder.encode_bit(2, PROB_ONE // 2)

    def test_bad_probability_rejected(self):
        encoder = BinaryArithmeticEncoder()
        with pytest.raises(ValueError):
            encoder.encode_bit(0, 0)
        with pytest.raises(ValueError):
            encoder.encode_bit(0, PROB_ONE)

    def test_decoder_bad_probability_rejected(self):
        decoder = BinaryArithmeticDecoder(b"\x5a")
        with pytest.raises(ValueError):
            decoder.decode_bit(0)
        with pytest.raises(ValueError):
            decoder.decode_bit(PROB_ONE)

    def test_encode_after_finish_rejected(self):
        encoder = BinaryArithmeticEncoder()
        encoder.finish()
        with pytest.raises(RuntimeError):
            encoder.encode_bit(0, 100)

    def test_finish_idempotent(self):
        encoder = BinaryArithmeticEncoder()
        encoder.encode_bit(1, 1000)
        assert encoder.finish() == encoder.finish()


class TestCompressionBehaviour:
    def test_skewed_bits_compress(self):
        # 4096 zeros predicted at p0 = 0.99 should code far below 4096 bits.
        p = quantize_probability(0.99)
        payload = encode_bits([0] * 4096, [p] * 4096)
        assert len(payload) < 4096 // 8 // 4  # > 4x compression

    def test_mispredicted_bits_expand(self):
        p = quantize_probability(0.99)  # predicts 0, stream is all 1s
        payload = encode_bits([1] * 512, [p] * 512)
        assert len(payload) > 512 // 8  # worse than raw

    def test_uniform_prediction_near_raw(self):
        rng = random.Random(1)
        bits = [rng.randrange(2) for _ in range(4096)]
        payload = encode_bits(bits, [PROB_ONE // 2] * 4096)
        assert abs(len(payload) - 4096 // 8) <= 8

    def test_short_flush(self):
        # The flush emits at most 4 bytes beyond the information content.
        p = quantize_probability(0.5)
        payload = encode_bits([0, 1, 0, 1], [p] * 4)
        assert len(payload) <= 4


def _random_case(seed, n):
    rng = random.Random(seed)
    bits = [rng.randrange(2) for _ in range(n)]
    probs = [rng.randrange(1, PROB_ONE) for _ in range(n)]
    return bits, probs


@pytest.mark.parametrize("seed", range(8))
def test_roundtrip_random_probabilities(seed):
    bits, probs = _random_case(seed, 2000)
    assert decode_bits(encode_bits(bits, probs), probs) == bits


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 1), st.integers(1, PROB_ONE - 1)),
                max_size=400))
def test_roundtrip_property(pairs):
    bits = [b for b, _p in pairs]
    probs = [p for _b, p in pairs]
    assert decode_bits(encode_bits(bits, probs), probs) == bits


def test_adaptive_style_usage():
    # Model state may depend on decoded history (as SAMC's does): as long
    # as encoder and decoder derive probabilities identically, it works.
    rng = random.Random(9)
    bits = [rng.randrange(2) for _ in range(1000)]

    def model(history):
        zeros = history.count(0) + 1
        return max(1, min(PROB_ONE - 1,
                          int(PROB_ONE * zeros / (len(history) + 2))))

    encoder = BinaryArithmeticEncoder()
    history = []
    for bit in bits:
        encoder.encode_bit(bit, model(history[-32:]))
        history.append(bit)
    payload = encoder.finish()

    decoder = BinaryArithmeticDecoder(payload)
    history = []
    out = []
    for _ in range(1000):
        bit = decoder.decode_bit(model(history[-32:]))
        out.append(bit)
        history.append(bit)
    assert out == bits


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        encode_bits([0, 1], [100])
