"""Entropy-coding substrate: statistics, Huffman, range-coder quantisers."""

from repro.entropy.arith import (
    PROB_BITS,
    PROB_ONE,
    quantize_power_of_two,
    quantize_probability,
)
from repro.entropy.huffman import (
    HuffmanCode,
    HuffmanDecoder,
    HuffmanEncoder,
    build_code,
    build_code_from_symbols,
    canonical_codewords,
    code_lengths,
)
from repro.entropy.stats import (
    bit_correlation,
    bit_matrix,
    entropy_bits,
    frequencies,
    markov_stream_entropy,
    total_information_bits,
)

__all__ = [
    "PROB_BITS",
    "PROB_ONE",
    "HuffmanCode",
    "HuffmanDecoder",
    "HuffmanEncoder",
    "bit_correlation",
    "bit_matrix",
    "build_code",
    "build_code_from_symbols",
    "canonical_codewords",
    "code_lengths",
    "entropy_bits",
    "frequencies",
    "markov_stream_entropy",
    "quantize_power_of_two",
    "quantize_probability",
    "total_information_bits",
]
