"""Binary arithmetic (range) coding: probability quantisers and the flush.

SAMC drives a *binary* arithmetic coder with Markov-model predictions
(Section 3 of the paper).  The paper's hardware decoder keeps a 24-bit
interval and shifts compressed code in 8 bits at a time; we implement the
software-equivalent construction, Subbotin's carry-less range coder:
32-bit ``low``/``range`` registers, bytewise renormalisation, no carry
propagation.  The coded stream is identical in spirit — an interval
subdivision per bit, refreshed a byte at a time — and the coder is exact:
decode(encode(bits)) == bits for any prediction sequence.

The coder runs fused with the Markov walk in
:mod:`repro.fastpath.samc_kernel`.  Its one-call-per-bit form, the
executable version of the paper's pseudocode, is the reference coder in
``tests/oracles.py``.  This module holds what the two share: the 16-bit
probability scale, the quantisers and the block flush.

Probabilities are quantised to 16 bits (``PROB_ONE == 1 << 16``).  The
paper's shift-only hardware variant constrains the less-probable symbol's
probability to a power of 1/2 (Witten et al. bound the efficiency loss at
~5%); :func:`quantize_power_of_two` implements that constraint.
"""
from __future__ import annotations

import math

PROB_BITS = 16
PROB_ONE = 1 << PROB_BITS


def quantize_probability(p0: float) -> int:
    """Quantise P(bit=0) to a 16-bit integer in [1, PROB_ONE-1].

    Clamping away from 0 and 1 guarantees both interval halves stay
    non-empty, so any bit remains decodable even when the model predicted
    it with probability ~0 (it just costs many output bits).
    """
    if not 0.0 <= p0 <= 1.0:
        raise ValueError(f"probability {p0} outside [0, 1]")
    q = int(round(p0 * PROB_ONE))
    return max(1, min(PROB_ONE - 1, q))


def quantize_probability_8bit(p0: float) -> int:
    """Quantise P(bit=0) to 8-bit precision (stored in one byte).

    Returns the 16-bit coded value (a multiple of 256) so it plugs into
    the same coder interface; the decoder's probability memory only needs
    8 bits per entry, halving SAMC's table storage at a negligible
    compression cost.
    """
    if not 0.0 <= p0 <= 1.0:
        raise ValueError(f"probability {p0} outside [0, 1]")
    q8 = max(1, min(255, int(round(p0 * 256))))
    return q8 << 8


def quantize_power_of_two(p0: float) -> int:
    """Quantise so the less-probable symbol has probability 2**-k.

    This is the paper's multiplier-free decoder option: the midpoint
    computation becomes a shift (plus a subtraction when 0 is the more
    probable symbol).  ``k`` is clamped to [1, PROB_BITS].
    """
    if not 0.0 <= p0 <= 1.0:
        raise ValueError(f"probability {p0} outside [0, 1]")
    lps = min(p0, 1.0 - p0)
    if lps <= 0.0:
        k = PROB_BITS
    else:
        k = int(round(-math.log2(lps)))
        k = max(1, min(PROB_BITS, k))
    lps_q = PROB_ONE >> k
    if p0 <= 0.5:
        return max(1, lps_q)
    return PROB_ONE - max(1, lps_q)


def flush_interval(low: int, range_: int, out: bytearray) -> None:
    """Append the shortest byte prefix of a value in ``[low, low+range)``.

    The SAMC coder kernels (:mod:`repro.fastpath.samc_kernel`) end every
    block with it, and so does the reference encoder the tests keep
    (``tests/oracles.py``), so both terminate blocks with the identical
    byte sequence by construction.
    """
    top = low + range_
    for nbytes in range(5):
        shift = 32 - 8 * nbytes
        if shift >= 33:  # pragma: no cover - nbytes starts at 0
            continue
        step = 1 << shift if shift < 33 else 0
        value = ((low + step - 1) >> shift) << shift if shift else low
        if low <= value < top or (value == low == 0):
            for byte_index in range(nbytes):
                out.append((value >> (24 - 8 * byte_index)) & 0xFF)
            return
    raise AssertionError(  # pragma: no cover - nbytes=4 always succeeds
        "flush failed to find an in-interval value"
    )
