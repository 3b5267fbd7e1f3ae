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
probability scale and the quantisers.  It also holds the block flush,
taken for every block of an image at once (:func:`flush_blocks`); the
oracle's one-block flush is pinned to it.

Probabilities are quantised to 16 bits (``PROB_ONE == 1 << 16``).  The
paper's shift-only hardware variant constrains the less-probable symbol's
probability to a power of 1/2 (Witten et al. bound the efficiency loss at
~5%); :func:`quantize_power_of_two` implements that constraint.
"""
from __future__ import annotations

import math
from typing import Tuple

import numpy as np
from numpy.typing import ArrayLike

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


def flush_blocks(
    low: ArrayLike, range_: ArrayLike
) -> Tuple[np.ndarray, np.ndarray]:
    """Flush every block at once from its final ``low`` and ``range``.

    Block ``i`` ends with the first ``counts[i]`` bytes of ``heads[i]``,
    the shortest prefix of a value in ``[low, low + range)``: the
    decoder reads zeros past a payload's end.  The count is 0 only when
    ``low`` is 0; otherwise it is the least ``n`` in 1..4 for which
    ``low``, rounded up to a multiple of ``2**(32 - 8n)``, lies below
    ``low + range``, and ``heads`` holds that value big-endian.  The
    sums are ``uint64``, so rounding up to ``2**32`` cannot wrap.
    """
    low = np.asarray(low, dtype=np.uint64)
    top = low + np.asarray(range_, dtype=np.uint64)
    counts = np.full(low.shape, 4, dtype=np.uint64)
    for n in (3, 2, 1):  # the least n that fits is written last
        shift = 32 - 8 * n
        counts[(low + (1 << shift) - 1) >> shift << shift < top] = n
    counts[low == 0] = 0
    shift = 32 - 8 * counts
    heads = (low + (1 << shift) - 1) >> shift << shift
    return counts.astype(np.intp), heads.astype(">u4").view(np.uint8).reshape(-1, 4)
