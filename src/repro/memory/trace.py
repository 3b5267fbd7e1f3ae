"""Synthetic instruction-fetch address traces.

The paper's performance argument is behavioural: "The loss in
performance should therefore depend on the instruction cache hit ratio."
To exercise it we need fetch traces with controllable locality.  The
generator runs a loop-nest model over the program's address space:
execution sits in a loop region for a while (re-fetching the same
blocks), then migrates — producing the hit ratios real I-caches see,
tunable from tight-loop (~99% hits) to branchy (~80%).
"""

from __future__ import annotations

import random
from array import array


def generate_trace(
    code_size: int,
    length: int = 100_000,
    seed: int = 0,
    mean_loop_bytes: int = 256,
    mean_iterations: int = 24,
) -> array:
    """Return ``length`` word-aligned fetch addresses within the program,
    as an ``array('I')``.

    ``mean_loop_bytes`` controls working-set size (bigger loops overflow
    the cache more) and ``mean_iterations`` controls reuse (more
    iterations raise the hit ratio).  Each loop draws its size, its
    start and its iteration count, in that order; its words are built
    once and appended once per iteration, and the trace is cut to
    ``length``.
    """
    if code_size < 8:
        raise ValueError("code_size too small to trace")
    rng = random.Random(seed)
    trace = array("I")
    while len(trace) < length:
        loop_bytes = max(8, int(rng.expovariate(1.0 / mean_loop_bytes)))
        loop_bytes = min(loop_bytes, code_size)
        start = rng.randrange(0, max(1, code_size - loop_bytes)) & ~3
        iterations = max(1, int(rng.expovariate(1.0 / mean_iterations)))
        words = array("I", range(start, start + loop_bytes, 4))
        for _ in range(iterations):
            trace.extend(words)
            if len(trace) >= length:
                break
    del trace[length:]
    return trace
