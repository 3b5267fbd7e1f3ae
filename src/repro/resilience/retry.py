"""Retry policy and circuit breaker: the repo's one backoff schedule.

Two small, composable pieces shared by every path that retries:

* :class:`RetryPolicy` — seeded, deterministic exponential backoff
  with bounded jitter.  Two policies built from the same seed yield the
  same delay sequence, so a retried run replays exactly — the same
  determinism contract every other seeded component in the repo keeps.
  The pipeline executor takes its (unjittered) sleeps between job
  attempts from one; the service clients, the load generator and the
  soak driver pace their retries with one.
* :class:`CircuitBreaker` — consecutive transport failures trip the
  breaker open; while open, calls are refused locally (a typed
  ``breaker-open`` outcome, not a connection attempt) until the
  recovery window lapses, then a limited number of half-open probes
  decide between closing it again and re-opening.  This is what keeps
  a retrying client from hammering a dead or draining server with
  connect storms.

What counts as retryable is the caller's decision: the load generator
retries transport faults and ``busy`` sheds, and treats ``deadline``
sheds and structured ``error`` replies as terminal.  Nothing here
sleeps or connects on its own: the policy yields delays, the breaker
answers ``allow()``, and the caller owns the loop — so the pieces work
the same in the process pool, under asyncio and with blocking sockets.
The module imports only :mod:`repro.obs.clock`, so the sweep executor
uses it without loading the service stack.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from repro.obs.clock import perf_seconds

#: Breaker states.
STATE_CLOSED = "closed"
STATE_OPEN = "open"
STATE_HALF_OPEN = "half-open"


@dataclass(frozen=True)
class RetryPolicy:
    """Seeded exponential backoff: ``base * multiplier**n``, jittered.

    ``max_attempts`` counts *total* tries including the first
    (``None`` = unbounded, for time-capped loops like
    ``wait_for_service``).  ``jitter`` is the +/- fraction applied to
    each delay; the jitter stream comes from ``random.Random(seed)``,
    so the full delay sequence is a pure function of the policy.
    """

    max_attempts: Optional[int] = 3
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts is not None and self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1 (or None)")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if not 0 <= self.jitter <= 1:
            raise ValueError("jitter must be a fraction in [0, 1]")

    def delays(self) -> Iterator[float]:
        """The backoff delays *between* attempts, in order.

        Yields ``max_attempts - 1`` values (unbounded when
        ``max_attempts`` is ``None``): a policy of N attempts sleeps
        N-1 times.
        """
        rng = random.Random(self.seed)
        attempt = 0
        while self.max_attempts is None or attempt < self.max_attempts - 1:
            base = min(
                self.max_delay, self.base_delay * self.multiplier ** attempt
            )
            yield base * (1.0 + self.jitter * (2.0 * rng.random() - 1.0))
            attempt += 1


class CircuitBreaker:
    """Trip after N consecutive transport failures; probe to recover.

    State machine (all transitions happen inside ``allow()`` /
    ``record_*``, driven by the injected ``clock`` so tests control
    time):

    * ``closed`` — calls flow; ``failure_threshold`` consecutive
      recorded failures open the breaker.
    * ``open`` — ``allow()`` is ``False`` until ``recovery_time``
      seconds pass, then the breaker goes half-open.
    * ``half-open`` — up to ``half_open_probes`` calls are allowed
      through; one success closes the breaker, one failure re-opens it
      (restarting the recovery clock).

    Single-threaded by design: one asyncio loadgen run owns one
    breaker.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        recovery_time: float = 1.0,
        half_open_probes: int = 1,
        clock: Callable[[], float] = perf_seconds,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if recovery_time < 0:
            raise ValueError("recovery_time must be non-negative")
        if half_open_probes < 1:
            raise ValueError("half_open_probes must be >= 1")
        self.failure_threshold = failure_threshold
        self.recovery_time = recovery_time
        self.half_open_probes = half_open_probes
        self._clock = clock
        self.state = STATE_CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probes_inflight = 0
        #: Lifetime transition counters (for reports).
        self.opened = 0
        self.reclosed = 0

    def allow(self) -> bool:
        """May the caller attempt a request now?"""
        if self.state == STATE_OPEN:
            if self._clock() - self._opened_at >= self.recovery_time:
                self.state = STATE_HALF_OPEN
                self._probes_inflight = 0
            else:
                return False
        if self.state == STATE_HALF_OPEN:
            if self._probes_inflight >= self.half_open_probes:
                return False
            self._probes_inflight += 1
        return True

    def record_success(self) -> None:
        """The attempt reached the server and got a healthy reply."""
        if self.state == STATE_HALF_OPEN:
            self.reclosed += 1
        self.state = STATE_CLOSED
        self._consecutive_failures = 0
        self._probes_inflight = 0

    def record_failure(self) -> None:
        """The attempt failed at the transport layer."""
        if self.state == STATE_HALF_OPEN:
            self._trip()
            return
        self._consecutive_failures += 1
        if self._consecutive_failures >= self.failure_threshold:
            self._trip()

    def _trip(self) -> None:
        self.state = STATE_OPEN
        self.opened += 1
        self._opened_at = self._clock()
        self._consecutive_failures = 0
        self._probes_inflight = 0


__all__ = [
    "CircuitBreaker",
    "RetryPolicy",
    "STATE_CLOSED",
    "STATE_HALF_OPEN",
    "STATE_OPEN",
]
