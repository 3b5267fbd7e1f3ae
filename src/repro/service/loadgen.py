"""Mixed-workload load generator (``python -m repro loadgen``).

Replays a deterministic mixed workload — compress and decompress
requests across every wire codec, plus health probes — against a
running daemon at a target request rate, then reports what the service
actually sustained:

* **achieved RPS** vs the target (and whether the run saturated);
* **client-side latency percentiles** (p50/p95/p99/max, measured from
  each request's scheduled send to its reply, exact — not
  histogram-bucketed);
* **typed outcomes**: every sent request lands in exactly one bucket —
  ``ok``, ``retried_ok`` (succeeded after >= 1 retry), ``busy`` /
  ``deadline`` (typed sheds; a ``deadline`` shed is terminal, since a
  retry cannot beat a clock that has run out), ``breaker_open``
  (refused locally, no wire attempt), ``connection_faults`` /
  ``timeouts`` (transport failures that exhausted the retries),
  ``service_errors`` / ``internal_errors`` (structured rejections,
  never retried) — so :attr:`LoadgenReport.outcomes_total` always
  equals ``sent``;
* with ``--sweep``, the **saturation point**: the rate is doubled until
  achieved throughput falls below the sustain threshold.

Retries follow a :class:`~repro.resilience.retry.RetryPolicy`; the
default policy makes one attempt.  A shared
:class:`~repro.resilience.retry.CircuitBreaker` and a per-request
``request_deadline`` are optional.

Pacing: each of ``connections`` asyncio workers owns an equal slice of
the target rate and a fixed send schedule on an interval grid.  A
worker carries one request at a time, so a slow reply delays its next
sends; the schedule never moves, though, and each request is timed
from its *scheduled* send, so the wait a stall causes is charged to
every request that was due during it.  Under saturation the workers
fall behind: requests still unsent when the duration ends are never
sent, and the achieved RPS is bounded by ``connections`` over the
latency.  All workload choice is seeded — two runs with the same seed
replay the same request sequence.
"""

from __future__ import annotations

import asyncio
import json
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.clock import perf_seconds
from repro.resilience.errors import CorruptedStreamError
from repro.resilience.retry import CircuitBreaker, RetryPolicy
from repro.service.client import AsyncServiceClient
from repro.service.protocol import (
    OP_COMPRESS,
    OP_DECOMPRESS,
    OP_HEALTH,
    OP_STATS,
    STATUS_BUSY,
    STATUS_DEADLINE,
    STATUS_OK,
)

#: Fraction of the target rate a run must sustain to count as
#: unsaturated.
SUSTAIN_THRESHOLD = 0.90

#: Per-request reply budget; a reply slower than this counts as a
#: timeout (the daemon's decode contract bans hangs).
REQUEST_TIMEOUT = 30.0

#: The default policy: one attempt, no retries.
SINGLE_ATTEMPT = RetryPolicy(max_attempts=1)


@dataclass(frozen=True)
class WorkUnit:
    """One replayable request template."""

    label: str
    op: int
    codec: str
    payload: bytes
    weight: int


def build_workload(seed: int = 0) -> List[WorkUnit]:
    """The standard deterministic mix: every codec, both directions.

    Payloads are small synthetic programs (hundreds of bytes to a few
    KB) so a single CPU can clear hundreds of requests per second;
    decompress units are pre-compressed here, once, and the SAMC
    compress units warm the model registry on first touch.
    """
    from repro.baselines.byte_huffman import ByteHuffmanCodec
    from repro.baselines.gzipish import gzipish_compress
    from repro.baselines.lzw import lzw_compress
    from repro.core.samc import SamcCodec
    from repro.core.serialize import serialize_image
    from repro.workloads.suite import generate_benchmark

    mips = generate_benchmark("compress", "mips", scale=0.3, seed=seed).code
    x86 = generate_benchmark("compress", "x86", scale=0.2, seed=seed).code
    tiny = mips[: 512 - (512 % 4)]

    samc_archive = serialize_image(
        SamcCodec.for_bytes().compress(tiny), framed=False
    )
    huffman_archive = serialize_image(
        ByteHuffmanCodec().compress(tiny), framed=False
    )
    units = [
        WorkUnit("gzipish-c", OP_COMPRESS, "gzipish", mips, 5),
        WorkUnit("gzipish-d", OP_DECOMPRESS, "gzipish",
                 gzipish_compress(mips), 5),
        WorkUnit("gzipish-c-x86", OP_COMPRESS, "gzipish", x86, 2),
        WorkUnit("lzw-c", OP_COMPRESS, "lzw", tiny, 2),
        WorkUnit("lzw-d", OP_DECOMPRESS, "lzw", lzw_compress(tiny), 2),
        WorkUnit("samc-bytes-c", OP_COMPRESS, "samc-bytes", tiny, 1),
        WorkUnit("samc-bytes-d", OP_DECOMPRESS, "samc-bytes",
                 samc_archive, 1),
        WorkUnit("byte-huffman-d", OP_DECOMPRESS, "byte-huffman",
                 huffman_archive, 1),
        WorkUnit("health", OP_HEALTH, "", b"", 1),
    ]
    return units


@dataclass
class LoadgenReport:
    """Everything one loadgen run measured."""

    target_rps: float
    duration: float
    connections: int
    seed: int
    sent: int = 0
    ok: int = 0
    busy: int = 0
    service_errors: int = 0
    retried_ok: int = 0
    deadline_shed: int = 0
    breaker_open: int = 0
    connection_faults: int = 0
    timeouts: int = 0
    internal_errors: int = 0
    #: Retry *attempts* spent (informational, not an outcome bucket).
    retries: int = 0
    #: Breaker lifetime transitions, copied off the shared breaker.
    breaker_opened: int = 0
    breaker_reclosed: int = 0
    elapsed: float = 0.0
    latencies_ms: List[float] = field(default_factory=list)
    error_samples: List[str] = field(default_factory=list)
    #: The daemon's ``stats`` document, fetched right after the run
    #: (``None`` if the fetch failed).  Source of the server-side batch
    #: picture: the achieved ``service.batch_size`` histogram and the
    #: grouped/singleton dispatch split.
    service_stats: Optional[Dict[str, object]] = None

    @property
    def achieved_rps(self) -> float:
        succeeded = self.ok + self.retried_ok
        return succeeded / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def transport_failures(self) -> int:
        """Requests lost to the transport: connection faults plus
        timeouts.  Any of them breaches the SLO gate."""
        return self.connection_faults + self.timeouts

    @property
    def error_rate(self) -> float:
        failed = (self.service_errors + self.internal_errors
                  + self.transport_failures)
        return failed / self.sent if self.sent else 0.0

    @property
    def outcomes_total(self) -> int:
        """Sum over every outcome bucket.

        The accounting invariant: every sent request ends in exactly one
        typed outcome, so this equals ``sent`` (the soak asserts it).
        """
        return (self.ok + self.retried_ok + self.busy + self.deadline_shed
                + self.breaker_open + self.transport_failures
                + self.service_errors + self.internal_errors)

    @property
    def saturated(self) -> bool:
        return self.achieved_rps < SUSTAIN_THRESHOLD * self.target_rps

    def percentile_ms(self, q: float) -> float:
        if not self.latencies_ms:
            return 0.0
        ordered = sorted(self.latencies_ms)
        rank = min(len(ordered) - 1, max(0, int(q * len(ordered))))
        return ordered[rank]

    def to_dict(self) -> Dict[str, object]:
        return {
            "target_rps": self.target_rps,
            "achieved_rps": round(self.achieved_rps, 2),
            "duration_seconds": self.duration,
            "elapsed_seconds": round(self.elapsed, 3),
            "connections": self.connections,
            "seed": self.seed,
            "requests_sent": self.sent,
            "ok": self.ok,
            "retried_ok": self.retried_ok,
            "busy": self.busy,
            "deadline": self.deadline_shed,
            "breaker_open": self.breaker_open,
            "connection_faults": self.connection_faults,
            "timeouts": self.timeouts,
            "service_errors": self.service_errors,
            "internal_errors": self.internal_errors,
            "retries": self.retries,
            "breaker": {
                "opened": self.breaker_opened,
                "reclosed": self.breaker_reclosed,
            },
            "error_rate": round(self.error_rate, 6),
            "saturated": self.saturated,
            "latency_ms": {
                "p50": round(self.percentile_ms(0.50), 3),
                "p95": round(self.percentile_ms(0.95), 3),
                "p99": round(self.percentile_ms(0.99), 3),
                "max": round(max(self.latencies_ms), 3)
                if self.latencies_ms else 0.0,
            },
            "batch": self.batch_summary(),
        }

    def batch_summary(self) -> Optional[Dict[str, object]]:
        """Server-side batching picture from the ``stats`` document."""
        if not self.service_stats:
            return None
        counters = self.service_stats.get("counters") or {}
        return {
            "batch_size": self.service_stats.get("batch"),
            "grouped_dispatches": counters.get("service.batch_grouped", 0),
            "singleton_dispatches": counters.get(
                "service.batch_singleton", 0
            ),
        }

    def format_lines(self) -> List[str]:
        from repro.cli_report import format_table

        doc = self.to_dict()
        latency = doc["latency_ms"]
        rows: List[Sequence[object]] = [
            ("target rps", f"{self.target_rps:.0f}"),
            ("achieved rps", f"{self.achieved_rps:.1f}"),
            ("requests", f"{self.sent} sent / {self.ok} ok / "
                         f"{self.retried_ok} retried ok "
                         f"({self.retries} retry attempts)"),
            ("shed", f"{self.busy} busy / {self.deadline_shed} deadline"),
            ("errors", f"{self.service_errors} service / "
                       f"{self.internal_errors} internal / "
                       f"{self.transport_failures} transport "
                       f"({100 * self.error_rate:.2f}%)"),
            ("transport", f"{self.connection_faults} connection / "
                          f"{self.timeouts} timeout"),
            ("breaker", f"{self.breaker_open} refused "
                        f"(opened {self.breaker_opened}x, "
                        f"reclosed {self.breaker_reclosed}x)"),
            ("latency p50", f"{latency['p50']:.2f} ms"),
            ("latency p95", f"{latency['p95']:.2f} ms"),
            ("latency p99", f"{latency['p99']:.2f} ms"),
            ("latency max", f"{latency['max']:.2f} ms"),
            ("saturated", "yes" if self.saturated else "no"),
        ]
        batch = self.batch_summary()
        if batch is not None:
            size = batch["batch_size"] or {}
            if size:
                rows.append((
                    "batch size",
                    f"mean {size.get('mean', 0):.2f} / "
                    f"p50 {size.get('p50', 0):.0f} / "
                    f"p99 {size.get('p99', 0):.0f} "
                    f"({size.get('count', 0)} dispatches)",
                ))
            rows.append((
                "vector groups",
                f"{batch['grouped_dispatches']} grouped / "
                f"{batch['singleton_dispatches']} singleton",
            ))
        lines = [f"loadgen: {self.duration:.0f}s @ {self.target_rps:.0f} rps "
                 f"over {self.connections} connections (seed {self.seed})"]
        lines.extend(format_table(rows).splitlines())
        for sample in self.error_samples[:5]:
            lines.append(f"  error: {sample}")
        return lines


def slo_breaches(
    report: LoadgenReport,
    p99_ms: Optional[float] = None,
    max_error_rate: Optional[float] = None,
) -> List[str]:
    """Which SLOs this run breached (empty == the gate passes).

    The gate is what CI runs after a loadgen burst: a breach message per
    violated objective, human-readable and stable enough to grep.
    Transport failures always breach — no error budget covers a
    dropped connection or a hung reply.
    """
    breaches: List[str] = []
    if report.transport_failures:
        breaches.append(
            f"transport failures: {report.transport_failures} (budget: 0)"
        )
    if p99_ms is not None:
        observed = report.percentile_ms(0.99)
        if observed > p99_ms:
            breaches.append(
                f"latency p99 {observed:.2f} ms > SLO {p99_ms:.2f} ms"
            )
    if max_error_rate is not None and report.error_rate > max_error_rate:
        breaches.append(
            f"error rate {report.error_rate:.4f} > "
            f"budget {max_error_rate:.4f}"
        )
    return breaches


def write_stats_json(report: LoadgenReport, path: str) -> None:
    """Write the run's machine-readable report (for CI artifacts)."""
    document = dict(report.to_dict())
    document["service_stats"] = report.service_stats
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _sample(report: LoadgenReport, message: str) -> None:
    if len(report.error_samples) < 16:
        report.error_samples.append(message)


async def _worker(
    host: str,
    port: int,
    units: Sequence[WorkUnit],
    weights: Sequence[int],
    rate: float,
    deadline: float,
    start_at: float,
    rng: random.Random,
    report: LoadgenReport,
    request_timeout: float,
    policy: RetryPolicy,
    breaker: Optional[CircuitBreaker],
    request_deadline: Optional[float],
) -> None:
    """One paced connection worth of load.

    Transport failures and ``busy`` sheds are retried on the policy's
    seeded backoff schedule, the shared ``breaker`` refuses sends while
    open, and every request lands in exactly one typed outcome bucket.
    Latency runs from the request's slot on the send schedule, which a
    late reply never moves.
    """
    client: Optional[AsyncServiceClient] = None
    interval = 1.0 / rate if rate > 0 else 0.0
    next_send = start_at
    while True:
        now = perf_seconds()
        if now >= deadline:
            break
        if next_send > now:
            await asyncio.sleep(next_send - now)
        scheduled = next_send
        next_send += interval
        unit = rng.choices(units, weights=weights)[0]
        report.sent += 1
        if breaker is not None and not breaker.allow():
            report.breaker_open += 1
            continue
        delays = policy.delays()
        attempts = 0
        while True:
            attempts += 1
            try:
                if client is None:
                    client = await AsyncServiceClient.connect(
                        host, port, timeout=request_timeout
                    )
                response = await client.request(
                    unit.op, unit.codec, unit.payload,
                    timeout=request_timeout,
                    deadline=request_deadline,
                )
            except (CorruptedStreamError, asyncio.TimeoutError,
                    ConnectionError, OSError) as error:
                if breaker is not None:
                    breaker.record_failure()
                if client is not None:
                    await client.close()
                    client = None
                delay = next(delays, None)
                if delay is not None and (
                    breaker is None or breaker.allow()
                ):
                    report.retries += 1
                    await asyncio.sleep(delay)
                    continue
                if isinstance(error, asyncio.TimeoutError):
                    report.timeouts += 1
                else:
                    report.connection_faults += 1
                _sample(report, f"{unit.label}: "
                                f"{type(error).__name__}: {error}")
                break
            if breaker is not None:
                breaker.record_success()
            if response.status == STATUS_BUSY:
                delay = next(delays, None)
                if delay is not None:
                    report.retries += 1
                    await asyncio.sleep(delay)
                    continue
            report.latencies_ms.append(
                (perf_seconds() - scheduled) * 1000.0
            )
            if response.status == STATUS_OK:
                if attempts > 1:
                    report.retried_ok += 1
                else:
                    report.ok += 1
            elif response.status == STATUS_BUSY:
                report.busy += 1
            elif response.status == STATUS_DEADLINE:
                # The budget already lapsed: retrying cannot beat a
                # clock that has run out, so the shed is terminal.
                report.deadline_shed += 1
            else:
                if response.category == "internal":
                    report.internal_errors += 1
                else:
                    report.service_errors += 1
                _sample(report, f"{unit.label}: [{response.category}] "
                                f"{response.message}")
            break
    if client is not None:
        await client.close()


async def run_loadgen_async(
    host: str,
    port: int,
    rps: float,
    duration: float,
    connections: int,
    seed: int,
    units: Sequence[WorkUnit],
    retry: RetryPolicy = SINGLE_ATTEMPT,
    breaker: Optional[CircuitBreaker] = None,
    request_deadline: Optional[float] = None,
    request_timeout: float = REQUEST_TIMEOUT,
    fetch_stats: bool = True,
) -> LoadgenReport:
    """The loadgen burst as a coroutine, for callers with their own loop
    (the soak driver runs the chaos proxy and the workers on one loop).
    """
    report = LoadgenReport(
        target_rps=rps, duration=duration,
        connections=connections, seed=seed,
    )
    weights = [unit.weight for unit in units]
    start = perf_seconds()
    deadline = start + duration
    per_worker = rps / connections
    tasks = [
        asyncio.ensure_future(_worker(
            host, port, units, weights, per_worker, deadline,
            # Stagger workers across one interval so sends interleave.
            start + (index / connections) / per_worker,
            random.Random(seed * 1_000_003 + index),
            report,
            request_timeout=request_timeout,
            policy=retry,
            breaker=breaker,
            request_deadline=request_deadline,
        ))
        for index in range(connections)
    ]
    await asyncio.gather(*tasks)
    report.elapsed = perf_seconds() - start
    if breaker is not None:
        report.breaker_opened = breaker.opened
        report.breaker_reclosed = breaker.reclosed
    if fetch_stats:
        report.service_stats = await _fetch_stats(host, port)
    return report


async def _fetch_stats(host: str, port: int) -> Optional[Dict[str, object]]:
    """One ``stats`` round-trip after the run; ``None`` on any failure.

    Best-effort on purpose: the run's verdict (latency, errors,
    saturation) must not depend on a post-run bookkeeping fetch.
    """
    try:
        client = await AsyncServiceClient.connect(host, port)
        try:
            response = await asyncio.wait_for(
                client.request(OP_STATS, "", b""),
                timeout=REQUEST_TIMEOUT,
            )
        finally:
            await client.close()
        if response.status != STATUS_OK:
            return None
        return json.loads(response.payload.decode())
    except (CorruptedStreamError, asyncio.TimeoutError, ConnectionError,
            OSError, ValueError):
        return None


def run_loadgen(
    host: str,
    port: int,
    rps: float = 200.0,
    duration: float = 5.0,
    connections: int = 8,
    seed: int = 0,
    units: Optional[Sequence[WorkUnit]] = None,
    retry: RetryPolicy = SINGLE_ATTEMPT,
    breaker: Optional[CircuitBreaker] = None,
    request_deadline: Optional[float] = None,
    request_timeout: float = REQUEST_TIMEOUT,
) -> LoadgenReport:
    """Run one paced burst against a live daemon; see the module doc."""
    if rps <= 0 or duration <= 0:
        raise ValueError("rps and duration must be positive")
    connections = max(1, min(connections, int(rps) or 1))
    if units is None:
        units = build_workload(seed)
    return asyncio.run(run_loadgen_async(
        host, port, rps, duration, connections, seed, list(units),
        retry=retry, breaker=breaker,
        request_deadline=request_deadline,
        request_timeout=request_timeout,
    ))


def find_saturation(
    host: str,
    port: int,
    start_rps: float = 50.0,
    duration: float = 3.0,
    connections: int = 8,
    seed: int = 0,
    max_rounds: int = 6,
) -> Tuple[List[LoadgenReport], float]:
    """Double the rate until the service stops keeping up.

    Returns every round's report plus the saturation point: the highest
    target rate the service sustained (>= :data:`SUSTAIN_THRESHOLD` of
    target with no transport failures).
    """
    reports: List[LoadgenReport] = []
    sustained = 0.0
    rate = start_rps
    for _ in range(max_rounds):
        report = run_loadgen(
            host, port, rps=rate, duration=duration,
            connections=connections, seed=seed,
        )
        reports.append(report)
        if report.saturated or report.transport_failures:
            break
        sustained = rate
        rate *= 2
    return reports, sustained


__all__ = [
    "LoadgenReport",
    "REQUEST_TIMEOUT",
    "SUSTAIN_THRESHOLD",
    "WorkUnit",
    "build_workload",
    "find_saturation",
    "run_loadgen",
    "run_loadgen_async",
    "slo_breaches",
    "write_stats_json",
]
