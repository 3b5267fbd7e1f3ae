"""The chaos soak: end-to-end failure-semantics verification.

One command (``python -m repro soak``) assembles the full resilience
story and checks its contract:

1. an in-process daemon (:class:`~repro.service.server.ServerThread`)
   on an ephemeral port, with a large flight-recorder ring;
2. the seeded :class:`~repro.service.chaos.ChaosProxy` in front of it,
   injecting resets, truncations, slow drips, latency, and duplicated
   bytes;
3. retrying load-generator workers driving traffic *through* the proxy
   with a :class:`~repro.resilience.retry.RetryPolicy`, a shared
   :class:`~repro.resilience.retry.CircuitBreaker`, and per-request
   deadlines;
4. a mid-soak graceful drain (the SIGTERM analogue) at ~60% of the
   run, while requests are genuinely in flight.

The soak passes only when the failure semantics hold end to end:

* **typed outcomes** — every sent request lands in exactly one bucket
  (ok / retried-ok / busy / deadline / breaker-open / connection-fault);
* **zero hangs** — no client-side timeout fires; all harness-injected
  delays are bounded far below the request timeout, so a timeout is a
  real hang;
* **zero leaked internal errors** — neither the clients nor the
  daemon's ``service.internal_errors`` counter see an untyped failure;
* **zero reply loss across the drain** — the daemon flight-records a
  clean ``drained`` event (never ``force_closed``) and ends with no
  accepted request unanswered.

Any violation is reported and exits non-zero; ``--flightrec-dump``
writes the daemon's lifecycle ring as JSONL for the post-mortem.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.resilience.retry import CircuitBreaker, RetryPolicy
from repro.service.chaos import ChaosProxy
from repro.service.loadgen import (
    LoadgenReport,
    build_workload,
    run_loadgen_async,
)
from repro.service.server import ServerThread, ServiceConfig

#: Per-request wall-clock bound during the soak.  Chaos delays are
#: bounded near 1 s, so anything hitting this is a genuine hang.
SOAK_REQUEST_TIMEOUT = 8.0

#: Per-request deadline stamped on the wire (seconds).
SOAK_REQUEST_DEADLINE = 5.0

#: Fraction of the soak after which the graceful drain fires.
DRAIN_AT = 0.6


@dataclass
class SoakReport:
    """Everything one soak run measured, plus its verdict."""

    seed: int
    duration: float
    rps: float
    connections: int
    loadgen: Optional[LoadgenReport] = None
    proxy: Dict[str, int] = field(default_factory=dict)
    drain_clean: bool = False
    server_inflight_after: int = 0
    server_internal_errors: int = 0
    server_sheds: Dict[str, int] = field(default_factory=dict)
    flightrec_kinds: Dict[str, int] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "duration_seconds": self.duration,
            "rps": self.rps,
            "connections": self.connections,
            "ok": self.ok,
            "violations": list(self.violations),
            "loadgen": self.loadgen.to_dict() if self.loadgen else None,
            "proxy": dict(self.proxy),
            "drain_clean": self.drain_clean,
            "server_inflight_after": self.server_inflight_after,
            "server_internal_errors": self.server_internal_errors,
            "server_sheds": dict(self.server_sheds),
            "flightrec_kinds": dict(self.flightrec_kinds),
        }

    def format_lines(self) -> List[str]:
        lines = [
            f"soak: seed {self.seed}, {self.duration:.0f}s @ "
            f"{self.rps:.0f} rps through the chaos proxy "
            f"(drain at {DRAIN_AT:.0%})"
        ]
        if self.loadgen is not None:
            lines.extend(self.loadgen.format_lines())
        faults = ", ".join(
            f"{mode}={count}" for mode, count in sorted(self.proxy.items())
            if count
        )
        lines.append(f"proxy: {faults or 'no connections'}")
        sheds = ", ".join(
            f"{kind}={count}"
            for kind, count in sorted(self.server_sheds.items())
        )
        lines.append(
            f"server: drain {'clean' if self.drain_clean else 'DIRTY'} / "
            f"{self.server_inflight_after} unanswered / "
            f"{self.server_internal_errors} internal"
            + (f" / sheds {sheds}" if sheds else "")
        )
        if self.violations:
            lines.append(f"FAIL: {len(self.violations)} violation(s)")
            lines.extend(f"  - {violation}" for violation in self.violations)
        else:
            lines.append("PASS: failure-semantics contract held")
        return lines


def _verify(report: SoakReport) -> List[str]:
    """The contract checks; each failure is one violation string."""
    violations: List[str] = []
    load = report.loadgen
    if load is None:
        return ["loadgen produced no report"]
    if load.sent == 0:
        violations.append("no requests were sent")
    if load.outcomes_total != load.sent:
        violations.append(
            f"outcome accounting broke: {load.sent} sent but "
            f"{load.outcomes_total} typed outcomes"
        )
    if load.timeouts:
        violations.append(
            f"{load.timeouts} request(s) hit the {SOAK_REQUEST_TIMEOUT:.0f}s "
            "client timeout — a hang, since injected delays are bounded"
        )
    if load.internal_errors:
        violations.append(
            f"{load.internal_errors} internal error reply(ies) reached "
            "clients"
        )
    if report.server_internal_errors:
        violations.append(
            f"daemon counted {report.server_internal_errors} internal "
            "error(s)"
        )
    if not report.drain_clean:
        violations.append("graceful drain did not run to completion")
    if report.server_inflight_after:
        violations.append(
            f"reply loss: {report.server_inflight_after} accepted "
            "request(s) never answered after the drain"
        )
    if report.flightrec_kinds.get("force_closed"):
        violations.append(
            "drain overran its deadline and force-closed "
            f"{report.flightrec_kinds['force_closed']} time(s)"
        )
    if not report.flightrec_kinds.get("drained"):
        violations.append("no clean 'drained' event in the flight recorder")
    return violations


async def _soak(
    server: ServerThread,
    report: SoakReport,
    units: Sequence[object],
) -> None:
    host, port = server.address
    proxy = ChaosProxy(host, port, seed=report.seed)
    proxy_host, proxy_port = await proxy.start()
    policy = RetryPolicy(
        max_attempts=4, base_delay=0.02, multiplier=2.0,
        max_delay=0.3, jitter=0.5, seed=report.seed,
    )
    breaker = CircuitBreaker(failure_threshold=8, recovery_time=0.25)
    loadgen_task = asyncio.ensure_future(run_loadgen_async(
        proxy_host, proxy_port,
        rps=report.rps, duration=report.duration,
        connections=report.connections, seed=report.seed,
        units=list(units),
        retry=policy, breaker=breaker,
        request_deadline=SOAK_REQUEST_DEADLINE,
        request_timeout=SOAK_REQUEST_TIMEOUT,
        # The daemon is drained (and refusing connections) by the time
        # the burst ends; a post-run stats fetch could only fail.
        fetch_stats=False,
    ))
    try:
        await asyncio.sleep(report.duration * DRAIN_AT)
        # The SIGTERM analogue, fired while requests are in flight.
        report.drain_clean = await asyncio.to_thread(server.drain)
        report.loadgen = await loadgen_task
    finally:
        loadgen_task.cancel()
        await proxy.stop()
    report.proxy = proxy.report()


def run_soak(
    seed: int = 0,
    duration: float = 20.0,
    rps: float = 80.0,
    connections: int = 4,
    dump_path: Optional[str] = None,
) -> SoakReport:
    """Run the full chaos soak; see the module doc for the contract."""
    if duration <= 0 or rps <= 0:
        raise ValueError("duration and rps must be positive")
    from repro.obs import set_recorder
    from repro.obs.recorder import Recorder

    report = SoakReport(
        seed=seed, duration=duration, rps=rps, connections=connections,
    )
    units = build_workload(seed)
    # Install the telemetry recorder ourselves (instead of letting the
    # daemon self-install one): the daemon restores the previous
    # recorder when its drain completes, and the soak's verdict needs
    # the counters *after* that point.
    recorder = Recorder()
    previous = set_recorder(recorder)
    server = ServerThread(ServiceConfig(
        port=0, flightrec_capacity=16384, drain_deadline=15.0,
    ))
    server.start()
    try:
        asyncio.run(_soak(server, report, units))
        service = server.service
        report.server_inflight_after = service.inflight
        report.flightrec_kinds = service.flightrec.counts_by_kind()
        counters = dict(recorder.snapshot().get("counters", {}))
        report.server_internal_errors = counters.get(
            "service.internal_errors", 0
        )
        report.server_sheds = {
            name.rsplit(".", 1)[-1]: count
            for name, count in counters.items()
            if name.startswith("service.shed.")
        }
        if dump_path is not None:
            service.flightrec.dump_to(dump_path)
    finally:
        server.stop()
        set_recorder(previous)
    report.violations = _verify(report)
    return report


__all__ = [
    "DRAIN_AT",
    "SOAK_REQUEST_DEADLINE",
    "SOAK_REQUEST_TIMEOUT",
    "SoakReport",
    "run_soak",
]
