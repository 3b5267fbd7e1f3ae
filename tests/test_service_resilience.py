"""Failure-semantics tests: deadlines, retries, drain, chaos, soak.

The serving stack's robustness contract, exercised at every layer:
wire-level deadline framing (and byte-identity for unstamped frames),
the seeded retry policy and circuit breaker, client timeouts against
stalled peers, server-side deadline shedding and graceful drain, the
seeded TCP fault proxy, and a short end-to-end chaos soak.
"""

from __future__ import annotations

import asyncio
import itertools
import struct

import pytest

from repro.service import (
    ServerThread,
    ServiceClient,
    ServiceConfig,
)
from repro.service.chaos import ChaosProxy, FaultPlan
from repro.service.client import (
    AsyncServiceClient,
    wait_for_service,
)
from repro.service.protocol import (
    FLAG_DEADLINE,
    OP_COMPRESS,
    OP_HEALTH,
    STATUS_BUSY,
    STATUS_DEADLINE,
    STATUS_OK,
    Request,
    WireError,
    decode_request,
    encode_request,
    pack_message,
)
from repro.resilience.retry import (
    STATE_CLOSED,
    STATE_HALF_OPEN,
    STATE_OPEN,
    CircuitBreaker,
    RetryPolicy,
)


class TestDeadlineProtocol:
    """Wire-level encode/decode of the deadline extension."""

    def test_deadline_round_trip(self):
        request = Request(
            op=OP_COMPRESS, request_id=9, codec="gzipish",
            payload=b"abc", deadline_us=1_500_000,
        )
        decoded = decode_request(encode_request(request))
        assert decoded.deadline_us == 1_500_000
        assert decoded.payload == b"abc"
        assert decoded.request_id == 9

    def test_deadline_and_trace_compose(self):
        request = Request(
            op=OP_COMPRESS, request_id=4, codec="lzw", payload=b"z",
            traced=True, trace_id=(1 << 64) - 1,
            deadline_us=0xFFFFFFFF,
        )
        decoded = decode_request(encode_request(request))
        assert decoded.traced and decoded.trace_id == (1 << 64) - 1
        assert decoded.deadline_us == 0xFFFFFFFF

    def test_unstamped_frame_is_byte_identical_to_legacy_layout(self):
        # The exact pre-deadline wire bytes: op | request_id u32 |
        # codec_len u8 | codec | payload_len u32 | payload.  A request
        # with no deadline and no trace must keep producing them.
        body = encode_request(Request(
            op=OP_COMPRESS, request_id=7, codec="lzw", payload=b"xy"
        ))
        legacy = (
            bytes([OP_COMPRESS])
            + struct.pack(">IB", 7, 3) + b"lzw"
            + struct.pack(">I", 2) + b"xy"
        )
        assert body == legacy

    def test_deadline_out_of_range_rejected(self):
        for bad in (-1, 1 << 32):
            with pytest.raises(ValueError):
                encode_request(Request(
                    op=OP_COMPRESS, request_id=1, codec="lzw",
                    payload=b"", deadline_us=bad,
                ))

    def test_truncated_deadline_header_rejected(self):
        stub = bytes([OP_COMPRESS | FLAG_DEADLINE]) + b"\x00" * 5
        with pytest.raises(WireError):
            decode_request(stub)

    def test_deadline_flag_on_unstamped_frame_rejected(self):
        body = bytearray(encode_request(Request(
            op=OP_COMPRESS, request_id=1, codec="gzipish", payload=b"x"
        )))
        body[0] |= FLAG_DEADLINE
        with pytest.raises(WireError):
            decode_request(bytes(body))


class TestRetryPolicy:
    """Seeded backoff: deterministic, bounded, validated."""

    def test_same_seed_same_delays(self):
        first = list(RetryPolicy(max_attempts=6, seed=11).delays())
        second = list(RetryPolicy(max_attempts=6, seed=11).delays())
        assert first == second
        assert len(first) == 5  # N attempts sleep N-1 times

    def test_different_seed_different_jitter(self):
        a = list(RetryPolicy(max_attempts=6, seed=1).delays())
        b = list(RetryPolicy(max_attempts=6, seed=2).delays())
        assert a != b

    def test_delays_respect_jitter_band_and_cap(self):
        policy = RetryPolicy(
            max_attempts=8, base_delay=0.1, multiplier=2.0,
            max_delay=0.4, jitter=0.5, seed=3,
        )
        for index, delay in enumerate(policy.delays()):
            base = min(0.4, 0.1 * 2.0 ** index)
            assert base * 0.5 <= delay <= base * 1.5

    def test_unbounded_policy_keeps_yielding(self):
        policy = RetryPolicy(max_attempts=None, seed=0)
        delays = list(itertools.islice(policy.delays(), 50))
        assert len(delays) == 50

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-0.1)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)


class TestCircuitBreaker:
    """The closed -> open -> half-open -> closed state machine."""

    def _breaker(self, **kwargs):
        clock = {"now": 0.0}
        breaker = CircuitBreaker(
            failure_threshold=kwargs.pop("failure_threshold", 3),
            recovery_time=kwargs.pop("recovery_time", 10.0),
            clock=lambda: clock["now"],
            **kwargs,
        )
        return breaker, clock

    def test_trips_after_consecutive_failures(self):
        breaker, _ = self._breaker()
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == STATE_CLOSED and breaker.allow()
        breaker.record_failure()
        assert breaker.state == STATE_OPEN
        assert not breaker.allow()
        assert breaker.opened == 1

    def test_success_resets_the_failure_streak(self):
        breaker, _ = self._breaker()
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == STATE_CLOSED

    def test_half_open_probe_closes_on_success(self):
        breaker, clock = self._breaker()
        for _ in range(3):
            breaker.record_failure()
        clock["now"] = 10.0
        assert breaker.allow()  # the half-open probe
        assert breaker.state == STATE_HALF_OPEN
        assert not breaker.allow()  # only one probe at a time
        breaker.record_success()
        assert breaker.state == STATE_CLOSED
        assert breaker.reclosed == 1

    def test_half_open_probe_reopens_on_failure(self):
        breaker, clock = self._breaker()
        for _ in range(3):
            breaker.record_failure()
        clock["now"] = 10.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == STATE_OPEN
        assert not breaker.allow()  # recovery clock restarted
        clock["now"] = 20.0
        assert breaker.allow()


class TestClientTimeouts:
    """Stalled peers surface as timeouts, never as hangs."""

    def test_async_request_times_out_against_never_replying_server(self):
        async def scenario():
            async def swallow(reader, writer):
                await reader.read(1 << 16)  # accept bytes, never reply

            server = await asyncio.start_server(swallow, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            client = await AsyncServiceClient.connect(
                "127.0.0.1", port, timeout=2.0
            )
            try:
                with pytest.raises(asyncio.TimeoutError):
                    await client.request(OP_HEALTH, timeout=0.3)
            finally:
                await client.close()
                server.close()
                await server.wait_closed()

        asyncio.run(scenario())

    def test_wait_for_service_gives_up_within_its_timeout(self):
        from repro.obs.clock import perf_seconds

        started = perf_seconds()
        # A port from the ephemeral range with nothing bound to it.
        assert wait_for_service("127.0.0.1", 1, timeout=0.4) is False
        assert perf_seconds() - started < 5.0

    def test_wait_for_service_finds_a_live_daemon(self):
        with ServerThread(ServiceConfig(port=0)) as (host, port):
            assert wait_for_service(host, port, timeout=5.0) is True


class TestDeadlineShedding:
    """Client-stamped budgets shed queue-expired work, typed."""

    def test_lapsed_deadline_is_shed_with_typed_status(self):
        with ServerThread(ServiceConfig(port=0)) as (host, port):
            with ServiceClient(host, port) as client:
                response = client.request(
                    OP_COMPRESS, "gzipish", b"payload" * 64,
                    deadline=1e-6,
                )
        assert response.status == STATUS_DEADLINE
        assert response.category == "deadline"

    def test_generous_deadline_executes_normally(self):
        with ServerThread(ServiceConfig(port=0)) as (host, port):
            with ServiceClient(host, port) as client:
                response = client.request(
                    OP_COMPRESS, "gzipish", b"payload" * 64,
                    deadline=30.0,
                )
        assert response.status == STATUS_OK

    def test_shed_requests_appear_in_flight_recorder(self):
        server = ServerThread(ServiceConfig(port=0))
        host, port = server.start()
        try:
            with ServiceClient(host, port) as client:
                client.request(
                    OP_COMPRESS, "gzipish", b"x" * 256, deadline=1e-6
                )
            kinds = server.service.flightrec.counts_by_kind()
            assert kinds.get("shed", 0) >= 1
        finally:
            server.stop()


class TestGracefulDrain:
    """stop()/SIGTERM answers everything accepted, then closes."""

    def test_drain_answers_every_inflight_request(self):
        server = ServerThread(ServiceConfig(port=0, workers=2))
        host, port = server.start()
        payload = b"drainme" * 512
        burst = 24
        try:
            with ServiceClient(host, port) as client:
                # Pipeline a burst without reading, so requests are
                # genuinely queued/in flight when the drain fires.
                for index in range(burst):
                    client.send_raw(pack_message(encode_request(Request(
                        op=OP_COMPRESS, request_id=index + 1,
                        codec="gzipish", payload=payload,
                    ))))
                assert server.drain() is True
                statuses = [
                    client.read_response().status for _ in range(burst)
                ]
            # Zero reply loss: every accepted request was answered
            # (some possibly shed as draining-busy, all typed).
            assert len(statuses) == burst
            assert all(
                status in (STATUS_OK, STATUS_BUSY) for status in statuses
            )
            assert server.service.inflight == 0
            kinds = server.service.flightrec.counts_by_kind()
            assert kinds.get("drained") == 1
            assert kinds.get("force_closed", 0) == 0
        finally:
            server.stop()

    def test_drained_listener_refuses_new_connections(self):
        server = ServerThread(ServiceConfig(port=0))
        host, port = server.start()
        try:
            assert server.drain() is True
            with pytest.raises(OSError):
                ServiceClient(host, port, timeout=2.0)
        finally:
            server.stop()

    def test_draining_daemon_sheds_new_work_with_category(self):
        server = ServerThread(ServiceConfig(port=0))
        host, port = server.start()
        try:
            with ServiceClient(host, port) as client:
                assert client.health()["status"] == "ok"
                assert server.drain() is True
                response = client.request(OP_COMPRESS, "gzipish", b"late")
                assert response.status == STATUS_BUSY
                assert response.category == "draining"
        finally:
            server.stop()

    def test_drain_is_idempotent(self):
        server = ServerThread(ServiceConfig(port=0))
        server.start()
        try:
            assert server.drain() is True
            assert server.drain() is True
        finally:
            server.stop()


class TestChaosProxy:
    """The seeded fault proxy: deterministic plans, real forwarding."""

    def test_fault_plans_are_deterministic(self):
        plans = [FaultPlan.derive(42, index) for index in range(32)]
        again = [FaultPlan.derive(42, index) for index in range(32)]
        assert plans == again

    def test_seed_changes_the_schedule(self):
        schedule = [FaultPlan.derive(1, i).mode for i in range(64)]
        other = [FaultPlan.derive(2, i).mode for i in range(64)]
        assert schedule != other

    def test_clean_connection_forwards_both_ways(self):
        seed = next(
            s for s in range(1000)
            if FaultPlan.derive(s, 0).mode == "clean"
        )
        server = ServerThread(ServiceConfig(port=0))
        host, port = server.start()

        async def scenario():
            proxy = ChaosProxy(host, port, seed=seed)
            proxy_host, proxy_port = await proxy.start()
            client = await AsyncServiceClient.connect(
                proxy_host, proxy_port, timeout=5.0
            )
            try:
                response = await client.request(
                    OP_COMPRESS, "gzipish", b"through-the-proxy" * 8,
                    timeout=5.0,
                )
            finally:
                await client.close()
                await proxy.stop()
            return response, proxy.report()

        try:
            response, report = asyncio.run(scenario())
        finally:
            server.stop()
        assert response.status == STATUS_OK
        assert report["clean"] == 1 and report["connections"] == 1

    def test_stopped_proxy_refuses_and_reports(self):
        server = ServerThread(ServiceConfig(port=0))
        host, port = server.start()

        async def scenario():
            proxy = ChaosProxy(host, port, seed=0)
            address = await proxy.start()
            await proxy.stop()
            with pytest.raises((ConnectionError, OSError)):
                await asyncio.wait_for(
                    asyncio.open_connection(*address), timeout=2.0
                )

        try:
            asyncio.run(scenario())
        finally:
            server.stop()


class TestSoak:
    """A short end-to-end chaos soak must satisfy the full contract."""

    def test_short_soak_passes_and_accounts_every_request(self, tmp_path):
        from repro.obs.flightrec import parse_dump
        from repro.service.soak import run_soak

        dump = tmp_path / "soak-flightrec.jsonl"
        report = run_soak(
            seed=5, duration=3.0, rps=40, connections=3,
            dump_path=str(dump),
        )
        assert report.ok, report.violations
        load = report.loadgen
        assert load.sent > 0
        assert load.outcomes_total == load.sent
        assert load.timeouts == 0
        assert load.internal_errors == 0
        assert report.drain_clean
        assert report.server_inflight_after == 0
        document = parse_dump(dump.read_text())
        kinds = [event["kind"] for event in document["events"]]
        assert "drained" in kinds

    def test_soak_rejects_bad_parameters(self):
        from repro.service.soak import run_soak

        with pytest.raises(ValueError):
            run_soak(duration=0)


class TestFlightRecorderCounts:
    def test_counts_by_kind_aggregates_the_ring(self):
        from repro.obs.flightrec import FlightRecorder

        recorder = FlightRecorder(capacity=8)
        for _ in range(3):
            recorder.record("shed", reason="deadline")
        recorder.record("drained", clean=True)
        assert recorder.counts_by_kind() == {"shed": 3, "drained": 1}
