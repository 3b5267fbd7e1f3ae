"""The load generator's measurement and outcome contracts.

* A server stall must reach the reported latencies: the generator keeps
  its send schedule and times each request from its scheduled send, so
  every request that was due during the stall is charged for the wait
  (no coordinated omission).
* Every sent request lands in exactly one typed outcome, with the
  default single-attempt policy too, and a transport failure always
  breaches the SLO gate.
"""

from __future__ import annotations

import asyncio
import time

from repro.service import ServerThread
from repro.service.loadgen import (
    WorkUnit,
    run_loadgen,
    run_loadgen_async,
    slo_breaches,
)
from repro.service.protocol import (
    OP_DECOMPRESS,
    STATUS_OK,
    Response,
    decode_request,
    encode_response,
    pack_message,
    read_message,
)

STALL_AT = 0.5
STALL_S = 0.3
RATE = 200.0
UNITS = [WorkUnit("stub", OP_DECOMPRESS, "stub", b"payload", 1)]


async def _stub_server(stall: bool = False, drop: bool = False):
    """Echo server speaking the wire protocol.

    With ``stall`` it stops reading for STALL_S once, STALL_AT seconds
    after the first request; with ``drop`` it closes every connection
    without replying.
    """
    state = {"started": None, "stalled": not stall}

    async def handle(reader, writer):
        while True:
            body = await read_message(reader)
            if body is None or drop:
                break
            now = time.monotonic()
            state["started"] = state["started"] or now
            if not state["stalled"] and now - state["started"] >= STALL_AT:
                state["stalled"] = True
                await asyncio.sleep(STALL_S)
            request = decode_request(body)
            writer.write(pack_message(encode_response(Response(
                op=request.op, status=STATUS_OK,
                request_id=request.request_id, payload=request.payload,
            ))))
        writer.close()

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1]


def _run_against_stub(duration: float, **stub):
    async def scenario():
        server, port = await _stub_server(**stub)
        try:
            return await run_loadgen_async(
                "127.0.0.1", port, rps=RATE, duration=duration,
                connections=1, seed=0, units=UNITS, fetch_stats=False,
            )
        finally:
            server.close()
            await server.wait_closed()

    return asyncio.run(scenario())


def test_stall_reaches_p99():
    report = _run_against_stub(1.5, stall=True)
    assert report.ok == report.sent
    # Requests due during the stall wait for its remainder, so dozens of
    # them (about RATE * STALL_S) are slow, not just the one in service.
    assert sum(t > 100 for t in report.latencies_ms) >= 20
    assert report.percentile_ms(0.99) >= 200


def test_single_attempt_outcomes_account_for_every_request():
    with ServerThread() as (host, port):
        report = run_loadgen(host, port, rps=40, duration=1.0,
                             connections=2)
    assert report.sent > 0
    assert report.retries == 0
    assert report.outcomes_total == report.sent


def test_dropped_connections_are_typed_transport_failures():
    report = _run_against_stub(0.2, drop=True)
    assert report.sent > 0
    assert report.connection_faults == report.sent
    assert report.outcomes_total == report.sent
    assert report.error_rate == 1.0
    assert any("transport" in breach for breach in slo_breaches(report))
