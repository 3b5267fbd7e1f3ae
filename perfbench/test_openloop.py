"""Self-tests of the open-loop generator (run: python3 -m pytest perfbench).

A stub server speaking the wire protocol stalls once; the stall must
reach the measured p99 through every request that was due during it,
which a generator timing from the actual send of a closed loop hides.
The p99 is taken by ``serve.latency_summary``, the function that gives
the serve workload its ``p99_ms``.
"""

from __future__ import annotations

import asyncio
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from common import quantile  # noqa: E402
from openloop import Planned, poisson_schedule, run_open_loop  # noqa: E402
from serve import latency_summary  # noqa: E402

from repro.service.protocol import (  # noqa: E402
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


async def _stub_server(stall: bool):
    """Echo server; with ``stall``, stops reading for STALL_S once."""
    state = {"started": None, "stalled": not stall}

    async def handle(reader, writer):
        while True:
            body = await read_message(reader)
            if body is None:
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


def _plan():
    import random

    return [
        Planned(at, OP_DECOMPRESS, "stub", b"payload", "k")
        for at in poisson_schedule(random.Random(7), RATE, 1.5)
    ]


async def _measure(stall: bool, block_loop: bool = False):
    server, port = await _stub_server(stall)
    if block_loop:
        asyncio.get_running_loop().call_later(0.5, time.sleep, 0.2)
    try:
        return await run_open_loop("127.0.0.1", port, _plan(), connections=1)
    finally:
        server.close()
        await server.wait_closed()


def test_stall_reaches_p99():
    records = asyncio.run(_measure(stall=True))
    assert all(r.ok for r in records)
    times = [r.response_ms for r in records]
    # Requests due during the stall wait for its remainder, so dozens of
    # them (about RATE * STALL_S) are slow, not just the one in service.
    assert sum(t > 100 for t in times) >= 20
    assert latency_summary(records)["all"]["p99_ms"] >= 200
    assert max(times) >= 0.9 * STALL_S * 1e3


def test_no_stall_baseline_is_fast():
    records = asyncio.run(_measure(stall=False))
    times = [r.response_ms for r in records]
    assert quantile(times, 0.99) < 50
    assert quantile([r.lag_ms for r in records], 0.99) < 20


def test_blocked_generator_shows_as_lag():
    records = asyncio.run(_measure(stall=False, block_loop=True))
    lags = [r.lag_ms for r in records]
    # Every request due while the loop was blocked goes out late, and
    # its response time still counts from when it was due.
    assert max(lags) >= 150
    assert quantile([r.response_ms for r in records], 0.99) >= 100
