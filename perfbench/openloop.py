"""Open-loop, pipelined load generator for the ``repro serve`` wire protocol.

Arrivals follow a precomputed schedule (seconds after the phase start),
independent of how fast the server answers: a slow reply never delays
the next send.  Each request is timed from the moment it was *due*, so a
stall is charged to every request that should have been sent during it
— the queue it builds is visible in the percentiles instead of being
hidden by a generator that politely waits (coordinated omission).

Requests are pipelined over a fixed set of connections and matched to
replies by ``request_id``, through the public encode/decode functions of
:mod:`repro.service.protocol`.  How late the generator itself sent each
request (``lag``) is recorded, so a run whose generator fell behind can
be reported as invalid rather than as a property of the server.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.service.protocol import (
    OP_STATS,
    Request,
    Response,
    STATUS_NAMES,
    decode_response,
    encode_request,
    pack_message,
    read_message,
)


@dataclass(frozen=True)
class Planned:
    """One scheduled request: when it is due and what it carries."""

    at: float
    op: int
    codec: str
    payload: bytes
    #: Names the input, so verification can find the expected answer.
    key: str


@dataclass
class Record:
    """One request's fate, on the client's monotonic clock (ns)."""

    planned: Planned
    request_id: int
    due_ns: int
    sent_ns: int = 0
    done_ns: int = 0
    response: Optional[Response] = None
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.response is not None and self.response.ok

    @property
    def outcome(self) -> str:
        if self.response is None:
            return self.error or "unanswered"
        return STATUS_NAMES.get(self.response.status, "unknown")

    @property
    def response_ms(self) -> float:
        """Scheduled send to reply: what an arriving user waits."""
        return (self.done_ns - self.due_ns) / 1e6

    @property
    def service_ms(self) -> float:
        """Actual send to reply: the wire round trip plus server time."""
        return (self.done_ns - self.sent_ns) / 1e6

    @property
    def lag_ms(self) -> float:
        """How late the generator sent this request."""
        return (self.sent_ns - self.due_ns) / 1e6


def poisson_schedule(
    rng: random.Random, rate: float, duration: float, start: float = 0.0
) -> List[float]:
    """Arrival times of a Poisson process of ``rate`` per second."""
    times = []
    at = start + rng.expovariate(rate)
    while at < start + duration:
        times.append(at)
        at += rng.expovariate(rate)
    return times


async def run_open_loop(
    host: str,
    port: int,
    plan: Sequence[Planned],
    connections: int,
    first_id: int = 1,
    traced: bool = False,
    reply_timeout: float = 10.0,
) -> List[Record]:
    """Send ``plan`` on schedule and collect every reply (or its absence).

    Messages are encoded before the clock starts, so the generator's
    only work on the schedule is a socket write.  Requests go round
    robin over ``connections`` pipelined connections.  A request still
    unanswered ``reply_timeout`` seconds after the last send is recorded
    with ``error="timeout"``.
    """
    messages = [
        pack_message(encode_request(Request(
            op=item.op,
            request_id=first_id + index,
            codec=item.codec,
            payload=item.payload,
            traced=traced,
            trace_id=first_id + index,
        )))
        for index, item in enumerate(plan)
    ]
    streams = [
        await asyncio.open_connection(host, port) for _ in range(connections)
    ]
    pending: Dict[int, Record] = {}
    records: List[Record] = []
    settled = asyncio.Event()
    sending = [True]

    async def read_replies(reader: asyncio.StreamReader) -> None:
        while True:
            body = await read_message(reader)
            now = time.perf_counter_ns()
            if body is None:
                return
            response = decode_response(body)
            record = pending.pop(response.request_id, None)
            if record is None:
                continue
            record.done_ns = now
            record.response = response
            if not pending and not sending[0]:
                settled.set()

    readers = [
        asyncio.ensure_future(read_replies(reader)) for reader, _ in streams
    ]
    try:
        origin = time.perf_counter_ns() + 20_000_000
        for index, item in enumerate(plan):
            due = origin + int(item.at * 1e9)
            delay = (due - time.perf_counter_ns()) / 1e9
            if delay > 0:
                await asyncio.sleep(delay)
            record = Record(item, first_id + index, due)
            writer = streams[index % connections][1]
            record.sent_ns = time.perf_counter_ns()
            pending[record.request_id] = record
            records.append(record)
            writer.write(messages[index])
        sending[0] = False
        if pending:
            try:
                await asyncio.wait_for(settled.wait(), reply_timeout)
            except asyncio.TimeoutError:
                pass
        for record in pending.values():
            record.error = "timeout"
        for task in readers:
            if task.done() and task.exception() is not None:
                raise task.exception()
    finally:
        for task in readers:
            task.cancel()
        for task in readers:
            try:
                await task
            except (asyncio.CancelledError, ConnectionError):
                pass
        for _reader, writer in streams:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
    return records


async def call(host: str, port: int, op: int, timeout: float = 10.0) -> Response:
    """One request/reply on a fresh connection (health and stats ops)."""
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(host, port), timeout
    )
    try:
        writer.write(pack_message(encode_request(Request(op=op, request_id=1))))
        await writer.drain()
        body = await asyncio.wait_for(read_message(reader), timeout)
        if body is None:
            raise ConnectionError("server closed before replying")
        return decode_response(body)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def server_stats(host: str, port: int) -> dict:
    """The daemon's ``stats`` document."""
    import json

    response = await call(host, port, OP_STATS)
    if not response.ok:
        raise RuntimeError(f"stats op failed: {response.message}")
    return json.loads(response.payload)
