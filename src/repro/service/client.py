"""Clients for the codec service: blocking (tests/tools) and asyncio.

:class:`ServiceClient` is a plain-socket blocking client — one
outstanding request at a time, matched by ``request_id`` — used by the
test suite, the protocol fuzzer, and ad-hoc scripting.
:class:`AsyncServiceClient` is the asyncio twin the load generator
drives at target RPS.  Both speak the exact protocol of
:mod:`repro.service.protocol`, including CRC validation of every
response frame.

Neither client can hang: connects and request/reply exchanges are
bounded by explicit timeouts (``asyncio.wait_for`` on the async path,
socket timeouts on the blocking one), and a per-request ``deadline``
both stamps the wire deadline field — so the server can shed the
request once the budget lapses — and caps how long the client waits
for the reply (budget plus a small grace so a shed reply still
arrives).
"""

from __future__ import annotations

import itertools
import socket
import time
from typing import Dict, Optional, Tuple

from repro.obs.clock import perf_seconds
from repro.resilience.errors import (
    CATEGORY_TRUNCATED,
    CorruptedStreamError,
)
from repro.resilience.frame import FRAME_OVERHEAD, unwrap_frame
from repro.resilience.retry import RetryPolicy
from repro.service import protocol
from repro.service.protocol import (
    OP_COMPRESS,
    OP_DECOMPRESS,
    OP_DUMP,
    OP_HEALTH,
    OP_STATS,
    Request,
    Response,
    WireError,
)

#: Default bound on one async request/reply exchange.
DEFAULT_REQUEST_TIMEOUT = 30.0

#: Default bound on an async connection attempt.
DEFAULT_CONNECT_TIMEOUT = 10.0

#: Extra wait beyond a request's deadline: a request shed at exactly
#: its budget still needs its ``STATUS_DEADLINE`` reply to cross the
#: wire, so the client listens slightly past the deadline itself.
DEADLINE_GRACE = 1.0

#: :func:`wait_for_service` pacing: a short first retry, then seeded
#: exponential backoff, so a daemon that boots fast is noticed fast and
#: a slow one is not hammered.
PROBE_POLICY = RetryPolicy(
    max_attempts=None, base_delay=0.02, multiplier=1.7,
    max_delay=0.5, jitter=0.25, seed=0,
)

#: Bound on each :func:`wait_for_service` health round-trip.
PROBE_TIMEOUT = 2.0


class ServiceError(RuntimeError):
    """A non-OK service reply, surfaced with its category and message."""

    def __init__(self, response: Response) -> None:
        super().__init__(
            f"{protocol.STATUS_NAMES.get(response.status, response.status)}"
            f" [{response.category}]: {response.message}"
        )
        self.response = response
        self.status = response.status
        self.category = response.category


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise WireError(
                f"connection closed with {remaining} of {count} bytes "
                "unread",
                category=CATEGORY_TRUNCATED,
                fatal=True,
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_response(
    sock: socket.socket,
    max_message: int = protocol.DEFAULT_MAX_MESSAGE,
) -> Response:
    """Read and decode one response message from a blocking socket."""
    (length,) = protocol._LENGTH.unpack(_recv_exact(sock, 4))  # repro: noqa exception-leak (_recv_exact returned exactly 4 bytes)
    if length > max_message or length < FRAME_OVERHEAD:
        raise WireError(
            f"implausible response length {length}", fatal=True
        )
    body = unwrap_frame(_recv_exact(sock, length))
    return protocol.decode_response(body)


class ServiceClient:
    """Blocking, single-request-at-a-time client."""

    def __init__(
        self, host: str, port: int, timeout: float = 30.0
    ) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._ids = itertools.count(1)

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- raw access (the fuzzer uses these) ----------------------------

    def send_raw(self, data: bytes) -> None:
        """Ship arbitrary bytes — malformed messages included."""
        self._sock.sendall(data)

    def shutdown_write(self) -> None:
        """Half-close: no more requests, but replies still readable."""
        try:
            self._sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass

    def read_response(self) -> Response:
        return recv_response(self._sock)

    # -- request/response ----------------------------------------------

    def request(
        self,
        op: int,
        codec: str = "",
        payload: bytes = b"",
        trace_id: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> Response:
        """One request/response exchange.

        Passing ``trace_id`` stamps the request as *traced*: the server
        threads a span timeline through its pipeline and embeds it in
        the reply's trace annex (``response.trace()``).  Passing
        ``deadline`` (seconds) stamps the wire deadline field — the
        server sheds the request with ``STATUS_DEADLINE`` if its queue
        wait exceeds the budget — and tightens the socket timeout to
        ``deadline`` plus a grace window, so the client never waits
        materially past its own budget.
        """
        request_id = next(self._ids)
        body = protocol.encode_request(Request(
            op=op, request_id=request_id, codec=codec, payload=payload,
            traced=trace_id is not None,
            trace_id=trace_id if trace_id is not None else 0,
            deadline_us=(
                int(deadline * 1e6) if deadline is not None else None
            ),
        ))
        previous_timeout = self._sock.gettimeout()
        if deadline is not None:
            self._sock.settimeout(deadline + DEADLINE_GRACE)
        try:
            self._sock.sendall(protocol.pack_message(body))
            response = recv_response(self._sock)
        finally:
            if deadline is not None:
                self._sock.settimeout(previous_timeout)
        if response.request_id not in (request_id, 0):
            raise WireError(
                f"response for request {response.request_id}, "
                f"expected {request_id}"
            )
        return response

    def _checked(self, response: Response) -> Response:
        if not response.ok:
            raise ServiceError(response)
        return response

    def compress(self, codec: str, data: bytes) -> bytes:
        return self._checked(
            self.request(OP_COMPRESS, codec, data)
        ).payload

    def decompress(self, codec: str, data: bytes) -> bytes:
        return self._checked(
            self.request(OP_DECOMPRESS, codec, data)
        ).payload

    def stats(self) -> Dict[str, object]:
        import json

        return json.loads(self._checked(self.request(OP_STATS)).payload)

    def health(self) -> Dict[str, object]:
        import json

        return json.loads(self._checked(self.request(OP_HEALTH)).payload)

    def dump(self) -> bytes:
        """The server's flight-recorder ring, dumped as JSONL bytes."""
        return self._checked(self.request(OP_DUMP)).payload


class AsyncServiceClient:
    """Asyncio client; one in-flight request per instance.

    Every await is bounded: ``connect`` and ``request`` wrap their I/O
    in ``asyncio.wait_for``, so a stalled peer (SYN black hole, a
    server that accepts and never replies, a mid-frame stall) surfaces
    as ``asyncio.TimeoutError`` instead of hanging the caller forever.
    """

    def __init__(self, reader, writer) -> None:
        self._reader = reader
        self._writer = writer
        self._ids = itertools.count(1)

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        timeout: float = DEFAULT_CONNECT_TIMEOUT,
    ) -> "AsyncServiceClient":
        import asyncio

        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port), timeout=timeout
        )
        return cls(reader, writer)

    async def request(
        self,
        op: int,
        codec: str = "",
        payload: bytes = b"",
        trace_id: Optional[int] = None,
        timeout: Optional[float] = DEFAULT_REQUEST_TIMEOUT,
        deadline: Optional[float] = None,
    ) -> Response:
        """One exchange, bounded by ``timeout`` (``None`` = unbounded).

        ``deadline`` stamps the wire deadline field and caps the
        effective timeout at ``deadline`` plus a grace window, so the
        shed reply itself can still arrive.
        """
        import asyncio

        request_id = next(self._ids)
        body = protocol.encode_request(Request(
            op=op, request_id=request_id, codec=codec, payload=payload,
            traced=trace_id is not None,
            trace_id=trace_id if trace_id is not None else 0,
            deadline_us=(
                int(deadline * 1e6) if deadline is not None else None
            ),
        ))
        effective = timeout
        if deadline is not None:
            capped = deadline + DEADLINE_GRACE
            effective = capped if effective is None else min(
                effective, capped
            )
        response = await asyncio.wait_for(
            self._exchange(body), timeout=effective
        )
        if response.request_id not in (request_id, 0):
            raise WireError(
                f"response for request {response.request_id}, "
                f"expected {request_id}",
                fatal=True,
            )
        return response

    async def _exchange(self, body: bytes) -> Response:
        self._writer.write(protocol.pack_message(body))
        await self._writer.drain()
        reply = await protocol.read_message(self._reader)
        if reply is None:
            raise WireError(
                "connection closed before the response",
                category=CATEGORY_TRUNCATED,
                fatal=True,
            )
        return protocol.decode_response(reply)

    async def close(self) -> None:
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def wait_for_service(host: str, port: int, timeout: float = 10.0) -> bool:
    """Poll until a daemon answers ``health`` (or the timeout lapses).

    Lets scripts race-free ``repro serve & repro loadgen``: the load
    generator waits for the daemon to come up instead of failing on the
    first connection refusal.  Probes are paced by
    :data:`PROBE_POLICY` instead of a fixed poll interval, and each
    health round-trip is bounded by :data:`PROBE_TIMEOUT`.
    """
    deadline = perf_seconds() + timeout
    delays = PROBE_POLICY.delays()
    while True:
        try:
            with ServiceClient(host, port, timeout=PROBE_TIMEOUT) as client:
                if client.health().get("status") == "ok":
                    return True
        except (OSError, CorruptedStreamError, ServiceError):
            pass
        remaining = deadline - perf_seconds()
        if remaining <= 0:
            return False
        time.sleep(min(next(delays), remaining))


__all__ = [
    "AsyncServiceClient",
    "DEADLINE_GRACE",
    "DEFAULT_CONNECT_TIMEOUT",
    "DEFAULT_REQUEST_TIMEOUT",
    "PROBE_POLICY",
    "PROBE_TIMEOUT",
    "ServiceClient",
    "ServiceError",
    "recv_response",
    "wait_for_service",
]
