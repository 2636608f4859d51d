"""A thread-safe HTTP/1.1 keep-alive connection pool for the client side.

``urllib`` opens (and tears down) one TCP connection per request — a tax
the paper's many-consumers-one-service model cannot afford.  The pool
keeps bounded per-host stacks of idle :class:`ClientConnection`
objects — a connected socket each, whose replies are read through the
same codec the server speaks (:class:`~repro.transport.http11.ResponseParser`).
:class:`~repro.transport.httpserver.HttpTransport` checks one out per
request and returns it when the exchange completed cleanly.

Rules the pool enforces:

* a connection is owned by exactly one thread between checkout and
  check-in (a socket carries one exchange at a time);
* idle connections are liveness-checked on checkout (a non-blocking
  ``MSG_PEEK``), so a server that closed its side is detected before a
  request is written into a dead socket;
* any connection that saw a transport error is *discarded*, never
  returned — a dropped socket poisons exactly that connection;
* so is a connection whose reply was followed by bytes nobody asked
  for (stray bytes): they would otherwise be read as the next reply;
* the per-host idle stack is bounded (:data:`MAX_IDLE_PER_HOST`);
  overflow connections are closed.

Checkout/check-in activity feeds the ``rpc.client.connections.*``
counters of the metrics registry the pool is built with, so pool
behaviour is visible in ``obs:ServiceMetrics`` and ``GET /metrics``.
"""

from __future__ import annotations

import socket
import sys
import threading
import time

from repro.obs import MetricsRegistry
from repro.transport.http11 import ParsedResponse, ResponseParser

__all__ = ["ClientConnection", "HttpConnectionPool", "MAX_IDLE_PER_HOST"]

HostKey = tuple[str, int]

#: Idle connections kept per host; one more is closed on check-in.
MAX_IDLE_PER_HOST = 8

#: Bytes asked of the socket per ``recv``.
RECV_BYTES = 65536

#: Looser than a request's limits: a 64 KiB line, as the stdlib client
#: took, and no body cap — a streamed dataset is as large as its result.
REPLY_LIMITS = dict(
    max_line_bytes=1 << 16, max_header_bytes=1 << 20, max_body_bytes=sys.maxsize
)


class ClientConnection:
    """One keep-alive connection to ``host:port``: a connected socket."""

    __slots__ = ("host", "port", "sock", "stray")

    def __init__(self, host: str, port: int, sock: socket.socket) -> None:
        self.host = host
        self.port = port
        self.sock: socket.socket | None = sock
        #: Bytes that arrived after the last complete response.
        self.stray = 0

    @classmethod
    def open(cls, host: str, port: int, timeout: float) -> "ClientConnection":
        """Connect within *timeout*, with Nagle off: without
        ``TCP_NODELAY`` a reused connection pays the Nagle × delayed-ACK
        stall (~40 ms) whenever a message spans two writes — which would
        erase the whole point of pooling."""
        sock = socket.create_connection((host, port), timeout=timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return cls(host, port, sock)

    def send(self, request: bytes, timeout: float) -> None:
        self.sock.settimeout(timeout)
        self.sock.sendall(request)

    def read_response(self, timeout: float) -> ParsedResponse:
        """Read one complete response under one total deadline.

        *timeout* bounds the whole response — status line, headers and
        body — not each ``recv``: the socket timeout shrinks to the
        remaining budget before every read, so a peer that trickles
        bytes cannot outlast it.  Raises :class:`TimeoutError`,
        :class:`OSError`, or :class:`~repro.transport.http11.HttpParseError`
        for malformed input and for a close before the response is
        complete.
        """
        parser = ResponseParser(**REPLY_LIMITS)
        sock = self.sock
        deadline = time.monotonic() + timeout
        while parser.response is None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(f"response not complete within {timeout}s")
            sock.settimeout(remaining)
            data = sock.recv(RECV_BYTES)
            if data:
                parser.feed(data)
            else:
                parser.feed_eof()
        self.stray = parser.buffered
        return parser.response

    def close(self) -> None:
        sock, self.sock = self.sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass


class HttpConnectionPool:
    """Bounded per-host pools of reusable keep-alive connections."""

    def __init__(self, metrics: MetricsRegistry | None = None) -> None:
        self._lock = threading.Lock()
        self._idle: dict[HostKey, list[ClientConnection]] = {}
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._created = self.metrics.counter(
            "rpc.client.connections.created", "new TCP connections per host"
        )
        self._reused = self.metrics.counter(
            "rpc.client.connections.reused", "keep-alive reuses per host"
        )
        self._discarded = self.metrics.counter(
            "rpc.client.connections.discarded",
            "connections closed instead of pooled, per reason",
        )

    # -- checkout / check-in ---------------------------------------------------

    def acquire(
        self, host: str, port: int, timeout: float
    ) -> tuple[ClientConnection, bool]:
        """Check out a connection to ``host:port``, connecting a new one
        (within *timeout*; :class:`OSError` if that fails) when no idle
        one is alive.

        Returns ``(connection, reused)`` — *reused* is True when the
        connection already carried a previous exchange (the transport
        uses this to decide whether a send-time failure is a stale
        keep-alive worth one transparent reconnect).
        """
        key = (host, port)
        while True:
            with self._lock:
                stack = self._idle.get(key)
                conn = stack.pop() if stack else None
            if conn is None:
                conn = ClientConnection.open(host, port, timeout)
                self._created.inc(host=f"{host}:{port}")
                return conn, False
            if not self._alive(conn):
                self._close(conn, reason="stale")
                continue
            self._reused.inc(host=f"{host}:{port}")
            return conn, True

    def release(self, conn: ClientConnection, reusable: bool) -> None:
        """Check a connection back in.

        ``reusable=False`` (a transport error, a ``Connection: close``
        response) closes it, and so do stray bytes after its reply —
        poisoned connections never re-enter the pool.  A full idle stack
        also closes it.
        """
        if not reusable or conn.stray:
            self._close(conn, reason="poisoned")
            return
        if conn.sock is None:
            self._close(conn, reason="closed")
            return
        key = (conn.host, conn.port)
        with self._lock:
            stack = self._idle.setdefault(key, [])
            if len(stack) < MAX_IDLE_PER_HOST:
                stack.append(conn)
                return
        self._close(conn, reason="overflow")

    # -- introspection ---------------------------------------------------------

    def idle_counts(self) -> dict[str, int]:
        """Idle connections per ``host:port`` (a snapshot)."""
        with self._lock:
            return {
                f"{host}:{port}": len(stack)
                for (host, port), stack in sorted(self._idle.items())
                if stack
            }

    def idle_total(self) -> int:
        with self._lock:
            return sum(len(stack) for stack in self._idle.values())

    def close_all(self) -> None:
        """Close every idle connection (e.g. at client shutdown)."""
        with self._lock:
            stacks = list(self._idle.values())
            self._idle = {}
        for stack in stacks:
            for conn in stack:
                conn.close()

    # -- internals -------------------------------------------------------------

    def _close(self, conn: ClientConnection, reason: str) -> None:
        self._discarded.inc(reason=reason)
        conn.close()

    @staticmethod
    def _alive(conn: ClientConnection) -> bool:
        """Non-destructive liveness probe of an idle connection.

        A readable socket on an idle keep-alive connection means either
        EOF (the server closed its side) or stray bytes we never asked
        for — both make the connection unusable, so only a clean
        "nothing to read yet" verdict keeps it.
        """
        sock = conn.sock
        if sock is None:
            return False
        try:
            sock.settimeout(0.0)
            try:
                sock.recv(1, socket.MSG_PEEK)
            except (BlockingIOError, InterruptedError):
                return True
            return False
        except OSError:
            return False
