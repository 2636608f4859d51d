"""A real SOAP-over-HTTP binding on localhost.

``DaisHttpServer`` serves every service in a registry from one port —
the request path selects the service (its address is
``http://host:port/<name>``).  ``HttpTransport`` is the matching client
side.  Used by the examples and a handful of integration tests; the
loopback transport remains the default elsewhere.

The server front end is an **event-loop core**
(:class:`~repro.transport.eventloop.EventLoopCore`): one selector
thread multiplexes every keep-alive connection, parses requests
incrementally, reaps slow-loris senders on a read deadline, and feeds
complete requests through **admission control** — a bounded dispatch
queue with depth and queued-wait limits — into a bounded worker pool.
Overload is a first-class protocol outcome: a refused request is
answered with a wire-correct 503 carrying a SOAP ``ServiceBusyFault``
envelope, which the resilience layer already classifies as retryable
(the IVOA DALI service-busy convention).  ``GET /healthz`` and
``GET /metrics`` are served on the loop thread itself, bypassing the
queue, so probes survive saturation.

Per SOAP 1.1 over HTTP, every response carrying a ``soapenv:Fault`` is
sent with status 500; transport-level problems (unparseable envelope,
unknown service path) are wrapped into proper SOAP fault envelopes
rather than ad-hoc error bodies, so consumers always get something
:meth:`~repro.soap.envelope.Envelope.raise_if_fault` understands.
Shed responses use 503 to distinguish overload from application faults
on the wire, but still carry a parseable fault envelope.

Besides the SOAP POST endpoint, the server exposes three read-only GET
endpoints for operators:

* ``GET /metrics`` — Prometheus text exposition of the server's and
  every registered service's metrics registry;
* ``GET /healthz`` — liveness plus service inventory, as JSON;
* ``GET /trace/<trace_id>`` — the named trace's spans as JSON, when an
  in-memory exporter is installed on the global tracer.
"""

from __future__ import annotations

import itertools
import json
from urllib.parse import urlsplit

from repro.core.faults import ServiceBusyFault, ServiceNotFoundFault, TransportFault
from repro.core.registry import ServiceRegistry
from repro.obs import MetricsRegistry, current_span, get_tracer
from repro.obs.exporters import span_to_dict
from repro.obs.exposition import prometheus_text
from repro.obs.journal import get_journal
from repro.soap.addressing import MessageHeaders
from repro.soap.envelope import Envelope, fault_envelope
from repro.soap.fault import FaultCode, SoapFault
from repro.soap.namespaces import SOAP_ENV_NS
from repro.soap.tracecontext import adopt_current_span, extract_context, inject
from repro.transport.eventloop import (
    SHED_DEADLINE,
    SHED_FULL,
    Connection,
    EventLoopCore,
)
from repro.transport.compression import (
    GZIP_FLOOR_BYTES,
    accepts_gzip,
    gunzip,
    gzip_stream,
)
from repro.transport.http11 import (
    HttpParseError,
    ParsedRequest,
    TERMINAL_CHUNK,
    chunk,
    render_headers,
    render_request,
    render_response,
)
from repro.transport.pool import HttpConnectionPool
from repro.transport.wire import ClientTransport, NetworkModel


def _transport_fault_headers(path: str) -> MessageHeaders:
    """Synthetic request headers for faults raised before the envelope
    could be parsed (there is nothing to correlate the reply to)."""
    return MessageHeaders(to=path, action=f"{SOAP_ENV_NS}/fault")


def _looks_like_soap(body: bytes) -> bool:
    """Cheap sniff: could *body* plausibly be an XML envelope?"""
    return bool(body) and body.lstrip()[:1] == b"<"


class DaisHttpServer:
    """Serves a :class:`ServiceRegistry` over HTTP on 127.0.0.1.

    Admission-control knobs (all keyword-only):

    *workers*
        Bounded handler pool size — the maximum number of requests in
        service at once, regardless of connection count.
    *queue_depth*
        Dispatch queue bound.  A complete request arriving while the
        queue is full is *shed*: answered immediately with a retryable
        ``ServiceBusyFault`` (HTTP 503), never buffered without bound.
    *queue_deadline*
        Maximum queued wait in seconds (None disables).  A request a
        worker dequeues later than this is shed rather than served —
        the client has likely given up; serving it wastes a worker.
    *read_deadline*
        Seconds a partially-received request may dribble in before the
        connection is reaped (the slow-loris guard).  Applies per
        request, not per byte — workers never block on request reads.
    *idle_timeout*
        Seconds an idle keep-alive connection is retained.
    *write_timeout*
        Socket timeout for worker response writes (a consumer that
        stops reading mid-response cannot pin a worker forever).
    """

    def __init__(
        self,
        registry: ServiceRegistry,
        port: int = 0,
        *,
        workers: int = 8,
        queue_depth: int = 64,
        queue_deadline: float | None = 5.0,
        read_deadline: float = 10.0,
        idle_timeout: float = 30.0,
        write_timeout: float = 30.0,
    ) -> None:
        self._registry = registry
        #: Server-side wire metrics across every service on this port.
        self.metrics = MetricsRegistry()
        self._requests = self.metrics.counter(
            "http.server.requests", "POSTs served per status code"
        )
        self._request_bytes = self.metrics.counter(
            "http.server.request.bytes", "request body bytes received"
        )
        self._response_bytes = self.metrics.counter(
            "http.server.response.bytes", "response body bytes sent"
        )
        self._chunks = self.metrics.counter(
            "http.server.chunks", "HTTP chunks written for streamed responses"
        )
        self._errors = self.metrics.counter(
            "http.server.errors",
            "exceptions caught at server boundaries, by where they surfaced",
        )
        # Wire-truth byte counters: `out` counts bytes as actually sent
        # (post-compression), so the fig-4 bytes gate and operators see
        # what the network sees, not the logical payload size.
        self._bytes_in = self.metrics.counter(
            "http.bytes.in", "request body bytes received on the wire"
        )
        self._bytes_out = self.metrics.counter(
            "http.bytes.out", "response body bytes sent on the wire"
        )
        self._core = EventLoopCore(
            "127.0.0.1",
            port,
            app=self,
            metrics=self.metrics,
            workers=workers,
            queue_depth=queue_depth,
            queue_deadline=queue_deadline,
            read_deadline=read_deadline,
            idle_timeout=idle_timeout,
            write_timeout=write_timeout,
        )

    # -- event-loop app protocol (loop thread) ---------------------------------

    def fast_response(self, request: ParsedRequest) -> bytes | None:
        """Loop-thread fast path: answer GETs (and refuse unknown
        methods) without touching the dispatch queue.  POSTs return
        None — they go through admission."""
        if request.method == "POST":
            return None
        if request.method != "GET":
            return render_response(
                501,
                "text/plain; charset=utf-8",
                f"unsupported method {request.method}".encode("utf-8"),
                keep_alive=False,
            )
        # Operators always get an HTTP response: a registry mutating
        # mid-render (service unregistered between listing and lookup)
        # becomes a JSON 500, not a dropped connection.
        try:
            status, content_type, payload = self._handle_get(request.target)
        except Exception as exc:  # noqa: BLE001 - operator boundary
            # Swallowed into a JSON 500 for the caller, but never
            # silently: counted and attached to whatever span is open.
            self._errors.inc(where="get")
            current_span().record_exception(exc)
            status = 500
            content_type = "application/json; charset=utf-8"
            payload = json.dumps(
                {"error": f"internal error: {exc}"}
            ).encode("utf-8")
        return render_response(
            status, content_type, payload, keep_alive=request.keep_alive
        )

    def render_shed(
        self, request: ParsedRequest, reason: str, depth: int
    ) -> bytes:
        """A complete 503 + ``ServiceBusyFault`` response for a request
        refused at admission (loop thread — must not block)."""
        with get_tracer().span(
            "http.server.admission",
            path=request.target,
            decision="shed",
            reason=reason,
            depth=depth,
        ) as span:
            span.mark_fault()
        return self._shed_payload(request, reason)

    # -- event-loop app protocol (worker threads) ------------------------------

    def on_shed(
        self, conn: Connection, request: ParsedRequest, core, waited: float
    ) -> None:
        """A request dequeued past the admission deadline: shed it now
        rather than serve a caller that has likely timed out."""
        with get_tracer().span(
            "http.server.admission",
            path=request.target,
            decision="shed",
            reason=SHED_DEADLINE,
            waited_seconds=round(waited, 4),
        ) as span:
            span.mark_fault()
        self._write(conn, core, self._shed_payload(request, SHED_DEADLINE),
                    keep_alive=request.keep_alive)

    def on_request(
        self, conn: Connection, request: ParsedRequest, core, waited: float
    ) -> None:
        """Serve one admitted POST on a worker thread."""
        body = request.body
        self._request_bytes.inc(len(body))
        self._bytes_in.inc(len(body))
        # The admitted decision rides the request span itself (a
        # separate admission span would be a second root and fragment
        # the consumer's trace — only *shed* decisions, which never
        # open a request span, get standalone admission spans).
        with get_tracer().span(
            "http.server.request", path=request.target
        ) as span:
            response, status = self._handle(request.target, body)
            span.set_attributes(
                status=status,
                request_bytes=len(body),
                admission="admitted",
                queue_waited_seconds=round(waited, 6),
            )
            if status != 200:
                span.mark_fault()
        # A lazy payload renders while it is written out; the span above
        # already closed, but exporters hold the span object, so what is
        # known only once the reply drained still lands on it.
        try:
            try:
                sent, keep_alive = self._send_reply(conn, request, response, status)
            except SoapFault as fault:
                # Raised while nothing had been written (a row the
                # statement cannot produce, met before the first flush):
                # the status line is still ours to choose, so this is a
                # fault envelope like any other, on the same connection.
                span.set_attribute("status", 500)
                span.mark_fault()
                reply = Envelope(
                    headers=MessageHeaders(
                        to=response.headers.to,
                        action=f"{SOAP_ENV_NS}/fault",
                        relates_to=response.headers.relates_to,
                    ),
                    payload=fault.to_xml(),
                )
                sent, keep_alive = self._send_reply(conn, request, reply, 500)
        except OSError:
            core.close(conn)
            return
        except Exception as exc:
            # Past the first write the status line is gone, so a
            # mid-stream producer failure cannot become a SOAP fault
            # (and an untyped one has no fault to become); withholding
            # the end of the body makes the consumer see an incomplete
            # transfer instead of a truncated-but-parseable one.  The
            # exception itself must not vanish with the connection:
            # count it and pin it to the request span.
            core.close(conn)
            self._errors.inc(where="stream")
            span.record_exception(exc)
            return
        if span.recording:
            span.set_attribute("response_bytes", sent)
        core.finish(conn, keep_alive=keep_alive)

    # -- request handling ------------------------------------------------------

    def _handle(self, path: str, body: bytes) -> tuple[Envelope, int]:
        """Turn one POST body into (response envelope, HTTP status).

        Always produces a SOAP envelope: malformed requests and unknown
        paths become client fault envelopes, and any fault response —
        including ones a service's dispatch produced — goes out as 500
        per the SOAP 1.1 HTTP binding.
        """
        try:
            request = Envelope.from_bytes(body)
        except Exception as exc:
            self._errors.inc(where="parse")
            current_span().record_exception(exc)
            fault = SoapFault(
                FaultCode.CLIENT, f"malformed request envelope: {exc}"
            )
            return fault_envelope(_transport_fault_headers(path), fault), 500
        # Join the remote caller's trace before any further span opens:
        # the worker's span stack is empty between requests, so the open
        # http.server.request span is a root and adopts the
        # obs:TraceContext header.
        adopt_current_span(
            extract_context(request.headers.reference_parameters)
        )
        try:
            service = self._registry.service_at(self.address_for_path(path))
        except LookupError as exc:
            return (
                fault_envelope(request.headers, ServiceNotFoundFault(str(exc))),
                500,
            )
        response = service.dispatch(request)
        return response, (500 if response.is_fault() else 200)

    def _shed_payload(self, request: ParsedRequest, reason: str) -> bytes:
        """Render the wire bytes of one shed decision: HTTP 503 carrying
        a SOAP ``ServiceBusyFault`` the resilience layer retries."""
        fault = ServiceBusyFault(
            f"server overloaded: request shed at admission ({reason})"
        )
        payload = fault_envelope(
            _transport_fault_headers(request.target), fault
        ).to_bytes()
        return self._counted(request, 503, "text/xml; charset=utf-8", payload)

    def _counted(
        self, request: ParsedRequest, status: int, content_type: str, payload: bytes
    ) -> bytes:
        """A complete response to *request*, counted in
        ``http.server.requests`` / ``response.bytes`` like every served
        POST — sheds included."""
        self._requests.inc(status=str(status))
        self._response_bytes.inc(len(payload))
        return render_response(
            status, content_type, payload, keep_alive=request.keep_alive
        )

    def _write(
        self, conn: Connection, core, payload: bytes, keep_alive: bool
    ) -> None:
        """Blocking worker-side response write (under the write timeout),
        then hand the connection back to the loop or close it."""
        try:
            conn.sock.sendall(payload)
        except (OSError, TimeoutError):
            core.close(conn)
            return
        core.finish(conn, keep_alive=keep_alive)

    #: Serializer fragments are coalesced to about this many bytes per
    #: write — per-row fragments are tiny, and framing each one
    #: separately would pay ~7 bytes and a syscall per row.
    CHUNK_COALESCE_BYTES = 8192

    def _send_reply(
        self, conn: Connection, request: ParsedRequest, response: Envelope, status: int
    ) -> tuple[int, bool]:
        """Write one reply envelope, framed by what it turned out to be.

        The fragments of ``response.iter_bytes()`` fill one coalescing
        buffer.  A reply that ends before the buffer first fills goes
        out as one write framed by ``Content-Length``.  A longer one
        commits its status line with the first full buffer and goes on
        ``Transfer-Encoding: chunked`` — or, to an HTTP/1.0 client,
        which cannot read chunks, delimited by closing the connection
        (RFC 9112 §6.1).  Rows are pulled from a lazy dataset as the
        buffer drains, so peak memory stays at one buffer whatever the
        result size.

        With gzip negotiated, the first fragments are held back until
        the size floor is reached — a reply that ends below it goes out
        uncompressed — and only then is ``Content-Encoding: gzip``
        decided; the buffer holds the *compressed* stream, so framing
        wraps the encoded bytes and the client's decoder is oblivious.

        The first write is the commit point: it is where the status is
        counted in ``http.server.requests``.  A ``SoapFault`` from the
        producer before it propagates as itself and can still be
        answered with a fault envelope; one after it is the cause of a
        ``RuntimeError``, handled like any other broken stream.

        Returns the body bytes sent (post-compression, framing not
        counted) and whether the connection may carry another request.
        """
        fragments = response.iter_bytes()
        headers = [("Content-Type", "text/xml; charset=utf-8")]
        if accepts_gzip(request.headers):
            head: list[bytes] = []
            head_bytes = 0
            for fragment in fragments:
                head.append(fragment)
                head_bytes += len(fragment)
                if head_bytes >= GZIP_FLOOR_BYTES:
                    fragments = gzip_stream(itertools.chain(head, fragments))
                    headers.append(("Content-Encoding", "gzip"))
                    break
            else:
                fragments = iter(head)
        buffer = bytearray()
        ended = True
        for fragment in fragments:
            buffer.extend(fragment)
            if len(buffer) >= self.CHUNK_COALESCE_BYTES:
                ended = False
                break
        chunked = not ended and request.version == "HTTP/1.1"
        keep_alive = request.keep_alive and (ended or chunked)
        if ended:
            headers.append(("Content-Length", str(len(buffer))))
        elif chunked:
            headers.append(("Transfer-Encoding", "chunked"))
        if not keep_alive:
            headers.append(("Connection", "close"))
        sent = 0

        def flush(head: bytes = b"", end: bytes = b"") -> None:
            # Accounted before the write: a consumer that has read the
            # end of the reply finds the counters already moved.
            nonlocal sent
            wire = head
            if buffer:
                if chunked:
                    wire += chunk(bytes(buffer))
                    self._chunks.inc()
                else:
                    wire += buffer
                self._response_bytes.inc(len(buffer))
                self._bytes_out.inc(len(buffer))
                sent += len(buffer)
                buffer.clear()
            conn.sock.sendall(wire + end)

        self._requests.inc(status=str(status))
        flush(head=render_headers(status, headers))
        if ended:
            return sent, keep_alive
        try:
            for fragment in fragments:
                buffer.extend(fragment)
                if len(buffer) >= self.CHUNK_COALESCE_BYTES:
                    flush()
        except SoapFault as fault:
            raise RuntimeError(
                f"typed fault after the reply was committed: {fault}"
            ) from fault
        flush(end=TERMINAL_CHUNK if chunked else b"")
        return sent, keep_alive

    # -- read-only exposition endpoints ---------------------------------------

    def _handle_get(self, path: str) -> tuple[int, str, bytes]:
        """Serve one GET: /metrics, /healthz or /trace/<trace_id>."""
        path = path.split("?", 1)[0]
        if path == "/metrics":
            return 200, "text/plain; version=0.0.4; charset=utf-8", (
                self.metrics_exposition().encode("utf-8")
            )
        if path == "/healthz":
            # services() is an atomic snapshot: a concurrent unregister
            # between listing and lookup cannot make health checks fail.
            body = json.dumps(
                {
                    "status": "ok",
                    "services": [
                        service.name for service in self._registry.services()
                    ],
                    "tracing": get_tracer().enabled,
                },
                sort_keys=True,
            )
            return 200, "application/json; charset=utf-8", body.encode("utf-8")
        if path.startswith("/trace/"):
            trace_id = path[len("/trace/") :]
            exporter = get_tracer().exporter
            spans = None
            if exporter is not None and hasattr(exporter, "trace"):
                spans = exporter.trace(trace_id)
            if not spans:
                body = json.dumps({"error": f"unknown trace {trace_id!r}"})
                return 404, "application/json; charset=utf-8", body.encode(
                    "utf-8"
                )
            body = json.dumps(
                {
                    "trace_id": trace_id,
                    "spans": [span_to_dict(span) for span in spans],
                },
                default=str,
            )
            return 200, "application/json; charset=utf-8", body.encode("utf-8")
        body = json.dumps({"error": f"no such endpoint {path!r}"})
        return 404, "application/json; charset=utf-8", body.encode("utf-8")

    def metrics_exposition(self) -> str:
        """The Prometheus text body ``GET /metrics`` serves: this
        server's registry plus every registered service's, labelled."""
        registries = [({"component": "http.server"}, self.metrics)]
        for service in self._registry.services():
            registries.append(
                ({"component": "service", "service": service.name}, service.metrics)
            )
        extra = []
        exporter = get_tracer().exporter
        if exporter is not None:
            extra.append(
                (
                    "obs.spans.dropped",
                    "spans discarded by the exporter at capacity",
                    {},
                    getattr(exporter, "dropped", 0),
                )
            )
        journal = get_journal()
        extra.append(
            (
                "obs.journal.events",
                "lifecycle journal events currently retained",
                {},
                len(journal),
            )
        )
        if journal.dropped:
            extra.append(
                (
                    "obs.journal.dropped",
                    "lifecycle journal events evicted at capacity",
                    {},
                    journal.dropped,
                )
            )
        return prometheus_text(registries, extra_gauges=extra)

    @property
    def port(self) -> int:
        return self._core.port

    @property
    def base_url(self) -> str:
        return f"http://127.0.0.1:{self.port}"

    def address_for_path(self, path: str) -> str:
        return f"{self.base_url}{path}"

    def url_for(self, service_path: str) -> str:
        """The address a service should be constructed with, e.g.
        ``server.url_for('/relational')``."""
        if not service_path.startswith("/"):
            service_path = "/" + service_path
        return f"{self.base_url}{service_path}"

    def start(self) -> "DaisHttpServer":
        self._core.start()
        return self

    def stop(self) -> None:
        self._core.stop()

    def __enter__(self) -> "DaisHttpServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


class HttpTransport(ClientTransport):
    """Client side: POST envelopes to service URLs.

    Requests ride a thread-safe HTTP/1.1 keep-alive connection pool
    (:class:`~repro.transport.pool.HttpConnectionPool`): sequential and
    concurrent calls to the same host reuse TCP connections instead of
    paying a connect per request.  A stale pooled connection (the server
    closed its side while it sat idle) is detected at checkout or at
    write time and replaced with exactly one transparent reconnect; a
    connection that fails after the request went out is *poisoned* —
    closed, never re-pooled, and the failure surfaces to the caller,
    because the service may already have acted on the request.

    Replies are read with the server's own codec
    (:class:`~repro.transport.http11.ResponseParser`).  Every attempt
    runs under a timeout (default 10 s — configurable per transport,
    overridable per retry policy) that bounds the connect, the write,
    and then the *whole response* as one total deadline: status line,
    headers and body.  A server that stalls or trickles at any point of
    its reply (a dropped connection during a chunked response, headers
    sent a byte at a time) surfaces as a
    :class:`~repro.core.faults.TransportFault` instead of blocking the
    caller indefinitely.  All transport-level failures — refused
    connections, timeouts, dropped sockets, malformed replies, non-SOAP
    error bodies — surface as that typed fault rather than raw socket
    or parse exceptions.  Install a
    :class:`~repro.resilience.Resilience` layer (or pass a bare
    ``RetryPolicy``) to retry them with backoff and breaker protection.
    """

    def __init__(
        self,
        network: NetworkModel | None = None,
        timeout: float = 10.0,
        resilience=None,
        compression: bool = True,
    ) -> None:
        super().__init__(network, resilience)
        self._timeout = timeout
        #: Advertise ``Accept-Encoding: gzip`` and decode encoded
        #: responses; off reproduces the uncompressed wire.
        self.compression = compression
        # Wire-truth byte counters (`in` is post-compression, as read
        # off the socket) — the client-side mirror of the server's
        # http.bytes.{in,out}.
        self._bytes_out = self.metrics.counter(
            "http.bytes.out", "request body bytes sent on the wire"
        )
        self._bytes_in = self.metrics.counter(
            "http.bytes.in", "response body bytes received on the wire"
        )
        #: The keep-alive pool.  Its ``rpc.client.connections.*``
        #: counters live in :attr:`metrics`, so pool behaviour shows up
        #: in ``obs:ServiceMetrics``.
        self.pool = HttpConnectionPool(metrics=self.metrics)

    def close(self) -> None:
        """Close every idle pooled connection."""
        self.pool.close_all()

    def _send_once(self, address: str, request: Envelope) -> Envelope:
        action = request.headers.action
        with get_tracer().span(
            "rpc.send", transport="http", address=address, action=action
        ) as span:
            request_bytes = inject(request).to_bytes()
            status, response_bytes, wire_bytes = self._exchange(
                address, action, request_bytes
            )
            if not _looks_like_soap(response_bytes):
                # SOAP 1.1: fault envelopes arrive with status 500 — when
                # the body is a SOAP message, read it and carry on; an
                # unparseable body (a proxy error page, an injected 503)
                # is a transport-level failure.
                if status != 200:
                    raise TransportFault(
                        f"HTTP {status} from {address} with non-SOAP body",
                        status=status,
                    )
            try:
                response = Envelope.from_bytes(response_bytes)
            except Exception as err:
                span.record_exception(err)
                raise TransportFault(
                    f"unparseable response from {address}: {err}"
                ) from err
            # Wire truth everywhere bytes are recorded: a gzip response
            # is accounted at its compressed size (what the network
            # carried), while the envelope parses the decoded body.
            fault = response.is_fault()
            self._account(
                span, address, action, len(request_bytes), wire_bytes, fault
            )
            self._bytes_out.inc(len(request_bytes))
            self._bytes_in.inc(wire_bytes)
            if fault:
                span.mark_fault()
            return response

    # -- the wire exchange ----------------------------------------------------

    def _exchange(
        self, address: str, action: str, body: bytes
    ) -> tuple[int, bytes, int]:
        """One POST over a pooled connection →
        ``(status, decoded body, wire bytes)``.

        *wire bytes* is the response body size as read off the socket —
        for a gzip-encoded response that is the compressed size, while
        the returned body is already decoded.  Decoding happens after
        the body is de-framed, so framing (and therefore keep-alive
        reuse) is independent of the encoding.

        Raises :class:`TransportFault` for connect failures, timeouts and
        mid-exchange breakage.  A reused connection that fails while the
        request is being *written* is a stale keep-alive: it is discarded
        and the request transparently retried once on a fresh connection
        (the server never saw it).  Failures while *reading* the response
        are never retried here — the request may have had effects; that
        call is the resilience layer's, which owns resend semantics.
        """
        parts = urlsplit(address)
        host = parts.hostname or "127.0.0.1"
        port = parts.port or 80
        path = parts.path or "/"
        if parts.query:
            path = f"{path}?{parts.query}"
        override = self.resilience and self.resilience.policy.request_timeout
        timeout = self._timeout if override is None else override
        headers = [
            ("Content-Type", "text/xml; charset=utf-8"),
            ("SOAPAction", action),
            ("Host", f"{host}:{port}"),
        ]
        if self.compression:
            headers.append(("Accept-Encoding", "gzip"))
        request = render_request("POST", path, headers, body)
        reconnected = False
        while True:
            conn, sent = None, False
            try:
                conn, reused = self.pool.acquire(host, port, timeout)
                conn.send(request, timeout)
                sent = True
                response = conn.read_response(timeout)
            except (OSError, HttpParseError) as err:
                if conn is not None:
                    self.pool.release(conn, reusable=False)
                if isinstance(err, TimeoutError):  # socket.timeout too
                    message = f"request to {address} timed out after {timeout}s"
                elif sent:  # the service may have acted: no resend
                    message = f"connection to {address} broke mid-exchange: {err}"
                elif conn is not None and reused and not reconnected:
                    reconnected = True  # a stale keep-alive: retry once
                    continue
                else:
                    message = f"connection to {address} failed: {err}"
                raise TransportFault(message) from err
            response_bytes = response.body
            wire_bytes = len(response_bytes)
            if response.headers.get("content-encoding", "").lower() == "gzip":
                try:
                    response_bytes = gunzip(response_bytes)
                except Exception as err:
                    # A truncated/garbled member is a broken exchange:
                    # the connection framing may still be fine, but the
                    # payload is not — poison it and surface the break.
                    self.pool.release(conn, reusable=False)
                    raise TransportFault(
                        f"undecodable gzip response from {address}: {err}"
                    ) from err
            self.pool.release(conn, reusable=response.keep_alive)
            return response.status, response_bytes, wire_bytes
