"""The shared HTTP/1.1 codec, both directions, under random byte splits.

Whatever ``http11`` renders its parsers must read back exactly, however
the socket happens to slice the stream: a response rendered with
``render_response`` (or as ``render_headers`` plus chunks) comes out of
``ResponseParser`` with the same status, headers, body and keep-alive
verdict — gzip bodies, ``Connection: close`` and HTTP/1.0 replies
included — and a ``render_request`` comes out of ``RequestParser`` the
same way.  A table of malformed inputs pins the other half of the
contract: each one is an ``HttpParseError``, never a hang — on a live
server it costs the offending connection, never the event loop, and on
the client it is a ``TransportFault``.  The client reads replies under
a longer line than the server reads requests, under the same body bound
(``pool.REPLY_LIMITS``); their boundaries are pinned here too.
"""

import socket
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ServiceRegistry, TransportFault
from repro.soap.addressing import MessageHeaders
from repro.soap.envelope import Envelope
from repro.transport import DaisHttpServer, HttpTransport
from repro.transport import compression
from repro.transport.compression import gzip_compress
from repro.transport.http11 import (
    MAX_BODY_BYTES,
    REASONS,
    TERMINAL_CHUNK,
    HttpParseError,
    RequestParser,
    ResponseParser,
    chunk,
    render_headers,
    render_request,
    render_response,
)
from repro.transport.pool import REPLY_LIMITS
from repro.xmlutil import E

from tests.transport.stubserver import ScriptedServer, hold, send

_TOKEN = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-",
    min_size=1,
    max_size=12,
)
_VALUE = st.text(
    alphabet=st.characters(min_codepoint=0x21, max_codepoint=0x7E),
    max_size=30,
)
#: Extra header fields; the names stay clear of the ones that frame or
#: persist a message, which each case sets itself.
_HEADERS = st.dictionaries(
    _TOKEN.filter(
        lambda name: name.lower()
        not in {"content-length", "transfer-encoding", "connection"}
    ),
    _VALUE,
    max_size=5,
)
_BODY = st.binary(max_size=3000)


def _split(data: bytes, cuts: list[int]) -> list[bytes]:
    points = sorted({cut % (len(data) + 1) for cut in cuts})
    edges = [0, *points, len(data)]
    return [data[a:b] for a, b in zip(edges, edges[1:])]


def _read_response(wire: bytes, cuts: list[int], eof: bool = False):
    parser = ResponseParser()
    for piece in _split(wire, cuts):
        parser.feed(piece)
    if eof:
        parser.feed_eof()
    assert parser.buffered == 0
    return parser.response


def _expected(headers: list[tuple[str, str]]) -> dict[str, str]:
    return {key.lower(): value for key, value in headers}


class TestResponseRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(
        status=st.sampled_from(sorted(REASONS)),
        headers=_HEADERS,
        body=_BODY,
        gzipped=st.booleans(),
        keep_alive=st.booleans(),
        http10=st.booleans(),
        cuts=st.lists(st.integers(min_value=0), max_size=8),
    )
    def test_content_length_response(
        self, status, headers, body, gzipped, keep_alive, http10, cuts
    ):
        extra = list(headers.items())
        payload = gzip_compress(body) if gzipped else body
        if gzipped:
            extra.append(("Content-Encoding", "gzip"))
        wire = render_response(
            status, "text/xml", payload, keep_alive=keep_alive, extra_headers=extra
        )
        if http10:
            wire = b"HTTP/1.0" + wire[len(b"HTTP/1.1") :]
        response = _read_response(wire, cuts)
        assert response.status == status
        sent = [("Content-Type", "text/xml"), ("Content-Length", str(len(payload)))]
        sent += extra
        if not keep_alive:
            sent.append(("Connection", "close"))
        assert response.headers == _expected(sent)
        assert response.body == payload
        # HTTP/1.0 persists only on request, and this reply never asks.
        assert response.keep_alive == (keep_alive and not http10)

    @settings(max_examples=150, deadline=None)
    @given(
        headers=_HEADERS,
        pieces=st.lists(st.binary(min_size=1, max_size=600), max_size=6),
        gzipped=st.booleans(),
        close=st.booleans(),
        cuts=st.lists(st.integers(min_value=0), max_size=8),
    )
    def test_chunked_response(self, headers, pieces, gzipped, close, cuts):
        sent = list(headers.items())
        if gzipped:
            body = gzip_compress(b"".join(pieces))
            third = max(1, len(body) // 3)
            pieces = [body[i : i + third] for i in range(0, len(body), third)]
            sent.append(("Content-Encoding", "gzip"))
        sent.append(("Transfer-Encoding", "chunked"))
        if close:
            sent.append(("Connection", "close"))
        wire = render_headers(200, sent)
        wire += b"".join(chunk(piece) for piece in pieces) + TERMINAL_CHUNK
        response = _read_response(wire, cuts)
        assert response.status == 200
        assert response.headers == _expected(sent)
        assert response.body == b"".join(pieces)
        assert response.keep_alive is not close

    @settings(max_examples=60, deadline=None)
    @given(body=_BODY, cuts=st.lists(st.integers(min_value=0), max_size=8))
    def test_body_framed_by_close(self, body, cuts):
        wire = render_headers(200, [("Content-Type", "text/plain")]) + body
        response = _read_response(wire, cuts, eof=True)
        assert response.body == body
        assert response.keep_alive is False


class TestRequestRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(
        method=st.sampled_from(["POST", "GET"]),
        target=_TOKEN.map(lambda segment: f"/{segment}"),
        headers=_HEADERS,
        body=_BODY,
        close=st.booleans(),
        cuts=st.lists(st.integers(min_value=0), max_size=8),
    )
    def test_request(self, method, target, headers, body, close, cuts):
        sent = list(headers.items())
        if close:
            sent.append(("Connection", "close"))
        wire = render_request(method, target, sent, body)
        parser = RequestParser()
        for piece in _split(wire, cuts):
            parser.feed(piece)
        request = parser.next_request()
        assert parser.next_request() is None and not parser.receiving
        assert (request.method, request.target, request.version) == (
            method,
            target,
            "HTTP/1.1",
        )
        assert request.headers == _expected(
            [*sent, ("Content-Length", str(len(body)))]
        )
        assert request.body == body
        assert request.keep_alive is not close


_CHUNKED_HEAD = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
#: Past int()'s 4300-digit conversion limit: refused, never a ValueError.
_HUGE_LENGTH = b"Content-Length: " + b"1" * 5000 + b"\r\n"

MALFORMED = {
    "garbage status line": b"this is not HTTP\r\n\r\n",
    "non-numeric Content-Length": (
        b"HTTP/1.1 200 OK\r\nContent-Length: ten\r\n\r\n"
    ),
    "bad chunk size": _CHUNKED_HEAD + b"zz\r\nhello\r\n0\r\n\r\n",
    "missing CRLF after chunk data": _CHUNKED_HEAD + b"5\r\nhelloXX0\r\n\r\n",
    "over-long status line": b"HTTP/1.1 200 " + b"O" * 20000 + b"\r\n\r\n",
    "over-long header line": (
        b"HTTP/1.1 200 OK\r\nX-Big: " + b"v" * 20000 + b"\r\n\r\n"
    ),
    "header section over its limit": (
        b"HTTP/1.1 200 OK\r\n"
        + b"".join(b"X-H%d: %s\r\n" % (i, b"v" * 1000) for i in range(80))
        + b"\r\n"
    ),
    "5000-digit Content-Length": b"HTTP/1.1 200 OK\r\n" + _HUGE_LENGTH + b"\r\n",
}


@pytest.mark.parametrize("wire", list(MALFORMED.values()), ids=list(MALFORMED))
def test_malformed_response_is_parse_error(wire):
    parser = ResponseParser()
    with pytest.raises(HttpParseError):
        parser.feed(wire)
        parser.feed_eof()


def test_close_before_complete_is_parse_error():
    parser = ResponseParser()
    parser.feed(b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort")
    with pytest.raises(HttpParseError, match="closed before"):
        parser.feed_eof()


def test_request_with_5000_digit_content_length_is_413():
    parser = RequestParser()
    with pytest.raises(HttpParseError) as caught:
        parser.feed(b"POST /x HTTP/1.1\r\n" + _HUGE_LENGTH + b"\r\n")
    assert caught.value.status == 413


class TestReplyLimits:
    """The client's limits: a reply line may be as long as 64 KiB, and
    the body is bounded like a request's (256 MiB), gzip-decoded or not.
    Past the bound the call is a ``TransportFault`` that names it, and
    the connection is closed, not pooled."""

    def test_one_stated_body_bound(self):
        assert MAX_BODY_BYTES == 256 * 1024 * 1024
        assert REPLY_LIMITS["max_body_bytes"] == MAX_BODY_BYTES
        assert RequestParser().max_body_bytes == MAX_BODY_BYTES

    def test_header_line_over_the_request_limit_is_read(self):
        value = b"v" * 20000  # over the server's 16 KiB request line
        parser = ResponseParser(**REPLY_LIMITS)
        parser.feed(
            b"HTTP/1.1 200 OK\r\nX-Big: " + value + b"\r\n"
            b"Content-Length: 2\r\n\r\nhi"
        )
        assert parser.response.headers["x-big"] == value.decode()
        assert parser.response.body == b"hi"

    def test_client_reads_a_reply_with_a_long_header_line(self):
        request = Envelope(
            headers=MessageHeaders(to="http://127.0.0.1/stub", action="urn:stub"),
            payload=E("Ping"),
        )
        reply = request.to_bytes()
        wire = render_response(
            200, "text/xml", reply, extra_headers=[("X-Big", "v" * 20000)]
        )
        with ScriptedServer([send(wire)]) as stub:
            transport = HttpTransport(timeout=5.0)
            assert transport.send(stub.url, request).to_bytes() == reply
            transport.close()

    def test_header_line_over_64_kib_is_refused(self):
        parser = ResponseParser(**REPLY_LIMITS)
        with pytest.raises(HttpParseError, match="line too long"):
            parser.feed(b"HTTP/1.1 200 OK\r\nX-Big: " + b"v" * 70000)

    @pytest.mark.parametrize(
        "framing",
        [
            b"Content-Length: 300000000\r\n\r\n",
            b"Transfer-Encoding: chunked\r\n\r\n11e1a300\r\n",
        ],
        ids=["content-length", "chunk"],
    )
    def test_body_past_the_bound_is_refused(self, framing):
        # 300 MB is over the 256 MiB bound, announced before any body byte
        parser = ResponseParser(**REPLY_LIMITS)
        with pytest.raises(HttpParseError, match=f"over the {MAX_BODY_BYTES}-byte"):
            parser.feed(b"HTTP/1.1 200 OK\r\n" + framing + b"partial")

    def _fault_on_the_wire(self, wire: bytes, timeout: float = 5.0) -> str:
        """Send one request to a raw-socket server that answers *wire*
        and holds the socket open: the fault's message, raised well
        within *timeout*, with the connection closed, not pooled."""
        request = Envelope(
            headers=MessageHeaders(to="http://127.0.0.1/stub", action="urn:stub"),
            payload=E("Ping"),
        )
        with ScriptedServer([send(wire), hold(30.0)]) as stub:
            transport = HttpTransport(timeout=timeout)
            started = time.monotonic()
            try:
                with pytest.raises(TransportFault) as caught:
                    transport.send(stub.url, request)
                assert time.monotonic() - started < timeout
                discarded = transport.metrics.counter(
                    "rpc.client.connections.discarded", ""
                )
                assert discarded.value(reason="poisoned") == 1
                assert transport.pool.idle_total() == 0
            finally:
                transport.close()
        return str(caught.value)

    def test_oversized_content_length_is_a_fault_naming_the_bound(self):
        wire = (
            b"HTTP/1.1 200 OK\r\nContent-Type: text/xml\r\n"
            b"Content-Length: %d\r\n\r\n" % (MAX_BODY_BYTES + 1)
        )
        assert f"over the {MAX_BODY_BYTES}-byte limit" in self._fault_on_the_wire(wire)

    def test_gzip_bomb_is_a_fault_naming_the_bound(self, monkeypatch):
        # A bomb past the real 256 MiB would make the test hold that much
        # memory before the bound trips, so the bound is lowered to 1 MiB.
        limit = 1 << 20
        monkeypatch.setattr(compression, "MAX_BODY_BYTES", limit)
        assert compression.gunzip(gzip_compress(b"\0" * limit)) == b"\0" * limit
        bomb = gzip_compress(b"\0" * (8 * limit))
        assert len(bomb) < 16 * 1024
        wire = render_response(
            200, "text/xml", bomb, extra_headers=[("Content-Encoding", "gzip")]
        )
        assert f"past the {limit}-byte limit" in self._fault_on_the_wire(wire)

    def test_5000_digit_content_length_is_refused(self):
        parser = ResponseParser(**REPLY_LIMITS)
        with pytest.raises(HttpParseError):
            parser.feed(b"HTTP/1.1 200 OK\r\n" + _HUGE_LENGTH + b"\r\n")


def _read_until_close(sock: socket.socket, overall: float = 5.0) -> bytes:
    deadline = time.monotonic() + overall
    data = bytearray()
    while time.monotonic() < deadline:
        sock.settimeout(max(0.01, deadline - time.monotonic()))
        piece = sock.recv(65536)
        if not piece:
            break
        data += piece
    return bytes(data)


class TestOverlongContentLengthOnTheWire:
    def test_server_refuses_it_and_keeps_serving(self):
        with DaisHttpServer(ServiceRegistry(), port=0) as server:
            with socket.create_connection(("127.0.0.1", server.port)) as sock:
                sock.sendall(
                    b"POST /x HTTP/1.1\r\nHost: t\r\n" + _HUGE_LENGTH + b"\r\n"
                )
                assert _read_until_close(sock).startswith(b"HTTP/1.1 413 ")
            # The event loop survived: the next connection is answered.
            with socket.create_connection(("127.0.0.1", server.port)) as sock:
                sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
                sock.settimeout(5.0)
                assert sock.recv(65536).startswith(b"HTTP/1.1 200 ")

    def test_client_surfaces_it_as_a_transport_fault(self):
        request = Envelope(
            headers=MessageHeaders(to="http://127.0.0.1/stub", action="urn:stub"),
            payload=E("Ping"),
        )
        wire = b"HTTP/1.1 200 OK\r\n" + _HUGE_LENGTH + b"\r\n"
        with ScriptedServer([send(wire)]) as stub:
            transport = HttpTransport(timeout=5.0)
            with pytest.raises(TransportFault, match="broke mid-exchange"):
                transport.send(stub.url, request)
            assert transport.pool.idle_total() == 0
            discarded = transport.metrics.counter(
                "rpc.client.connections.discarded", ""
            )
            assert discarded.value(reason="poisoned") == 1
            transport.close()
