"""Replies to HTTP/1.0 requests are never chunked (RFC 9112 §6.1).

An HTTP/1.0 client cannot read ``Transfer-Encoding: chunked``.  A reply
that fits the server's one write buffer is framed by ``Content-Length``
as for anyone else; a longer one is delimited by the close of the
connection: no ``Transfer-Encoding``, a ``Connection: close`` header,
then the server closes the socket.  Raw sockets, so the request line
really says ``HTTP/1.0``.
"""

import socket

import pytest

from repro.core import ServiceRegistry, mint_abstract_name
from repro.dair import SQLDataResource, SQLRealisationService
from repro.dair import messages as msg
from repro.relational import Database
from repro.soap.addressing import MessageHeaders
from repro.soap.envelope import Envelope
from repro.transport import DaisHttpServer
from repro.transport.http11 import ParsedResponse, ResponseParser

ROWS = 400


@pytest.fixture(scope="module")
def deployment():
    registry = ServiceRegistry()
    server = DaisHttpServer(registry, port=0)
    address = server.url_for("/sql")
    service = SQLRealisationService("http10-sql", address)
    registry.register(service)
    database = Database("http10db")
    database.execute("CREATE TABLE t (k INT PRIMARY KEY, v VARCHAR(20))")
    database.execute(
        "INSERT INTO t VALUES "
        + ",".join(f"({i},'value-{i}')" for i in range(ROWS))
    )
    resource = SQLDataResource(mint_abstract_name("t"), database)
    service.add_resource(resource)
    with server:
        yield server, address, resource.abstract_name


def _request(address, name, sql, version="HTTP/1.0", connection=None) -> bytes:
    body = Envelope(
        headers=MessageHeaders(to=address, action=msg.SQLExecuteRequest.action()),
        payload=msg.SQLExecuteRequest(abstract_name=name, expression=sql).to_xml(),
    ).to_bytes()
    head = [
        f"POST /sql {version}",
        "Content-Type: text/xml; charset=utf-8",
        f"Content-Length: {len(body)}",
    ]
    if connection:
        head.append(f"Connection: {connection}")
    return ("\r\n".join(head) + "\r\n\r\n").encode("ascii") + body


def _exchange(server, request: bytes) -> tuple[ParsedResponse, bool]:
    """Send *request* and read until the server closes (or 2 s of
    silence): → (the de-framed reply, whether the server closed)."""
    parser = ResponseParser()
    closed = False
    with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
        sock.sendall(request)
        sock.settimeout(2.0)
        try:
            while data := sock.recv(65536):
                parser.feed(data)
            closed = True
            parser.feed_eof()
        except TimeoutError:
            pass
    assert parser.response is not None, "incomplete reply"
    return parser.response, closed


def _rows(body: bytes) -> int:
    envelope = Envelope.from_bytes(body)
    assert not envelope.is_fault()
    return body.count(b"<wsdair:Row>")


class TestHttp10Framing:
    def test_long_reply_is_close_delimited(self, deployment):
        server, address, name = deployment
        reply, closed = _exchange(
            server, _request(address, name, "SELECT k, v FROM t")
        )
        assert reply.status == 200
        assert "transfer-encoding" not in reply.headers
        assert "content-length" not in reply.headers
        assert reply.headers.get("connection") == "close"
        assert closed
        assert len(reply.body) > server.CHUNK_COALESCE_BYTES
        assert _rows(reply.body) == ROWS

    def test_long_reply_closes_even_when_keep_alive_was_asked(self, deployment):
        server, address, name = deployment
        reply, closed = _exchange(
            server,
            _request(address, name, "SELECT k, v FROM t", connection="keep-alive"),
        )
        assert "transfer-encoding" not in reply.headers
        assert reply.headers.get("connection") == "close"
        assert closed
        assert _rows(reply.body) == ROWS

    def test_short_reply_keeps_content_length(self, deployment):
        server, address, name = deployment
        reply, closed = _exchange(
            server, _request(address, name, "SELECT k, v FROM t WHERE k = 7")
        )
        assert reply.status == 200
        assert "transfer-encoding" not in reply.headers
        assert int(reply.headers["content-length"]) == len(reply.body)
        assert closed  # HTTP/1.0 without keep-alive: one request
        assert _rows(reply.body) == 1

    def test_http11_long_reply_is_still_chunked(self, deployment):
        server, address, name = deployment
        reply, closed = _exchange(
            server,
            _request(
                address, name, "SELECT k, v FROM t",
                version="HTTP/1.1", connection="close",
            ),
        )
        assert reply.headers.get("transfer-encoding") == "chunked"
        assert reply.headers.get("connection") == "close"
        assert _rows(reply.body) == ROWS
