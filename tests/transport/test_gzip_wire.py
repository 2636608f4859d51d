"""Golden wire snapshots for negotiated gzip (PR-10).

Content-Encoding is a *payload* property: the framing — Content-Length
of the encoded bytes on the eager path, chunk framing of the compressed
stream on the streamed path — is untouched.  Which path a reply takes is
decided by the statement: the ``eager`` fixture asks the rows sorted (a
pipeline breaker, emitted from memory), the ``chunked`` one as they
come.  These tests pin that:

* the compressed body decodes to exactly the bytes an uncompressed
  exchange produces (eager and chunked);
* compression is deterministic (zlib gzip wrapping writes a zero MTIME,
  so identical payloads give identical wire bytes);
* a gzip response on a keep-alive connection leaves the pooled
  connection reusable;
* bodies under the size floor are sent uncompressed.
"""

import http.client
import re

import pytest

from repro.client.sql import SQLClient
from repro.core import ServiceRegistry, mint_abstract_name
from repro.dair import SQLDataResource, SQLRealisationService
from repro.dair import messages as msg
from repro.relational import Database
from repro.soap.addressing import MessageHeaders
from repro.soap.envelope import Envelope
from repro.transport import DaisHttpServer, HttpTransport
from repro.transport.compression import (
    GZIP_FLOOR_BYTES,
    gunzip,
    gzip_compress,
)

ROWS = 200

#: Minted message ids differ per response; normalize them away so the
#: rest of the envelope can be compared byte for byte (the fig-2 golden
#: snapshot pattern).
_UUID = re.compile(
    rb"[0-9a-f]{8}-[0-9a-f]{4}-[0-9a-f]{4}-[0-9a-f]{4}-[0-9a-f]{12}"
)


def _normalize(payload: bytes) -> bytes:
    return _UUID.sub(b"UUID", payload)


#: The 200 rows as a streamable statement and as a pipeline breaker.
STREAMED_SQL = "SELECT id, v FROM t"
EAGER_SQL = "SELECT id, v FROM t ORDER BY id"


def _deployment():
    registry = ServiceRegistry()
    server = DaisHttpServer(registry, port=0)
    address = server.url_for("/sql")
    service = SQLRealisationService("gzip-sql", address)
    registry.register(service)
    database = Database("gzipdb")
    database.execute("CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(40))")
    database.execute(
        "INSERT INTO t VALUES "
        + ",".join(f"({i},'value-{i:05d}-padding-padding')" for i in range(ROWS))
    )
    resource = SQLDataResource(mint_abstract_name("t"), database)
    service.add_resource(resource)
    return server, address, resource


@pytest.fixture()
def eager():
    server, address, resource = _deployment()
    with server:
        yield server, address, resource, EAGER_SQL


@pytest.fixture()
def chunked():
    server, address, resource = _deployment()
    with server:
        yield server, address, resource, STREAMED_SQL


def _query_bytes(resource, expression):
    return Envelope(
        headers=MessageHeaders(
            to="", action=msg.SQLExecuteRequest.action()
        ),
        payload=msg.SQLExecuteRequest(
            abstract_name=resource.abstract_name, expression=expression
        ).to_xml(),
    ).to_bytes()


def _post(server, body, accept_gzip):
    """One raw exchange; returns (status, headers, raw body bytes)."""
    headers = {"Content-Type": "text/xml; charset=utf-8"}
    if accept_gzip:
        headers["Accept-Encoding"] = "gzip"
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
    try:
        conn.request("POST", "/sql", body=body, headers=headers)
        reply = conn.getresponse()
        return reply.status, reply.headers, reply.read()
    finally:
        conn.close()


class TestEagerPath:
    def test_gzip_body_decodes_byte_identically(self, eager):
        server, address, resource, sql = eager
        body = _query_bytes(resource, sql)
        status, plain_headers, plain = _post(server, body, accept_gzip=False)
        assert status == 200
        assert plain_headers.get("Content-Encoding") is None
        assert plain_headers.get("Transfer-Encoding") is None

        status, gz_headers, compressed = _post(server, body, accept_gzip=True)
        assert status == 200
        assert gz_headers.get("Content-Encoding") == "gzip"
        assert gz_headers.get("Content-Length") == str(len(compressed))
        assert len(compressed) < len(plain)
        assert _normalize(gunzip(compressed)) == _normalize(plain)

    def test_compression_is_deterministic(self):
        # zlib gzip wrapping writes a zero MTIME: identical payloads
        # give identical wire bytes, which is what keeps golden wire
        # snapshots stable across runs.
        payload = b"<Envelope>" + b"row " * 1000 + b"</Envelope>"
        assert gzip_compress(payload) == gzip_compress(payload)
        assert gunzip(gzip_compress(payload)) == payload

    def test_response_under_floor_stays_uncompressed(self, eager, monkeypatch):
        # The smallest SOAP envelope is bigger than the shipped floor,
        # so raise the floor to put this response under it.
        monkeypatch.setattr(
            "repro.transport.httpserver.GZIP_FLOOR_BYTES", 10_000
        )
        server, address, resource, _ = eager
        body = _query_bytes(resource, "SELECT id FROM t WHERE id = -1 ORDER BY id")
        status, headers, raw = _post(server, body, accept_gzip=True)
        assert status == 200
        assert headers.get("Content-Encoding") is None
        assert len(raw) < 10_000
        assert GZIP_FLOOR_BYTES < 10_000  # shipped floor untouched


class TestChunkedPath:
    def test_chunked_gzip_decodes_byte_identically(self, chunked):
        server, address, resource, sql = chunked
        body = _query_bytes(resource, sql)
        status, plain_headers, plain = _post(server, body, accept_gzip=False)
        assert status == 200
        assert plain_headers.get("Transfer-Encoding") == "chunked"

        status, gz_headers, compressed = _post(server, body, accept_gzip=True)
        assert status == 200
        assert gz_headers.get("Transfer-Encoding") == "chunked"
        assert gz_headers.get("Content-Encoding") == "gzip"
        assert len(compressed) < len(plain)
        assert _normalize(gunzip(compressed)) == _normalize(plain)

    def test_short_stream_under_floor_stays_uncompressed(
        self, chunked, monkeypatch
    ):
        # A stream that ends before the (raised) floor is reached must
        # commit headers without Content-Encoding and send the buffered
        # head uncompressed.
        monkeypatch.setattr(
            "repro.transport.httpserver.GZIP_FLOOR_BYTES", 1_000_000
        )
        server, address, resource, _ = chunked
        body = _query_bytes(resource, "SELECT id FROM t WHERE id = 0")
        status, headers, raw = _post(server, body, accept_gzip=True)
        assert status == 200
        assert headers.get("Content-Encoding") is None
        assert b"<" in raw  # plain XML, not deflate noise
        assert b"SQLExecuteResponse" in raw


class TestTransportIntegration:
    def test_keep_alive_connection_reusable_after_gzip(self, eager):
        server, address, resource, sql = eager
        transport = HttpTransport()
        client = SQLClient(transport)
        for _ in range(3):
            rowset = client.sql_query_rowset(address, resource.abstract_name, sql)
            assert len(rowset.rows) == ROWS
        reused = transport.metrics.counter("rpc.client.connections.reused")
        assert reused.total() >= 2
        # And the exchanges really were compressed: the client counted
        # fewer wire bytes in than decoded envelope bytes.
        wire_in = transport.metrics.counter("http.bytes.in").total()
        decoded = transport.metrics.counter(
            "rpc.client.response.bytes"
        ).total()
        assert wire_in == decoded  # both count post-compression bytes

    def test_chunked_keep_alive_reusable_after_gzip(self, chunked):
        server, address, resource, sql = chunked
        transport = HttpTransport()
        client = SQLClient(transport)
        for _ in range(3):
            rowset = client.sql_query_rowset(address, resource.abstract_name, sql)
            assert len(rowset.rows) == ROWS
        reused = transport.metrics.counter("rpc.client.connections.reused")
        assert reused.total() >= 2

    def test_client_compression_kill_switch(self, eager):
        server, address, resource, sql = eager
        transport = HttpTransport(compression=False)
        client = SQLClient(transport)
        client.sql_query_rowset(address, resource.abstract_name, sql)
        compressed = HttpTransport()
        SQLClient(compressed).sql_query_rowset(
            address, resource.abstract_name, sql
        )
        plain_bytes = transport.metrics.counter("http.bytes.in").total()
        gzip_bytes = compressed.metrics.counter("http.bytes.in").total()
        assert gzip_bytes < plain_bytes / 2
