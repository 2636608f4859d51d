"""Exceptions caught at server boundaries must never vanish silently.

Three boundaries on :class:`DaisHttpServer` swallow exceptions by design
(turning them into an error body or a closed connection).  Each one now
increments ``http.server.errors`` with a ``where`` label and records the
exception on the active span, so operators can see failures that the
protocol deliberately hides from the remote peer.
"""

import http.client
import time

import pytest

from repro.client.sql import SQLClient
from repro.core import ServiceRegistry, mint_abstract_name
from repro.dair import SQLDataResource, SQLRealisationService
from repro.dair import messages as msg
from repro.obs import use_exporter
from repro.relational import Database
from repro.soap.addressing import MessageHeaders
from repro.soap.envelope import Envelope
from repro.transport import DaisHttpServer, HttpTransport


@pytest.fixture()
def deployment():
    registry = ServiceRegistry()
    server = DaisHttpServer(registry, port=0)
    address = server.url_for("/sql")
    service = SQLRealisationService("err-sql", address)
    registry.register(service)
    database = Database("errdb")
    database.execute("CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(20))")
    database.execute(
        "INSERT INTO t VALUES " + ",".join(f"({i},'v{i}')" for i in range(50))
    )
    resource = SQLDataResource(mint_abstract_name("t"), database)
    service.add_resource(resource)
    with server:
        yield server, address, resource


def _post(server, body: bytes):
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
    try:
        conn.request(
            "POST", "/sql", body=body,
            headers={"Content-Type": "text/xml; charset=utf-8"},
        )
        reply = conn.getresponse()
        return reply.status, reply.read()
    finally:
        conn.close()


class TestParseBoundary:
    def test_malformed_body_counts_and_records(self, deployment):
        server, address, resource = deployment
        with use_exporter() as exporter:
            status, body = _post(server, b"this is not xml at all <<<")
        assert status == 500
        assert b"malformed request envelope" in body
        assert server.metrics.counter("http.server.errors").value(
            where="parse"
        ) == 1
        spans = exporter.spans("http.server.request")
        assert spans and spans[0].attributes.get("exception.type")

    def test_well_formed_requests_do_not_count(self, deployment):
        server, address, resource = deployment
        client = SQLClient(HttpTransport())
        client.sql_query_rowset(
            address, resource.abstract_name, "SELECT id FROM t WHERE id = 1"
        )
        assert server.metrics.counter("http.server.errors").total() == 0


class TestGetBoundary:
    def test_handler_exception_becomes_json_500_and_counts(self, deployment):
        server, address, resource = deployment
        original = server._handle_get
        server._handle_get = lambda path: (_ for _ in ()).throw(
            RuntimeError("boom on GET")
        )
        try:
            conn = http.client.HTTPConnection(
                "127.0.0.1", server.port, timeout=10
            )
            try:
                conn.request("GET", "/metrics")
                reply = conn.getresponse()
                body = reply.read()
            finally:
                conn.close()
        finally:
            server._handle_get = original
        assert reply.status == 500
        assert b"internal error" in body
        assert server.metrics.counter("http.server.errors").value(
            where="get"
        ) == 1


class TestStreamBoundary:
    def test_mid_stream_producer_failure_counts_and_lands_on_span(
        self, deployment
    ):
        server, address, resource = deployment
        original = server._send_chunked

        def explode(conn, response, compress=False):
            raise RuntimeError("producer died mid-stream")

        server._send_chunked = explode
        request = Envelope(
            headers=MessageHeaders(
                to=address, action=msg.SQLExecuteRequest.action()
            ),
            payload=msg.SQLExecuteRequest(
                abstract_name=resource.abstract_name,
                expression="SELECT id, v FROM t",
            ).to_xml(),
        )
        try:
            with use_exporter() as exporter:
                with pytest.raises(
                    (http.client.HTTPException, ConnectionError, OSError)
                ):
                    _post(server, request.to_bytes())
        finally:
            server._send_chunked = original
        # The worker thread records the error after the client already
        # saw its connection die — poll briefly instead of racing it.
        errors = server.metrics.counter("http.server.errors")
        deadline = time.monotonic() + 5.0
        while errors.value(where="stream") < 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert errors.value(where="stream") == 1
        spans = exporter.spans("http.server.request")
        assert spans
        assert spans[0].attributes.get("exception.type") == "RuntimeError"
        assert spans[0].attributes.get("exception.message") == (
            "producer died mid-stream"
        )
        assert spans[0].status == "fault"

    def test_typed_fault_after_the_first_write_is_a_broken_stream(
        self, deployment
    ):
        """A row the statement cannot produce, met once more than a
        coalescing buffer of good rows has been written: the 200 is out,
        so the typed fault cannot be the reply — the transfer is cut
        short (no terminal chunk) and the fault is on the span."""
        server, address, resource = deployment
        database = resource.database
        database.execute("CREATE TABLE late (k INT PRIMARY KEY, v VARCHAR(8))")
        database.execute(
            "INSERT INTO late VALUES "
            + ",".join(f"({i},'{i}')" for i in range(600))
            + ",(600,'abc')"
        )
        request = Envelope(
            headers=MessageHeaders(
                to=address, action=msg.SQLExecuteRequest.action()
            ),
            payload=msg.SQLExecuteRequest(
                abstract_name=resource.abstract_name,
                expression="SELECT CAST(v AS INT) FROM late",
            ).to_xml(),
        )
        with use_exporter() as exporter:
            with pytest.raises(http.client.IncompleteRead) as cut:
                _post(server, request.to_bytes())
        assert b"<wsdair:Value>0</wsdair:Value>" in cut.value.partial
        errors = server.metrics.counter("http.server.errors")
        deadline = time.monotonic() + 5.0
        while errors.value(where="stream") < 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert errors.value(where="stream") == 1
        span = exporter.spans("http.server.request")[0]
        assert span.status == "fault"
        assert "after the reply was committed" in span.attributes["exception.message"]
        assert "cannot coerce 'abc'" in span.attributes["exception.message"]

    def test_server_still_serves_after_stream_failure(self, deployment):
        server, address, resource = deployment
        client = SQLClient(HttpTransport())
        rowset = client.sql_query_rowset(
            address, resource.abstract_name, "SELECT id FROM t WHERE id = 2"
        )
        assert rowset.rows == [("2",)]
