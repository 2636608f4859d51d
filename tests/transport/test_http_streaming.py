"""Chunked transfer of streamed datasets over the real HTTP binding.

Which reply is chunked is decided by what is asked, not by a setting:
rows still to be pulled from the engine (a streamable ``SELECT``) or
handed over as an iterator (``GetSQLRowset``) stream; rows the engine
had to hold anyway (a pipeline breaker) or a page cut from a rowset
resource (``GetTuples``) are emitted from memory and framed by length.
"""

import http.client

import pytest

from repro.client.sql import SQLClient
from repro.core import ServiceRegistry, mint_abstract_name
from repro.dair import Rowset, SQLDataResource, SQLRealisationService
from repro.relational import Database
from repro.soap.addressing import MessageHeaders
from repro.soap.envelope import Envelope
from repro.dair import messages as msg
from repro.transport import DaisHttpServer, HttpTransport
from repro.xmlutil import serialize
from tests.dair.reference_render import render_rowset

ROWS = 300


def _build(registry: ServiceRegistry, server: DaisHttpServer):
    address = server.url_for("/sql")
    service = SQLRealisationService("stream-sql", address)
    registry.register(service)
    database = Database("chunkdb")
    database.execute("CREATE TABLE t (k INT PRIMARY KEY, v VARCHAR(20))")
    database.execute(
        "INSERT INTO t VALUES "
        + ",".join(f"({i},'value-{i}')" for i in range(ROWS))
    )
    resource = SQLDataResource(mint_abstract_name("t"), database)
    service.add_resource(resource)
    return address, resource.abstract_name, service


@pytest.fixture(scope="module")
def http_setup():
    registry = ServiceRegistry()
    server = DaisHttpServer(registry, port=0)
    address, name, service = _build(registry, server)
    with server:
        yield server, address, name, service


def _raw_post(server, address, message):
    """POST via raw http.client so response headers are inspectable."""
    request = Envelope(
        headers=MessageHeaders(to=address, action=message.action()),
        payload=message.to_xml(),
    )
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
    try:
        conn.request(
            "POST",
            "/sql",
            body=request.to_bytes(),
            headers={"Content-Type": "text/xml; charset=utf-8"},
        )
        reply = conn.getresponse()
        body = reply.read()
        return reply, body
    finally:
        conn.close()


def _raw_exchange(server, address, name, sql):
    return _raw_post(
        server, address, msg.SQLExecuteRequest(abstract_name=name, expression=sql)
    )


class _CountingSocket:
    """Stands in for a connection's socket on the server side and notes
    the size of every ``sendall``; everything else is the socket's."""

    def __init__(self, sock, sends: list) -> None:
        self._sock = sock
        self._sends = sends

    def sendall(self, data) -> None:
        self._sends.append(len(data))
        self._sock.sendall(data)

    def __getattr__(self, name):
        return getattr(self._sock, name)


@pytest.fixture()
def server_sends(http_setup):
    """The ``sendall`` calls the server made for the latest request."""
    server = http_setup[0]
    sends: list[int] = []
    serve = server.on_request

    def on_request(conn, request, core, waited):
        sends.clear()
        conn.sock = _CountingSocket(conn.sock, sends)
        serve(conn, request, core, waited)

    server.on_request = on_request
    try:
        yield sends
    finally:
        del server.on_request


def _select(sql):
    return lambda client, address, name: (
        msg.SQLExecuteRequest(abstract_name=name, expression=sql)
    )


def _derived(client, address, name):
    """A response resource over the whole table and a rowset on it."""
    response = client.sql_execute_factory(address, name, "SELECT k, v FROM t")
    rowset = client.sql_rowset_factory(response.address, response.abstract_name)
    return response, rowset


def _get_tuples(client, address, name):
    _, rowset = _derived(client, address, name)
    return msg.GetTuplesRequest(
        abstract_name=rowset.abstract_name, start_position=100, count=50
    )


def _get_sql_rowset(client, address, name):
    response, _ = _derived(client, address, name)
    return msg.GetSQLRowsetRequest(abstract_name=response.abstract_name)


#: (what is asked, the request, chunked?, rows in the reply)
FRAMING = [
    ("streamable SELECT", _select("SELECT k, v FROM t"), True, ROWS),
    ("the same, sorted", _select("SELECT k, v FROM t ORDER BY k"), False, ROWS),
    ("GetTuples page", _get_tuples, False, 50),
    ("GetSQLRowset", _get_sql_rowset, True, ROWS),
    ("streamable SELECT of one row", _select("SELECT k, v FROM t WHERE k = 7"), True, 1),
]


class TestFramingByWhatIsAsked:
    @pytest.mark.parametrize(
        "build, chunked, rows", [row[1:] for row in FRAMING], ids=[row[0] for row in FRAMING]
    )
    def test_framing(self, http_setup, server_sends, build, chunked, rows):
        server, address, name, _ = http_setup
        transport = HttpTransport()
        try:
            message = build(SQLClient(transport), address, name)
        finally:
            transport.close()
        chunks = server.metrics.counter("http.server.chunks")
        before = chunks.total()
        reply, body = _raw_post(server, address, message)
        written = chunks.total() - before
        assert reply.status == 200
        assert body.count(b"<wsdair:Row>") == rows
        if not chunked:
            assert reply.getheader("Transfer-Encoding") is None
            assert int(reply.getheader("Content-Length")) == len(body)
            assert written == 0
            assert len(server_sends) == 1
        else:
            assert reply.getheader("Transfer-Encoding") == "chunked"
            assert reply.getheader("Content-Length") is None
            assert written >= 1
            if rows == 1:
                # headers, the one chunk and the terminal chunk: one write
                assert written == 1
                assert len(server_sends) == 1
            else:
                # longer than a coalescing buffer: still 8 KiB writes,
                # the headers in front of the first, the end behind the last
                assert written > 1
                assert written <= len(server_sends) <= written + 1
                assert max(server_sends) < 2 * server.CHUNK_COALESCE_BYTES


class TestChunkedResponses:
    def test_streamable_select_goes_out_chunked(self, http_setup):
        server, address, name, _ = http_setup
        reply, body = _raw_exchange(server, address, name, "SELECT v FROM t")
        assert reply.status == 200
        assert reply.getheader("Transfer-Encoding") == "chunked"
        assert reply.getheader("Content-Length") is None
        envelope = Envelope.from_bytes(body)
        assert not envelope.is_fault()

    def test_pipeline_breaker_stays_content_length(self, http_setup):
        server, address, name, _ = http_setup
        reply, body = _raw_exchange(
            server, address, name, "SELECT v FROM t ORDER BY k"
        )
        assert reply.status == 200
        assert reply.getheader("Transfer-Encoding") is None
        assert int(reply.getheader("Content-Length")) == len(body)

    def test_chunk_counter_increments(self, http_setup):
        server, address, name, _ = http_setup
        before = server.metrics.counter("http.server.chunks").total()
        _raw_exchange(server, address, name, "SELECT v FROM t")
        after = server.metrics.counter("http.server.chunks").total()
        assert after > before

    def test_streamed_rows_arrive_intact_via_pooled_client(self, http_setup):
        _, address, name, _ = http_setup
        transport = HttpTransport()
        client = SQLClient(transport)
        rowset = client.sql_query_rowset(address, name, "SELECT k, v FROM t")
        assert rowset.row_count == ROWS
        assert rowset.rows[0] == ("0", "value-0")
        assert rowset.rows[-1] == (str(ROWS - 1), f"value-{ROWS - 1}")
        assert rowset.types == ["INTEGER", "VARCHAR(20)"]
        transport.close()

    def test_connection_reusable_after_chunked_response(self, http_setup):
        _, address, name, _ = http_setup
        transport = HttpTransport()
        client = SQLClient(transport)
        for _ in range(3):
            rowset = client.sql_query_rowset(
                address, name, "SELECT v FROM t WHERE k < 10"
            )
            assert rowset.row_count == 10
        reused = transport.metrics.counter(
            "rpc.client.connections.reused"
        ).total()
        assert reused >= 2
        transport.close()

    def test_streamed_and_eager_bodies_agree(self, http_setup):
        """The same rows chunked out of the engine and emitted from
        memory (sorted by the key they already come in) are the same
        dataset bytes — the ones the oracle renderer states."""
        server, address, name, _ = http_setup
        sql = "SELECT k, v FROM t WHERE k < 25"
        streamed_reply, streamed_body = _raw_exchange(server, address, name, sql)
        eager_reply, eager_body = _raw_exchange(
            server, address, name, sql + " ORDER BY k"
        )
        assert streamed_reply.getheader("Transfer-Encoding") == "chunked"
        assert eager_reply.getheader("Transfer-Encoding") is None

        streamed = Envelope.from_bytes(streamed_body)
        eager = Envelope.from_bytes(eager_body)
        # Same dataset bytes modulo per-request MessageID/RelatesTo headers.
        dataset = serialize(streamed.payload.find(msg._q("SQLDataset")))
        assert dataset == serialize(eager.payload.find(msg._q("SQLDataset")))
        response = msg.SQLExecuteResponse.from_xml(eager.payload)
        rowset = Rowset(
            ["k", "v"],
            ["INTEGER", "VARCHAR(20)"],
            [(str(i), f"value-{i}") for i in range(25)],
        )
        assert serialize(response.dataset) == serialize(
            render_rowset(response.dataset_format_uri, rowset)
        )

    def test_streaming_disabled_service_uses_content_length(self):
        """What disables streaming is the statement: on a service that
        has only ever been asked pipeline breakers, every reply is
        framed by length and not one chunk is written."""
        registry = ServiceRegistry()
        server = DaisHttpServer(registry, port=0)
        address, name, _ = _build(registry, server)
        with server:
            reply, body = _raw_exchange(
                server, address, name, "SELECT DISTINCT v FROM t"
            )
            assert reply.getheader("Transfer-Encoding") is None
            assert int(reply.getheader("Content-Length")) == len(body)
            assert not Envelope.from_bytes(body).is_fault()
            assert server.metrics.counter("http.server.chunks").total() == 0
