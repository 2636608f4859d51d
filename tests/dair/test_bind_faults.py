"""A bad column name is an ``InvalidExpressionFault`` on every path.

The streamed reply used to resolve names per row *while the chunked
body was being written*, so over real HTTP an unknown column tore the
connection down (``IncompleteRead``) instead of faulting, and on an
empty table it silently answered ``[]``.  Names now bind before the
first byte of the reply: loopback and HTTP, eager and streamed, rows or
no rows, all answer the same typed fault — and the keep-alive
connection that carried it is still good afterwards.
"""

import pytest

from repro.client.sql import SQLClient
from repro.core import ServiceRegistry, mint_abstract_name
from repro.core.faults import InvalidExpressionFault
from repro.dair import SQLDataResource, SQLRealisationService
from repro.relational import Database
from repro.transport import DaisHttpServer, HttpTransport, LoopbackTransport

BAD = [
    ("SELECT nosuch FROM customers", "unknown column 'nosuch'"),
    ("SELECT id FROM customers WHERE nosuch = 1", "unknown column 'nosuch'"),
    ("SELECT nosuch FROM e", "unknown column 'nosuch'"),  # empty table
    ("SELECT id FROM e ORDER BY nosuch", "unknown column 'nosuch'"),
    (
        "SELECT id FROM customers c JOIN e ON e.id = c.id",
        "ambiguous column reference 'id'",
    ),
]


def _database() -> Database:
    database = Database("faultdb")
    database.execute("CREATE TABLE customers (id INT PRIMARY KEY, name VARCHAR(20))")
    database.execute("INSERT INTO customers VALUES (1,'ann'),(2,'bob')")
    database.execute("CREATE TABLE e (id INT)")
    return database


@pytest.fixture(params=["eager", "streamed"])
def stream(request) -> bool:
    return request.param == "streamed"


@pytest.fixture(params=["loopback", "http"])
def consumer(request, stream):
    """(client, address, resource name, connections-opened probe)."""
    registry = ServiceRegistry()
    resource = SQLDataResource(mint_abstract_name("faults"), _database())
    if request.param == "loopback":
        service = SQLRealisationService("s", "dais://s", stream_datasets=stream)
        registry.register(service)
        service.add_resource(resource)
        yield SQLClient(LoopbackTransport(registry)), service.address, resource, None
        return
    server = DaisHttpServer(registry, port=0)
    service = SQLRealisationService(
        "s", server.url_for("/sql"), stream_datasets=stream
    )
    registry.register(service)
    service.add_resource(resource)
    with server:
        transport = HttpTransport()
        opened = transport.metrics.counter(
            "rpc.client.connections.created", "new TCP connections per host"
        )
        try:
            yield SQLClient(transport), service.address, resource, opened.total
        finally:
            transport.close()


@pytest.mark.parametrize("sql, message", BAD)
def test_bad_name_is_a_typed_fault_and_the_connection_survives(
    consumer, sql, message
):
    client, address, resource, connections_opened = consumer
    good = "SELECT id FROM customers"
    assert client.sql_query_rowset(address, resource.abstract_name, good).rows
    with pytest.raises(InvalidExpressionFault, match="CatalogError") as caught:
        client.sql_query_rowset(address, resource.abstract_name, sql)
    assert message in str(caught.value)
    after = client.sql_query_rowset(address, resource.abstract_name, good)
    assert after.rows == [("1",), ("2",)]
    if connections_opened is not None:
        assert connections_opened() == 1  # the fault rode, and left, keep-alive
