"""A statement that cannot be answered is an ``InvalidExpressionFault``
on every path.

*A bad name.*  The streamed reply used to resolve names per row *while
the chunked body was being written*, so over real HTTP an unknown column
tore the connection down (``IncompleteRead``) instead of faulting, and
on an empty table it silently answered ``[]``.  Names now bind before
the first byte of the reply.

*A bad row.*  A value the statement cannot produce (``'abc'`` under a
``CAST … AS INT``, a string under ``ABS``) is met while rows are pulled.
When the plan holds every row before the first leaves, that is inside
dispatch; when it streams, it is while the reply is written — and as
long as nothing has been written (the first flush is the commit point),
the reply is still a fault envelope.

Either way: loopback and HTTP, rows or no rows, answer the same typed
fault — and the keep-alive connection that carried it is still good
afterwards.  Which path a statement takes is decided by what it asks,
so the eager/streamed axis below is the statement itself: as written
(every statement here streams) or sorted (a pipeline breaker).
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


#: (statement, SQL error class, message) — the third row is the bad one.
BAD_ROWS = [
    ("SELECT CAST(v AS INT) FROM r", "SqlTypeError", "cannot coerce 'abc'"),
    ("SELECT ABS(v) FROM r", "SqlTypeError", "ABS requires a numeric argument"),
]


def _database() -> Database:
    database = Database("faultdb")
    database.execute("CREATE TABLE customers (id INT PRIMARY KEY, name VARCHAR(20))")
    database.execute("INSERT INTO customers VALUES (1,'ann'),(2,'bob')")
    database.execute("CREATE TABLE e (id INT)")
    database.execute("CREATE TABLE r (k INT PRIMARY KEY, v VARCHAR(8))")
    database.execute("INSERT INTO r VALUES (1,'1'),(2,'2'),(3,'abc')")
    return database


@pytest.fixture(params=["eager", "streamed"])
def asked(request):
    """The statement as this leg asks it: ``streamed`` as written,
    ``eager`` sorted, so the engine holds every row before the first
    leaves and the reply is framed by length."""
    if request.param == "streamed":
        return lambda sql: sql
    return lambda sql: sql if "ORDER BY" in sql else sql + " ORDER BY 1"


@pytest.fixture(params=["loopback", "http"])
def consumer(request, asked):
    """(query, connections-opened probe); ``query(sql)`` asks the
    statement the way this leg does and returns the rowset."""
    registry = ServiceRegistry()
    resource = SQLDataResource(mint_abstract_name("faults"), _database())

    def deployed(service, transport):
        registry.register(service)
        service.add_resource(resource)
        client = SQLClient(transport)
        return lambda sql: client.sql_query_rowset(
            service.address, resource.abstract_name, asked(sql)
        )

    if request.param == "loopback":
        service = SQLRealisationService("s", "dais://s")
        yield deployed(service, LoopbackTransport(registry)), None
        return
    server = DaisHttpServer(registry, port=0)
    service = SQLRealisationService("s", server.url_for("/sql"))
    with server:
        transport = HttpTransport()
        opened = transport.metrics.counter(
            "rpc.client.connections.created", "new TCP connections per host"
        )
        try:
            yield deployed(service, transport), opened.total
        finally:
            transport.close()


@pytest.mark.parametrize("sql, message", BAD)
def test_bad_name_is_a_typed_fault_and_the_connection_survives(
    consumer, sql, message
):
    query, connections_opened = consumer
    good = "SELECT id FROM customers"
    assert query(good).rows
    with pytest.raises(InvalidExpressionFault, match="CatalogError") as caught:
        query(sql)
    assert message in str(caught.value)
    assert query(good).rows == [("1",), ("2",)]
    if connections_opened is not None:
        assert connections_opened() == 1  # the fault rode, and left, keep-alive


@pytest.mark.parametrize("sql, error, message", BAD_ROWS)
def test_bad_row_is_a_typed_fault_and_the_connection_survives(
    consumer, sql, error, message
):
    """Two good rows come first, so a streamed reply has already begun
    to be rendered when the error is met — but not to be written."""
    query, connections_opened = consumer
    good = "SELECT k FROM r"
    assert query(good).rows
    with pytest.raises(InvalidExpressionFault, match=error) as caught:
        query(sql)
    assert message in str(caught.value)
    assert query(good).rows == [("1",), ("2",), ("3",)]
    if connections_opened is not None:
        assert connections_opened() == 1
