"""Figure 6 — the full WS-DAI + WS-DAIR operation inventory.

Paper content: the class diagram enumerating every operation of the
five WS-DAIR port types plus the core interfaces.  The reproduction is a
*conformance matrix*: every operation of Figure 6 is invoked through the
wire and reported with its latency and response size.  The benchmark
fails if any operation of the figure is missing.
"""

import time

from benchmarks.harness import Table
from repro.core.namespaces import WSDAI_NS
from repro.xmlutil import QName

#: Operation inventory exactly as drawn in Figure 6.
FIGURE6_OPERATIONS = [
    ("CoreResourceList", "GetResourceList"),
    ("CoreResourceList", "Resolve"),
    ("CoreDataAccess", "DestroyDataResource"),
    ("CoreDataAccess", "GenericQuery"),
    ("CoreDataAccess", "GetDataResourcePropertyDocument"),
    ("SQLAccess", "GetSQLPropertyDocument"),
    ("SQLAccess", "SQLExecute"),
    ("SQLFactory", "SQLExecuteFactory"),
    ("ResponseAccess", "GetSQLCommunicationArea"),
    ("ResponseAccess", "GetSQLOutputParameter"),
    ("ResponseAccess", "GetSQLResponseItem"),
    ("ResponseAccess", "GetSQLResponsePropertyDocument"),
    ("ResponseAccess", "GetSQLReturnValue"),
    ("ResponseAccess", "GetSQLRowset"),
    ("ResponseAccess", "GetSQLUpdateCount"),
    ("ResponseFactory", "GetSQLRowsetFactory"),
    ("RowsetAccess", "GetRowsetPropertyDocument"),
    ("RowsetAccess", "GetTuples"),
]


def test_fig6_operation_matrix(benchmark, single):
    table = Table(
        "Figure 6 — operation conformance matrix",
        ["port type", "operation", "ms", "response bytes"],
        note="every Figure 6 operation invoked through the wire",
    )
    covered: set = set()

    def call(port_type, operation, fn):
        stats = single.client.transport.stats
        stats.reset()
        start = time.perf_counter()
        fn()
        elapsed = (time.perf_counter() - start) * 1e3
        table.add(
            port_type, operation, f"{elapsed:8.2f}",
            stats.calls[-1].response_bytes,
        )
        covered.add((port_type, operation))

    def run_matrix():
        client = single.client
        address, name = single.address, single.name
        from repro.core.namespaces import SQL_LANGUAGE_URI

        call("CoreResourceList", "GetResourceList",
             lambda: client.list_resources(address))
        call("CoreResourceList", "Resolve",
             lambda: client.resolve(address, name))
        call("CoreDataAccess", "GenericQuery",
             lambda: client.generic_query(
                 address, name, SQL_LANGUAGE_URI, "SELECT COUNT(*) FROM orders"))
        call("CoreDataAccess", "GetDataResourcePropertyDocument",
             lambda: client.get_property_document(address, name))
        call("SQLAccess", "GetSQLPropertyDocument",
             lambda: client.get_sql_property_document(address, name))
        call("SQLAccess", "SQLExecute",
             lambda: client.sql_execute(
                 address, name, "SELECT id FROM customers LIMIT 5"))

        factory = [None]

        def run_factory():
            factory[0] = client.sql_execute_factory(
                address, name, "SELECT id, total FROM orders LIMIT 50"
            )

        call("SQLFactory", "SQLExecuteFactory", run_factory)
        epr, derived = factory[0].address, factory[0].abstract_name

        call("ResponseAccess", "GetSQLResponsePropertyDocument",
             lambda: client.get_sql_response_property_document(epr, derived))
        call("ResponseAccess", "GetSQLRowset",
             lambda: client.get_sql_rowset(epr, derived))
        call("ResponseAccess", "GetSQLUpdateCount",
             lambda: client.get_sql_update_count(epr, derived))
        call("ResponseAccess", "GetSQLCommunicationArea",
             lambda: client.get_sql_communication_area(epr, derived))
        call("ResponseAccess", "GetSQLReturnValue",
             lambda: client.get_sql_return_value(epr, derived))
        call("ResponseAccess", "GetSQLOutputParameter",
             lambda: client.get_sql_output_parameter(epr, derived, "p1"))
        call("ResponseAccess", "GetSQLResponseItem",
             lambda: client.get_sql_response_items(epr, derived))

        rowset_factory = [None]

        def run_rowset_factory():
            rowset_factory[0] = client.sql_rowset_factory(epr, derived)

        call("ResponseFactory", "GetSQLRowsetFactory", run_rowset_factory)
        rowset_epr = rowset_factory[0].address
        rowset_name = rowset_factory[0].abstract_name

        call("RowsetAccess", "GetRowsetPropertyDocument",
             lambda: client.get_rowset_property_document(rowset_epr, rowset_name))
        call("RowsetAccess", "GetTuples",
             lambda: client.get_tuples(rowset_epr, rowset_name, 0, 20))
        call("CoreDataAccess", "DestroyDataResource",
             lambda: client.destroy(rowset_epr.address, rowset_name))

    benchmark.pedantic(run_matrix, rounds=1, iterations=1)
    table.show()

    missing = set(FIGURE6_OPERATIONS) - covered
    assert not missing, f"Figure 6 operations not exercised: {missing}"


def test_fig6_cheapest_op_latency(benchmark, single):
    factory = single.client.sql_execute_factory(
        single.address, single.name, "SELECT 1"
    )
    benchmark(
        lambda: single.client.get_sql_update_count(
            factory.address, factory.abstract_name
        )
    )


def test_fig6_property_doc_op_latency(benchmark, single):
    benchmark(
        lambda: single.client.get_sql_property_document(
            single.address, single.name
        )
    )
