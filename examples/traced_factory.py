"""One request, one connected trace: a Figure 3 factory chain over HTTP.

A consumer span wraps an ``SQLExecuteFactory`` and a ``GetSQLRowset``
on the derived resource, over a real HTTP socket with tracing on; the
script prints the resulting span tree (per-span latency, bytes and row
counts) and the resource lifecycle journal.

Run:  python examples/traced_factory.py
"""

from repro.client.sql import SQLClient
from repro.core import ServiceRegistry, mint_abstract_name
from repro.dair import SQLDataResource, SQLRealisationService
from repro.obs import get_tracer, render_trace_tree, use_exporter
from repro.obs.journal import use_journal
from repro.transport import DaisHttpServer, HttpTransport
from repro.workload import RelationalWorkload, populate_shop_database


def main() -> None:
    registry = ServiceRegistry()
    server = DaisHttpServer(registry, port=0)
    address = server.url_for("/sql")
    service = SQLRealisationService("demo-sql", address)
    registry.register(service)
    database = populate_shop_database(RelationalWorkload(customers=8))
    resource = SQLDataResource(mint_abstract_name("shop"), database)
    service.add_resource(resource)

    client = SQLClient(HttpTransport())
    with use_exporter() as exporter, use_journal() as journal, server:
        with get_tracer().span("consumer.request", scenario="fig3-demo"):
            factory = client.sql_execute_factory(
                address,
                resource.abstract_name,
                "SELECT id, total FROM orders WHERE total > 100",
            )
            rowset = client.get_sql_rowset(
                factory.address, factory.abstract_name
            )
        spans = exporter.spans()

    print("trace demo — Figure 3 factory chain over HTTP "
          f"({len(rowset.rows)} rows pulled via the derived EPR):\n")
    print(render_trace_tree(spans))
    print("\nlifecycle journal:")
    for event in journal.events():
        print(f"  #{event.sequence} {event.event:<12} {event.resource}")


if __name__ == "__main__":
    main()
