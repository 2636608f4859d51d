"""Trace connectivity for the figure scenarios over real HTTP.

The distributed-tracing acceptance bar: each figure's message pattern,
run against the real SOAP-over-HTTP binding, yields exactly ONE
connected trace — the consumer-side root span is an ancestor of every
transport, dispatch, handler and engine span, with server-side handler
threads joining via the ``obs:TraceContext`` header.  The rendered span
tree is the figure's message diagram, measured rather than drawn.
"""

from tests.obs.traces import assert_single_connected_trace
from repro.client.sql import SQLClient
from repro.core import ServiceRegistry, mint_abstract_name
from repro.dair import SQLDataResource, SQLRealisationService
from repro.obs import (
    LIFECYCLE_JOURNAL,
    get_tracer,
    render_trace_tree,
    use_exporter,
)
from repro.relational import Database
from repro.transport import DaisHttpServer, HttpTransport
from repro.workload import RelationalWorkload, populate_shop_database
from repro.wsrf import ManualClock

WORKLOAD = RelationalWorkload(customers=20, orders_per_customer=3,
                              items_per_order=2)


def _http_deployment(wsrf=False, clock=None):
    registry = ServiceRegistry()
    server = DaisHttpServer(registry, port=0)
    address = server.url_for("/sql")
    service = SQLRealisationService(
        "fig-sql", address, wsrf=wsrf, clock=clock
    )
    registry.register(service)
    resource = SQLDataResource(
        mint_abstract_name("shop"), populate_shop_database(WORKLOAD)
    )
    service.add_resource(resource)
    return server, service, address, resource


def _show(title, spans):
    print(f"\n== {title} ==")
    print(render_trace_tree(spans))


def test_fig1_direct_and_indirect_single_trace_over_http(benchmark):
    server, _, address, resource = _http_deployment()
    client = SQLClient(HttpTransport())

    def scenario():
        with use_exporter() as exporter:
            with get_tracer().span("consumer.request", figure="fig1"):
                client.sql_query_rowset(
                    address, resource.abstract_name, "SELECT * FROM orders"
                )
                factory = client.sql_execute_factory(
                    address, resource.abstract_name, "SELECT * FROM orders"
                )
                client.get_sql_rowset(factory.address, factory.abstract_name)
        return exporter.spans()

    with server:
        spans = benchmark.pedantic(scenario, rounds=1, iterations=1)
    root = assert_single_connected_trace(spans, root_name="consumer.request")
    _show("Figure 1 over HTTP — one connected trace", spans)
    # Direct + factory + pull: three wire exchanges, all inside the trace.
    assert len([s for s in spans if s.name == "rpc.send"]) == 3
    assert len([s for s in spans if s.name == "http.server.request"]) == 3
    assert all(
        span.trace_id == root.trace_id for span in spans
    )


def test_fig3_factory_chain_single_trace_over_http(benchmark):
    server, _, address, resource = _http_deployment()
    client = SQLClient(HttpTransport())

    def scenario():
        with use_exporter() as exporter:
            with get_tracer().span("consumer.request", figure="fig3"):
                factory = client.sql_execute_factory(
                    address, resource.abstract_name,
                    "SELECT id, total FROM orders WHERE total > 100",
                )
                client.get_sql_response_property_document(
                    factory.address, factory.abstract_name
                )
                client.get_sql_rowset(factory.address, factory.abstract_name)
        return exporter.spans()

    with server:
        spans = benchmark.pedantic(scenario, rounds=1, iterations=1)
    assert_single_connected_trace(spans, root_name="consumer.request")
    _show("Figure 3 over HTTP — one connected trace", spans)
    # The factory's engine work (sql.select) is in the SAME trace as the
    # later pulls against the derived resource.
    assert [s.name for s in spans].count("sql.select") >= 1
    dispatches = [s for s in spans if s.name == "dais.dispatch"]
    assert len(dispatches) == 3


def test_fig7_wsrf_lifetime_single_trace_over_http(benchmark):
    clock = ManualClock(0.0)
    server, service, address, resource = _http_deployment(
        wsrf=True, clock=clock
    )
    client = SQLClient(HttpTransport())

    def scenario():
        with use_exporter() as exporter:
            with get_tracer().span("consumer.request", figure="fig7"):
                factory = client.sql_execute_factory(
                    address, resource.abstract_name, "SELECT 1"
                )
                client.set_termination_time(
                    address, factory.abstract_name, 30.0
                )
                client.get_resource_property(
                    address, factory.abstract_name, LIFECYCLE_JOURNAL
                )
                client.destroy(address, factory.abstract_name)
        return exporter.spans()

    with server:
        spans = benchmark.pedantic(scenario, rounds=1, iterations=1)
    assert_single_connected_trace(spans, root_name="consumer.request")
    _show("Figure 7 over HTTP — one connected trace", spans)
    dispatches = [s for s in spans if s.name == "dais.dispatch"]
    assert len(dispatches) == 4
