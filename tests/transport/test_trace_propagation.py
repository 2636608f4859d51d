"""Cross-process trace propagation: one request, one connected trace.

The acceptance shape for the distributed-tracing layer: with tracing on,
a consumer-side root span is the ancestor of every transport, dispatch,
handler and engine span — over the loopback binding (shared thread, the
context variable chain carries the trace) AND over real HTTP (fresh
handler threads join via the ``obs:TraceContext`` header).  Derived
resources record their creating trace, and an access from a *different*
trace carries a ``created-by`` span link.
"""

from repro.client.sql import SQLClient
from repro.core import ServiceRegistry, mint_abstract_name
from repro.dair import SQLDataResource, SQLRealisationService
from repro.obs import get_tracer, use_exporter
from repro.relational import Database
from repro.transport import DaisHttpServer, HttpTransport
from repro.workload import RelationalWorkload, build_single_service
from tests.obs.traces import assert_single_connected_trace, trace_forest

WORKLOAD = RelationalWorkload(customers=4, orders_per_customer=2,
                              items_per_order=2)


def _http_deployment():
    registry = ServiceRegistry()
    server = DaisHttpServer(registry, port=0)
    address = server.url_for("/sql")
    service = SQLRealisationService("prop-sql", address)
    registry.register(service)
    database = Database("propdb")
    database.execute("CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(10))")
    database.execute("INSERT INTO t VALUES (1,'a'),(2,'b'),(3,'c')")
    resource = SQLDataResource(mint_abstract_name("t"), database)
    service.add_resource(resource)
    return server, address, resource


class TestLoopbackPropagation:
    def test_consumer_root_spans_form_one_connected_trace(self):
        deployment = build_single_service(WORKLOAD)
        with use_exporter() as exporter:
            with get_tracer().span("consumer.request"):
                factory = deployment.client.sql_execute_factory(
                    deployment.address, deployment.name,
                    "SELECT * FROM orders",
                )
                deployment.client.get_sql_rowset(
                    factory.address, factory.abstract_name
                )
        root = assert_single_connected_trace(
            exporter.spans(), root_name="consumer.request"
        )
        names = {span.name for span in exporter.spans()}
        assert {"rpc.send", "dais.dispatch", "dais.handler",
                "sql.select"} <= names
        assert root.parent_id is None


class TestHttpPropagation:
    def test_handler_thread_joins_consumer_trace_via_header(self):
        server, address, resource = _http_deployment()
        with server, use_exporter() as exporter:
            client = SQLClient(HttpTransport())
            with get_tracer().span("consumer.request"):
                factory = client.sql_execute_factory(
                    address, resource.abstract_name,
                    "SELECT id FROM t ORDER BY id",
                )
                rowset = client.get_sql_rowset(
                    factory.address, factory.abstract_name
                )
        assert rowset.rows == [("1",), ("2",), ("3",)]
        root = assert_single_connected_trace(
            exporter.spans(), root_name="consumer.request"
        )
        # The server-side spans really did cross the wire into the trace.
        for http_span in exporter.spans("http.server.request"):
            assert http_span.trace_id == root.trace_id
            assert http_span.attributes["remote_parent"] is True
            assert http_span.parent_id is not None

    def test_without_consumer_span_each_call_is_its_own_trace(self):
        server, address, resource = _http_deployment()
        with server, use_exporter() as exporter:
            client = SQLClient(HttpTransport())
            client.sql_query_rowset(
                address, resource.abstract_name, "SELECT id FROM t"
            )
            client.sql_query_rowset(
                address, resource.abstract_name, "SELECT v FROM t"
            )
        forest = trace_forest(exporter.spans())
        assert len(forest) == 2
        for spans in forest.values():
            assert_single_connected_trace(spans, root_name="rpc.send")


class TestCreatedByLinks:
    def test_access_from_another_trace_links_to_creating_trace(self):
        deployment = build_single_service(WORKLOAD)
        client = deployment.client
        with use_exporter() as exporter:
            with get_tracer().span("consumer.one") as creator:
                factory = client.sql_execute_factory(
                    deployment.address, deployment.name,
                    "SELECT * FROM customers",
                )
            with get_tracer().span("consumer.two"):
                client.get_sql_rowset(factory.address, factory.abstract_name)
        dispatches = [
            span
            for span in exporter.spans("dais.dispatch")
            if span.attributes.get("resource") == factory.abstract_name
        ]
        assert dispatches, "no dispatch targeted the derived resource"
        linked = [span for span in dispatches if span.links]
        assert linked, "cross-trace access recorded no created-by link"
        (link,) = linked[-1].links
        assert link.relation == "created-by"
        assert link.trace_id == creator.trace_id
        assert link.trace_id != linked[-1].trace_id

    def test_same_trace_access_records_no_link(self):
        deployment = build_single_service(WORKLOAD)
        client = deployment.client
        with use_exporter() as exporter:
            with get_tracer().span("consumer.request"):
                factory = client.sql_execute_factory(
                    deployment.address, deployment.name,
                    "SELECT * FROM customers",
                )
                client.get_sql_rowset(factory.address, factory.abstract_name)
        for span in exporter.spans("dais.dispatch"):
            assert span.links == []

    def test_untraced_creation_yields_no_link(self):
        deployment = build_single_service(WORKLOAD)
        client = deployment.client
        # Factory runs with tracing off: the resource has no creating trace.
        factory = client.sql_execute_factory(
            deployment.address, deployment.name, "SELECT * FROM customers"
        )
        with use_exporter() as exporter:
            with get_tracer().span("consumer.later"):
                client.get_sql_rowset(factory.address, factory.abstract_name)
        for span in exporter.spans("dais.dispatch"):
            assert span.links == []
