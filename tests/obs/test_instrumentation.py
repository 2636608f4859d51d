"""End-to-end: spans and metrics across dispatch, transports and engines.

These are the acceptance tests for the observability layer: every
dispatched operation (loopback and HTTP) yields a span tree carrying the
action, the resource abstract name, a duration and byte counts; SQL and
XPath evaluations contribute operator-level counters; and a consumer can
read a service's live metrics through the spec's own property
operations, including WSRF ``GetResourceProperty``.
"""

import pytest

from repro.client.sql import SQLClient
from repro.core import ServiceRegistry, mint_abstract_name
from repro.dair import SQLDataResource, SQLRealisationService
from repro.obs import (
    OBS_NS,
    SERVICE_METRICS,
    counters_from_element,
    histograms_from_element,
    use_exporter,
)
from repro.relational import Database
from repro.transport import DaisHttpServer, HttpTransport
from repro.workload import RelationalWorkload, build_single_service
from repro.xmlutil import QName
from tests.obs.traces import summarize_spans

WORKLOAD = RelationalWorkload(customers=6, orders_per_customer=2, items_per_order=2)


@pytest.fixture()
def deployment():
    return build_single_service(WORKLOAD)


class TestLoopbackSpans:
    def test_dispatch_span_carries_action_resource_duration(self, deployment):
        with use_exporter() as exporter:
            deployment.client.sql_execute(
                deployment.address, deployment.name, "SELECT * FROM customers"
            )
        (dispatch,) = exporter.spans("dais.dispatch")
        assert dispatch.attributes["service"] == deployment.service.name
        assert "SQLExecute" in dispatch.attributes["action"]
        assert dispatch.attributes["resource"] == deployment.name
        assert dispatch.duration_seconds > 0
        assert dispatch.status == "ok"

    def test_span_tree_nests_transport_dispatch_handler_engine(self, deployment):
        with use_exporter() as exporter:
            deployment.client.sql_execute(
                deployment.address, deployment.name, "SELECT * FROM customers"
            )
        send = exporter.spans("rpc.send")[0]
        dispatch = exporter.spans("dais.dispatch")[0]
        handler = exporter.spans("dais.handler")[0]
        select = exporter.spans("sql.select")[0]
        assert send.parent_id is None
        assert dispatch.parent_id == send.span_id
        assert handler.parent_id == dispatch.span_id
        assert select.parent_id == handler.span_id
        assert {send.trace_id, dispatch.trace_id, handler.trace_id} == {
            send.trace_id
        }

    def test_transport_span_byte_counts_match_wire_stats(self, deployment):
        with use_exporter() as exporter:
            deployment.client.sql_execute(
                deployment.address, deployment.name, "SELECT * FROM orders"
            )
        (send,) = exporter.spans("rpc.send")
        record = deployment.client.transport.stats.calls[-1]
        assert send.attributes["request_bytes"] == record.request_bytes
        assert send.attributes["response_bytes"] == record.response_bytes
        assert send.attributes["transport"] == "loopback"

    def test_sql_span_reports_operator_row_counts(self, deployment):
        with use_exporter() as exporter:
            deployment.client.sql_execute(
                deployment.address,
                deployment.name,
                "SELECT c.name, o.total FROM customers c "
                "JOIN orders o ON o.customer_id = c.id WHERE o.total > 0",
            )
        (select,) = exporter.spans("sql.select")
        attrs = select.attributes
        assert attrs["rows_scanned"] > 0
        assert attrs["hash_joins"] == 1
        assert attrs["join_rows"] > 0
        assert attrs["rows_out"] > 0

    def test_fault_dispatch_marks_span_and_counts(self, deployment):
        from repro.core import InvalidResourceNameFault

        with use_exporter() as exporter:
            with pytest.raises(InvalidResourceNameFault):
                deployment.client.sql_execute(
                    deployment.address, "urn:ghost:1", "SELECT 1"
                )
        (dispatch,) = exporter.spans("dais.dispatch")
        assert dispatch.status == "fault"
        assert (
            deployment.service.metrics.counter("dais.dispatch.faults").total()
            == 1
        )

    def test_rollup_totals_cover_both_legs(self, deployment):
        with use_exporter() as exporter:
            for _ in range(3):
                deployment.client.sql_execute(
                    deployment.address, deployment.name, "SELECT * FROM orders"
                )
        rollups = summarize_spans(exporter.spans())
        stats = deployment.client.transport.stats
        assert rollups["rpc.send"].count == 3
        assert rollups["rpc.send"].total("request_bytes") == stats.bytes_sent
        assert rollups["rpc.send"].total("response_bytes") == stats.bytes_received
        assert rollups["dais.dispatch"].count == 3


class TestXPathSpans:
    def test_xpath_evaluation_traced(self):
        from repro.xpath import XPathEngine
        from repro.xmlutil import E

        root = E("doc", E("item", "a"), E("item", "b"))
        with use_exporter() as exporter:
            result = XPathEngine().evaluate("//item", root)
        (span,) = exporter.spans("xpath.evaluate")
        assert span.attributes["expression"] == "//item"
        assert span.attributes["result_nodes"] == len(result) == 2


class TestMetricsThroughProperties:
    def test_property_document_carries_live_metrics(self, deployment):
        client = deployment.client
        client.sql_execute(deployment.address, deployment.name, "SELECT 1")
        document = client.get_property_document(
            deployment.address, deployment.name
        )
        element = document.find(SERVICE_METRICS)
        assert element is not None
        counters = counters_from_element(element)
        dispatched = sum(
            value
            for (name, _), value in counters.items()
            if name == "dais.dispatch.count"
        )
        assert dispatched >= 1
        histograms = histograms_from_element(element)
        assert any(
            name == "dais.dispatch.seconds" and stats.count >= 1
            for (name, _), stats in histograms.items()
        )

    def test_wsrf_get_resource_property_reads_metrics(self):
        deployment = build_single_service(WORKLOAD, wsrf=True)
        client = deployment.client
        client.sql_execute(deployment.address, deployment.name, "SELECT 1")
        before = client.get_resource_property(
            deployment.address, deployment.name, SERVICE_METRICS
        )
        assert len(before) == 1
        counters = counters_from_element(before[0])
        count_before = sum(
            value
            for (name, _), value in counters.items()
            if name == "dais.dispatch.count"
        )
        # Another dispatch moves the live counter the next read observes.
        client.sql_execute(deployment.address, deployment.name, "SELECT 2")
        after = client.get_resource_property(
            deployment.address, deployment.name, SERVICE_METRICS
        )
        count_after = sum(
            value
            for (name, _), value in counters_from_element(after[0]).items()
            if name == "dais.dispatch.count"
        )
        assert count_after >= count_before + 2  # the SELECT + the read itself

    def test_metrics_queryable_via_xpath_dialect(self):
        deployment = build_single_service(
            WORKLOAD, wsrf=True
        )
        deployment.service._property_namespaces["obs"] = OBS_NS
        client = deployment.client
        client.sql_execute(deployment.address, deployment.name, "SELECT 1")
        results = client.query_resource_properties(
            deployment.address,
            deployment.name,
            "//obs:ServiceMetrics/obs:Counter",
        )
        assert results
        assert all(node.tag == QName(OBS_NS, "Counter") for node in results)


class TestLifecycleJournalThroughProperties:
    def test_derived_resource_lifecycle_readable_via_property_document(self):
        from repro.obs import LIFECYCLE_JOURNAL, events_from_element, use_journal

        deployment = build_single_service(WORKLOAD)
        client = deployment.client
        with use_journal():
            factory = client.sql_execute_factory(
                deployment.address, deployment.name, "SELECT * FROM customers"
            )
            document = client.get_sql_response_property_document(
                factory.address, factory.abstract_name
            )
        element = document.find(LIFECYCLE_JOURNAL)
        assert element is not None
        events = events_from_element(element)
        assert [e.event for e in events] == ["created"]
        assert events[0].resource == factory.abstract_name
        assert events[0].detail["type"] == "SQLResponseResource"

    def test_wsrf_lifetime_transitions_reach_the_journal(self):
        from repro.obs import use_journal

        deployment = build_single_service(WORKLOAD, wsrf=True)
        client = deployment.client
        with use_journal() as journal:
            factory = client.sql_execute_factory(
                deployment.address, deployment.name, "SELECT 1"
            )
            client.set_termination_time(
                deployment.address, factory.abstract_name, None
            )
            client.destroy(deployment.address, factory.abstract_name)
        events = [
            e.event for e in journal.events(resource=factory.abstract_name)
        ]
        assert events[0] == "created"
        assert "lifetime-registered" in events
        assert "termination-set" in events
        assert events[-1] == "destroyed"

    def test_journal_events_carry_the_creating_trace(self):
        from repro.obs import use_journal

        deployment = build_single_service(WORKLOAD)
        client = deployment.client
        with use_exporter() as exporter, use_journal() as journal:
            factory = client.sql_execute_factory(
                deployment.address, deployment.name, "SELECT 1"
            )
        (created,) = journal.events(
            resource=factory.abstract_name, event="created"
        )
        handler_ids = {span.span_id for span in exporter.spans("dais.handler")}
        assert created.span_id in handler_ids
        assert created.trace_id == exporter.spans("dais.handler")[0].trace_id

    def test_dropped_span_count_surfaces_in_service_metrics(self):
        from repro.obs import InMemoryExporter, counters_from_element

        deployment = build_single_service(WORKLOAD)
        client = deployment.client
        with use_exporter(InMemoryExporter(capacity=1)):
            for _ in range(3):
                client.sql_execute(
                    deployment.address, deployment.name, "SELECT 1"
                )
            document = client.get_property_document(
                deployment.address, deployment.name
            )
        counters = counters_from_element(document.find(SERVICE_METRICS))
        assert counters[("obs.spans.dropped", ())] > 0


class TestHttpSpans:
    def test_http_binding_produces_server_and_client_spans(self):
        registry = ServiceRegistry()
        server = DaisHttpServer(registry, port=0)
        address = server.url_for("/obs")
        service = SQLRealisationService("obs-sql", address)
        registry.register(service)
        database = Database("obsdb")
        database.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        database.execute("INSERT INTO t VALUES (1),(2)")
        resource = SQLDataResource(mint_abstract_name("t"), database)
        service.add_resource(resource)

        with server, use_exporter() as exporter:
            client = SQLClient(HttpTransport())
            client.sql_query_rowset(
                address, resource.abstract_name, "SELECT id FROM t"
            )

        (send,) = exporter.spans("rpc.send")
        assert send.attributes["transport"] == "http"
        assert send.attributes["request_bytes"] > 0
        assert send.attributes["response_bytes"] > 0
        (http_span,) = exporter.spans("http.server.request")
        assert http_span.attributes["status"] == 200
        assert http_span.attributes["request_bytes"] == send.attributes[
            "request_bytes"
        ]
        # Server-side handler thread starts its own trace; the dispatch
        # span nests under the HTTP request span.
        (dispatch,) = exporter.spans("dais.dispatch")
        assert dispatch.parent_id == http_span.span_id
        assert dispatch.attributes["resource"] == resource.abstract_name
