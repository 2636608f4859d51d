"""Failure injection and robustness across the stack."""

import pytest

from repro.client.sql import SQLClient
from repro.core import (
    DataResourceUnavailableFault,
    InvalidExpressionFault,
    ServiceBusyFault,
    mint_abstract_name,
)
from repro.soap import Envelope, FaultCode, MessageHeaders, SoapFault
from repro.transport import LoopbackTransport
from repro.workload import RelationalWorkload, build_single_service
from repro.xmlutil import E
from tests.faultinject.faults import UnavailableSQLDataResource

WORKLOAD = RelationalWorkload(customers=5)


@pytest.fixture()
def deployment():
    return build_single_service(WORKLOAD)


class TestServiceFailures:
    def test_busy_service_faults_every_operation(self, deployment):
        deployment.service.max_concurrent = 0  # admission refuses every call
        with pytest.raises(ServiceBusyFault):
            deployment.client.sql_execute(
                deployment.address, deployment.name, "SELECT 1"
            )
        with pytest.raises(ServiceBusyFault):
            deployment.client.list_resources(deployment.address)
        deployment.service.max_concurrent = None
        assert deployment.client.list_resources(deployment.address)

    def test_unavailable_resource_recovers(self, deployment):
        resource = UnavailableSQLDataResource(
            mint_abstract_name("gone"), deployment.database
        )
        deployment.service.add_resource(resource)
        resource.available = False
        with pytest.raises(DataResourceUnavailableFault):
            deployment.client.sql_execute(
                deployment.address, resource.abstract_name, "SELECT 1"
            )
        resource.available = True
        response = deployment.client.sql_execute(
            deployment.address, resource.abstract_name, "SELECT 1"
        )
        assert response.communication.succeeded

    def test_fault_leaves_service_usable(self, deployment):
        for _ in range(3):
            with pytest.raises(InvalidExpressionFault):
                deployment.client.sql_execute(
                    deployment.address, deployment.name, "NOT SQL AT ALL"
                )
        rowset = deployment.client.sql_query_rowset(
            deployment.address, deployment.name, "SELECT COUNT(*) FROM customers"
        )
        assert rowset.rows == [("5",)]

    def test_failed_statement_does_not_leak_locks(self, deployment):
        with pytest.raises(InvalidExpressionFault):
            deployment.client.sql_execute(
                deployment.address,
                deployment.name,
                "INSERT INTO customers VALUES (1, 'dup', 'emea', 'retail')",
            )
        # The autocommit transaction rolled back and released its locks.
        assert deployment.database.transactions.active_count() == 0
        response = deployment.client.sql_execute(
            deployment.address,
            deployment.name,
            "UPDATE customers SET segment = 'ok' WHERE id = 1",
        )
        assert response.update_count == 1

    def test_internal_error_becomes_server_fault(self, deployment):
        def exploding_handler(payload, headers):
            raise RuntimeError("wrapped backend blew up")

        deployment.service.register_operation("urn:explode", exploding_handler)
        transport = deployment.client.transport
        response = transport.send(
            deployment.address,
            Envelope(
                headers=MessageHeaders(to=deployment.address, action="urn:explode"),
                payload=E("Boom"),
            ),
        )
        assert response.is_fault()
        with pytest.raises(SoapFault) as err:
            response.raise_if_fault()
        assert err.value.code is FaultCode.SERVER
        assert "internal error" in str(err.value)


class TestWireRobustness:
    def test_malformed_xml_rejected_at_parse(self):
        with pytest.raises(Exception):
            Envelope.from_bytes(b"<Envelope><unclosed>")

    def test_non_envelope_rejected(self):
        from repro.xmlutil import serialize_bytes

        with pytest.raises(SoapFault):
            Envelope.from_bytes(serialize_bytes(E("NotSoap")))

    def test_missing_abstract_name_faults_typed(self, deployment):
        from repro.dair.messages import SQLExecuteRequest

        bare = E(SQLExecuteRequest.TAG)  # no DataResourceAbstractName
        response = deployment.client.transport.send(
            deployment.address,
            Envelope(
                headers=MessageHeaders(
                    to=deployment.address, action=SQLExecuteRequest.action()
                ),
                payload=bare,
            ),
        )
        from repro.core import InvalidResourceNameFault

        with pytest.raises(InvalidResourceNameFault):
            response.raise_if_fault()

    def test_http_malformed_body_returns_500(self):
        import urllib.error
        import urllib.request

        from repro.core import ServiceRegistry
        from repro.transport import DaisHttpServer

        with DaisHttpServer(ServiceRegistry(), port=0) as server:
            request = urllib.request.Request(
                server.url_for("/x"), data=b"not xml", method="POST"
            )
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(request, timeout=5)
            assert err.value.code == 500


class TestConcurrentConsumers:
    def test_isolation_conflict_surfaces_as_fault(self, deployment):
        """A reader at REPEATABLE READ blocks a writer — over the wire the
        writer sees a typed InvalidExpressionFault wrapping 40001."""
        session = deployment.database.create_session()
        session.execute("BEGIN ISOLATION LEVEL REPEATABLE READ")
        session.execute("SELECT COUNT(*) FROM customers")
        try:
            with pytest.raises(InvalidExpressionFault, match="40001"):
                deployment.client.sql_execute(
                    deployment.address,
                    deployment.name,
                    "UPDATE customers SET segment = 'blocked'",
                )
        finally:
            session.execute("COMMIT")
        # After the reader commits, the writer proceeds.
        response = deployment.client.sql_execute(
            deployment.address,
            deployment.name,
            "UPDATE customers SET segment = 'after'",
        )
        assert response.update_count == WORKLOAD.customers

    def test_many_consumers_share_one_resource(self, deployment):
        clients = [
            SQLClient(LoopbackTransport(deployment.registry)) for _ in range(5)
        ]
        results = {
            client.sql_query_rowset(
                deployment.address, deployment.name,
                "SELECT COUNT(*) FROM orders",
            ).rows[0][0]
            for client in clients
        }
        assert len(results) == 1


class TestInjectedFaultMetrics:
    """Server-side chaos must show up in the operator's counters: an
    injected 503, Busy, ExpireResource or dropped response is still a
    served POST as far as ``http.server.requests`` is concerned."""

    def test_injected_faults_increment_server_metrics(self):
        from repro.core import ServiceRegistry, TransportFault, mint_abstract_name
        from repro.dair import SQLDataResource, SQLRealisationService
        from repro.relational import Database
        from repro.transport import HttpTransport
        from repro.wsrf.faults import ResourceUnknownFault
        from tests.faultinject.faults import (
            Busy,
            DropResponse,
            ExpireResource,
            FaultPlan,
            FaultyHttpServer,
            HttpStatus,
        )

        registry = ServiceRegistry()
        plan = (
            FaultPlan()
            .at(1, HttpStatus(503))
            .at(2, Busy())
            .at(3, ExpireResource())
            .at(4, DropResponse())
        )
        server = FaultyHttpServer(registry, port=0, fault_plan=plan)
        address = server.url_for("/chaos")
        service = SQLRealisationService("chaos-sql", address)
        registry.register(service)
        database = Database("chaosdb")
        database.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        database.execute("INSERT INTO t VALUES (1)")
        resource = SQLDataResource(mint_abstract_name("t"), database)
        service.add_resource(resource)

        with server:
            client = SQLClient(HttpTransport())

            def call():
                return client.sql_execute(
                    address, resource.abstract_name, "SELECT id FROM t"
                )

            with pytest.raises(TransportFault):  # injected 503, text body
                call()
            with pytest.raises(ServiceBusyFault):  # injected SOAP Busy
                call()
            with pytest.raises(ResourceUnknownFault):  # injected expiry
                call()
            with pytest.raises(TransportFault):  # dropped response
                call()
            assert call().communication.succeeded  # plan exhausted

        requests = server.metrics.counter("http.server.requests")
        assert requests.value(status="503") == 1
        assert requests.value(status="500") == 2
        assert requests.value(status="dropped") == 1
        assert requests.value(status="200") == 1
        assert requests.total() == 5
        # injected bodies are accounted like organic ones
        assert server.metrics.counter("http.server.response.bytes").total() > 0
        assert server.metrics.counter("http.server.request.bytes").total() > 0
