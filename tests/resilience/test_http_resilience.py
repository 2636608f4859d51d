"""Resilience over the real HTTP binding: server-armed fault plans,
timeout mapping, and retry/breaker behaviour across actual sockets."""

import pytest

from repro.client.sql import SQLClient
from repro.core import (
    ServiceBusyFault,
    ServiceRegistry,
    TransportFault,
    mint_abstract_name,
)
from repro.dair import SQLDataResource, SQLRealisationService
from repro.relational import Database
from repro.resilience import (
    BreakerConfig,
    NO_RETRY,
    Resilience,
    RetryPolicy,
)
from repro.transport import HttpTransport
from tests.faultinject.faults import (
    Busy,
    ConnectionRefused,
    DropResponse,
    FaultPlan,
    FaultyHttpServer,
    HttpStatus,
    Latency,
)

#: Fast backoff so retried HTTP tests stay quick on the real clock.
FAST = dict(base_delay=0.01, max_delay=0.05)


@pytest.fixture()
def http_setup():
    registry = ServiceRegistry()
    server = FaultyHttpServer(registry, port=0)
    address = server.url_for("/sql")
    service = SQLRealisationService("chaos-http-sql", address)
    registry.register(service)
    database = Database("httpdb")
    database.execute("CREATE TABLE kv (k INT PRIMARY KEY, v VARCHAR(20))")
    database.execute("INSERT INTO kv VALUES (1,'one'),(2,'two')")
    resource = SQLDataResource(mint_abstract_name("kv"), database)
    service.add_resource(resource)
    with server:
        yield server, address, resource.abstract_name


class TestServerSideInjection:
    def test_injected_503_maps_to_transport_fault(self, http_setup):
        server, address, name = http_setup
        plan = FaultPlan()
        plan.at(1, HttpStatus(503))
        server.fault_plan = plan
        client = SQLClient(HttpTransport(resilience=NO_RETRY))
        with pytest.raises(TransportFault) as err:
            client.sql_query_rowset(address, name, "SELECT v FROM kv")
        assert err.value.status == 503

    def test_retry_rides_out_a_503(self, http_setup):
        server, address, name = http_setup
        plan = FaultPlan()
        plan.at(1, HttpStatus(503))
        server.fault_plan = plan
        client = SQLClient(
            HttpTransport(resilience=RetryPolicy(max_attempts=3, **FAST))
        )
        rowset = client.sql_query_rowset(
            address, name, "SELECT v FROM kv ORDER BY k"
        )
        assert rowset.rows == [("one",), ("two",)]

    def test_dropped_socket_maps_to_transport_fault(self, http_setup):
        server, address, name = http_setup
        plan = FaultPlan()
        plan.always(DropResponse())
        server.fault_plan = plan
        client = SQLClient(HttpTransport(resilience=NO_RETRY))
        with pytest.raises(TransportFault):
            client.sql_query_rowset(address, name, "SELECT v FROM kv")

    def test_retry_rides_out_a_dropped_socket(self, http_setup):
        server, address, name = http_setup
        plan = FaultPlan()
        plan.at(1, ConnectionRefused())
        server.fault_plan = plan
        client = SQLClient(
            HttpTransport(resilience=RetryPolicy(max_attempts=3, **FAST))
        )
        rowset = client.sql_query_rowset(
            address, name, "SELECT v FROM kv ORDER BY k"
        )
        assert rowset.rows == [("one",), ("two",)]

    def test_injected_busy_is_typed_across_the_wire(self, http_setup):
        server, address, name = http_setup
        plan = FaultPlan()
        plan.always(Busy())
        server.fault_plan = plan
        client = SQLClient(HttpTransport(resilience=NO_RETRY))
        with pytest.raises(ServiceBusyFault, match="injected"):
            client.sql_query_rowset(address, name, "SELECT v FROM kv")


class TestTimeouts:
    def test_server_latency_beyond_timeout_maps_to_transport_fault(
        self, http_setup
    ):
        server, address, name = http_setup
        plan = FaultPlan()
        plan.always(Latency(1.0))
        server.fault_plan = plan
        client = SQLClient(HttpTransport(timeout=0.15, resilience=NO_RETRY))
        with pytest.raises(TransportFault, match="timed out"):
            client.sql_query_rowset(address, name, "SELECT v FROM kv")

    def test_policy_request_timeout_overrides_transport_default(
        self, http_setup
    ):
        server, address, name = http_setup
        plan = FaultPlan()
        plan.always(Latency(1.0))
        server.fault_plan = plan
        # Transport default is generous; the policy tightens it.
        transport = HttpTransport(
            timeout=30.0,
            resilience=RetryPolicy(max_attempts=1, request_timeout=0.15),
        )
        client = SQLClient(transport)
        with pytest.raises(TransportFault, match="timed out after 0.15s"):
            client.sql_query_rowset(address, name, "SELECT v FROM kv")


class TestConnectionFailures:
    def test_refused_connection_maps_to_transport_fault(self):
        # Nothing listens here: urllib raises URLError(ConnectionRefused),
        # which must surface as the typed TransportFault.
        client = SQLClient(HttpTransport(resilience=NO_RETRY))
        with pytest.raises(TransportFault, match="connection .* failed"):
            client.sql_execute(
                "http://127.0.0.1:9/sql", "urn:any", "SELECT 1"
            )

    def test_breaker_opens_against_a_dead_service(self):
        resilience = Resilience(
            policy=RetryPolicy(max_attempts=1),
            breaker=BreakerConfig(failure_threshold=2, reset_timeout=60.0),
        )
        client = SQLClient(HttpTransport(resilience=resilience))
        dead = "http://127.0.0.1:9/sql"
        for _ in range(2):
            with pytest.raises(TransportFault):
                client.sql_execute(dead, "urn:any", "SELECT 1")
        # Third call fails fast without touching the socket.
        with pytest.raises(ServiceBusyFault, match="circuit breaker open"):
            client.sql_execute(dead, "urn:any", "SELECT 1")
        assert resilience.metrics.counter("resilience.fastfail").total() == 1
