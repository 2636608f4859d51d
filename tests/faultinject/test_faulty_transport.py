"""FaultyTransport: every injectable failure mode, over real loopback."""

import pytest

from repro.client.sql import SQLClient
from repro.core import ServiceBusyFault, TransportFault
from tests.faultinject.faults import (
    Busy,
    ConnectionRefused,
    DropResponse,
    ExpireResource,
    FaultPlan,
    FaultyTransport,
    HttpStatus,
    Latency,
)
from repro.resilience import VirtualClock
from repro.transport import LoopbackTransport
from repro.workload import RelationalWorkload, build_single_service
from repro.wsrf.faults import ResourceUnknownFault

QUERY = "SELECT COUNT(*) FROM customers"


@pytest.fixture()
def deployment():
    return build_single_service(RelationalWorkload(customers=3))


def faulty_client(deployment, plan, clock=None):
    transport = FaultyTransport(
        LoopbackTransport(deployment.registry), plan, clock=clock
    )
    return SQLClient(transport), transport


class TestInjections:
    def test_no_plan_match_passes_through(self, deployment):
        client, transport = faulty_client(deployment, FaultPlan())
        rowset = client.sql_query_rowset(deployment.address, deployment.name, QUERY)
        assert rowset.rows == [("3",)]
        assert transport.metrics.counter("faultinject.injected").total() == 0

    def test_connection_refused_raises_transport_fault(self, deployment):
        plan = FaultPlan()
        plan.at(1, ConnectionRefused())
        client, _ = faulty_client(deployment, plan)
        with pytest.raises(TransportFault, match="connection refused"):
            client.sql_query_rowset(deployment.address, deployment.name, QUERY)

    def test_drop_response_loses_reply_after_side_effects(self, deployment):
        plan = FaultPlan()
        plan.at(1, DropResponse())
        client, transport = faulty_client(deployment, plan)
        with pytest.raises(TransportFault, match="dropped mid-response"):
            client.sql_execute(
                deployment.address,
                deployment.name,
                "UPDATE customers SET segment = 'touched'",
            )
        # The nasty property of a dropped response: the service really
        # processed the request even though the consumer saw a failure.
        assert transport.stats.call_count == 1
        rows = deployment.database.execute(
            "SELECT DISTINCT segment FROM customers"
        ).rows
        assert rows == [("touched",)]

    def test_latency_sleeps_on_injected_clock(self, deployment):
        clock = VirtualClock()
        plan = FaultPlan()
        plan.at(1, Latency(1.5))
        client, _ = faulty_client(deployment, plan, clock=clock)
        rowset = client.sql_query_rowset(deployment.address, deployment.name, QUERY)
        assert rowset.rows == [("3",)]
        assert clock.sleeps == [1.5]

    def test_http_status_maps_to_transport_fault_with_status(self, deployment):
        plan = FaultPlan()
        plan.at(1, HttpStatus(503))
        client, _ = faulty_client(deployment, plan)
        with pytest.raises(TransportFault) as err:
            client.sql_query_rowset(deployment.address, deployment.name, QUERY)
        assert err.value.status == 503

    def test_busy_is_a_typed_wire_fault(self, deployment):
        plan = FaultPlan()
        plan.at(1, Busy())
        client, _ = faulty_client(deployment, plan)
        with pytest.raises(ServiceBusyFault):
            client.sql_query_rowset(deployment.address, deployment.name, QUERY)

    def test_expired_resource_is_a_typed_wsrf_fault(self, deployment):
        plan = FaultPlan()
        plan.after(2, ExpireResource(), times=None)
        client, _ = faulty_client(deployment, plan)
        first = client.sql_query_rowset(deployment.address, deployment.name, QUERY)
        assert first.rows == [("3",)]
        with pytest.raises(ResourceUnknownFault):
            client.sql_query_rowset(deployment.address, deployment.name, QUERY)

    def test_injection_counters_by_kind(self, deployment):
        plan = FaultPlan()
        plan.at(1, Busy())
        plan.at(2, Busy())
        client, transport = faulty_client(deployment, plan)
        for _ in range(2):
            with pytest.raises(ServiceBusyFault):
                client.sql_query_rowset(
                    deployment.address, deployment.name, QUERY
                )
        client.sql_query_rowset(deployment.address, deployment.name, QUERY)
        counter = transport.metrics.counter("faultinject.injected")
        assert counter.value(kind="Busy") == 2
        assert counter.total() == 2


def test_chaos_demo_runs(capsys):
    from tests.faultinject import chaos

    chaos.main()  # asserts every answered run returned the right rows
    assert f"{chaos.ITERATIONS} seeded runs" in capsys.readouterr().out
