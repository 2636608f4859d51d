"""The resilient call path end-to-end over loopback: retries, spans,
counters, breaker fail-fast, the WSRF re-resolve hook, and the
``obs:ResilienceStatus`` property."""

import pytest

from repro.client.sql import SQLClient
from repro.core import InvalidExpressionFault, ServiceBusyFault, TransportFault
from repro.obs import use_exporter
from repro.resilience import (
    BreakerConfig,
    OPEN,
    RESILIENCE_STATUS,
    Resilience,
    RetryPolicy,
    VirtualClock,
    breaker_states_from_element,
)
from repro.transport import LoopbackTransport
from repro.workload import RelationalWorkload, build_single_service
from tests.faultinject.faults import (
    Busy,
    ConnectionRefused,
    ExpireResource,
    FaultPlan,
    FaultyTransport,
)

QUERY = "SELECT COUNT(*) FROM customers"


@pytest.fixture()
def deployment():
    return build_single_service(RelationalWorkload(customers=3))


def resilient_client(deployment, plan, policy=None, **resilience_kwargs):
    clock = VirtualClock()
    resilience = Resilience(
        policy=policy or RetryPolicy(max_attempts=4),
        clock=clock,
        seed=0,
        **resilience_kwargs,
    )
    transport = FaultyTransport(
        LoopbackTransport(deployment.registry),
        plan,
        clock=clock,
        resilience=resilience,
    )
    return SQLClient(transport), resilience, clock


class TestRetries:
    def test_recovers_from_transient_faults(self, deployment):
        plan = FaultPlan()
        plan.at(1, Busy())
        plan.at(2, ConnectionRefused())
        client, resilience, clock = resilient_client(deployment, plan)
        rowset = client.sql_query_rowset(deployment.address, deployment.name, QUERY)
        assert rowset.rows == [("3",)]
        assert resilience.metrics.counter("resilience.retries").total() == 2
        assert len(clock.sleeps) == 2

    def test_exhausted_policy_surfaces_the_fault(self, deployment):
        plan = FaultPlan()
        plan.always(Busy())
        client, resilience, _ = resilient_client(
            deployment, plan, policy=RetryPolicy(max_attempts=3)
        )
        with pytest.raises(ServiceBusyFault):
            client.sql_query_rowset(deployment.address, deployment.name, QUERY)
        assert resilience.metrics.counter("resilience.giveups").total() == 1

    def test_exhausted_transport_errors_reraise(self, deployment):
        plan = FaultPlan()
        plan.always(ConnectionRefused())
        client, _, _ = resilient_client(
            deployment, plan, policy=RetryPolicy(max_attempts=2)
        )
        with pytest.raises(TransportFault, match="connection refused"):
            client.sql_query_rowset(deployment.address, deployment.name, QUERY)

    def test_retries_render_as_one_connected_trace(self, deployment):
        from repro.obs import get_tracer

        plan = FaultPlan()
        plan.at(1, Busy())
        plan.at(2, Busy())
        client, _, _ = resilient_client(deployment, plan)
        with use_exporter() as exporter:
            with get_tracer().span("consumer.request"):
                client.sql_query_rowset(
                    deployment.address, deployment.name, QUERY
                )
        roots = [s for s in exporter.spans() if s.parent_id is None]
        assert [s.name for s in roots] == ["consumer.request"]
        retries = exporter.spans("rpc.retry")
        assert [s.attributes["attempt"] for s in retries] == [2, 3]
        # Every span of the exchange shares the consumer's trace id.
        trace_ids = {s.trace_id for s in exporter.spans()}
        assert trace_ids == {roots[0].trace_id}
        # The successful attempt's rpc.send nests under its rpc.retry.
        sends = exporter.spans("rpc.send")
        assert sends[-1].parent_id == retries[-1].span_id


class TestNonRetryable:
    def test_application_fault_not_retried(self, deployment):
        plan = FaultPlan()  # no injections: the service itself faults
        client, resilience, clock = resilient_client(deployment, plan)
        with pytest.raises(InvalidExpressionFault):
            client.sql_query_rowset(
                deployment.address, deployment.name, "NOT SQL"
            )
        assert plan.calls_seen == 1
        assert clock.sleeps == []
        assert resilience.metrics.counter("resilience.retries").total() == 0

    def test_application_fault_does_not_trip_the_breaker(self, deployment):
        plan = FaultPlan()
        client, resilience, _ = resilient_client(
            deployment, plan, breaker=BreakerConfig(failure_threshold=2)
        )
        for _ in range(5):
            with pytest.raises(InvalidExpressionFault):
                client.sql_query_rowset(
                    deployment.address, deployment.name, "NOT SQL"
                )
        breaker = resilience.breaker_for(deployment.address)
        assert breaker.state == "closed"


class TestBreakerIntegration:
    def test_breaker_opens_and_fails_fast(self, deployment):
        plan = FaultPlan()
        plan.always(ConnectionRefused())
        client, resilience, _ = resilient_client(
            deployment,
            plan,
            policy=RetryPolicy(max_attempts=1),
            breaker=BreakerConfig(failure_threshold=3, reset_timeout=60.0),
        )
        for _ in range(3):
            with pytest.raises(TransportFault):
                client.sql_query_rowset(
                    deployment.address, deployment.name, QUERY
                )
        breaker = resilience.breaker_for(deployment.address)
        assert breaker.state == OPEN
        calls_before = plan.calls_seen
        # Fail-fast: a ServiceBusyFault without touching the wire.
        with pytest.raises(ServiceBusyFault, match="circuit breaker open"):
            client.sql_query_rowset(deployment.address, deployment.name, QUERY)
        assert plan.calls_seen == calls_before
        assert resilience.metrics.counter("resilience.fastfail").total() == 1
        state_counter = resilience.metrics.counter("resilience.breaker_state")
        assert state_counter.value(service=deployment.address, state="open") == 1

    def test_breaker_recovers_through_half_open(self, deployment):
        plan = FaultPlan()
        plan.at(1, ConnectionRefused())
        client, resilience, clock = resilient_client(
            deployment,
            plan,
            policy=RetryPolicy(max_attempts=1),
            breaker=BreakerConfig(failure_threshold=1, reset_timeout=5.0),
        )
        with pytest.raises(TransportFault):
            client.sql_query_rowset(deployment.address, deployment.name, QUERY)
        breaker = resilience.breaker_for(deployment.address)
        assert breaker.state == OPEN
        clock.advance(5.0)
        rowset = client.sql_query_rowset(deployment.address, deployment.name, QUERY)
        assert rowset.rows == [("3",)]
        assert breaker.state == "closed"


class TestReResolveHook:
    def test_expired_resource_not_retryable_without_hook(self, deployment):
        from repro.wsrf.faults import ResourceUnknownFault

        plan = FaultPlan()
        plan.always(ExpireResource())
        client, _, _ = resilient_client(deployment, plan)
        with pytest.raises(ResourceUnknownFault):
            client.sql_query_rowset(deployment.address, deployment.name, QUERY)
        assert plan.calls_seen == 1

    def test_hook_makes_expiry_retryable(self, deployment):
        plan = FaultPlan()
        plan.at(1, ExpireResource())
        resolved = []

        def re_resolve(address, request):
            resolved.append(address)
            return True

        client, _, _ = resilient_client(
            deployment, plan, on_unknown_resource=re_resolve
        )
        rowset = client.sql_query_rowset(deployment.address, deployment.name, QUERY)
        assert rowset.rows == [("3",)]
        assert resolved == [deployment.address]

    def test_hook_can_refuse(self, deployment):
        from repro.wsrf.faults import ResourceUnknownFault

        plan = FaultPlan()
        plan.always(ExpireResource())
        client, _, _ = resilient_client(
            deployment, plan, on_unknown_resource=lambda a, r: False
        )
        with pytest.raises(ResourceUnknownFault):
            client.sql_query_rowset(deployment.address, deployment.name, QUERY)
        assert plan.calls_seen == 1

    def test_real_wsrf_expiry_round_trip(self):
        """The hook in anger: against a live WSRF deployment, an injected
        expiry is healed by the hook and the retried call completes."""
        deployment = build_single_service(
            RelationalWorkload(customers=3), wsrf=True,
        )
        service = deployment.service
        plan = FaultPlan()
        plan.at(1, ExpireResource())

        def re_resolve(address, request):
            # A real consumer would re-run the factory here; the healthy
            # deployment still knows the resource, so resolving succeeds.
            return service.has_resource(deployment.name)

        client, _, _ = resilient_client(
            deployment, plan, on_unknown_resource=re_resolve
        )
        rowset = client.sql_query_rowset(deployment.address, deployment.name, QUERY)
        assert rowset.rows == [("3",)]


class TestStatusProperty:
    def test_breaker_state_readable_through_property_document(self, deployment):
        plan = FaultPlan()
        plan.always(ConnectionRefused())
        client, resilience, _ = resilient_client(
            deployment,
            plan,
            policy=RetryPolicy(max_attempts=1),
            breaker=BreakerConfig(failure_threshold=1),
        )
        with pytest.raises(TransportFault):
            client.sql_query_rowset(deployment.address, deployment.name, QUERY)
        # Attach the layer to the service and read it back via the spec's
        # own introspection channel (a plain, un-faulted client).
        deployment.service.resilience = resilience
        plain = SQLClient(LoopbackTransport(deployment.registry))
        document = plain.get_property_document(
            deployment.address, deployment.name
        )
        status = document.find(RESILIENCE_STATUS)
        assert status is not None
        states = breaker_states_from_element(status)
        assert states[deployment.address] == OPEN

    def test_status_element_round_trip(self, deployment):
        resilience = Resilience(policy=RetryPolicy(max_attempts=2))
        resilience.breaker_for("dais://a")
        element = resilience.status_element()
        assert element.tag == RESILIENCE_STATUS
        assert breaker_states_from_element(element) == {"dais://a": "closed"}
