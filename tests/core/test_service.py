"""DataService behaviour: dispatch, resources, profiles, lifetime."""

import pytest

from repro.client import CoreClient
from repro.core import (
    ConfigurableProperties,
    CorePropertyDocument,
    DataResource,
    DataResourceManagement,
    DataService,
    InvalidLanguageFault,
    InvalidResourceNameFault,
    NotAuthorizedFault,
    ServiceBusyFault,
    ServiceRegistry,
    mint_abstract_name,
)
from repro.core.messages import DestroyDataResourceRequest, ResolveRequest
from repro.core.namespaces import WSDAI_NS
from repro.soap import Envelope, MessageHeaders, SoapFault
from repro.soap.fault import FaultCode
from repro.transport import LoopbackTransport
from repro.wsrf import ManualClock
from repro.wsrf.namespaces import WSRF_RL_NS
from repro.xmlutil import E, QName


class EchoResource(DataResource):
    """Minimal resource used to exercise the core operations."""

    def __init__(self, name=None, managed=DataResourceManagement.EXTERNALLY_MANAGED):
        super().__init__(name or mint_abstract_name("echo"), managed)
        self.destroyed = False

    def generic_query_languages(self):
        return ["urn:echo"]

    def generic_query(self, language_uri, expression, parameters):
        return [E("Echo", expression, params=",".join(parameters))]

    def on_destroy(self):
        self.destroyed = True

    def property_document(self, configurable):
        return CorePropertyDocument(
            abstract_name=self.abstract_name,
            management=self.management,
            languages=self.generic_query_languages(),
            configurable=configurable,
        )


@pytest.fixture()
def registry():
    return ServiceRegistry()


@pytest.fixture()
def clock():
    return ManualClock(1000.0)


@pytest.fixture()
def service(registry, clock):
    service = DataService("svc", "dais://svc", wsrf=True, clock=clock)
    registry.register(service)
    return service


@pytest.fixture()
def resource(service):
    resource = EchoResource()
    service.add_resource(resource)
    return resource


@pytest.fixture()
def client(registry):
    return CoreClient(LoopbackTransport(registry))


class TestDispatch:
    def test_generic_query_round_trip(self, client, resource):
        response = client.generic_query(
            "dais://svc", resource.abstract_name, "urn:echo", "ping", ["a", "b"]
        )
        assert response.data[0].text == "ping"
        assert response.data[0].get("params") == "a,b"

    def test_unknown_action_faults(self, registry, service, resource):
        transport = LoopbackTransport(registry)
        envelope = Envelope(
            headers=MessageHeaders(to="dais://svc", action="urn:not-an-op"),
            payload=E("Whatever"),
        )
        response = transport.send("dais://svc", envelope)
        assert response.is_fault()
        with pytest.raises(SoapFault, match="unsupported wsa:Action"):
            response.raise_if_fault()

    def test_unknown_resource_faults(self, client, service):
        with pytest.raises(InvalidResourceNameFault):
            client.generic_query("dais://svc", "urn:ghost:1", "urn:echo", "x")

    def test_unsupported_language_faults(self, client, resource):
        with pytest.raises(InvalidLanguageFault):
            client.generic_query(
                "dais://svc", resource.abstract_name, "urn:other", "x"
            )

    def test_not_readable_faults(self, registry, client, clock):
        service = DataService("ro", "dais://ro", clock=clock)
        registry.register(service)
        resource = EchoResource()
        service.add_resource(resource, ConfigurableProperties(readable=False))
        with pytest.raises(NotAuthorizedFault):
            client.generic_query("dais://ro", resource.abstract_name, "urn:echo", "x")

    def test_busy_failure_injection(self, client, service, resource):
        service.max_concurrent = 0  # admission refuses every call
        with pytest.raises(ServiceBusyFault):
            client.list_resources("dais://svc")

    def test_dispatch_counts_recorded(self, client, service, resource):
        client.list_resources("dais://svc")
        client.list_resources("dais://svc")
        counts = service.dispatch_counts
        assert sum(v for k, v in counts.items() if "GetResourceList" in k) == 2

    def test_response_correlates_to_request(self, registry, service, resource):
        transport = LoopbackTransport(registry)
        from repro.core.messages import GetResourceListRequest

        request = Envelope(
            headers=MessageHeaders(
                to="dais://svc", action=GetResourceListRequest.action()
            ),
            payload=GetResourceListRequest().to_xml(),
        )
        response = transport.send("dais://svc", request)
        assert response.headers.relates_to == request.headers.message_id

    @pytest.mark.parametrize(
        "action",
        [DestroyDataResourceRequest.action(), f"{WSRF_RL_NS}/Destroy"],
        ids=["dais", "wsrf-alias"],
    )
    def test_body_of_another_operation_is_refused(
        self, registry, service, resource, action
    ):
        """The action picks the row, the body must be that row's
        request: a ResolveRequest sent under a destroy action is a
        Client fault naming both elements, and destroys nothing."""
        body = ResolveRequest(abstract_name=resource.abstract_name).to_xml()
        response = LoopbackTransport(registry).send(
            "dais://svc",
            Envelope(
                headers=MessageHeaders(to="dais://svc", action=action),
                payload=body,
            ),
        )
        assert response.is_fault()
        with pytest.raises(SoapFault) as err:
            response.raise_if_fault()
        assert err.value.code is FaultCode.CLIENT
        assert "DestroyDataResourceRequest" in str(err.value)
        assert "ResolveRequest" in str(err.value)
        assert service.has_resource(resource.abstract_name)
        assert not resource.destroyed

    def test_wsrf_destroy_alias_takes_the_dais_destroy_body(
        self, registry, service, resource
    ):
        body = DestroyDataResourceRequest(
            abstract_name=resource.abstract_name
        ).to_xml()
        response = LoopbackTransport(registry).send(
            "dais://svc",
            Envelope(
                headers=MessageHeaders(
                    to="dais://svc", action=f"{WSRF_RL_NS}/Destroy"
                ),
                payload=body,
            ),
        )
        response.raise_if_fault()
        assert not service.has_resource(resource.abstract_name)
        assert resource.destroyed


class TestResourceManagement:
    def test_resource_list(self, client, service):
        first = EchoResource()
        second = EchoResource()
        service.add_resource(first)
        service.add_resource(second)
        names = client.list_resources("dais://svc")
        assert set(names) == {first.abstract_name, second.abstract_name}

    def test_duplicate_binding_rejected(self, service, resource):
        with pytest.raises(ValueError, match="already bound"):
            service.add_resource(resource)

    def test_resolve_returns_epr_with_reference_parameter(self, client, resource):
        epr = client.resolve("dais://svc", resource.abstract_name)
        assert epr.address == "dais://svc"
        name = epr.reference_parameter_text(
            QName(WSDAI_NS, "DataResourceAbstractName")
        )
        assert name == resource.abstract_name

    def test_destroy_severs_relationship(self, client, service, resource):
        destroyed = client.destroy("dais://svc", resource.abstract_name)
        assert destroyed == resource.abstract_name
        assert resource.destroyed
        assert not service.has_resource(resource.abstract_name)

    def test_destroy_twice_faults(self, client, resource):
        client.destroy("dais://svc", resource.abstract_name)
        with pytest.raises(InvalidResourceNameFault):
            client.destroy("dais://svc", resource.abstract_name)

    def test_resource_list_can_be_disabled(self, registry):
        service = DataService("min", "dais://min", resource_list_enabled=False)
        registry.register(service)
        client = CoreClient(LoopbackTransport(registry))
        with pytest.raises(SoapFault, match="unsupported"):
            client.list_resources("dais://min")


class TestPropertyProfiles:
    def test_whole_document_available_in_both_profiles(self, registry, client):
        plain = DataService("plain", "dais://plain", wsrf=False)
        registry.register(plain)
        resource = EchoResource()
        plain.add_resource(resource)
        document = client.get_property_document("dais://plain", resource.abstract_name)
        assert document.findtext(
            QName(WSDAI_NS, "DataResourceAbstractName")
        ) == resource.abstract_name

    def test_fine_grained_requires_wsrf(self, registry, client):
        plain = DataService("plain", "dais://plain", wsrf=False)
        registry.register(plain)
        resource = EchoResource()
        plain.add_resource(resource)
        with pytest.raises(SoapFault, match="unsupported"):
            client.get_resource_property(
                "dais://plain", resource.abstract_name, QName(WSDAI_NS, "Readable")
            )

    def test_get_single_property(self, client, resource):
        props = client.get_resource_property(
            "dais://svc", resource.abstract_name, QName(WSDAI_NS, "Readable")
        )
        assert [p.text for p in props] == ["true"]

    def test_get_multiple_properties(self, client, resource):
        props = client.get_multiple_resource_properties(
            "dais://svc",
            resource.abstract_name,
            [QName(WSDAI_NS, "Readable"), QName(WSDAI_NS, "Writeable")],
        )
        assert [p.tag.local for p in props] == ["Readable", "Writeable"]

    def test_query_properties(self, client, resource):
        props = client.query_resource_properties(
            "dais://svc",
            resource.abstract_name,
            "//wsdai:GenericQueryLanguage",
        )
        assert [p.text for p in props] == ["urn:echo"]

    def test_property_reflects_binding_config(self, registry, client, clock):
        service = DataService("cfg", "dais://cfg", wsrf=True, clock=clock)
        registry.register(service)
        resource = EchoResource()
        service.add_resource(
            resource, ConfigurableProperties(writeable=False)
        )
        props = client.get_resource_property(
            "dais://cfg", resource.abstract_name, QName(WSDAI_NS, "Writeable")
        )
        assert props[0].text == "false"


class TestSoftStateLifetime:
    def test_scheduled_termination_via_message(self, client, service, resource, clock):
        response = client.set_termination_time(
            "dais://svc", resource.abstract_name, 1050.0
        )
        assert response.new_termination_time == 1050.0
        clock.advance(60)
        assert service.sweep_expired() == [resource.abstract_name]
        assert resource.destroyed

    def test_indefinite_termination(self, client, service, resource, clock):
        client.set_termination_time("dais://svc", resource.abstract_name, None)
        clock.advance(10_000)
        assert service.sweep_expired() == []

    def test_initial_lifetime_on_add(self, registry, clock):
        service = DataService("tmp", "dais://tmp", wsrf=True, clock=clock)
        registry.register(service)
        resource = EchoResource(managed=DataResourceManagement.SERVICE_MANAGED)
        service.add_resource(resource, lifetime_seconds=30)
        clock.advance(31)
        assert service.sweep_expired() == [resource.abstract_name]

    def test_non_wsrf_service_never_sweeps(self, registry):
        service = DataService("plain", "dais://plain", wsrf=False)
        registry.register(service)
        resource = EchoResource()
        service.add_resource(resource)
        assert service.sweep_expired() == []

    def test_registry_sweep_all(self, registry, service, resource, clock, client):
        client.set_termination_time("dais://svc", resource.abstract_name, 1001.0)
        clock.advance(5)
        destroyed = registry.sweep_all()
        assert destroyed == {"dais://svc": [resource.abstract_name]}


class TestRegistry:
    def test_duplicate_address_rejected(self, registry, service):
        with pytest.raises(ValueError):
            registry.register(DataService("dup", "dais://svc"))

    def test_unknown_address(self, registry):
        with pytest.raises(LookupError):
            registry.service_at("dais://ghost")

    def test_resolve_epr(self, registry, service, resource):
        epr = service.epr_for(resource.abstract_name)
        found_service, name = registry.resolve_epr(epr)
        assert found_service is service
        assert name == resource.abstract_name
