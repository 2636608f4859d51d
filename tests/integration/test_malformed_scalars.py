"""A scalar the sender got wrong is the sender's fault, and says so.

Every ``int(...)``/``float(...)``/``QName.parse(...)``/``b64decode(...)``
used to sit bare in a hand-written decoder, so ``<StartPosition>abc``
came back as ``Server "internal error: invalid literal for int() ..."``
through the dispatch boundary's catch-all.  The codec converts in one
place and answers a ``Client`` fault naming the element and the message
— over loopback and over real HTTP, where the keep-alive connection
that carried the fault serves a well-formed request next.
"""

import pytest

from repro.client.core import CoreClient
from repro.core import ServiceRegistry
from repro.core import wsrf_messages as wmsg
from repro.daif import FileRealisationService
from repro.daif import messages as daif_msg
from repro.daif.namespaces import WSDAIF_NS
from repro.dair import SQLRealisationService
from repro.dair import messages as dair_msg
from repro.dair.namespaces import WSDAIR_NS
from repro.daix import XMLRealisationService
from repro.daix import messages as daix_msg
from repro.daix.namespaces import WSDAIX_NS
from repro.soap import Envelope, MessageHeaders
from repro.soap.fault import FaultCode, SoapFault
from repro.transport import DaisHttpServer, HttpTransport, LoopbackTransport
from repro.wsrf.namespaces import WSRF_RL_NS, WSRF_RP_NS
from repro.xmlutil import QName

NAME = "urn:dais:resource:malformed:1"

#: (service, well-formed request, element to corrupt, its new text)
CASES = {
    "GetTuplesRequest.StartPosition": (
        "sql",
        dair_msg.GetTuplesRequest(abstract_name=NAME, start_position=3),
        QName(WSDAIR_NS, "StartPosition"),
        "abc",
    ),
    "GetItemsRequest.Count": (
        "xml",
        daix_msg.GetItemsRequest(abstract_name=NAME, count=5),
        QName(WSDAIX_NS, "Count"),
        "-",
    ),
    "PutFileRequest.Content": (
        "files",
        daif_msg.PutFileRequest(abstract_name=NAME, path="a.bin", content=b"x"),
        QName(WSDAIF_NS, "Content"),
        "abc",  # incorrect padding
    ),
    "GetMultipleResourceProperties.ResourceProperty": (
        "sql",
        wmsg.GetMultipleResourcePropertiesRequest(
            abstract_name=NAME, property_qnames=[QName("urn:p", "Readable")]
        ),
        QName(WSRF_RP_NS, "ResourceProperty"),
        "",
    ),
    "SetTerminationTime.RequestedTerminationTime": (
        "sql",
        wmsg.SetTerminationTimeRequest(
            abstract_name=NAME, requested_termination_time=60.0
        ),
        QName(WSRF_RL_NS, "RequestedTerminationTime"),
        "soon",
    ),
}


def _services(address_of) -> dict:
    return {
        "sql": SQLRealisationService("sql", address_of("sql"), wsrf=True),
        "xml": XMLRealisationService("xml", address_of("xml")),
        "files": FileRealisationService("files", address_of("files")),
    }


@pytest.fixture(params=["loopback", "http"])
def deployment(request):
    """(transport, services by key, connections-opened probe or None)."""
    registry = ServiceRegistry()
    if request.param == "loopback":
        services = _services(lambda key: f"dais://{key}")
        for service in services.values():
            registry.register(service)
        yield LoopbackTransport(registry), services, None
        return
    server = DaisHttpServer(registry, port=0)
    services = _services(lambda key: server.url_for(f"/{key}"))
    for service in services.values():
        registry.register(service)
    with server:
        transport = HttpTransport()
        opened = transport.metrics.counter(
            "rpc.client.connections.created", "new TCP connections per host"
        )
        try:
            yield transport, services, opened.total
        finally:
            transport.close()


@pytest.mark.parametrize("case", sorted(CASES))
def test_malformed_scalar_is_a_client_fault_naming_the_element(deployment, case):
    transport, services, connections_opened = deployment
    key, message, tag, text = CASES[case]
    address = services[key].address
    payload = message.to_xml()
    payload.find(tag).text = text

    response = transport.send(
        address,
        Envelope(
            headers=MessageHeaders(to=address, action=type(message).action()),
            payload=payload,
        ),
    )
    with pytest.raises(SoapFault) as caught:
        response.raise_if_fault()
    fault = caught.value
    assert fault.code is FaultCode.CLIENT
    assert "internal error" not in str(fault)
    assert f"malformed {tag.local} in {message.TAG.local}" in str(fault)

    # The service, and over HTTP the very connection, are still good.
    assert CoreClient(transport).list_resources(address) == []
    if connections_opened is not None:
        assert connections_opened() == 1
