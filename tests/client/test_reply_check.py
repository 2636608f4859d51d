"""The client decodes a reply only when its body element is the one
that answers the request.

A transport that hands back some other message — here a resource list
in answer to a destroy — must surface as a :class:`TransportFault`,
not as a reply misread field by field, and the check sits outside the
retry loop: the same wrong reply is not asked for again.
"""

import pytest

from repro.client.sql import SQLClient
from repro.core import TransportFault
from repro.core import messages as cmsg
from repro.core.service import RESOURCE_REFERENCE_PARAMETER
from repro.resilience import RetryPolicy
from repro.soap import Envelope
from repro.soap.addressing import EndpointReference
from repro.xmlutil import E

NAME = "urn:dais:resource:test:1"


class WrongReplyTransport:
    """Answers every request with a GetResourceListResponse, routed
    through the resilience layer like the shipped transports."""

    def __init__(self):
        self.resilience = None
        self.sent = []

    def send(self, address, request):
        if self.resilience is not None:
            return self.resilience.call(address, request, self._send_once)
        return self._send_once(address, request)

    def _send_once(self, address, request):
        self.sent.append(request.headers.action)
        return Envelope(
            headers=request.headers.reply(
                cmsg.GetResourceListResponse.action()
            ),
            payload=cmsg.GetResourceListResponse(names=["n"]).to_xml(),
        )


def test_address_call_refuses_a_reply_of_another_operation():
    client = SQLClient(WrongReplyTransport())
    with pytest.raises(TransportFault, match="DestroyDataResourceResponse"):
        client.destroy("dais://svc", NAME)


def test_epr_call_refuses_a_reply_of_another_operation():
    client = SQLClient(WrongReplyTransport())
    epr = EndpointReference(
        "dais://svc",
        reference_parameters=(E(RESOURCE_REFERENCE_PARAMETER, NAME),),
    )
    with pytest.raises(TransportFault, match="GetTuplesResponse"):
        client.get_tuples(epr, NAME, 0, 10)


def test_a_mismatched_reply_is_not_retried():
    transport = WrongReplyTransport()
    client = SQLClient(
        transport, resilience=RetryPolicy(max_attempts=3, base_delay=0.0)
    )
    with pytest.raises(TransportFault):
        client.destroy("dais://svc", NAME)
    assert transport.sent == [cmsg.DestroyDataResourceRequest.action()]
