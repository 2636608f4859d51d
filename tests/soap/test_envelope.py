"""Unit tests for envelope construction, parsing and fault raising."""

import pytest

from repro.soap import Envelope, FaultCode, MessageHeaders, SoapFault
from repro.soap.envelope import fault_envelope
from repro.xmlutil import E, QName, StreamedElement, XmlElement


def _headers(action="urn:dais/Op"):
    return MessageHeaders(to="http://host/svc", action=action)


class TestEnvelope:
    def test_bytes_round_trip(self):
        env = Envelope(_headers(), E(QName("urn:x", "Request"), E("Body", "42")))
        parsed = Envelope.from_bytes(env.to_bytes())
        assert parsed.headers.action == "urn:dais/Op"
        assert parsed.payload.tag == QName("urn:x", "Request")
        assert parsed.payload.findtext("Body") == "42"

    def test_single_payload_enforced(self):
        env = Envelope(_headers(), E("One")).to_xml()
        body = env.element_children()[1]
        body.append(E("Two"))
        with pytest.raises(ValueError, match="exactly one body element"):
            Envelope.from_xml(env)

    def test_empty_body_rejected(self):
        env = Envelope(_headers(), E("One")).to_xml()
        body = env.element_children()[1]
        body.children.clear()
        with pytest.raises(ValueError):
            Envelope.from_xml(env)

    def test_wrong_root_raises_version_mismatch(self):
        with pytest.raises(SoapFault) as err:
            Envelope.from_xml(E("NotAnEnvelope"))
        assert err.value.code is FaultCode.VERSION_MISMATCH

    def test_payload_isolated_from_mutation(self):
        payload = E("Request", "v")
        env = Envelope(_headers(), payload)
        wire = env.to_xml()
        payload.text = "mutated"
        body = wire.element_children()[1]
        assert body.element_children()[0].text == "v"

    def test_is_fault(self):
        ok = Envelope(_headers(), E("Fine"))
        bad = Envelope(_headers(), SoapFault(FaultCode.SERVER, "x").to_xml())
        assert not ok.is_fault()
        assert bad.is_fault()

    def test_raise_if_fault_passes_through_success(self):
        env = Envelope(_headers(), E("Fine"))
        assert env.raise_if_fault() is env

    def test_raise_if_fault_raises(self):
        env = Envelope(_headers(), SoapFault(FaultCode.CLIENT, "denied").to_xml())
        with pytest.raises(SoapFault, match="denied"):
            env.raise_if_fault()

    def test_fault_envelope_correlates(self):
        request = _headers()
        response = fault_envelope(request, SoapFault(FaultCode.SERVER, "x"))
        assert response.headers.relates_to == request.message_id
        assert response.is_fault()


class TestIsStreaming:
    """``is_streaming()`` walks a hand-built envelope; one whose builder
    recorded the answer is taken at its word and not walked."""

    @staticmethod
    def _streamed():
        return StreamedElement(QName("urn:x", "Rows"), lambda q: iter(["<r/>"]))

    def test_hand_built_envelope_is_walked(self):
        plain = Envelope(_headers(), E("Reply", E("Data", E("Row"))))
        assert plain.known_streaming is None
        assert not plain.is_streaming()
        nested = Envelope(_headers(), E("Reply", E("Data", self._streamed())))
        assert nested.is_streaming()

    def test_streamed_content_that_is_not_lazy_does_not_stream(self):
        class InMemory(StreamedElement):
            lazy = False

        held = InMemory(QName("urn:x", "Rows"), lambda q: iter(["<r/>"]))
        assert not Envelope(_headers(), E("Reply", held)).is_streaming()

    def test_recorded_answer_is_not_second_guessed(self):
        class Unwalkable(XmlElement):
            def element_children(self):
                raise AssertionError("the payload was walked")

        envelope = Envelope(_headers(), Unwalkable(QName("", "Reply")))
        with pytest.raises(AssertionError):
            envelope.is_streaming()
        for recorded in (True, False):
            envelope.known_streaming = recorded
            assert envelope.is_streaming() is recorded

    def test_record_is_not_part_of_the_message(self):
        a = Envelope(_headers(), E("Reply"))
        b = Envelope(a.headers, E("Reply"))
        b.known_streaming = True
        assert a == b
        with pytest.raises(TypeError):
            Envelope(_headers(), E("Reply"), known_streaming=True)
