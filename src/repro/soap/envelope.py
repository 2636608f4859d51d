"""The SOAP envelope: header + single-payload body.

DAIS messages are document-literal: the body carries exactly one request or
response element (or a fault).  :class:`Envelope` couples the payload with
its :class:`~repro.soap.addressing.MessageHeaders` and handles the
XML-bytes round trip that every transport performs.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Optional

from repro.soap.addressing import MessageHeaders
from repro.soap.fault import FaultCode, SoapFault
from repro.soap.namespaces import SOAP_ENV_NS, WSA_NS
from repro.xmlutil import (
    ByteTemplate,
    E,
    QName,
    StreamedElement,
    XmlElement,
    document_prefixes,
    parse_bytes,
    serialize_bytes,
    serialize_chunks,
    serialize_fragment,
)
from repro.xmlutil.serialize import _collect_namespaces

_ENVELOPE = QName(SOAP_ENV_NS, "Envelope")
_HEADER = QName(SOAP_ENV_NS, "Header")
_BODY = QName(SOAP_ENV_NS, "Body")

_WSA_TO = QName(WSA_NS, "To")
_WSA_ACTION = QName(WSA_NS, "Action")
_WSA_MESSAGE_ID = QName(WSA_NS, "MessageID")
_WSA_RELATES_TO = QName(WSA_NS, "RelatesTo")


class _EnvelopeTemplate:
    """A compiled envelope skeleton plus the prefix map it was built with."""

    __slots__ = ("template", "prefixes")

    def __init__(self, template: ByteTemplate, prefixes: dict[str, str]) -> None:
        self.template = template
        self.prefixes = prefixes


#: Compiled skeletons keyed by (payload namespace order, has RelatesTo).
_TEMPLATES: dict[tuple, _EnvelopeTemplate] = {}
_TEMPLATES_LOCK = threading.Lock()
#: Bound on distinct shapes retained (a DAIS deployment has a handful).
_TEMPLATES_CAP = 256


def _skeleton_builder(payload_ns: tuple[str, ...], has_relates_to: bool):
    def build(slots) -> XmlElement:
        blocks = [
            E(_WSA_TO, slots.text("to")),
            E(_WSA_ACTION, slots.text("action")),
            E(_WSA_MESSAGE_ID, slots.text("message_id")),
        ]
        if has_relates_to:
            blocks.append(E(_WSA_RELATES_TO, slots.text("relates_to")))
        sentinel = slots.splice("payload")
        body = StreamedElement(
            _BODY, lambda q: iter([sentinel]), namespaces=payload_ns
        )
        return E(_ENVELOPE, E(_HEADER, blocks), body)

    return build


def _envelope_template(
    payload_ns: tuple[str, ...], has_relates_to: bool
) -> _EnvelopeTemplate:
    key = (payload_ns, has_relates_to)
    entry = _TEMPLATES.get(key)
    if entry is not None:
        return entry
    build = _skeleton_builder(payload_ns, has_relates_to)
    template = ByteTemplate.compile(build, xml_declaration=True)
    from repro.xmlutil import TemplateSlots

    prefixes = document_prefixes(build(TemplateSlots()))
    entry = _EnvelopeTemplate(template, prefixes)
    with _TEMPLATES_LOCK:
        if len(_TEMPLATES) < _TEMPLATES_CAP:
            _TEMPLATES.setdefault(key, entry)
        return _TEMPLATES.get(key, entry)


@dataclass
class Envelope:
    """One SOAP message: addressing headers plus a single body payload."""

    headers: MessageHeaders
    payload: XmlElement
    #: :meth:`is_streaming`'s answer, when whoever built the payload
    #: recorded it (``DataService`` does: it knows which field can be
    #: lazy); ``None`` = ask the payload.
    known_streaming: Optional[bool] = field(
        default=None, init=False, repr=False, compare=False
    )

    def to_xml(self) -> XmlElement:
        """Render the full ``soapenv:Envelope``."""
        return E(
            _ENVELOPE,
            E(_HEADER, self.headers.to_header_blocks()),
            E(_BODY, self.payload.copy()),
        )

    def _serial_view(self) -> XmlElement:
        """The envelope tree for serialization only: shares the payload
        (no deep copy) — serializers never mutate, and the view is
        discarded right after writing."""
        return E(
            _ENVELOPE,
            E(_HEADER, self.headers.to_header_blocks()),
            E(_BODY, self.payload),
        )

    def to_bytes(self) -> bytes:
        """Serialize to UTF-8 wire bytes.

        Common-shape envelopes (the WS-Addressing trio, optionally
        RelatesTo, no reply-to/reference parameters) render through a
        precompiled byte template: the fixed scaffolding is replayed
        from bytes and only the header values and the payload fragment
        are spliced in — byte-identical to tree serialization, which
        remains the fallback for every other shape."""
        fast = self._template_bytes()
        if fast is not None:
            return fast
        return serialize_bytes(self._serial_view())

    def _template_bytes(self) -> bytes | None:
        headers = self.headers
        if headers.reply_to is not None or headers.reference_parameters:
            return None
        if not (headers.to and headers.action and headers.message_id):
            # Checked before the payload fragment is rendered: a lazy
            # payload is one-shot, so nothing may drain it unless the
            # template is certain to be used.
            return None
        try:
            payload_ns = tuple(_collect_namespaces(self.payload))
            entry = _envelope_template(payload_ns, bool(headers.relates_to))
            values = {
                "to": headers.to,
                "action": headers.action,
                "message_id": headers.message_id,
                "payload": serialize_fragment(self.payload, entry.prefixes),
            }
            if headers.relates_to:
                values["relates_to"] = headers.relates_to
            return entry.template.render(values)
        except (KeyError, ValueError):
            # Unbound prefix or odd shape: the tree path handles it.
            return None

    def is_streaming(self) -> bool:
        """True when the payload contains content still to be produced
        (a lazy :class:`~repro.xmlutil.StreamedElement` anywhere in the
        tree: rows not yet pulled from the engine) — transports can then
        serialize incrementally via :meth:`iter_bytes` instead of
        materializing the whole body.  A dataset emitted from rows
        already in memory is not: :meth:`to_bytes` drains it inline."""
        if self.known_streaming is not None:
            return self.known_streaming
        return _has_lazy_content(self.payload)

    def iter_bytes(self):
        """Serialize incrementally: an iterator of UTF-8 fragments whose
        concatenation equals :meth:`to_bytes`.  Lazy payload content is
        rendered as it is pulled, so a streamed dataset never exists in
        memory as one string."""
        for chunk in serialize_chunks(self._serial_view()):
            yield chunk.encode("utf-8")

    @classmethod
    def from_xml(cls, root: XmlElement) -> "Envelope":
        """Parse an envelope element back into headers + payload."""
        if root.tag != _ENVELOPE:
            raise SoapFault(
                FaultCode.VERSION_MISMATCH,
                f"expected soapenv:Envelope, found {root.tag.clark()}",
            )
        header = root.find(_HEADER)
        body = root.find(_BODY)
        if body is None:
            raise ValueError("envelope without soapenv:Body")
        payload_elements = body.element_children()
        if len(payload_elements) != 1:
            raise ValueError(
                f"DAIS messages carry exactly one body element, "
                f"found {len(payload_elements)}"
            )
        blocks = header.element_children() if header is not None else []
        # No defensive copy: the parse tree this payload came from is
        # freshly built per message and referenced by nobody else.
        return cls(
            headers=MessageHeaders.from_header_blocks(blocks),
            payload=payload_elements[0],
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "Envelope":
        """Parse wire bytes into an envelope."""
        return cls.from_xml(parse_bytes(data))

    # -- fault plumbing ----------------------------------------------------

    def is_fault(self) -> bool:
        """True when the body carries a ``soapenv:Fault``."""
        return SoapFault.is_fault(self.payload)

    def raise_if_fault(self) -> "Envelope":
        """Raise the carried fault as an exception, else return self.

        The raised exception is re-typed to the registered DAIS fault class
        when the detail identifies one (see :mod:`repro.core.faults`).
        """
        if not self.is_fault():
            return self
        fault = SoapFault.from_xml(self.payload)
        raise _specialize(fault)


def _has_lazy_content(element: XmlElement) -> bool:
    """The walk behind :meth:`Envelope.is_streaming` for an envelope
    nobody vouched for (a hand-built one)."""
    if isinstance(element, StreamedElement):
        return element.lazy
    return any(
        _has_lazy_content(child) for child in element.element_children()
    )


def _specialize(fault: SoapFault) -> SoapFault:
    """Hook point: :mod:`repro.core.faults` installs a resolver that maps
    detail elements back to typed DAIS fault classes."""
    for resolver in _FAULT_RESOLVERS:
        typed = resolver(fault)
        if typed is not None:
            return typed
    return fault


_FAULT_RESOLVERS: list = []


def register_fault_resolver(resolver) -> None:
    """Register a callable ``SoapFault -> SoapFault | None`` used by
    :meth:`Envelope.raise_if_fault` to restore typed fault classes."""
    _FAULT_RESOLVERS.append(resolver)


def fault_envelope(request_headers: MessageHeaders, fault: SoapFault) -> Envelope:
    """Build the response envelope carrying *fault*, correlated to the
    request it answers."""
    return Envelope(
        headers=request_headers.reply(f"{SOAP_ENV_NS}/fault"),
        payload=fault.to_xml(),
    )
