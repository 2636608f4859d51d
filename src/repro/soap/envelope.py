"""The SOAP envelope: header + single-payload body.

DAIS messages are document-literal: the body carries exactly one request or
response element (or a fault).  :class:`Envelope` couples the payload with
its :class:`~repro.soap.addressing.MessageHeaders` and handles the
XML-bytes round trip that every transport performs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator

from repro.soap.addressing import MessageHeaders
from repro.soap.fault import FaultCode, SoapFault
from repro.soap.namespaces import SOAP_ENV_NS, WSA_NS
from repro.xmlutil import (
    ByteTemplate,
    E,
    QName,
    StreamedElement,
    TemplateSlots,
    Text,
    XmlElement,
    document_prefixes,
    fragment_chunks,
    parse_bytes,
    serialize_chunks,
)
from repro.xmlutil.serialize import _XML_DECLARATION, _collect_namespaces

_ENVELOPE = QName(SOAP_ENV_NS, "Envelope")
_HEADER = QName(SOAP_ENV_NS, "Header")
_BODY = QName(SOAP_ENV_NS, "Body")

_WSA_TO = QName(WSA_NS, "To")
_WSA_ACTION = QName(WSA_NS, "Action")
_WSA_MESSAGE_ID = QName(WSA_NS, "MessageID")
_WSA_RELATES_TO = QName(WSA_NS, "RelatesTo")

_DECLARATION = _XML_DECLARATION.encode("utf-8")


def _skeleton_builder(payload_ns: tuple[str, ...], has_relates_to: bool):
    def build(slots) -> XmlElement:
        blocks = [
            E(_WSA_TO, slots.text("to")),
            E(_WSA_ACTION, slots.text("action")),
            E(_WSA_MESSAGE_ID, slots.text("message_id")),
        ]
        if has_relates_to:
            blocks.append(E(_WSA_RELATES_TO, slots.text("relates_to")))
        blocks.append(Text(slots.splice("blocks")))
        sentinel = slots.splice("payload")
        body = StreamedElement(
            _BODY, lambda q: iter([sentinel]), namespaces=payload_ns
        )
        return E(_ENVELOPE, E(_HEADER, blocks), body)

    return build


#: One skeleton per (namespace order of the extension header blocks and
#: then the payload, has RelatesTo); a DAIS deployment has a handful,
#: and the bound caps what odd traffic adds.
@functools.lru_cache(maxsize=256)
def _envelope_template(
    payload_ns: tuple[str, ...], has_relates_to: bool
) -> tuple[ByteTemplate, bytes, dict[str, str]]:
    """The compiled skeleton cut at the payload: the head template (the
    header values and the written header blocks are its slots), the
    static tail, and the prefix map the blocks and the payload are
    written with."""
    build = _skeleton_builder(payload_ns, has_relates_to)
    head, tail = ByteTemplate.compile(build).split_at("payload")
    return head, tail, document_prefixes(build(TemplateSlots()))


@dataclass
class Envelope:
    """One SOAP message: addressing headers plus a single body payload."""

    headers: MessageHeaders
    payload: XmlElement

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
        """Serialize to UTF-8 wire bytes: the XML declaration, then
        :meth:`iter_bytes` joined."""
        return _DECLARATION + b"".join(self.iter_bytes())

    def iter_bytes(self) -> Iterator[bytes]:
        """Serialize incrementally: UTF-8 fragments of the envelope
        without an XML declaration — ``to_bytes()`` is the declaration
        followed by their concatenation.

        Common-shape envelopes (the WS-Addressing trio, optionally
        RelatesTo, any extension header blocks, no reply-to) render
        through a precompiled skeleton: its head with the header values
        and the written blocks spliced in, the payload writer's chunks
        as they are pulled, its tail.
        Every other shape walks the envelope tree, which the skeleton
        was compiled from, so both give the same bytes.  Lazy payload
        content renders as it is pulled either way, so a streamed
        dataset never exists in memory as one string."""
        skeleton = self._skeleton()
        if skeleton is None:
            for chunk in serialize_chunks(self._serial_view()):
                yield chunk.encode("utf-8")
            return
        head, chunks, tail = skeleton
        yield head
        for chunk in chunks:
            yield chunk.encode("utf-8")
        yield tail

    def _skeleton(self) -> tuple[bytes, Iterator[str], bytes] | None:
        """(head, payload chunks, tail) through the compiled skeleton,
        or None when this shape needs the tree walk.  Decided before a
        chunk is pulled: a lazy payload is one-shot, so nothing may
        drain it unless the skeleton is certain to be used."""
        headers = self.headers
        if headers.reply_to is not None:
            return None
        if not (headers.to and headers.action and headers.message_id):
            # An empty header collapses to <T/> in the tree: not the
            # skeleton's shape.
            return None
        values = {
            "to": headers.to,
            "action": headers.action,
            "message_id": headers.message_id,
        }
        if headers.relates_to:
            values["relates_to"] = headers.relates_to
        blocks = headers.reference_parameters
        try:
            namespaces = _collect_namespaces(self.payload)
            if blocks:
                # The tree walk meets the blocks' namespaces before the
                # payload's: the skeleton declares them in that order.
                namespaces = dict.fromkeys(
                    [uri for block in blocks for uri in _collect_namespaces(block)]
                    + namespaces
                )
            head, tail, prefixes = _envelope_template(
                tuple(namespaces), bool(headers.relates_to)
            )
            values["blocks"] = "".join(
                chunk for block in blocks for chunk in fragment_chunks(block, prefixes)
            )
            chunks = fragment_chunks(self.payload, prefixes)
        except (KeyError, ValueError):
            # Unbound prefix or odd shape: the tree path handles it.
            return None
        return head.render(values), chunks, tail

    def is_streaming(self) -> bool:
        """True when the payload contains content still to be produced
        (a lazy :class:`~repro.xmlutil.StreamedElement` anywhere in the
        tree: rows not yet pulled from the engine).  No transport reads
        this — the HTTP server frames a reply by the bytes it has
        written — and it walks the payload each time it is asked."""
        return _has_lazy_content(self.payload)

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
    """The walk behind :meth:`Envelope.is_streaming`."""
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
