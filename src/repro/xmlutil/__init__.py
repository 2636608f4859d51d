"""Namespace-aware XML infoset layer.

This package is the foundation of every message and document format in
dais-py: SOAP envelopes, WS-DAI property documents, WS-DAIR rowsets and
WS-DAIX collections are all built from :class:`~repro.xmlutil.tree.XmlElement`
trees, serialized with :mod:`repro.xmlutil.serialize` and parsed back with
:mod:`repro.xmlutil.parser`.

The implementation is deliberately self-contained (no dependency on
``xml.etree``) so that the wire format is fully under the library's control
and round-trip fidelity can be property-tested.
"""

from repro.xmlutil.names import QName, NamespaceRegistry, XMLNS_NS, XML_NS
from repro.xmlutil.tree import (
    XmlElement,
    Text,
    LazyText,
    Comment,
    StreamedElement,
    RenderedElement,
    is_element,
)
from repro.xmlutil.builder import E, element
from repro.xmlutil.serialize import (
    document_prefixes,
    serialize,
    serialize_bytes,
    serialize_chunks,
    serialize_content,
    serialize_fragment,
)
from repro.xmlutil.parser import (
    XmlParseError,
    intern_vocabulary,
    interned_qname,
    parse,
    parse_bytes,
)
from repro.xmlutil.escape import escape_text, escape_attribute, unescape
from repro.xmlutil.template import ByteTemplate, TemplateSlots

__all__ = [
    "QName",
    "NamespaceRegistry",
    "XMLNS_NS",
    "XML_NS",
    "XmlElement",
    "Text",
    "LazyText",
    "Comment",
    "StreamedElement",
    "RenderedElement",
    "is_element",
    "E",
    "element",
    "serialize",
    "serialize_bytes",
    "serialize_chunks",
    "serialize_fragment",
    "serialize_content",
    "document_prefixes",
    "parse",
    "parse_bytes",
    "XmlParseError",
    "intern_vocabulary",
    "interned_qname",
    "escape_text",
    "escape_attribute",
    "unescape",
    "ByteTemplate",
    "TemplateSlots",
]
