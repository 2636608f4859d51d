"""Qualified names and namespace bookkeeping.

XML 1.0 + Namespaces is the substrate of every DAIS message.  A
:class:`QName` pairs a namespace URI with a local name; a
:class:`NamespaceRegistry` maps URIs to preferred prefixes so serialized
documents are stable and human-readable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

#: Reserved namespace for the ``xmlns`` attribute family.
XMLNS_NS = "http://www.w3.org/2000/xmlns/"
#: Reserved namespace bound to the ``xml`` prefix.
XML_NS = "http://www.w3.org/XML/1998/namespace"

# NCName per the XML Namespaces recommendation, restricted to the ASCII
# subset plus a pragmatic allowance for non-ASCII letters.
_NCNAME_RE = re.compile(r"^[A-Za-z_À-￿][\w.\-·À-￿]*$")


def is_ncname(value: str) -> bool:
    """Return True when *value* is usable as an XML local name or prefix."""
    return bool(value) and ":" not in value and bool(_NCNAME_RE.match(value))


@dataclass(frozen=True, slots=True)
class QName:
    """An expanded XML name: ``{namespace-uri}local-part``.

    ``namespace`` may be the empty string for names in no namespace.
    Instances are immutable, hashable and usable as dictionary keys for
    attributes and dispatch tables.
    """

    namespace: str
    local: str

    def __post_init__(self) -> None:
        if not is_ncname(self.local):
            raise ValueError(f"invalid XML local name: {self.local!r}")

    @classmethod
    def parse(cls, clark: str, default_namespace: str = "") -> "QName":
        """Parse Clark notation (``{uri}local``) or a bare local name."""
        if clark.startswith("{"):
            uri, _, local = clark[1:].partition("}")
            return cls(uri, local)
        return cls(default_namespace, clark)

    def clark(self) -> str:
        """Render in Clark notation, e.g. ``{http://ns}local``."""
        if self.namespace:
            return f"{{{self.namespace}}}{self.local}"
        return self.local

    def __str__(self) -> str:
        return self.clark()


class NamespaceRegistry:
    """Bidirectional URI <-> preferred-prefix map used by the serializer.

    The registry is consulted when serializing an element tree: a namespace
    with a registered prefix is emitted with that prefix, anything else gets
    a generated ``ns0``, ``ns1``, ... prefix.  A single global registry
    (:data:`DEFAULT_REGISTRY`) carries the well-known DAIS, SOAP and WSRF
    namespaces; callers may build private registries for isolated documents.
    """

    def __init__(self) -> None:
        self._by_uri: dict[str, str] = {}
        self._by_prefix: dict[str, str] = {}
        self.register("xml", XML_NS)

    def register(self, prefix: str, uri: str) -> None:
        """Associate *prefix* with *uri*; later registrations win."""
        if prefix and not is_ncname(prefix):
            raise ValueError(f"invalid namespace prefix: {prefix!r}")
        if not uri:
            raise ValueError("cannot register a prefix for the empty namespace")
        old = self._by_uri.get(uri)
        if old is not None and self._by_prefix.get(old) == uri:
            del self._by_prefix[old]
        self._by_uri[uri] = prefix
        self._by_prefix[prefix] = uri

    def prefix_for(self, uri: str) -> str | None:
        """Return the preferred prefix for *uri*, or None if unregistered."""
        return self._by_uri.get(uri)

    def uri_for(self, prefix: str) -> str | None:
        """Return the URI bound to *prefix*, or None if unregistered."""
        return self._by_prefix.get(prefix)

    def copy(self) -> "NamespaceRegistry":
        clone = NamespaceRegistry()
        clone._by_uri = dict(self._by_uri)
        clone._by_prefix = dict(self._by_prefix)
        return clone


#: Registry pre-loaded by the packages that define wire namespaces
#: (:mod:`repro.soap.namespaces`, :mod:`repro.core.namespaces`, ...).
DEFAULT_REGISTRY = NamespaceRegistry()
