"""Serialization of element trees to XML text.

The serializer declares every namespace used in the document on the root
element with a stable prefix (preferred prefixes come from a
:class:`~repro.xmlutil.names.NamespaceRegistry`), and never uses default
namespace declarations.  This makes output deterministic, diff-friendly and
trivially re-parseable.
"""

from __future__ import annotations

from typing import Iterator

from repro.xmlutil.escape import escape_attribute, escape_text
from repro.xmlutil.names import DEFAULT_REGISTRY, XML_NS, NamespaceRegistry, QName
from repro.xmlutil.tree import (
    Comment,
    LazyText,
    RenderedElement,
    StreamedElement,
    Text,
    XmlElement,
)


def _collect_namespaces(root: XmlElement) -> list[str]:
    seen: dict[str, None] = {}
    for node in root.iter():
        if node.tag.namespace:
            seen.setdefault(node.tag.namespace, None)
        for attr in node.attributes:
            if attr.namespace:
                seen.setdefault(attr.namespace, None)
        # Lazy or already-rendered content is not walked; the element
        # declares its namespaces up front instead.  (The type test
        # first: plain elements are nearly every node.)
        if type(node) is not XmlElement and isinstance(
            node, (StreamedElement, RenderedElement)
        ):
            for uri in node.namespaces:
                seen.setdefault(uri, None)
    seen.pop(XML_NS, None)
    return list(seen)


def _assign_prefixes(
    uris: list[str], registry: NamespaceRegistry
) -> dict[str, str]:
    prefixes: dict[str, str] = {XML_NS: "xml"}
    used: set[str] = {"xml", "xmlns"}
    counter = 0
    for uri in uris:
        preferred = registry.prefix_for(uri)
        if preferred and preferred not in used:
            prefixes[uri] = preferred
            used.add(preferred)
            continue
        while f"ns{counter}" in used:
            counter += 1
        prefixes[uri] = f"ns{counter}"
        used.add(f"ns{counter}")
    return prefixes


class _Writer:
    """Walks a tree once and flattens it.

    What can be rendered is rendered: static markup accumulates as text,
    and a :class:`RenderedElement`'s stored text joins it verbatim.
    What cannot — a :class:`StreamedElement`'s chunks, a
    :class:`LazyText`'s value — does not exist yet, so the node itself is
    kept, in document order, between the runs of text around it.
    :meth:`chunks` then resolves those nodes one after the other, which
    is why a value placed after a streamed region (the communication
    area behind a dataset) still resolves after the region's last row.
    """

    def __init__(
        self, prefixes: dict[str, str], indent: str | None, head: str = ""
    ) -> None:
        self._prefixes = prefixes
        self._indent = indent
        #: Text rendered since the last deferred node.
        self._parts: list[str] = [head] if head else []
        #: Runs of rendered text and, between them, the deferred nodes.
        self._flat: list[str | StreamedElement | LazyText] = []
        self._qnames: dict[QName, str] = {}

    def _qname(self, name: QName) -> str:
        rendered = self._qnames.get(name)
        if rendered is None:
            if not name.namespace:
                rendered = name.local
            else:
                rendered = f"{self._prefixes[name.namespace]}:{name.local}"
            self._qnames[name] = rendered
        return rendered

    def _defer(self, node: StreamedElement | LazyText) -> None:
        if self._parts:
            self._flat.append("".join(self._parts))
            self._parts.clear()
        self._flat.append(node)

    def write(self, node: XmlElement, depth: int, declare: dict[str, str] | None) -> None:
        parts = self._parts
        if depth > 0 and self._indent is not None:
            parts.append("\n" + self._indent * depth)
        parts.append(f"<{self._qname(node.tag)}")
        if declare:
            for uri, prefix in declare.items():
                parts.append(f' xmlns:{prefix}="{escape_attribute(uri)}"')
        for attr, value in node.attributes.items():
            parts.append(f' {self._qname(attr)}="{escape_attribute(value)}"')
        rendered = ""
        if type(node) is not XmlElement:
            if isinstance(node, StreamedElement):
                # Whether the element closes as ``</T>`` or collapses to
                # ``<T/>`` is known only once its source has run: chunks().
                self._defer(node)
                return
            if isinstance(node, RenderedElement):
                rendered = node.rendering(self._prefixes)
        if not node.children and not rendered:
            parts.append("/>")
            return
        parts.append(">")
        if rendered:
            parts.append(rendered)
        text_only = self.write_content(node.children, depth + 1)
        if (rendered or not text_only) and self._indent is not None:
            parts.append("\n" + self._indent * depth)
        parts.append(f"</{self._qname(node.tag)}>")

    def write_content(self, children: list, depth: int) -> bool:
        """Write *children* at *depth*; True when none was markup."""
        parts = self._parts
        text_only = True
        for child in children:
            if isinstance(child, Text):
                parts.append(escape_text(child.value))
            elif isinstance(child, LazyText):
                self._defer(child)
            elif isinstance(child, Comment):
                text_only = False
                parts.append(f"<!--{child.value}-->")
            else:
                text_only = False
                self.write(child, depth, None)
        return text_only

    def chunks(self) -> Iterator[str]:
        """The document as text chunks: everything rendered up to a
        streamed region's next chunk is one chunk, and the region's own
        chunks pass straight through (always compact), so peak memory is
        the largest single chunk, not the document."""
        buffer: list[str] = []
        for item in (*self._flat, "".join(self._parts)):
            if type(item) is str:
                buffer.append(item)
            elif isinstance(item, LazyText):
                buffer.append(escape_text(item.value))
            else:
                produced = False
                for chunk in item.chunk_source(self._qname):
                    if not chunk:
                        continue
                    if not produced:
                        buffer.append(">")
                        produced = True
                    if buffer:
                        yield "".join(buffer)
                        buffer.clear()
                    yield chunk
                buffer.append(
                    f"</{self._qname(item.tag)}>" if produced else "/>"
                )
        text = "".join(buffer)
        if text:
            yield text


_XML_DECLARATION = '<?xml version="1.0" encoding="UTF-8"?>\n'


def _written(
    root: XmlElement,
    registry: NamespaceRegistry | None,
    indent: str | None,
    xml_declaration: bool,
) -> _Writer:
    """*root* walked as a document: every namespace declared on it."""
    registry = registry if registry is not None else DEFAULT_REGISTRY
    uris = _collect_namespaces(root)
    prefixes = _assign_prefixes(uris, registry)
    writer = _Writer(prefixes, indent, _XML_DECLARATION if xml_declaration else "")
    writer.write(root, 0, {uri: prefixes[uri] for uri in uris})
    return writer


def serialize(
    root: XmlElement,
    registry: NamespaceRegistry | None = None,
    indent: str | None = None,
    xml_declaration: bool = False,
) -> str:
    """Serialize *root* to an XML string.

    :param registry: preferred prefixes; defaults to the library-wide
        :data:`~repro.xmlutil.names.DEFAULT_REGISTRY`.
    :param indent: when given (e.g. ``"  "``), pretty-print with that unit.
        Note that pretty-printed output inserts whitespace text nodes; use
        compact output (the default) when round-trip fidelity matters.
    :param xml_declaration: prepend ``<?xml version="1.0" ...?>``.
    """
    return "".join(_written(root, registry, indent, xml_declaration).chunks())


def serialize_bytes(
    root: XmlElement,
    registry: NamespaceRegistry | None = None,
    indent: str | None = None,
) -> bytes:
    """Serialize *root* to UTF-8 bytes with an XML declaration."""
    return serialize(root, registry, indent, xml_declaration=True).encode("utf-8")


def document_prefixes(
    root: XmlElement, registry: NamespaceRegistry | None = None
) -> dict[str, str]:
    """The namespace→prefix map :func:`serialize` would use for *root*.

    Exposed for byte-template callers that serialize a subtree
    separately (with :func:`serialize_fragment`) and splice it into a
    precompiled skeleton: rendering the fragment with the skeleton's own
    prefix map keeps the spliced output byte-identical to a whole-tree
    serialization."""
    registry = registry if registry is not None else DEFAULT_REGISTRY
    return _assign_prefixes(_collect_namespaces(root), registry)


def serialize_fragment(root: XmlElement, prefixes: dict[str, str]) -> str:
    """Serialize *root* as a fragment: no declarations, fixed prefixes.

    Every namespace used in the subtree must already be bound in
    *prefixes* (the enclosing document's map); compact mode only."""
    writer = _Writer(prefixes, None)
    writer.write(root, 0, None)
    return "".join(writer.chunks())


def serialize_content(root: XmlElement, prefixes: dict[str, str]) -> str:
    """Serialize what is inside *root* — its children, not its own tags
    — as a fragment with fixed prefixes, like :func:`serialize_fragment`.

    This is what a :class:`~repro.xmlutil.tree.RenderedElement`'s
    rendering holds: spliced between the element's tags, it is
    byte-identical to serializing the element with these children."""
    writer = _Writer(prefixes, None)
    writer.write_content(root.children, 0)
    return "".join(writer.chunks())


def serialize_chunks(
    root: XmlElement,
    registry: NamespaceRegistry | None = None,
    xml_declaration: bool = False,
) -> Iterator[str]:
    """Serialize *root* incrementally, yielding XML text chunks.

    ``"".join(serialize_chunks(root, r, d))`` is byte-for-byte equal to
    ``serialize(root, r, xml_declaration=d)`` (compact mode), but trees
    containing :class:`StreamedElement` nodes are emitted without ever
    holding the full document: markup before/after each streamed region
    is one chunk, and the region's own chunks pass straight through.
    """
    yield from _written(root, registry, None, xml_declaration).chunks()
