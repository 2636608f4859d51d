"""Evaluation context and the node model the engine walks.

:mod:`repro.xmlutil` trees have no parent pointers (they are plain value
trees), so a :class:`DocumentContext` supplies what XPath needs beyond
the tree: the synthetic document node, canonical attribute nodes, parent
links and document order.  Creating one is O(1); attribute nodes are
minted per element on first touch and the parent/order maps are built by
one walk on first use (a reverse, parent or sibling axis, a union, or a
sort whose order the compiler could not prove).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Union

from repro.xmlutil import QName, XmlElement
from repro.xmlutil.tree import Comment, Text


@dataclass(frozen=True)
class AttributeNode:
    """An attribute viewed as an XPath node."""

    owner: XmlElement
    name: QName
    value: str


@dataclass(frozen=True)
class DocumentNode:
    """The synthetic root node (parent of the document element)."""

    root: XmlElement


XPathNode = Union[DocumentNode, XmlElement, Text, Comment, AttributeNode]
#: The four XPath value types: node-set, boolean, number, string.
XPathValue = Union[list, bool, float, str]


class DocumentContext:
    """Per-document state of one statement: synthetic nodes, lazy maps."""

    def __init__(self, root: XmlElement) -> None:
        self.document = DocumentNode(root)
        self._attr_cache: dict[int, list[AttributeNode]] = {}
        self._parents: dict[int, XPathNode] | None = None
        self._order: dict[int, int] = {}

    def _maps(self) -> dict[int, XPathNode]:
        """Pre-order walk assigning parent links and document order.

        Attributes are ordered immediately after their owning element, as
        XPath 1.0 prescribes.
        """
        parents = self._parents
        if parents is None:
            parents = self._parents = {}
            order = self._order = {id(self.document): 0}
            stack: list[tuple[XPathNode, XPathNode]] = [
                (self.document.root, self.document)
            ]
            while stack:
                node, parent = stack.pop()
                parents[id(node)] = parent
                order[id(node)] = len(order)
                if isinstance(node, XmlElement):
                    for attr in self.attributes_of(node):
                        order[id(attr)] = len(order)
                    stack.extend([(c, node) for c in reversed(node.children)])
        return parents

    def parent_of(self, node: XPathNode) -> XPathNode | None:
        """Parent of *node*, or None for the document node."""
        if isinstance(node, AttributeNode):
            return node.owner
        return self._maps().get(id(node))

    def order_key(self, node: XPathNode) -> int:
        """Monotone document-order key (smaller = earlier)."""
        self._maps()
        return self._order.get(id(node), 1 << 60)

    def attributes_of(self, element: XmlElement) -> list[AttributeNode]:
        """Canonical attribute nodes of *element* (the cached list: do
        not mutate).  One node per attribute for the context's lifetime,
        whichever expression of a statement asks first."""
        cache = self._attr_cache.get(id(element))
        if cache is None:
            cache = self._attr_cache[id(element)] = [
                AttributeNode(element, name, value)
                for name, value in element.attributes.items()
            ]
        return cache

    def sort_document_order(self, nodes: list[XPathNode]) -> list[XPathNode]:
        """Sort & deduplicate a node list into document order."""
        seen: set[int] = set()
        unique: list[XPathNode] = []
        for node in nodes:
            if id(node) not in seen:
                seen.add(id(node))
                unique.append(node)
        self._maps()
        order = self._order
        unique.sort(key=lambda node: order.get(id(node), 1 << 60))
        return unique


@dataclass(slots=True)
class XPathContext:
    """The dynamic context of one evaluation: everything a compiled
    expression reads that is not fixed by (AST, namespaces)."""

    document: DocumentContext
    node: XPathNode
    position: int = 1
    size: int = 1
    variables: dict[str, Any] = field(default_factory=dict)
    namespaces: dict[str, str] = field(default_factory=dict)
    functions: dict[str, Any] = field(default_factory=dict)

    def with_node(self, node: XPathNode, position: int, size: int) -> "XPathContext":
        return XPathContext(
            self.document, node, position, size,
            self.variables, self.namespaces, self.functions,
        )


def string_value(node: XPathNode) -> str:
    """The XPath string-value of a node."""
    if isinstance(node, XmlElement):
        children = node.children
        if len(children) == 1 and isinstance(children[0], Text):
            return children[0].value
        parts: list[str] = []
        _collect_text(node, parts)
        return "".join(parts)
    if isinstance(node, DocumentNode):
        return string_value(node.root)
    return node.value  # text, comment, attribute


def _collect_text(element: XmlElement, out: list[str]) -> None:
    for child in element.children:
        if isinstance(child, Text):
            out.append(child.value)
        elif isinstance(child, XmlElement):
            _collect_text(child, out)


def expanded_name(node: XPathNode) -> QName | None:
    """The expanded-name of a node, or None for unnamed node kinds."""
    if isinstance(node, XmlElement):
        return node.tag
    if isinstance(node, AttributeNode):
        return node.name
    return None
