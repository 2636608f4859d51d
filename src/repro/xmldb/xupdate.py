"""An XUpdate (XML:DB update language) processor.

Supports the operations WS-DAIX's ``XUpdateExecute`` needs:
``insert-before``, ``insert-after``, ``append``, ``update``, ``remove``
and ``rename``, with ``xupdate:element`` / ``xupdate:attribute`` /
``xupdate:text`` content constructors and literal content.  Target nodes
are selected with XPath over the live document tree and mutated in place.
"""

from __future__ import annotations

from repro.xmldb.errors import XUpdateError
from repro.xmlutil import QName, XmlElement, parse
from repro.xmlutil.tree import Comment, Text
from repro.xpath import AttributeNode, XPathEngine, XPathError
from repro.xpath.context import DocumentContext, DocumentNode

#: The XUpdate namespace.
XUPDATE_NS = "http://www.xmldb.org/xupdate"

_MODIFICATIONS = QName(XUPDATE_NS, "modifications")


class XUpdateProcessor:
    """Applies one ``xupdate:modifications`` document to a target tree."""

    def __init__(self, namespaces: dict[str, str] | None = None) -> None:
        self._engine = XPathEngine(namespaces=namespaces)

    def apply_text(self, modifications_xml: str, target: XmlElement) -> int:
        """Parse *modifications_xml* and apply it; returns nodes modified."""
        return self.apply(parse(modifications_xml), target)

    def apply(self, modifications: XmlElement, target: XmlElement) -> int:
        """Apply a parsed modifications document to *target* in place.

        Returns the number of selected nodes that were modified.  Raises
        :class:`XUpdateError` on malformed input; the target may be
        partially modified when a later operation fails (callers wanting
        atomicity should work on a copy).
        """
        if modifications.tag != _MODIFICATIONS:
            raise XUpdateError(
                f"expected xupdate:modifications, got {modifications.tag.clark()}"
            )
        modified = 0
        for operation in modifications.element_children():
            if operation.tag.namespace != XUPDATE_NS:
                raise XUpdateError(
                    f"unexpected element {operation.tag.clark()}"
                )
            handler = self._HANDLERS.get(operation.tag.local)
            if handler is None:
                raise XUpdateError(
                    f"unsupported operation xupdate:{operation.tag.local}"
                )
            modified += handler(self, operation, target)
        return modified

    # -- selection -----------------------------------------------------------

    def _select(self, operation: XmlElement, target: XmlElement):
        expression = operation.get("select")
        if not expression:
            raise XUpdateError(
                f"xupdate:{operation.tag.local} requires a select attribute"
            )
        try:
            nodes = self._engine.select(expression, target)
        except XPathError as exc:
            raise XUpdateError(f"bad select expression: {exc}") from exc
        return nodes, DocumentContext(target)

    @staticmethod
    def _parent_element(
        node, document: DocumentContext, operation: str
    ) -> XmlElement:
        parent = document.parent_of(node)
        if parent is None or isinstance(parent, DocumentNode):
            raise XUpdateError(f"cannot {operation} the document root")
        return parent

    # -- content construction ----------------------------------------------

    def _construct(self, content_parent: XmlElement) -> tuple[list, list]:
        """Build (nodes, attributes) from an operation's content children."""
        nodes: list = []
        attributes: list[tuple[QName, str]] = []
        for child in content_parent.children:
            if isinstance(child, Text):
                if child.value:
                    nodes.append(Text(child.value))
                continue
            if isinstance(child, Comment):
                nodes.append(Comment(child.value))
                continue
            if child.tag.namespace == XUPDATE_NS:
                if child.tag.local == "element":
                    name = child.get("name")
                    if not name:
                        raise XUpdateError("xupdate:element requires a name")
                    element = XmlElement(QName.parse(name))
                    sub_nodes, sub_attrs = self._construct(child)
                    for attr_name, attr_value in sub_attrs:
                        element.set(attr_name, attr_value)
                    element.extend(sub_nodes)
                    nodes.append(element)
                elif child.tag.local == "attribute":
                    name = child.get("name")
                    if not name:
                        raise XUpdateError("xupdate:attribute requires a name")
                    attributes.append((QName.parse(name), child.full_text()))
                elif child.tag.local == "text":
                    nodes.append(Text(child.full_text()))
                elif child.tag.local == "comment":
                    nodes.append(Comment(child.full_text()))
                else:
                    raise XUpdateError(
                        f"unsupported constructor xupdate:{child.tag.local}"
                    )
            else:
                nodes.append(child.copy())
        return nodes, attributes

    # -- operations ---------------------------------------------------------

    def _op_insert(self, operation: XmlElement, target: XmlElement, after: bool) -> int:
        nodes_to_add, attributes = self._construct(operation)
        if attributes:
            raise XUpdateError("attributes cannot be inserted as siblings")
        selected, document = self._select(operation, target)
        count = 0
        for node in selected:
            if isinstance(node, AttributeNode):
                raise XUpdateError("cannot insert siblings of an attribute")
            parent = self._parent_element(node, document, "insert beside")
            # Identity search: dataclass equality would match a twin sibling.
            index = next(
                i for i, child in enumerate(parent.children) if child is node
            )
            if after:
                index += 1
            for offset, new_node in enumerate(nodes_to_add):
                parent.children.insert(index + offset, _clone_node(new_node))
            count += 1
        return count

    def _op_insert_before(self, operation, target) -> int:
        return self._op_insert(operation, target, after=False)

    def _op_insert_after(self, operation, target) -> int:
        return self._op_insert(operation, target, after=True)

    def _op_append(self, operation: XmlElement, target: XmlElement) -> int:
        nodes_to_add, attributes = self._construct(operation)
        selected, _ = self._select(operation, target)
        count = 0
        for node in selected:
            if not isinstance(node, XmlElement):
                raise XUpdateError("append target must be an element")
            for attr_name, attr_value in attributes:
                node.set(attr_name, attr_value)
            for new_node in nodes_to_add:
                node.append(_clone_node(new_node))
            count += 1
        return count

    def _op_update(self, operation: XmlElement, target: XmlElement) -> int:
        selected, _ = self._select(operation, target)
        new_text = operation.full_text()
        count = 0
        for node in selected:
            if isinstance(node, AttributeNode):
                node.owner.set(node.name, new_text)
            elif isinstance(node, XmlElement):
                # one assignment: a concurrent reader sees old or new text
                node.children = [Text(new_text)] if new_text else []
            else:
                raise XUpdateError("update target must be an element or attribute")
            count += 1
        return count

    def _op_remove(self, operation: XmlElement, target: XmlElement) -> int:
        selected, document = self._select(operation, target)
        count = 0
        for node in selected:
            if isinstance(node, AttributeNode):
                node.owner.attributes.pop(node.name, None)
            else:
                parent = self._parent_element(node, document, "remove")
                parent.children = [c for c in parent.children if c is not node]
            count += 1
        return count

    def _op_rename(self, operation: XmlElement, target: XmlElement) -> int:
        new_name = operation.full_text().strip()
        if not new_name:
            raise XUpdateError("xupdate:rename requires the new name as content")
        selected, _ = self._select(operation, target)
        count = 0
        for node in selected:
            if isinstance(node, XmlElement):
                node.tag = QName(node.tag.namespace, new_name)
            elif isinstance(node, AttributeNode):
                value = node.value
                node.owner.attributes.pop(node.name, None)
                node.owner.set(QName(node.name.namespace, new_name), value)
            else:
                raise XUpdateError("rename target must be an element or attribute")
            count += 1
        return count

    _HANDLERS = {
        "insert-before": _op_insert_before,
        "insert-after": _op_insert_after,
        "append": _op_append,
        "update": _op_update,
        "remove": _op_remove,
        "rename": _op_rename,
    }


def _clone_node(node):
    if isinstance(node, XmlElement):
        return node.copy()
    if isinstance(node, Text):
        return Text(node.value)
    return Comment(node.value)
