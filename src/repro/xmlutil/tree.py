"""A small, explicit XML element tree.

The tree model is deliberately minimal: an :class:`XmlElement` has a
:class:`~repro.xmlutil.names.QName` tag, a ``{QName: str}`` attribute map and
an ordered child list of elements, :class:`Text` nodes and :class:`Comment`
nodes.  Processing instructions and DTDs are out of scope for DAIS messages.

A parsed element may hold a rowset lattice as tuples (:class:`RowRun`)
until its children are first read (:class:`PendingRows`), so a dataset
reader can take the rows without a node per row and value.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Union

from repro.xmlutil.names import QName


@dataclass(slots=True)
class Text:
    """A character-data node."""

    value: str


@dataclass(slots=True)
class LazyText:
    """Character data resolved when the serializer reaches it.

    Streaming responses use this to defer values that are only known
    after an earlier sibling has been emitted — e.g. the row count of a
    communication area that follows a streamed dataset in document
    order.  ``thunk`` is called exactly once per serialization; parsing
    never produces :class:`LazyText` (it comes back as plain text).
    """

    thunk: Callable[[], str]

    @property
    def value(self) -> str:
        return str(self.thunk())


@dataclass(slots=True)
class Comment:
    """An XML comment node; preserved on round trips."""

    value: str


Node = Union["XmlElement", Text, LazyText, Comment]


def is_element(node: Node) -> bool:
    """True when *node* is an :class:`XmlElement` (not text or comment)."""
    return isinstance(node, XmlElement)


def _coerce_tag(tag: QName | str) -> QName:
    if isinstance(tag, QName):
        return tag
    return QName.parse(tag)


@dataclass(slots=True)
class XmlElement:
    """An element node.

    Attributes are keyed by :class:`QName`; unprefixed attributes live in
    the empty namespace.  Child order is significant and preserved.
    """

    tag: QName
    attributes: dict[QName, str] = field(default_factory=dict)
    children: list[Node] = field(default_factory=list)

    def __post_init__(self) -> None:
        if type(self.tag) is not QName:
            self.tag = _coerce_tag(self.tag)
        if self.attributes:
            coerced: dict[QName, str] = {}
            for key, value in self.attributes.items():
                coerced[_coerce_tag(key)] = str(value)
            self.attributes = coerced

    # -- construction -----------------------------------------------------

    def append(self, node: Node | str) -> "XmlElement":
        """Append a child node (a bare ``str`` becomes a :class:`Text`).

        Text is normalized on the way in: empty strings are dropped and a
        text node appended directly after another text node is merged into
        it, so trees always round-trip through serialization unchanged.
        """
        if isinstance(node, XmlElement):  # the overwhelmingly common case
            self.children.append(node)
            return self
        if isinstance(node, str):
            node = Text(node)
        if isinstance(node, Text):
            if not node.value:
                return self
            if self.children and isinstance(self.children[-1], Text):
                self.children[-1] = Text(self.children[-1].value + node.value)
                return self
        self.children.append(node)
        return self

    def extend(self, nodes: Iterable[Node | str]) -> "XmlElement":
        for node in nodes:
            self.append(node)
        return self

    def set(self, name: QName | str, value: str) -> "XmlElement":
        """Set an attribute; returns self for chaining."""
        self.attributes[_coerce_tag(name)] = str(value)
        return self

    # -- accessors --------------------------------------------------------

    def get(self, name: QName | str, default: str | None = None) -> str | None:
        """Return an attribute value, or *default* when absent."""
        return self.attributes.get(_coerce_tag(name), default)

    @property
    def text(self) -> str:
        """Concatenated character data of the *direct* children."""
        return "".join(c.value for c in self.children if isinstance(c, Text))

    @text.setter
    def text(self, value: str) -> None:
        self.children = [c for c in self.children if not isinstance(c, Text)]
        if value:
            self.children.insert(0, Text(value))

    def full_text(self) -> str:
        """Concatenated character data of the entire subtree."""
        parts: list[str] = []
        for node in self.iter():
            for child in node.children:
                if isinstance(child, Text):
                    parts.append(child.value)
        return "".join(parts)

    def element_children(self) -> list["XmlElement"]:
        """Direct children that are elements, in document order."""
        return [c for c in self.children if isinstance(c, XmlElement)]

    def find(self, tag: QName | str) -> "XmlElement | None":
        """First direct child element with the given tag, or None."""
        wanted = _coerce_tag(tag)
        for child in self.children:
            if isinstance(child, XmlElement) and child.tag == wanted:
                return child
        return None

    def findall(self, tag: QName | str) -> list["XmlElement"]:
        """All direct child elements with the given tag."""
        wanted = _coerce_tag(tag)
        return [
            c for c in self.children if isinstance(c, XmlElement) and c.tag == wanted
        ]

    def findtext(self, tag: QName | str, default: str | None = None) -> str | None:
        """Text of the first matching direct child, or *default*."""
        child = self.find(tag)
        if child is None:
            return default
        return child.text

    def require(self, tag: QName | str) -> "XmlElement":
        """Like :meth:`find` but raises ``KeyError`` when missing."""
        child = self.find(tag)
        if child is None:
            raise KeyError(f"required child {_coerce_tag(tag).clark()} missing "
                           f"under {self.tag.clark()}")
        return child

    def iter(self) -> Iterator["XmlElement"]:
        """Depth-first iterator over this element and all descendants."""
        stack: list[XmlElement] = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(
                reversed([c for c in node.children if isinstance(c, XmlElement)])
            )

    def descendants(self, tag: QName | str) -> list["XmlElement"]:
        """All descendant-or-self elements with the given tag."""
        wanted = _coerce_tag(tag)
        return [node for node in self.iter() if node.tag == wanted]

    # -- structure --------------------------------------------------------

    def copy(self) -> "XmlElement":
        """Deep structural copy."""
        clone = XmlElement(self.tag, dict(self.attributes))
        for child in self.children:
            if isinstance(child, XmlElement):
                clone.children.append(child.copy())
            elif isinstance(child, Text):
                clone.children.append(Text(child.value))
            elif isinstance(child, LazyText):
                clone.children.append(LazyText(child.thunk))
            else:
                clone.children.append(Comment(child.value))
        return clone

    def equals(self, other: "XmlElement", ignore_whitespace: bool = False) -> bool:
        """Structural equality, optionally ignoring whitespace-only text."""
        if self.tag != other.tag or self.attributes != other.attributes:
            return False
        mine = _significant(self.children, ignore_whitespace)
        theirs = _significant(other.children, ignore_whitespace)
        if len(mine) != len(theirs):
            return False
        for a, b in zip(mine, theirs):
            if type(a) is not type(b):
                return False
            if isinstance(a, XmlElement):
                if not a.equals(b, ignore_whitespace):
                    return False
            elif a.value != b.value:
                return False
        return True


@dataclass(slots=True)
class RowRun:
    """Rows of a two-level lattice the parser read in one match and has
    not built as nodes: each row a ``row_tag`` element whose children
    are one ``value_tag`` element per value, a value being that
    element's character data (``""``: no text node).

    A run sits in the stored child list of a :class:`PendingRows`
    element, in document order among its other children; of the tree's
    readers only :func:`stored_children` ever returns it.
    """

    row_tag: QName
    value_tag: QName
    rows: list[tuple[str, ...]]

    def nodes(self) -> list[XmlElement]:
        """The rows as the element nodes the parser would have built."""
        # Built as the parser builds nodes: the dataclass __init__ would
        # re-validate what the parse already checked.
        new, text_new = XmlElement.__new__, Text.__new__
        row_tag, value_tag = self.row_tag, self.value_tag
        built = []
        for row in self.rows:
            values = []
            for value in row:
                cell = new(XmlElement)
                cell.tag = value_tag
                cell.attributes = {}
                if value:
                    text = text_new(Text)
                    text.value = value
                    cell.children = [text]
                else:
                    cell.children = []
                values.append(cell)
            element = new(XmlElement)
            element.tag = row_tag
            element.attributes = {}
            element.children = values
            built.append(element)
        return built


#: The storage behind ``XmlElement.children``, which :class:`PendingRows`
#: shadows with a property.
_CHILDREN = XmlElement.__dict__["children"]
_EXPANDING = threading.Lock()


def stored_children(element: XmlElement) -> list[Node | RowRun]:
    """*element*'s child list as stored, without building anything: for
    a :class:`PendingRows` element its nodes and, where rows have not
    been built, their :class:`RowRun`; for any other element its
    ``children``.  A reader that takes a run's tuples leaves the rows
    unbuilt; mutate the tree through ``children`` only."""
    return _CHILDREN.__get__(element)


def _expand(element: XmlElement) -> list[Node]:
    """Build the rows of *element*'s runs in place, once, and make it a
    plain :class:`XmlElement`.  Under a lock: two readers of one shared
    parsed document must be handed the same nodes."""
    with _EXPANDING:
        if type(element) is PendingRows:
            nodes: list[Node] = []
            for item in _CHILDREN.__get__(element):
                if type(item) is RowRun:
                    nodes.extend(item.nodes())
                else:
                    nodes.append(item)
            _CHILDREN.__set__(element, nodes)
            element.__class__ = XmlElement
    return _CHILDREN.__get__(element)


class PendingRows(XmlElement):
    """A parsed element whose stored children still hold :class:`RowRun`
    entries.

    Only the parser makes one, by re-classing the element that holds a
    run when the document is complete.  The first read of ``children``
    — and so every ``find``/``iter``/``equals``/``copy``/serialization
    — builds the runs' rows in place and turns the element back into a
    plain :class:`XmlElement`, so tree readers see exactly the nodes a
    node-by-node parse builds.  A dataset reader takes the tuples
    through :func:`stored_children` and builds nothing.
    """

    __slots__ = ()

    @property
    def children(self) -> list[Node]:
        return _expand(self)

    @children.setter
    def children(self, value: list[Node]) -> None:
        with _EXPANDING:
            _CHILDREN.__set__(self, value)
            self.__class__ = XmlElement

    def __eq__(self, other: object) -> bool:
        _expand(self)  # now a plain XmlElement: compare as one
        return self == other


#: Renders an inner QName with the prefix the enclosing document assigned.
QNameRenderer = Callable[[QName], str]


class StreamedElement(XmlElement):
    """An element whose content is produced lazily as serialized chunks.

    The element participates in a tree like any other (tag, attributes,
    copy, namespace collection) but carries no child nodes; instead,
    ``chunk_source`` is a factory ``(qname_renderer) -> iterator of
    already-serialized XML text chunks`` that the serializer drains when
    it reaches the element.  This is how O(result)-sized datasets ride
    inside a SOAP envelope without ever being materialized as a tree or
    a single string: the serializer emits the envelope prefix, streams
    the chunks, then emits the suffix.

    ``namespaces`` declares any namespace URI the lazy content uses
    beyond the element's own tag namespace, so the root can declare a
    prefix for it (the serializer cannot walk content that does not
    exist yet).

    The chunk factory is called once per serialization; backing sources
    that are one-shot (a live database cursor) support exactly one
    serialization, which is all a response envelope ever needs.
    """

    __slots__ = ("chunk_source", "namespaces")

    #: Whether the content is still to be produced by a source the
    #: serializer cannot see — what an arbitrary chunk factory must be
    #: assumed to be.  A subclass that knows its content already sits in
    #: memory answers False.  Nothing on the wire depends on it: the
    #: HTTP server frames a reply by the bytes it has written.
    lazy = True

    def __init__(
        self,
        tag: QName | str,
        chunk_source: Callable[[QNameRenderer], Iterator[str]],
        namespaces: Iterable[str] = (),
        attributes: dict | None = None,
    ) -> None:
        super().__init__(_coerce_tag(tag), dict(attributes or {}))
        self.chunk_source = chunk_source
        self.namespaces = tuple(namespaces)

    def copy(self) -> "StreamedElement":
        """Copy shares the chunk factory (the stream itself is not
        duplicable); attributes are copied like any element."""
        return StreamedElement(
            self.tag, self.chunk_source, self.namespaces, dict(self.attributes)
        )


class RenderedElement(XmlElement):
    """An element whose leading content is already serialized.

    ``rendering(prefixes)`` returns that content as XML text written
    with the enclosing document's namespace→prefix map; the serializer
    emits it verbatim right after the start tag, then writes
    ``children`` — ordinary nodes — behind it.  This is how a cached
    document rides in a reply without its cached part being walked,
    copied or re-serialized: the owner of the rendering memoizes it per
    prefix map.

    ``namespaces`` declares every namespace URI the rendered text uses,
    in document order, exactly as a :class:`StreamedElement` declares
    its lazy content's, so the root can bind them without walking it.
    The rendered text is not part of the tree API (``find``, ``iter``,
    ``equals`` see only ``children``): callers that read a document
    ask its owner for a real tree instead.
    """

    __slots__ = ("rendering", "namespaces")

    def __init__(
        self,
        tag: QName | str,
        rendering: Callable[[dict[str, str]], str],
        namespaces: Iterable[str] = (),
        attributes: dict | None = None,
    ) -> None:
        super().__init__(_coerce_tag(tag), dict(attributes or {}))
        self.rendering = rendering
        self.namespaces = tuple(namespaces)

    def copy(self) -> "RenderedElement":
        """Copy shares the rendering (immutable text) and deep-copies
        the ordinary children."""
        clone = RenderedElement(
            self.tag, self.rendering, self.namespaces, self.attributes
        )
        clone.children = XmlElement.copy(self).children
        return clone


def _significant(children: list[Node], ignore_whitespace: bool) -> list[Node]:
    out: list[Node] = []
    for child in children:
        if isinstance(child, Comment):
            continue
        if ignore_whitespace and isinstance(child, Text) and not child.value.strip():
            continue
        if type(child) is PendingRows:
            _expand(child)  # compared as the plain element it becomes
        out.append(child)
    return out
