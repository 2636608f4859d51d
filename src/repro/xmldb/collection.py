"""Collections and documents.

A :class:`CollectionManager` owns a root collection; collections nest and
hold named documents.  Paths are slash-separated (``inventory/books``).
All WS-DAIX collection operations (AddDocuments, GetDocuments,
CreateSubcollection, ...) are thin wrappers over this module.

A collection keeps a :attr:`Collection.version`, bumped after every
change to its documents, and what it derives from them stamped with it:
the name-sorted document list and the value indexes a statement's
:class:`~repro.xpath.evaluator.RootFilter` probes (:meth:`Collection.select`).
"""

from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from repro.xmldb.errors import (
    CollectionNotFoundError,
    DocumentExistsError,
    DocumentNotFoundError,
    XmlDbError,
)
from repro.lru import VersionedLRU
from repro.xmlutil import XmlElement, parse, serialize

#: Value indexes one collection keeps, least recently probed dropped
#: first: one per (root element, operand, string/number) probed.
INDEX_CAPACITY = 16


@dataclass
class Document:
    """A named XML document inside a collection."""

    name: str
    root: XmlElement

    def copy(self) -> "Document":
        return Document(self.name, self.root.copy())

    def to_text(self) -> str:
        return serialize(self.root)


def _validate_segment(name: str) -> str:
    if not name or "/" in name:
        raise XmlDbError(f"invalid name {name!r}")
    return name


# Where in the sorted key list the matches of `key op literal` lie.
_RANGES = {
    "=": lambda keys, x: (bisect_left(keys, x), bisect_right(keys, x)),
    "<": lambda keys, x: (0, bisect_left(keys, x)),
    "<=": lambda keys, x: (0, bisect_right(keys, x)),
    ">": lambda keys, x: (bisect_right(keys, x), len(keys)),
    ">=": lambda keys, x: (bisect_left(keys, x), len(keys)),
}


class ValueIndex:
    """One operand's keys across a snapshot of a collection's documents,
    each pointing at a document's ordinal in that snapshot: a dict for
    string equality, a sorted key list for numeric comparisons."""

    def __init__(self, root_filter, documents: list[Document]) -> None:
        if root_filter.numeric:
            pairs = sorted(
                (key, ordinal)
                for ordinal, document in enumerate(documents)
                for key in root_filter.keys(document.root)
            )
            self._keys = [key for key, _ in pairs]
            self._ordinals = [ordinal for _, ordinal in pairs]
        else:
            self._strings: dict[str, list[int]] = {}
            for ordinal, document in enumerate(documents):
                for key in root_filter.keys(document.root):
                    self._strings.setdefault(key, []).append(ordinal)

    def probe(self, root_filter) -> list[int]:
        """Ordinals, ascending, of the documents whose keys pass."""
        literal = root_filter.literal
        if not root_filter.numeric:
            return sorted(set(self._strings.get(literal, ())))
        if literal != literal:  # NaN compares false with everything
            return []
        start, stop = _RANGES[root_filter.op](self._keys, literal)
        return sorted(set(self._ordinals[start:stop]))


class Collection:
    """A node in the collection tree."""

    def __init__(self, name: str, parent: "Collection | None" = None) -> None:
        self.name = _validate_segment(name) if parent is not None else name
        self.parent = parent
        self._documents: dict[str, Document] = {}
        self._children: dict[str, Collection] = {}
        #: Bumped (under the lock) after every finished change to the
        #: documents: add, remove, and :meth:`touch` for in-place edits.
        self.version = 0
        self._lock = threading.Lock()
        self._sorted: tuple[int, list[Document]] = (-1, [])
        #: Value indexes keyed by ``RootFilter.key``, stamped with version.
        self.indexes = VersionedLRU(INDEX_CAPACITY)

    # -- identity ------------------------------------------------------------

    @property
    def path(self) -> str:
        """Slash-separated path from the root ('' for the root itself)."""
        if self.parent is None:
            return ""
        parent_path = self.parent.path
        return f"{parent_path}/{self.name}" if parent_path else self.name

    # -- subcollections --------------------------------------------------------

    def child_names(self) -> list[str]:
        return sorted(self._children)

    def child(self, name: str) -> "Collection":
        try:
            return self._children[name]
        except KeyError:
            raise CollectionNotFoundError(
                f"no subcollection {name!r} in {self.path or '/'}"
            ) from None

    def create_child(self, name: str) -> "Collection":
        _validate_segment(name)
        if name in self._children:
            raise XmlDbError(f"subcollection {name!r} already exists")
        child = Collection(name, parent=self)
        self._children[name] = child
        return child

    def remove_child(self, name: str) -> "Collection":
        removed = self.child(name)
        del self._children[name]
        removed.parent = None
        return removed

    # -- documents ---------------------------------------------------------

    def document_names(self) -> list[str]:
        return sorted(self._documents)

    def document_count(self) -> int:
        return len(self._documents)

    def get(self, name: str) -> Document:
        try:
            return self._documents[name]
        except KeyError:
            raise DocumentNotFoundError(
                f"no document {name!r} in collection {self.path or '/'}"
            ) from None

    def add(self, name: str, root: XmlElement, replace: bool = False) -> Document:
        _validate_segment(name)
        document = Document(name, root)
        with self._lock:
            if not replace and name in self._documents:
                raise DocumentExistsError(
                    f"document {name!r} already exists in {self.path or '/'}"
                )
            self._documents[name] = document
            self.version += 1
        return document

    def add_text(self, name: str, text: str, replace: bool = False) -> Document:
        return self.add(name, parse(text), replace)

    def remove(self, name: str) -> Document:
        with self._lock:
            document = self.get(name)
            del self._documents[name]
            self.version += 1
        return document

    def touch(self) -> None:
        """Record that documents were changed in place (an XUpdate):
        call it after the change, so nothing derived from the documents
        before it is served after it."""
        with self._lock:
            self.version += 1

    def documents(self) -> list[Document]:
        """All documents, sorted by name (deterministic iteration)."""
        return list(self._snapshot()[1])

    def _snapshot(self) -> tuple[int, list[Document]]:
        """(version, the documents sorted by name) — one consistent pair;
        the list is shared, so callers must not mutate it."""
        with self._lock:
            version, documents = self._sorted
            if version != self.version:
                documents = [self._documents[n] for n in sorted(self._documents)]
                self._sorted = (self.version, documents)
            return self.version, documents

    def select(self, root_filter) -> tuple[list[XmlElement], str]:
        """The roots, in name order, of the documents that can pass
        *root_filter*, and how they were found: ``probe`` (a live value
        index) or ``build`` (one built now, over every document)."""
        version, documents = self._snapshot()
        index = self.indexes.lookup(root_filter.key, version)
        how = "probe"
        if index is None:
            index = self.indexes.store(
                root_filter.key, version, ValueIndex(root_filter, documents)
            )
            how = "build"
        return [documents[ordinal].root for ordinal in index.probe(root_filter)], how

    def walk(self):
        """Yield this collection and all descendants, depth-first."""
        yield self
        for name in sorted(self._children):
            yield from self._children[name].walk()


class CollectionManager:
    """The root of a collection tree plus path resolution."""

    def __init__(self, root_name: str = "db") -> None:
        self.root = Collection(root_name)

    def resolve(self, path: str) -> Collection:
        """Resolve ``a/b/c`` (or ``''``/``'/'`` for the root)."""
        current = self.root
        for segment in [s for s in path.split("/") if s]:
            current = current.child(segment)
        return current

    def create_path(self, path: str) -> Collection:
        """Create any missing collections along *path*; returns the leaf."""
        current = self.root
        for segment in [s for s in path.split("/") if s]:
            if segment in current._children:
                current = current.child(segment)
            else:
                current = current.create_child(segment)
        return current

    def total_documents(self) -> int:
        return sum(c.document_count() for c in self.root.walk())
