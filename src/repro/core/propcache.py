"""The property-document cache.

Figure 4 of the paper prices a property-document fetch at 10–92 KB, and
until this tier every fetch re-rendered the document from the live
catalog — for a relational resource that means walking every table,
column, constraint and index to rebuild the ``CIMDescription`` element.
This cache keeps, per resource, a master tree of its own document and
the serialized text of that document's content, so a repeat read for a
reply costs one dict lookup: the reply splices the stored text in and
only the volatile properties appended behind it are built and written
(see ``make bench-fig4``).

Correctness contract
--------------------

The mechanism is :class:`repro.lru.VersionedLRU`; the policy is:

* Every entry is stamped with the resource's *property version* (for a
  relational resource, :attr:`Catalog.version`, which bumps on every
  schema mutation including the undo arms of failed DDL), so a
  document cached before DDL is dropped at the next lookup, never
  served after it, with no eager sweeping on the DDL path.
* Entries are filled from **bytes** rendered at fill time: the master
  tree is parsed *from those bytes*, never taken from the live render,
  so cached documents cannot alias mutable catalog or rowset state: a
  consumer that mutates the catalog in place (without a version bump)
  still cannot corrupt what the cache serves.
* Nothing handed out aliases the master.  A reply gets a
  :class:`~repro.xmlutil.RenderedElement` carrying the master's root
  tag, a copy of its attributes and the stored text (an immutable
  string); a reader that wants a tree (:meth:`CachedDocument.tree`)
  gets a deep copy.  Vandalising either cannot poison the cache.
* Lifecycle events that change a document outside the version stamp —
  a WSRF ``SetTerminationTime``, destroy, or soft-state sweep — call
  :meth:`invalidate` explicitly.

Thread-safety: the primitive's lock guards the table; the master is
never mutated after the fill, so copies and renderings of it are taken
outside that lock, and each entry's rendering memo has a lock of its
own.
"""

from __future__ import annotations

import threading

from repro.lru import VersionedLRU
from repro.xmlutil import (
    RenderedElement,
    XmlElement,
    parse_bytes,
    serialize_content,
)
from repro.xmlutil.serialize import _collect_namespaces

__all__ = ["CachedDocument", "PropertyDocumentCache"]

#: Renderings memoized per entry, one per distinct prefix map.  Every
#: reply envelope assigns the same map (the template's), so one is the
#: steady state; a map beyond the bound is rendered, not remembered.
RENDERINGS_PER_ENTRY = 4


class CachedDocument:
    """One cache entry: the master tree parsed from the fill's bytes and
    its content rendered once per enclosing prefix map."""

    __slots__ = ("master", "namespaces", "renderings", "_lock")

    def __init__(self, payload: bytes) -> None:
        self.master = parse_bytes(payload)
        #: Every namespace the document uses, in document order.
        self.namespaces = tuple(_collect_namespaces(self.master))
        #: Prefixes of :attr:`namespaces` → content rendered with them;
        #: at most :data:`RENDERINGS_PER_ENTRY` entries.
        self.renderings: dict[tuple[str, ...], str] = {}
        self._lock = threading.Lock()

    def tree(self) -> XmlElement:
        """A deep copy of the master, for readers that walk a tree."""
        return self.master.copy()

    def served(self) -> RenderedElement:
        """The document for a reply: the master's root tag and
        attributes around its stored rendering, no children yet."""
        master = self.master
        return RenderedElement(
            master.tag, self.rendering, self.namespaces, master.attributes
        )

    def rendering(self, prefixes: dict[str, str]) -> str:
        """The master's content written with *prefixes* (which must
        bind every one of :attr:`namespaces`); memoized per distinct
        assignment of those namespaces, up to the bound."""
        key = tuple(prefixes[uri] for uri in self.namespaces)
        text = self.renderings.get(key)
        if text is None:
            text = serialize_content(self.master, prefixes)
            with self._lock:
                if len(self.renderings) < RENDERINGS_PER_ENTRY:
                    text = self.renderings.setdefault(key, text)
        return text


class PropertyDocumentCache(VersionedLRU):
    """A bounded, thread-safe LRU of :class:`CachedDocument` entries.

    Keys are resource abstract names (256 by default); each entry is
    stamped with the resource's property version at render time and
    checked at :meth:`lookup`, which returns the entry or ``None``.
    """

    def __init__(self, capacity: int = 256) -> None:
        super().__init__(capacity)

    def store(self, key: str, version: int, payload: bytes) -> CachedDocument:
        """Cache *payload*, the rendered bytes of *key*'s document at
        *version*, and return the entry now cached (an earlier
        same-version filler's, when one raced ahead)."""
        return super().store(key, version, CachedDocument(payload))
