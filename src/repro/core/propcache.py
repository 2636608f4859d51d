"""The property-document cache.

Figure 4 of the paper prices a property-document fetch at 10–92 KB, and
until this tier every fetch re-rendered the document from the live
catalog — for a relational resource that means walking every table,
column, constraint and index to rebuild the ``CIMDescription`` element.
This cache keeps the *rendered bytes* of each resource's own document,
plus a master tree parsed back from those bytes, so a repeat read costs
one dict lookup plus a deep copy — several times cheaper than either
re-rendering or re-parsing (see ``make bench-fig4``).

Correctness contract
--------------------

The mechanism is :class:`repro.lru.VersionedLRU`; the policy is:

* Every entry is stamped with the resource's *property version* (for a
  relational resource, :attr:`Catalog.version`, which bumps on every
  schema mutation including the undo arms of failed DDL), so a
  document cached before DDL is dropped at the next lookup, never
  served after it, with no eager sweeping on the DDL path.
* Entries are **bytes**, rendered at fill time; the master tree kept
  alongside is parsed *from those bytes*, never taken from the live
  render, so cached documents cannot alias mutable catalog or rowset
  state: a consumer that mutates the catalog in place (without a
  version bump) still cannot corrupt what the cache serves.  Served
  trees are deep copies of the master — a tree handed to one consumer
  is never shared with the next, and vandalising a served tree cannot
  poison the cache.
* Lifecycle events that change a document outside the version stamp —
  a WSRF ``SetTerminationTime``, destroy, or soft-state sweep — call
  :meth:`invalidate` explicitly.

Thread-safety: the primitive's lock guards the table; payload bytes are
immutable and the master tree is only ever deep-copied (outside the
lock), never handed out.
"""

from __future__ import annotations

from typing import Optional

from repro.lru import VersionedLRU
from repro.xmlutil import XmlElement, parse_bytes

__all__ = ["PropertyDocumentCache"]


class PropertyDocumentCache(VersionedLRU):
    """A bounded, thread-safe LRU of rendered property-document bytes.

    Keys are resource abstract names (256 by default); each entry is
    ``(payload bytes, master tree)`` stamped with the resource's
    property version at render time and checked at lookup.
    """

    def __init__(self, capacity: int = 256) -> None:
        super().__init__(capacity)

    def lookup(self, key: str, version: int) -> Optional[bytes]:
        """Return the cached bytes for *key* at *version*, or ``None``."""
        entry = super().lookup(key, version)
        return None if entry is None else entry[0]

    def lookup_document(self, key: str, version: int) -> Optional[XmlElement]:
        """A served tree for *key* at *version*: a deep copy of the
        master, or ``None`` on miss/stale."""
        entry = super().lookup(key, version)
        return None if entry is None else entry[1].copy()

    def store(self, key: str, version: int, payload: bytes) -> XmlElement:
        """Cache *payload* as the rendering of *key* at *version* and
        return a served (deep-copied) tree for the filling request.  The
        master is parsed from *payload*, not taken from the caller's
        live render, so it cannot alias catalog state."""
        entry = super().store(key, version, (payload, parse_bytes(payload)))
        return entry[1].copy()
