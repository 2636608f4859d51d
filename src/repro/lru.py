"""One bounded, version-stamped LRU: the mechanism under every cache here.

The plan, property-document, shared-result and client ``resolve()``
caches differ in *what* they keep and *when* it goes stale; how an entry
is found, aged, dropped and counted is this one class, which imports
nothing from the rest of the package.

Contract
--------

* An entry is ``key -> (stamp, value)``; the stamp is the owner's
  version of the truth when the value was computed.  :meth:`lookup`
  serves the value only if the stored stamp equals the caller's current
  one **and** the optional ``accept(value)`` agrees; otherwise the entry
  is dropped on the spot — an invalidation **and** a miss, since the
  caller must recompute.  A value computed before a version bump is thus
  never served after it, and nothing is swept eagerly on a bump.
* :meth:`store` is first-writer-wins: a same-stamp entry already there
  stays and its value is returned, so racing fillers converge on one
  shared value.  An entry with another stamp is replaced.
* Capacity is fixed; hits and stores refresh recency and the least
  recently used entry makes room.  Making room and being replaced are
  not invalidations; :meth:`invalidate` is, when the key was present.
* ``on_drop(key, value)`` runs whenever an entry leaves, for any reason,
  so an owner can keep a secondary index exact.
* Hits, misses and invalidations are totalled here (:meth:`stats`) and
  mirrored into metrics counters from :meth:`bind_counters` on;
  :meth:`clear` empties the table and leaves the totals alone.

Thread-safety: one re-entrant lock guards all state; ``accept`` and
``on_drop`` run under it, and a subclass may hold it around several
calls to make a compound update atomic.
"""

import threading
from collections import OrderedDict

__all__ = ["VersionedLRU"]


class VersionedLRU:
    """A bounded, thread-safe LRU of stamped values (contract above)."""

    def __init__(self, capacity: int, on_drop=None) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self._capacity = capacity
        self._on_drop = on_drop
        self._lock = threading.RLock()
        self._entries: OrderedDict = OrderedDict()
        self._totals = {"hits": 0, "misses": 0, "invalidations": 0}
        self._counters = None

    def bind_counters(self, hits, misses, invalidations) -> None:
        """Mirror activity into metrics counters.  Totals from before
        the first bind are flushed in, so the exposition matches
        :meth:`stats`; rebinding replaces the targets without flushing."""
        with self._lock:
            first_bind = self._counters is None
            self._counters = dict(hits=hits, misses=misses, invalidations=invalidations)
            if first_bind:
                for name, total in self._totals.items():
                    if total:
                        self._counters[name].inc(total)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def lookup(self, key, stamp=None, accept=None):
        """The live value for *key* at *stamp*, or ``None`` on a miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                if entry[0] == stamp and (accept is None or accept(entry[1])):
                    self._entries.move_to_end(key)
                    self._totals["hits"] += 1
                    if self._counters is not None:
                        self._counters["hits"].inc()
                    return entry[1]
                self._remove(key, invalidated=True)
            self._totals["misses"] += 1
            if self._counters is not None:
                self._counters["misses"].inc()
            return None

    def store(self, key, stamp, value):
        """Cache *value* for *key* at *stamp*; returns the value now
        cached (an earlier same-stamp writer's, if there was one)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                if entry[0] == stamp:
                    self._entries.move_to_end(key)
                    return entry[1]
                self._remove(key)
            self._entries[key] = (stamp, value)
            while len(self._entries) > self._capacity:
                self._remove(next(iter(self._entries)))
            return value

    def invalidate(self, key) -> bool:
        """Drop *key*; counted (and true) only if it was present."""
        with self._lock:
            if key not in self._entries:
                return False
            self._remove(key, invalidated=True)
            return True

    def _remove(self, key, invalidated: bool = False) -> None:
        _, value = self._entries.pop(key)
        if self._on_drop is not None:
            self._on_drop(key, value)
        if invalidated:
            self._totals["invalidations"] += 1
            if self._counters is not None:
                self._counters["invalidations"].inc()

    def items(self) -> list:
        """A snapshot of ``(key, value)`` pairs, least recent first."""
        with self._lock:
            return [(key, entry[1]) for key, entry in self._entries.items()]

    def clear(self) -> None:
        with self._lock:
            for key in list(self._entries):
                self._remove(key)

    def stats(self) -> dict[str, int]:
        """Snapshot of the totals (plus current size)."""
        with self._lock:
            return {**self._totals, "size": len(self._entries)}
