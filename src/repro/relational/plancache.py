"""The prepared-statement / plan cache.

The millions-of-users workload is *repeat* queries: the same SQL text
arrives over and over with different parameters.  Lexing, parsing and
resolving that text against the catalog on every request is pure waste —
this module caches the compiled form keyed on the raw SQL string, so a
repeat query skips the lexer, the parser, and (for SELECTs) the
column-type resolution and streamability analysis.

Correctness contract
--------------------

Every entry is stamped with the :attr:`Catalog.version` current when it
was compiled.  The catalog bumps that version on *every* schema mutation
— CREATE/DROP TABLE, CREATE/DROP VIEW, CREATE/DROP INDEX, ALTER TABLE,
and the undo arms of failed DDL — so a lookup that finds an entry with a
stale stamp discards it (counted as an invalidation) and recompiles.  A
cached plan therefore can never be served across a schema change, and a
plan compiled *during* a schema change is at worst recompiled once more.

Thread-safety: all cache state is guarded by one lock; the cached AST
is immutable, and the closures compiled from it hold no per-execution
state (parameters and outer rows arrive through a per-execution
context), so concurrent sessions may share one entry.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional

__all__ = ["PlanCache", "PlanEntry"]

#: Default number of distinct SQL texts retained (LRU beyond this).
DEFAULT_CAPACITY = 512


@dataclass
class PlanEntry:
    """One compiled statement: the parse plus memoized planning.

    ``column_types`` and ``can_stream`` start unset and are memoized by
    the session on first execution; they are derived purely from the
    statement and the catalog, so they stay valid exactly as long as the
    version stamp does.  ``compiled`` is the executor's memo of bound
    expressions.  It appears on the entry's first *hit* — a text seen
    once (inlined literals, 8× the cache's capacity in the benchmark's
    ad-hoc workload) is not worth keeping closures for — and is filled
    as operators run; its keys carry the row shapes they were bound
    against and entries are only ever added with ``dict.setdefault``,
    so it needs no lock.
    """

    statement: object
    catalog_version: int
    column_types: Optional[list] = None
    can_stream: Optional[bool] = None
    compiled: Optional[dict] = field(default=None, repr=False)
    #: Guards lazy memoization so concurrent first executions don't race.
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)


class PlanCache:
    """A bounded, thread-safe LRU of :class:`PlanEntry` keyed on SQL text."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("plan cache capacity must be >= 1")
        self._capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, PlanEntry]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self._hits_counter = None
        self._misses_counter = None
        self._invalidations_counter = None

    def bind_counters(self, hits, misses, invalidations) -> None:
        """Mirror cache activity into metrics counters.

        *hits*/*misses*/*invalidations* are
        :class:`repro.obs.metrics.Counter` instances (the service's
        ``cache.plan.*`` family).  Activity counted before binding is
        flushed into the counters so the exposition matches
        :meth:`stats`.  Rebinding replaces the targets without
        re-flushing.
        """
        with self._lock:
            first_bind = self._hits_counter is None
            self._hits_counter = hits
            self._misses_counter = misses
            self._invalidations_counter = invalidations
            if first_bind:
                if self.hits:
                    hits.inc(self.hits)
                if self.misses:
                    misses.inc(self.misses)
                if self.invalidations:
                    invalidations.inc(self.invalidations)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def lookup(self, sql: str, catalog_version: int) -> Optional[PlanEntry]:
        """Return the live entry for *sql*, or ``None`` on miss.

        An entry stamped with an older catalog version is *stale*: it is
        dropped here (counted as an invalidation **and** a miss, since
        the caller must recompile) rather than swept eagerly on DDL —
        the version check makes eager sweeping unnecessary.
        """
        with self._lock:
            entry = self._entries.get(sql)
            if entry is None:
                self.misses += 1
                if self._misses_counter is not None:
                    self._misses_counter.inc()
                return None
            if entry.catalog_version != catalog_version:
                del self._entries[sql]
                self.invalidations += 1
                self.misses += 1
                if self._invalidations_counter is not None:
                    self._invalidations_counter.inc()
                if self._misses_counter is not None:
                    self._misses_counter.inc()
                return None
            self._entries.move_to_end(sql)
            self.hits += 1
            if self._hits_counter is not None:
                self._hits_counter.inc()
            return entry

    def store(self, sql: str, entry: PlanEntry) -> PlanEntry:
        """Insert *entry*; returns the entry actually cached.

        If another thread stored a same-version entry first, that one
        wins (so memoized planning attributes are shared, not split
        across duplicate entries).
        """
        with self._lock:
            existing = self._entries.get(sql)
            if (
                existing is not None
                and existing.catalog_version == entry.catalog_version
            ):
                self._entries.move_to_end(sql)
                return existing
            self._entries[sql] = entry
            self._entries.move_to_end(sql)
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)
            return entry

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict[str, int]:
        """Snapshot of the counters (plus current size)."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "invalidations": self.invalidations,
                "size": len(self._entries),
            }
