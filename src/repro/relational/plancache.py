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
from dataclasses import dataclass, field
from typing import Optional

from repro.lru import VersionedLRU

__all__ = ["PlanCache", "PlanEntry"]


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


class PlanCache(VersionedLRU):
    """A bounded, thread-safe LRU of :class:`PlanEntry` keyed on SQL
    text (512 distinct texts by default) and stamped with the catalog
    version; ``lookup(sql, catalog_version)`` is the primitive's own."""

    def __init__(self, capacity: int = 512) -> None:
        super().__init__(capacity)

    def store(self, sql: str, entry: PlanEntry) -> PlanEntry:
        """Insert *entry*; returns the entry actually cached: if another
        thread stored a same-version entry first, that one wins, so
        memoized planning attributes are shared, not split."""
        return super().store(sql, entry.catalog_version, entry)
