"""Shared derived-result cache for ``SQLExecuteFactory``.

The fig-7 indirect-access workload repeats the same factory request —
identical SQL text, identical parameters, same parent resource — and
until this tier every repeat re-executed the query and materialized a
brand-new ``SQLResponseResource``.  This cache maps such a request onto
the *existing* derived resource instead: the factory answers with the
same EPR, the binding gains one refcount claim (see
:meth:`repro.core.service.DataService.acquire_resource`), and each
consumer still issues its own ``DestroyDataResource`` — only the last
release actually destroys.

Correctness contract
--------------------

* Every entry is stamped with ``(catalog.version, data_version)`` of the
  parent database at *request admission* (before the snapshot is
  evaluated).  Schema changes bump the first component, committed DML
  the second, so a stale entry is dropped at lookup and the factory
  re-executes — a reused result can never reflect pre-DDL schema or
  pre-commit data.  Stamping before evaluation is deliberately
  conservative: a write racing the snapshot at worst costs one extra
  miss, never a stale hit.
* Reuse is offered only for insensitive, unconfigured requests, in
  either execution mode (a configuration document or ``SENSITIVE``
  sensitivity makes the derived resource consumer-specific).
* A destroyed derived resource calls :meth:`forget` through its destroy
  listener, so the cache can never hand out the name of a resource
  whose teardown already ran; the acquire callback inside
  :meth:`lookup` closes the remaining race (entry present but binding
  concurrently gone → drop, count as miss).

Thread-safety: the primitive's lock guards the table and the
name → key reverse index alike; the acquire callback runs under it,
which is safe because binding-table locks are only ever taken *after*
this one (destroy listeners fire outside the binding lock).
"""

from __future__ import annotations

from typing import Hashable

from repro.lru import VersionedLRU

__all__ = ["SharedResultCache"]


class SharedResultCache(VersionedLRU):
    """A bounded, thread-safe LRU mapping factory requests (256 by
    default) to the abstract name of the shared derived resource.

    ``lookup(key, stamp, acquire)`` is the primitive's own: *acquire*
    must atomically add one claim on the named binding and report
    whether it still exists, so a hit is only counted when it lands.
    """

    def __init__(self, capacity: int = 256) -> None:
        self._by_name: dict[str, Hashable] = {}
        super().__init__(capacity, lambda key, name: self._by_name.pop(name, None))

    def store(self, key: Hashable, stamp: Hashable, name: str) -> str:
        """Record *name* as the shared resource for *key* at *stamp*;
        returns the name now cached (a racing same-stamp writer's, if it
        got there first — the loser's resource simply stays private)."""
        with self._lock:
            cached = super().store(key, stamp, name)
            if cached == name:
                self._by_name[name] = key
            return cached

    def forget(self, name: str) -> None:
        """Drop the entry for a destroyed resource (destroy listener)."""
        with self._lock:
            key = self._by_name.get(name)
            if key is not None:
                self.invalidate(key)
