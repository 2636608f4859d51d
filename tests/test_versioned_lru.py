"""The one cache mechanism: :class:`repro.lru.VersionedLRU`.

Recency, capacity, stale-stamp dropping, counting and counter binding
are implemented once, so they are checked once — against the primitive
and against each cache built on it (plan, property-document,
shared-result; the client's ``resolve()`` cache *is* the primitive), so
a policy that overrode the mechanism by accident would fail here.  What
each cache adds on top (DDL races, no-alias copies, refcounted reuse,
typed-fault eviction) is tested beside that cache.
"""

import sys
import threading
from typing import Callable, NamedTuple

import pytest

from repro.core.propcache import PropertyDocumentCache
from repro.dair.resultcache import SharedResultCache
from repro.lru import VersionedLRU
from repro.obs import MetricsRegistry
from repro.relational import PlanCache, PlanEntry


class _Flavour(NamedTuple):
    """Adapts one cache's ``store``/``lookup`` spelling to (key, stamp)."""

    name: str
    make: Callable
    store: Callable
    lookup: Callable


FLAVOURS = [
    _Flavour(
        "primitive",
        VersionedLRU,
        lambda cache, key, stamp: cache.store(key, stamp, f"value-{key}"),
        lambda cache, key, stamp: cache.lookup(key, stamp),
    ),
    _Flavour(
        "plan",
        PlanCache,
        lambda cache, key, stamp: cache.store(
            key, PlanEntry(f"statement-{key}", catalog_version=stamp)
        ),
        lambda cache, key, stamp: cache.lookup(key, stamp),
    ),
    _Flavour(
        "propdoc",
        PropertyDocumentCache,
        lambda cache, key, stamp: cache.store(key, stamp, b"<doc/>"),
        lambda cache, key, stamp: cache.lookup(key, stamp),
    ),
    _Flavour(
        "result",
        SharedResultCache,
        lambda cache, key, stamp: cache.store(key, stamp, f"name-{key}"),
        lambda cache, key, stamp: cache.lookup(key, stamp, lambda name: True),
    ),
]


@pytest.fixture(params=FLAVOURS, ids=lambda flavour: flavour.name)
def flavour(request):
    return request.param


def _counters():
    registry = MetricsRegistry()
    return tuple(
        registry.counter(f"cache.test.{name}")
        for name in ("hits", "misses", "invalidations")
    )


class TestMechanism:
    def test_miss_then_store_then_hit(self, flavour):
        cache = flavour.make(4)
        assert flavour.lookup(cache, "k", 0) is None
        flavour.store(cache, "k", 0)
        assert flavour.lookup(cache, "k", 0) is not None
        assert cache.stats() == {
            "hits": 1, "misses": 1, "invalidations": 0, "size": 1,
        }

    def test_lru_order_and_capacity(self, flavour):
        cache = flavour.make(2)
        flavour.store(cache, "a", 0)
        flavour.store(cache, "b", 0)
        assert flavour.lookup(cache, "a", 0) is not None  # refresh a
        flavour.store(cache, "c", 0)  # evicts b, the LRU entry
        assert len(cache) == 2
        assert flavour.lookup(cache, "b", 0) is None  # evicted: a plain miss
        assert flavour.lookup(cache, "a", 0) is not None
        assert flavour.lookup(cache, "c", 0) is not None
        assert cache.stats()["invalidations"] == 0

    def test_stale_stamp_drops_entry_and_counts_both(self, flavour):
        cache = flavour.make(4)
        flavour.store(cache, "k", 3)
        assert flavour.lookup(cache, "k", 4) is None
        assert cache.stats() == {
            "hits": 0, "misses": 1, "invalidations": 1, "size": 0,
        }
        # The stale entry is gone: the old stamp is now a plain miss,
        # not a second invalidation.
        assert flavour.lookup(cache, "k", 3) is None
        assert cache.stats()["invalidations"] == 1

    def test_invalidate_counts_only_when_present(self, flavour):
        cache = flavour.make(4)
        assert cache.invalidate("ghost") is False
        assert cache.stats()["invalidations"] == 0
        flavour.store(cache, "k", 0)
        assert cache.invalidate("k") is True
        assert cache.stats()["invalidations"] == 1
        assert len(cache) == 0

    def test_clear_empties_without_touching_totals(self, flavour):
        cache = flavour.make(4)
        flavour.store(cache, "k", 0)
        flavour.lookup(cache, "k", 0)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats()["hits"] == 1
        assert flavour.lookup(cache, "k", 0) is None

    def test_bound_counters_mirror_activity(self, flavour):
        hits, misses, invalidations = _counters()
        cache = flavour.make(4)
        cache.bind_counters(hits, misses, invalidations)
        flavour.lookup(cache, "k", 0)  # miss
        flavour.store(cache, "k", 0)
        flavour.lookup(cache, "k", 0)  # hit
        flavour.lookup(cache, "k", 1)  # stale: invalidation + miss
        assert (hits.total(), misses.total(), invalidations.total()) == (1, 2, 1)

    def test_first_bind_flushes_earlier_totals_once(self, flavour):
        cache = flavour.make(4)
        flavour.store(cache, "k", 0)
        flavour.lookup(cache, "k", 0)
        flavour.lookup(cache, "k", 1)  # invalidation + miss
        hits, misses, invalidations = _counters()
        cache.bind_counters(hits, misses, invalidations)
        assert (hits.total(), misses.total(), invalidations.total()) == (1, 1, 1)
        # Rebinding must not flush a second time.
        cache.bind_counters(hits, misses, invalidations)
        assert hits.total() == 1

    def test_capacity_must_be_positive(self, flavour):
        with pytest.raises(ValueError):
            flavour.make(0)


class TestPrimitiveOnly:
    def test_store_is_first_writer_wins_at_the_same_stamp(self):
        cache = VersionedLRU(4)
        assert cache.store("k", 1, "first") == "first"
        assert cache.store("k", 1, "second") == "first"
        assert cache.store("k", 2, "third") == "third"  # new stamp replaces
        assert cache.lookup("k", 2) == "third"
        assert cache.stats()["invalidations"] == 0  # replaced, not invalidated

    def test_accept_rejection_is_a_stale_drop(self):
        cache = VersionedLRU(4)
        cache.store("k", 0, "value")
        assert cache.lookup("k", 0, lambda value: True) == "value"
        assert cache.lookup("k", 0, lambda value: False) is None
        assert cache.stats() == {
            "hits": 1, "misses": 1, "invalidations": 1, "size": 0,
        }

    def test_on_drop_sees_every_departure(self):
        dropped = []
        cache = VersionedLRU(2, on_drop=lambda key, value: dropped.append(key))
        cache.store("stale", 0, 0)
        cache.lookup("stale", 1)
        cache.store("replaced", 0, 0)
        cache.store("replaced", 1, 1)
        cache.store("invalidated", 0, 0)
        cache.invalidate("invalidated")
        cache.store("a", 0, 0)
        cache.store("b", 0, 0)  # "replaced" makes room
        cache.clear()
        assert dropped == ["stale", "replaced", "invalidated", "replaced", "a", "b"]

    def test_items_is_a_snapshot_in_recency_order(self):
        cache = VersionedLRU(4)
        cache.store("a", 0, 1)
        cache.store("b", 0, 2)
        cache.lookup("a", 0)
        items = cache.items()
        assert items == [("b", 2), ("a", 1)]
        cache.invalidate("a")
        assert items == [("b", 2), ("a", 1)]

    def test_concurrent_fillers_converge_and_totals_add_up(self):
        cache = VersionedLRU(8)
        rounds, workers = 400, 8
        winners: dict = {key: set() for key in range(8)}

        def worker(ident: int) -> None:
            for index in range(rounds):
                key = index % 8
                if cache.lookup(key, 0) is None:
                    winners[key].add(cache.store(key, 0, ident))

        threads = [
            threading.Thread(target=worker, args=(ident,))
            for ident in range(workers)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        # Every filler of a key was handed the first writer's value, and
        # no hit or miss was lost to a racing update.
        assert all(len(seen) == 1 for seen in winners.values())
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == rounds * workers
        assert stats["size"] == 8
