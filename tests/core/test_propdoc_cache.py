"""The property-document cache: version discipline and no aliasing.

The cache keeps, per abstract name and stamped with the resource's
property version, a master tree parsed from bytes rendered at fill
time and the stored rendering replies are written from.  These tests
pin the two contracts that make it safe:

* **Version-check-at-lookup** — a document cached before DDL is dropped
  at the next lookup (invalidation + miss), never served stale; WSRF
  lifetime transitions and destroys invalidate explicitly.
* **No aliasing** — entries are filled from bytes rendered at fill time
  and serve deep copies or immutable text, so neither mutating a
  served tree nor mutating the live catalog in place can corrupt what
  the cache serves next.
"""

import pytest

from repro.cim import parse_cim_xml
from repro.core.propcache import PropertyDocumentCache
from repro.workload import RelationalWorkload, build_single_service
from repro.xmlutil import E, parse_bytes as parse, serialize_bytes

SMALL = RelationalWorkload(customers=5, orders_per_customer=1, items_per_order=1)


@pytest.fixture()
def single():
    return build_single_service(SMALL)


def _cim_element(document):
    """The CIM_CommonDatabase instance inside a property document."""
    for node in document.iter():
        if node.tag.local == "CIMDescription":
            return node.element_children()[0]
    raise AssertionError("no CIMDescription in property document")


def _cim(document):
    return parse_cim_xml(_cim_element(document))


class TestCacheUnit:
    """Recency, capacity, stale-stamp dropping and the pre-bind flush
    are the primitive's: ``tests/test_versioned_lru.py`` checks them on
    this cache too.  What is the document cache's own stays here."""

    def test_miss_then_store_then_hit(self):
        cache = PropertyDocumentCache()
        assert cache.lookup("r1", 0) is None
        cache.store("r1", 0, b"<doc/>")
        entry = cache.lookup("r1", 0)
        assert entry is not None
        assert serialize_bytes(entry.tree()) == serialize_bytes(parse(b"<doc/>"))
        assert cache.stats() == {
            "hits": 1, "misses": 1, "invalidations": 0, "size": 1,
        }

    def test_explicit_invalidate_counts_only_when_present(self):
        cache = PropertyDocumentCache()
        cache.invalidate("ghost")
        assert cache.stats()["invalidations"] == 0
        cache.store("r1", 0, b"<doc/>")
        cache.invalidate("r1")
        assert cache.stats()["invalidations"] == 1
        assert len(cache) == 0

    def test_served_documents_are_independent_copies(self):
        cache = PropertyDocumentCache()
        filled = cache.store("r1", 0, b'<doc kind="cached"><x/></doc>')
        tree = filled.tree()
        tree.set("kind", "vandalised")
        tree.children.clear()
        reply = filled.served()
        reply.set("kind", "vandalised-too")
        reply.append(E("y"))
        served = cache.lookup("r1", 0)
        assert served is filled
        assert serialize_bytes(served.tree()) == serialize_bytes(
            parse(b'<doc kind="cached"><x/></doc>')
        )
        assert served.served().get("kind") == "cached"
        assert served.served().children == []
        assert cache.lookup("r1", 1) is None  # stale → dropped
        assert cache.stats()["invalidations"] == 1


class TestServiceIntegration:
    def _hits(self, service):
        return service.metrics.counter("cache.propdoc.hits").total()

    def test_repeat_fetch_served_from_cache_byte_identically(self, single):
        first = single.client.get_property_document(
            single.address, single.name
        )
        hits_before = self._hits(single.service)
        second = single.client.get_property_document(
            single.address, single.name
        )
        assert self._hits(single.service) == hits_before + 1
        # The volatile blocks (metrics, journal) differ between calls;
        # the cached core must not: the CIM description is byte-equal.
        assert serialize_bytes(_cim_element(first)) == serialize_bytes(
            _cim_element(second)
        )

    def test_ddl_invalidates_cached_document(self, single):
        single.client.get_property_document(single.address, single.name)
        single.client.get_property_document(single.address, single.name)
        single.database.execute("CREATE TABLE freshly_made (id INT)")
        invalidations = single.service.metrics.counter(
            "cache.propdoc.invalidations"
        )
        before = invalidations.total()
        document = single.client.get_property_document(
            single.address, single.name
        )
        assert invalidations.total() == before + 1
        tables = [table.name for table in _cim(document).tables]
        assert "freshly_made" in tables

    def test_in_place_catalog_mutation_cannot_corrupt_cached_bytes(
        self, single
    ):
        """Bytes-at-fill regression: mutating the catalog *without* a
        version bump must not leak into what the cache serves — the
        entry was rendered to bytes before the mutation."""
        single.client.get_property_document(single.address, single.name)
        table = single.database.catalog.table("customers")
        original = table.columns[0].name
        table.columns[0].name = "aliased_column"
        try:
            document = single.client.get_property_document(
                single.address, single.name
            )
            names = [c.name for c in _cim(document).table("customers").columns]
            assert "aliased_column" not in names
            # An explicit version bump (how real in-place DDL reports
            # itself) makes the next read render fresh.
            single.database.catalog.bump_version()
            document = single.client.get_property_document(
                single.address, single.name
            )
            names = [c.name for c in _cim(document).table("customers").columns]
            assert "aliased_column" in names
        finally:
            table.columns[0].name = original
            single.database.catalog.bump_version()

    def test_mutating_a_served_tree_does_not_poison_the_cache(self, single):
        document = single.client.get_property_document(
            single.address, single.name
        )
        for node in _cim_element(document).iter():
            if node.get("CLASSNAME") == "CIM_Table":
                node.set("CLASSNAME", "vandalised")
        document = single.client.get_property_document(
            single.address, single.name
        )
        classnames = {
            node.get("CLASSNAME") for node in _cim_element(document).iter()
        }
        assert "vandalised" not in classnames
        assert "CIM_Table" in classnames

    def test_destroy_invalidates_document(self, single):
        single.client.get_property_document(single.address, single.name)
        assert len(single.service.propdoc_cache) == 1
        single.client.destroy(single.address, single.name)
        assert len(single.service.propdoc_cache) == 0
