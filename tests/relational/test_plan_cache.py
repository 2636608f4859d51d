"""The prepared-statement plan cache and its invalidation contract.

A statement's compiled plan may be reused only while the catalog it was
compiled against is unchanged: any DDL — including in-place ALTERs and
the undo path of a failed CREATE INDEX — bumps the catalog version and
must make cached plans for the old schema unreachable.  Staleness is
detected at lookup, so a plan cached before a DDL can never serve a
query issued after it (the DDL-vs-cached-query race).
"""

import threading

import pytest

from repro.obs import MetricsRegistry
from repro.relational import Database, PlanCache, PlanEntry
from repro.relational.errors import CatalogError
from repro.relational.parser import parse_statement


@pytest.fixture()
def database():
    db = Database("plandb")
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, name VARCHAR(20))")
    db.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b')")
    return db


class TestCacheHits:
    def test_repeated_statement_hits_cache(self, database):
        base = database.plan_cache.stats()
        for _ in range(5):
            result = database.execute("SELECT id FROM t ORDER BY id")
            assert [row[0] for row in result.rows] == [1, 2]
        stats = database.plan_cache.stats()
        assert stats["misses"] - base["misses"] == 1
        assert stats["hits"] - base["hits"] == 4

    def test_distinct_sql_text_is_distinct_entry(self, database):
        base = database.plan_cache.stats()["misses"]
        database.execute("SELECT id FROM t")
        database.execute("SELECT  id FROM t")  # whitespace differs: new key
        assert database.plan_cache.stats()["misses"] - base == 2

    def test_cached_column_types_are_not_aliased(self, database):
        first = database.execute("SELECT id, name FROM t")
        first.column_types.append("CORRUPTED")
        second = database.execute("SELECT id, name FROM t")
        assert "CORRUPTED" not in second.column_types


class TestInvalidation:
    def test_alter_table_invalidates_cached_select_star(self, database):
        before = database.execute("SELECT * FROM t")
        assert before.columns == ["id", "name"]
        database.execute("ALTER TABLE t ADD COLUMN extra INT")
        after = database.execute("SELECT * FROM t")
        assert after.columns == ["id", "name", "extra"]
        assert database.plan_cache.stats()["invalidations"] >= 1

    def test_drop_table_invalidates_cached_plan(self, database):
        database.execute("SELECT id FROM t")
        database.execute("DROP TABLE t")
        with pytest.raises(CatalogError):
            database.execute("SELECT id FROM t")

    def test_create_and_drop_view_bump_version(self, database):
        v0 = database.catalog.version
        database.execute("CREATE VIEW tv AS SELECT id FROM t")
        v1 = database.catalog.version
        database.execute("DROP VIEW tv")
        assert v1 > v0
        assert database.catalog.version > v1

    def test_create_index_bumps_version(self, database):
        database.execute("SELECT id FROM t")
        v0 = database.catalog.version
        database.execute("CREATE INDEX t_name ON t (name)")
        assert database.catalog.version > v0
        # The post-DDL execution recompiles rather than reusing.
        database.execute("SELECT id FROM t")
        assert database.plan_cache.stats()["invalidations"] >= 1

    def test_ddl_versus_cached_query_race_regression(self, database):
        """A plan cached at version N must not serve version N+1.

        This is the deterministic core of the race: the entry enters the
        cache, DDL lands (bumping the version), and the next lookup of
        the same SQL text — however quickly it follows — must miss.
        """
        cache = database.plan_cache
        sql = "SELECT name FROM t"
        database.execute(sql)
        stale_version = database.catalog.version
        assert cache.lookup(sql, stale_version) is not None
        database.execute("ALTER TABLE t ADD COLUMN raced INT")
        assert cache.lookup(sql, database.catalog.version) is None
        stats = cache.stats()
        assert stats["invalidations"] >= 1

    def test_concurrent_readers_and_ddl_never_see_stale_columns(self, database):
        """Hammer SELECT * from threads while DDL widens the table; every
        result must have a column list consistent with some catalog state,
        and after the DDL settles, new queries see the new column."""
        errors: list[Exception] = []
        stop = threading.Event()

        def reader() -> None:
            while not stop.is_set():
                try:
                    result = database.execute("SELECT * FROM t")
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)
                    return
                if result.columns not in (
                    ["id", "name"],
                    ["id", "name", "wide"],
                ):  # pragma: no cover - failure path
                    errors.append(AssertionError(str(result.columns)))
                    return

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        database.execute("ALTER TABLE t ADD COLUMN wide INT")
        stop.set()
        for thread in threads:
            thread.join()
        assert not errors
        assert database.execute("SELECT * FROM t").columns == [
            "id",
            "name",
            "wide",
        ]


class TestCacheMechanics:
    """Recency, capacity, ``clear`` and the pre-bind flush are the
    primitive's: ``tests/test_versioned_lru.py`` checks them on this
    cache too.  What is the plan cache's own stays here."""

    def test_same_version_store_returns_existing_entry(self):
        cache = PlanCache()
        first = cache.store(
            "SELECT 1", PlanEntry(parse_statement("SELECT 1"), catalog_version=3)
        )
        second = cache.store(
            "SELECT 1", PlanEntry(parse_statement("SELECT 1"), catalog_version=3)
        )
        assert second is first  # memoized attributes stay shared


class TestMetricsBinding:
    def _counters(self):
        registry = MetricsRegistry()
        return (
            registry.counter("cache.plan.hits"),
            registry.counter("cache.plan.misses"),
            registry.counter("cache.plan.invalidations"),
        )

    def test_bound_counters_mirror_activity(self):
        hits, misses, invalidations = self._counters()
        cache = PlanCache()
        cache.bind_counters(hits, misses, invalidations)
        cache.lookup("SELECT 1", 0)  # miss
        cache.store(
            "SELECT 1", PlanEntry(parse_statement("SELECT 1"), catalog_version=0)
        )
        cache.lookup("SELECT 1", 0)  # hit
        cache.lookup("SELECT 1", 1)  # stale: invalidation + miss
        assert hits.total() == 1
        assert misses.total() == 2
        assert invalidations.total() == 1
