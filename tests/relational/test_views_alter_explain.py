"""Views, ALTER TABLE ADD COLUMN, simple CASE and EXPLAIN."""

import pytest

from repro.obs import use_exporter
from repro.relational import CatalogError, Database, NULL, SqlError


@pytest.fixture()
def db():
    database = Database()
    database.execute(
        "CREATE TABLE sales (id INT PRIMARY KEY, region VARCHAR(10), amount FLOAT)"
    )
    database.execute(
        "INSERT INTO sales VALUES (1,'east',10.0),(2,'west',20.0),"
        "(3,'east',30.0),(4,'north',5.0)"
    )
    return database


class TestViews:
    def test_create_and_query(self, db):
        db.execute("CREATE VIEW east AS SELECT id, amount FROM sales WHERE region='east'")
        rows = db.execute("SELECT * FROM east ORDER BY id").rows
        assert rows == [(1, 10.0), (3, 30.0)]

    def test_view_reflects_base_changes(self, db):
        db.execute("CREATE VIEW east AS SELECT id FROM sales WHERE region='east'")
        db.execute("INSERT INTO sales VALUES (9,'east',1.0)")
        assert len(db.execute("SELECT * FROM east").rows) == 3

    def test_declared_column_names(self, db):
        db.execute(
            "CREATE VIEW summary (r, total) AS "
            "SELECT region, SUM(amount) FROM sales GROUP BY region"
        )
        result = db.execute("SELECT r, total FROM summary ORDER BY total DESC")
        assert result.columns == ["r", "total"]
        assert result.rows[0] == ("east", 40.0)

    def test_declared_column_count_mismatch(self, db):
        with pytest.raises(CatalogError, match="columns"):
            db.execute("CREATE VIEW v (a, b, c) AS SELECT id FROM sales")

    def test_view_in_join(self, db):
        db.execute("CREATE VIEW big AS SELECT id FROM sales WHERE amount > 15")
        count = db.execute(
            "SELECT COUNT(*) FROM sales s JOIN big ON s.id = big.id"
        ).scalar()
        assert count == 2

    def test_view_with_alias(self, db):
        db.execute("CREATE VIEW v AS SELECT id AS key FROM sales")
        rows = db.execute("SELECT x.key FROM v x WHERE x.key = 2").rows
        assert rows == [(2,)]

    def test_view_over_view(self, db):
        db.execute("CREATE VIEW a AS SELECT id, amount FROM sales WHERE amount > 5")
        db.execute("CREATE VIEW b AS SELECT id FROM a WHERE amount < 25")
        assert sorted(db.execute("SELECT * FROM b").rows) == [(1,), (2,)]

    def test_invalid_view_query_rejected_eagerly(self, db):
        with pytest.raises(Exception):
            db.execute("CREATE VIEW broken AS SELECT nothing FROM sales")

    def test_name_clash_with_table(self, db):
        with pytest.raises(CatalogError):
            db.execute("CREATE VIEW sales AS SELECT 1")

    def test_table_name_clash_with_view(self, db):
        db.execute("CREATE VIEW v AS SELECT 1")
        with pytest.raises(CatalogError):
            db.execute("CREATE TABLE v (x INT)")

    def test_drop_view(self, db):
        db.execute("CREATE VIEW v AS SELECT 1")
        db.execute("DROP VIEW v")
        with pytest.raises(CatalogError):
            db.execute("SELECT * FROM v")

    def test_drop_view_if_exists(self, db):
        db.execute("DROP VIEW IF EXISTS ghost")

    def test_duplicate_view_rejected(self, db):
        db.execute("CREATE VIEW v AS SELECT 1")
        with pytest.raises(CatalogError):
            db.execute("CREATE VIEW v AS SELECT 2")

    def test_views_are_read_only_targets(self, db):
        db.execute("CREATE VIEW v AS SELECT id FROM sales")
        with pytest.raises(Exception):
            db.execute("INSERT INTO v VALUES (9)")


class TestAlterTable:
    def test_add_column_with_default(self, db):
        db.execute("ALTER TABLE sales ADD COLUMN currency VARCHAR(3) DEFAULT 'EUR'")
        assert db.execute("SELECT currency FROM sales WHERE id=1").scalar() == "EUR"
        db.execute("INSERT INTO sales (id, region, amount) VALUES (9,'east',1.0)")
        assert db.execute("SELECT currency FROM sales WHERE id=9").scalar() == "EUR"

    def test_add_column_without_default_fills_null(self, db):
        db.execute("ALTER TABLE sales ADD note VARCHAR(40)")
        assert db.execute("SELECT note FROM sales WHERE id=1").scalar() is NULL

    def test_add_not_null_requires_default_on_nonempty(self, db):
        with pytest.raises(CatalogError, match="NOT NULL"):
            db.execute("ALTER TABLE sales ADD x INT NOT NULL")
        db.execute("ALTER TABLE sales ADD x INT NOT NULL DEFAULT 0")
        assert db.execute("SELECT x FROM sales WHERE id=1").scalar() == 0

    def test_add_duplicate_column_rejected(self, db):
        with pytest.raises(CatalogError, match="already exists"):
            db.execute("ALTER TABLE sales ADD region VARCHAR(5)")

    def test_add_unique_column(self, db):
        db.execute("ALTER TABLE sales ADD code INT UNIQUE")
        db.execute("UPDATE sales SET code = id")
        with pytest.raises(Exception, match="unique"):
            db.execute("UPDATE sales SET code = 1 WHERE id = 2")

    def test_add_primary_key_rejected(self, db):
        with pytest.raises(SqlError):
            db.execute("ALTER TABLE sales ADD pk INT PRIMARY KEY")

    def test_new_column_queryable(self, db):
        db.execute("ALTER TABLE sales ADD flag BOOLEAN DEFAULT FALSE")
        db.execute("UPDATE sales SET flag = TRUE WHERE amount > 15")
        assert db.execute("SELECT COUNT(*) FROM sales WHERE flag").scalar() == 2


class TestSimpleCase:
    def test_simple_case_matches_values(self, db):
        rows = db.execute(
            "SELECT id, CASE region WHEN 'east' THEN 1 WHEN 'west' THEN 2 "
            "ELSE 0 END FROM sales ORDER BY id"
        ).rows
        assert [r[1] for r in rows] == [1, 2, 1, 0]

    def test_simple_case_without_else_yields_null(self, db):
        value = db.execute(
            "SELECT CASE region WHEN 'nope' THEN 1 END FROM sales WHERE id=1"
        ).scalar()
        assert value is NULL

    def test_simple_case_null_operand_never_matches(self, db):
        db.execute("INSERT INTO sales VALUES (9, NULL, 0.0)")
        value = db.execute(
            "SELECT CASE region WHEN 'east' THEN 'e' ELSE 'other' END "
            "FROM sales WHERE id=9"
        ).scalar()
        assert value == "other"

    def test_searched_case_still_works(self, db):
        value = db.execute(
            "SELECT CASE WHEN amount > 15 THEN 'big' ELSE 'small' END "
            "FROM sales WHERE id=2"
        ).scalar()
        assert value == "big"


class TestExplain:
    def test_index_lookup_reported(self, db):
        plan = [r[0] for r in db.execute("EXPLAIN SELECT * FROM sales WHERE id=1").rows]
        assert plan == ["INDEX LOOKUP sales (pk_sales)"]

    def test_full_scan_reported(self, db):
        plan = [r[0] for r in db.execute(
            "EXPLAIN SELECT * FROM sales WHERE amount > 1"
        ).rows]
        assert plan == ["FULL SCAN sales"]

    def test_range_scan_after_index_creation(self, db):
        db.execute("CREATE INDEX ix_amount ON sales (amount)")
        plan = [r[0] for r in db.execute(
            "EXPLAIN SELECT * FROM sales WHERE amount > 1"
        ).rows]
        assert plan == ["INDEX RANGE SCAN sales (ix_amount__ord)"]

    def test_between_uses_the_ordered_index_like_its_two_comparisons(self, db):
        db.execute("CREATE INDEX ix_amount ON sales (amount)")

        def plan(where):
            rows = db.execute(
                f"EXPLAIN SELECT * FROM sales WHERE {where}", (1, 2)[: where.count("?")]
            ).rows
            return [r[0] for r in rows]

        ranged = ["INDEX RANGE SCAN sales (ix_amount__ord)"]
        assert plan("amount BETWEEN 1 AND 2") == ranged
        assert plan("amount >= 1 AND amount <= 2") == ranged
        assert plan("amount BETWEEN ? AND ?") == ranged
        assert plan("amount NOT BETWEEN 1 AND 2") == ["FULL SCAN sales"]
        # the index only narrows the scan; the predicate decides the rows
        between = db.execute("SELECT id FROM sales WHERE amount BETWEEN 10 AND 20")
        outside = db.execute("SELECT id FROM sales WHERE amount NOT BETWEEN 10 AND 20")
        assert sorted(between.rows) == [(1,), (2,)]
        assert sorted(outside.rows) == [(3,), (4,)]

    def test_join_strategy_reported(self, db):
        db.execute("CREATE TABLE other (id INT PRIMARY KEY)")
        equi = [r[0] for r in db.execute(
            "EXPLAIN SELECT * FROM sales s JOIN other o ON s.id = o.id"
        ).rows]
        assert "INNER HASH JOIN" in equi
        theta = [r[0] for r in db.execute(
            "EXPLAIN SELECT * FROM sales s JOIN other o ON s.id < o.id"
        ).rows]
        assert "INNER NESTED LOOP JOIN" in theta

    def test_aggregate_sort_limit_reported(self, db):
        plan = [r[0] for r in db.execute(
            "EXPLAIN SELECT region, SUM(amount) FROM sales "
            "GROUP BY region ORDER BY 2 LIMIT 1"
        ).rows]
        assert "AGGREGATE" in plan
        assert any(line.startswith("SORT") for line in plan)
        assert "LIMIT" in plan

    def test_ordered_scan_reported_and_counted(self, db):
        """``ORDER BY amount … LIMIT`` over a range on the indexed amount
        walks the index and stops at the k-th passing row and its ties;
        ``rows_scanned`` counts the entries it read."""
        db.execute("CREATE INDEX ix_amount ON sales (amount)")
        db.execute("INSERT INTO sales VALUES (5,'west',20.0),(6,'east',20.0)")

        def run(query):
            plan = [r[0] for r in db.execute("EXPLAIN " + query).rows]
            with use_exporter() as exporter:
                rows = db.execute(query).rows
            (span,) = [s for s in exporter.spans() if s.name == "sql.select"]
            return plan, rows, span.attributes["rows_scanned"]

        # amount >= 10 in index order: 10 (1), 20 (2, 5, 6), 30 (3); the
        # second row is a 20, so its two ties are read and the 30 is not
        plan, rows, scanned = run(
            "SELECT id, amount FROM sales WHERE amount >= 10 ORDER BY amount, id LIMIT 2"
        )
        assert plan == ["INDEX ORDERED SCAN sales (ix_amount__ord) LIMIT 2", "LIMIT"]
        assert rows == [(1, 10.0), (2, 20.0)]
        assert scanned == 4
        # downward: 20 (6, 5, 2), 10 (1), 5 (4); OFFSET counts toward k
        plan, rows, scanned = run(
            "SELECT id, amount FROM sales WHERE amount <= 25 "
            "ORDER BY amount DESC, id LIMIT 1 OFFSET 1"
        )
        assert plan[0] == "INDEX ORDERED SCAN sales (ix_amount__ord) LIMIT 2"
        assert rows == [(5, 20.0)]
        assert scanned == 3

    def test_ordered_scan_needs_a_limit_and_the_lead_column(self, db):
        db.execute("CREATE INDEX ix_amount ON sales (amount)")
        db.execute("CREATE VIEW v AS SELECT id, amount FROM sales")
        ranged = ["INDEX RANGE SCAN sales (ix_amount__ord)", "SORT (1 key(s))"]
        for query in (
            "SELECT id FROM sales WHERE amount > 1 ORDER BY amount",
            "SELECT id FROM sales WHERE amount > 1 ORDER BY id LIMIT 2",
            "SELECT id FROM sales WHERE amount > 1 ORDER BY -amount LIMIT 2",
            "SELECT id, amount * 2 AS amount FROM sales WHERE amount > 1 "
            "ORDER BY amount LIMIT 2",
        ):
            plan = [r[0] for r in db.execute("EXPLAIN " + query).rows]
            assert plan[:2] == ranged, query
        for query in (
            "SELECT region, MAX(amount) FROM sales WHERE amount > 1 "
            "GROUP BY region ORDER BY region LIMIT 2",
            "SELECT DISTINCT amount FROM sales WHERE amount > 1 ORDER BY amount LIMIT 2",
            "SELECT id FROM v WHERE amount > 1 ORDER BY amount LIMIT 2",
        ):
            plan = [r[0] for r in db.execute("EXPLAIN " + query).rows]
            assert not any("ORDERED" in line for line in plan), query
