"""Names are resolved when a statement is bound, not per row.

An unknown or ambiguous column is a :class:`CatalogError` before the
first row is read — with rows or without, streamed or eager, wherever in
the statement the name sits — and a name that legitimately resolves in an
enclosing query still does.  Also here: the bounds and narrowed error
handling on the same path.
"""

import pytest

from repro.relational import CatalogError, Database
from repro.relational import expressions
from repro.relational.executor import Executor
from repro.relational.parser import parse_statement


@pytest.fixture(params=["empty", "populated"])
def db(request):
    database = Database()
    database.execute("CREATE TABLE c (id INT PRIMARY KEY, region VARCHAR(8))")
    database.execute("CREATE TABLE o (id INT PRIMARY KEY, c_id INT, total FLOAT)")
    if request.param == "populated":
        database.execute("INSERT INTO c VALUES (1,'n'),(2,'s')")
        database.execute("INSERT INTO o VALUES (1,1,5.0),(2,1,7.0),(3,2,1.0)")
    return database


UNKNOWN = [
    "SELECT nosuch FROM c",
    "SELECT id FROM c WHERE nosuch = 1",
    "SELECT id FROM c WHERE id = 1 AND nosuch = 1",
    "SELECT id FROM c ORDER BY nosuch",
    "SELECT id FROM c ORDER BY id, nosuch DESC LIMIT 1",
    "SELECT COUNT(*) FROM c GROUP BY nosuch",
    "SELECT region, COUNT(*) FROM c GROUP BY region HAVING nosuch > 1",
    "SELECT SUM(nosuch) FROM c",
    "SELECT c.id FROM c JOIN o ON o.nosuch = c.id",
    "SELECT c.id FROM c JOIN o ON o.c_id < c.nosuch",
    "SELECT c.id FROM c LEFT JOIN o ON o.c_id = c.id AND o.nosuch > 1",
    "SELECT x.id FROM (SELECT id FROM c) x WHERE x.region = 'n'",
    "SELECT CASE WHEN id > 99 THEN nosuch ELSE 1 END FROM c",
    "UPDATE c SET region = 'x' WHERE nosuch = 1",
    "UPDATE c SET region = nosuch",
    "DELETE FROM c WHERE nosuch = 1",
]
AMBIGUOUS = [
    "SELECT id FROM c JOIN o ON o.c_id = c.id",
    "SELECT c.id FROM c JOIN o ON o.c_id = c.id WHERE id = 1",
    "SELECT c.region FROM c JOIN o ON o.c_id = c.id ORDER BY id",
    "SELECT COUNT(*) FROM c JOIN o ON o.c_id = c.id GROUP BY id",
]


class TestBadNamesFaultAtBindTime:
    @pytest.mark.parametrize("sql", UNKNOWN)
    @pytest.mark.parametrize("stream", [False, True])
    def test_unknown_column(self, db, sql, stream):
        with pytest.raises(CatalogError, match="unknown column"):
            db.create_session().execute(sql, stream=stream)

    @pytest.mark.parametrize("sql", AMBIGUOUS)
    @pytest.mark.parametrize("stream", [False, True])
    def test_ambiguous_column(self, db, sql, stream):
        with pytest.raises(CatalogError, match="ambiguous column reference 'id'"):
            db.create_session().execute(sql, stream=stream)

    def test_streamed_select_raises_before_any_row_is_pulled(self, db):
        session = db.create_session()
        with pytest.raises(CatalogError):
            session.execute("SELECT id, nosuch FROM c", stream=True)
        # the failed statement's transaction is gone: a write goes through
        db.execute("INSERT INTO c VALUES (9,'late')")

    def test_outer_scope_names_still_resolve(self, db):
        """``c.id`` inside the subqueries is not a column of ``o``: it
        binds one scope out, per outer row."""
        correlated = db.execute(
            "SELECT c.id, (SELECT COUNT(*) FROM o WHERE o.c_id = c.id) FROM c "
            "WHERE EXISTS (SELECT 1 FROM o WHERE o.c_id = c.id AND total > 2) "
            "ORDER BY c.id"
        )
        shadowed = db.execute(
            # the inner ``id`` is o's; the outer one needs its qualifier
            "SELECT c.id FROM c WHERE c.id IN (SELECT id FROM o WHERE id = c.id)"
        )
        if db.row_count("c"):
            assert correlated.rows == [(1, 2)]
            assert sorted(shadowed.rows) == [(1,), (2,)]
        else:
            assert correlated.rows == shadowed.rows == []

    def test_bad_name_inside_a_subquery_is_still_a_catalog_error(self, db):
        sql = "SELECT id FROM c WHERE EXISTS (SELECT 1 FROM o WHERE o.nosuch = c.id)"
        if db.row_count("c"):  # a subquery is bound when it first runs
            with pytest.raises(CatalogError, match="unknown column"):
                db.execute(sql)


class TestBoundsAndNarrowedErrors:
    def test_like_patterns_do_not_accumulate(self):
        database = Database()
        database.execute("CREATE TABLE t (s VARCHAR(20))")
        database.execute("INSERT INTO t VALUES ('abc')")
        expressions._like_regex.cache_clear()
        for index in range(1000):
            # inlined literals: translated at bind time, owned by the plan
            database.execute(f"SELECT s FROM t WHERE s LIKE 'a%{index}'")
        assert expressions._like_regex.cache_info().currsize == 0
        for index in range(1000):
            # patterns that arrive as values go through the bounded cache
            database.execute("SELECT s FROM t WHERE s LIKE ?", (f"a%{index}",))
        info = expressions._like_regex.cache_info()
        assert info.currsize == info.maxsize == 256
        assert database.execute("SELECT s FROM t WHERE s LIKE ?", ("a_c",)).rows

    def test_column_types_degrade_on_sql_errors_only(self, monkeypatch):
        database = Database()
        executor = Executor(database.catalog, database.storages)
        select = parse_statement("SELECT id FROM gone")
        assert executor.select_column_types(select) == []  # no such table

        def broken(_select):
            raise KeyError("a programming error in the shape walk")

        monkeypatch.setattr(executor, "_select_shape", broken)
        with pytest.raises(KeyError):
            executor.select_column_types(select)
