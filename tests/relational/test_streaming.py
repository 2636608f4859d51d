"""Lazy row path tests: can_stream, iter_rows, column type plumbing."""

import pytest

from repro.relational import Database


@pytest.fixture()
def db():
    database = Database("streamdb")
    database.execute(
        "CREATE TABLE t (k INT PRIMARY KEY, v VARCHAR(16), f FLOAT)"
    )
    database.execute(
        "INSERT INTO t VALUES "
        + ",".join(f"({i},'val{i}',{i}.5)" for i in range(20))
    )
    return database


class TestStreamingExecute:
    def test_plain_select_streams(self, db):
        result = db.create_session().execute("SELECT k, v FROM t", stream=True)
        assert result.is_streaming
        assert result.rows == []  # nothing materialized up front
        assert len(list(result.iter_rows())) == 20

    def test_streamed_rows_match_eager(self, db):
        sql = "SELECT v FROM t WHERE k >= ? LIMIT 5 OFFSET 2"
        eager = db.create_session().execute(sql, (4,))
        streamed = db.create_session().execute(sql, (4,), stream=True)
        assert streamed.is_streaming
        assert list(streamed.iter_rows()) == eager.rows

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT v FROM t ORDER BY k",
            "SELECT DISTINCT v FROM t",
            "SELECT COUNT(*) FROM t",
            "SELECT v FROM t GROUP BY v",
            "SELECT v FROM t UNION SELECT v FROM t",
        ],
    )
    def test_pipeline_breakers_fall_back_to_eager(self, db, sql):
        result = db.create_session().execute(sql, stream=True)
        assert not result.is_streaming
        assert result.rows == db.create_session().execute(sql).rows

    def test_stream_false_never_streams(self, db):
        result = db.create_session().execute("SELECT k FROM t")
        assert not result.is_streaming
        assert len(result.rows) == 20

    def test_early_close_releases_autocommit_transaction(self, db):
        session = db.create_session()
        result = session.execute("SELECT k FROM t", stream=True)
        iterator = result.iter_rows()
        next(iterator)
        iterator.close()
        # The streamed statement's transaction must be gone: a write in
        # a fresh session would deadlock/conflict otherwise.
        db.execute("INSERT INTO t VALUES (100,'late',0.0)")
        assert db.row_count("t") == 21

    def test_non_select_statements_ignore_stream_flag(self, db):
        result = db.create_session().execute(
            "UPDATE t SET v = 'x' WHERE k = 0", stream=True
        )
        assert not result.is_streaming
        assert result.update_count == 1


class TestColumnTypes:
    def test_base_table_types(self, db):
        result = db.create_session().execute("SELECT k, v, f FROM t")
        assert result.column_types == ["INTEGER", "VARCHAR(16)", "FLOAT"]

    def test_star_expansion_types(self, db):
        result = db.create_session().execute("SELECT * FROM t")
        assert result.column_types == ["INTEGER", "VARCHAR(16)", "FLOAT"]

    def test_streamed_result_carries_types(self, db):
        result = db.create_session().execute("SELECT v FROM t", stream=True)
        assert result.is_streaming
        assert result.column_types == ["VARCHAR(16)"]

    def test_expression_columns_degrade_to_blank(self, db):
        result = db.create_session().execute("SELECT k, k + 1 FROM t")
        assert result.column_types[0] == "INTEGER"
        assert result.column_types[1] == ""

    def test_join_types_resolve_per_table(self, db):
        db.execute("CREATE TABLE u (k INT PRIMARY KEY, w CHAR(4))")
        db.execute("INSERT INTO u VALUES (1,'aaaa')")
        result = db.create_session().execute(
            "SELECT t.v, u.w FROM t JOIN u ON t.k = u.k"
        )
        assert result.column_types == ["VARCHAR(16)", "CHAR(4)"]

    def test_view_types_follow_base_columns(self, db):
        db.execute("CREATE VIEW tv AS SELECT k, v FROM t")
        result = db.create_session().execute("SELECT v FROM tv")
        assert result.column_types == ["VARCHAR(16)"]


class TestEagerPathStopsAtLimit:
    """A plan ``can_stream`` accepts runs the same scan → filter →
    limit → project loop whether or not the caller asked to stream, so
    plain ``Database.execute`` no longer materialises before LIMIT."""

    @pytest.fixture()
    def counted(self, db, monkeypatch):
        storage = db.storage("t")
        pulled = []
        walk = storage.iter_rows

        def counting_iter_rows():
            for pair in walk():
                pulled.append(pair[0])
                yield pair

        monkeypatch.setattr(storage, "iter_rows", counting_iter_rows)
        monkeypatch.setattr(storage, "rows", None)  # the snapshot is not taken
        return pulled

    def test_limit_one_reads_one_row(self, db, counted):
        assert db.execute("SELECT * FROM t LIMIT 1").rows == [(0, "val0", 0.5)]
        assert len(counted) == 1

    def test_filter_offset_limit_read_only_what_they_need(self, db, counted):
        result = db.execute("SELECT k FROM t WHERE f > 2.0 LIMIT 2 OFFSET 1")
        assert result.rows == [(3,), (4,)]
        assert counted == [1, 2, 3, 4, 5]  # row ids: stops at the 2nd keeper

    def test_span_counters_say_the_same(self, db):
        from repro.obs import use_exporter

        with use_exporter() as exporter:
            db.execute("SELECT k FROM t WHERE f > 2.0 LIMIT 2 OFFSET 1")
            db.execute("SELECT k FROM t")
        limited, full = exporter.spans("sql.select")
        assert limited.attributes["rows_scanned"] == 5
        assert limited.attributes["rows_filtered_out"] == 2
        assert limited.attributes["rows_out"] == 2
        assert full.attributes["rows_scanned"] == full.attributes["rows_out"] == 20
        assert "rows_filtered_out" not in full.attributes
        assert "streamed" not in full.attributes
