"""Transaction semantics: atomicity, isolation levels, lock conflicts."""

import random
import sys
import threading

import pytest

from repro.relational import Database, IsolationLevel, TransactionError
from repro.relational.errors import SerializationConflict


@pytest.fixture()
def db():
    database = Database()
    database.execute("CREATE TABLE accounts (id INT PRIMARY KEY, balance INT NOT NULL)")
    database.execute("INSERT INTO accounts VALUES (1, 100), (2, 50)")
    return database


class TestAtomicity:
    def test_commit_persists(self, db):
        session = db.create_session()
        session.execute("BEGIN")
        session.execute("UPDATE accounts SET balance = balance - 10 WHERE id = 1")
        session.execute("UPDATE accounts SET balance = balance + 10 WHERE id = 2")
        session.execute("COMMIT")
        rows = db.execute("SELECT balance FROM accounts ORDER BY id").rows
        assert rows == [(90,), (60,)]

    def test_rollback_undoes_everything(self, db):
        session = db.create_session()
        session.execute("BEGIN")
        session.execute("UPDATE accounts SET balance = 0")
        session.execute("DELETE FROM accounts WHERE id = 2")
        session.execute("INSERT INTO accounts VALUES (3, 10)")
        session.execute("ROLLBACK")
        rows = db.execute("SELECT id, balance FROM accounts ORDER BY id").rows
        assert rows == [(1, 100), (2, 50)]

    def test_rollback_restores_update_order(self, db):
        session = db.create_session()
        session.execute("BEGIN")
        session.execute("UPDATE accounts SET balance = balance + 1 WHERE id = 1")
        session.execute("UPDATE accounts SET balance = balance * 2 WHERE id = 1")
        session.execute("ROLLBACK")
        assert db.execute("SELECT balance FROM accounts WHERE id = 1").scalar() == 100

    def test_failed_statement_in_transaction_keeps_transaction_open(self, db):
        session = db.create_session()
        session.execute("BEGIN")
        session.execute("UPDATE accounts SET balance = 77 WHERE id = 1")
        with pytest.raises(Exception):
            session.execute("INSERT INTO accounts VALUES (1, 5)")  # dup pk
        # The failed statement is undone, the earlier one survives.
        assert session.execute("SELECT balance FROM accounts WHERE id = 1").scalar() == 77
        session.execute("COMMIT")
        assert db.execute("SELECT balance FROM accounts WHERE id = 1").scalar() == 77

    def test_statement_atomicity_within_transaction(self, db):
        session = db.create_session()
        session.execute("BEGIN")
        with pytest.raises(Exception):
            # Second row violates PK; first row of the same statement must go too.
            session.execute("INSERT INTO accounts VALUES (3, 1), (1, 1)")
        session.execute("COMMIT")
        assert db.row_count("accounts") == 2

    def test_autocommit_failure_rolls_back(self, db):
        with pytest.raises(Exception):
            db.execute("INSERT INTO accounts VALUES (3, 1), (3, 2)")
        assert db.row_count("accounts") == 2


class TestTransactionControl:
    def test_nested_begin_rejected(self, db):
        session = db.create_session()
        session.execute("BEGIN")
        with pytest.raises(TransactionError):
            session.execute("BEGIN")

    def test_commit_without_begin_rejected(self, db):
        with pytest.raises(TransactionError):
            db.create_session().execute("COMMIT")

    def test_rollback_without_begin_rejected(self, db):
        with pytest.raises(TransactionError):
            db.create_session().execute("ROLLBACK")

    def test_close_rolls_back(self, db):
        session = db.create_session()
        session.execute("BEGIN")
        session.execute("UPDATE accounts SET balance = 0")
        session.close()
        assert db.execute("SELECT SUM(balance) FROM accounts").scalar() == 150
        assert db.transactions.active_count() == 0

    def test_isolation_level_parsed(self, db):
        session = db.create_session()
        session.execute("BEGIN ISOLATION LEVEL SERIALIZABLE")
        assert session.isolation is IsolationLevel.SERIALIZABLE
        session.execute("ROLLBACK")


class TestIsolation:
    def test_read_uncommitted_sees_dirty_data(self, db):
        writer = db.create_session()
        reader = db.create_session()
        writer.execute("BEGIN")
        writer.execute("UPDATE accounts SET balance = 999 WHERE id = 1")
        reader.execute("BEGIN ISOLATION LEVEL READ UNCOMMITTED")
        dirty = reader.execute("SELECT balance FROM accounts WHERE id = 1").scalar()
        assert dirty == 999
        writer.execute("ROLLBACK")
        reader.execute("COMMIT")

    def test_read_uncommitted_top_k_beside_a_writer(self):
        """A READ UNCOMMITTED reader takes no lock, so its ordered walk of
        the ``total`` index runs while a writer inserts, moves and deletes
        the rows it walks.  It must never raise, and never return a row
        outside its predicate or more rows than its LIMIT."""
        database = Database()
        database.execute("CREATE TABLE orders (id INT PRIMARY KEY, total FLOAT)")
        database.execute("CREATE INDEX ix_orders_total ON orders (total)")
        for order_id in range(1, 301):
            database.execute(
                "INSERT INTO orders VALUES (?, ?)", (order_id, order_id * 7 % 100 * 0.5)
            )
        # (text, test every row must pass): a downward walk from the middle
        # of the index, and an upward one that reads to its top end
        queries = (
            ("SELECT o.id, o.total FROM orders o WHERE o.total <= 25 "
             "ORDER BY o.total DESC, o.id LIMIT 10", lambda total: total <= 25),
            ("SELECT id, total FROM orders WHERE total >= 49 "
             "ORDER BY total, id LIMIT 10", lambda total: total >= 49),
        )
        for query, _ in queries:
            plan = database.execute("EXPLAIN " + query).rows
            assert plan[0][0].startswith("INDEX ORDERED SCAN")
        stop = threading.Event()
        wrong: list = []
        answers = [0]

        def writer():
            session, rng = database.create_session(), random.Random(7)
            try:
                for step in range(400):
                    session.execute(
                        "INSERT INTO orders VALUES (?, ?)",
                        (1000 + step, rng.randrange(100) * 0.5),
                    )
                    session.execute(
                        "UPDATE orders SET total = ? WHERE id = ?",
                        (rng.randrange(100) * 0.5, rng.randrange(1, 1000 + step)),
                    )
                    session.execute(
                        "DELETE FROM orders WHERE id = ?", (rng.randrange(1, 1000 + step),)
                    )
            finally:
                stop.set()

        def reader():
            session = database.create_session()
            session.execute("BEGIN ISOLATION LEVEL READ UNCOMMITTED")
            while not stop.is_set():
                for query, keeps in queries:
                    try:
                        rows = session.execute(query).rows
                    except Exception as exc:  # the invariant: a dirty read never raises
                        wrong.append(repr(exc))
                        return
                    answers[0] += 1
                    if len(rows) > 10 or not all(keeps(total) for _, total in rows):
                        wrong.append(rows)
            session.execute("COMMIT")

        threads = [threading.Thread(target=reader) for _ in range(2)]
        threads.append(threading.Thread(target=writer))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert answers[0] > 0

    def test_read_committed_blocks_dirty_read(self, db):
        writer = db.create_session()
        reader = db.create_session()
        writer.execute("BEGIN")
        writer.execute("UPDATE accounts SET balance = 999 WHERE id = 1")
        reader.execute("BEGIN ISOLATION LEVEL READ COMMITTED")
        with pytest.raises(SerializationConflict):
            reader.execute("SELECT balance FROM accounts")
        writer.execute("ROLLBACK")
        reader.execute("ROLLBACK")

    def test_read_committed_reads_after_commit(self, db):
        writer = db.create_session()
        writer.execute("BEGIN")
        writer.execute("UPDATE accounts SET balance = 999 WHERE id = 1")
        writer.execute("COMMIT")
        value = db.execute("SELECT balance FROM accounts WHERE id = 1").scalar()
        assert value == 999

    def test_repeatable_read_blocks_writers(self, db):
        reader = db.create_session()
        writer = db.create_session()
        reader.execute("BEGIN ISOLATION LEVEL REPEATABLE READ")
        first = reader.execute("SELECT balance FROM accounts WHERE id = 1").scalar()
        writer.execute("BEGIN")
        with pytest.raises(SerializationConflict):
            writer.execute("UPDATE accounts SET balance = 0")
        second = reader.execute("SELECT balance FROM accounts WHERE id = 1").scalar()
        assert first == second == 100
        reader.execute("COMMIT")
        writer.execute("ROLLBACK")

    def test_write_write_conflict(self, db):
        one = db.create_session()
        two = db.create_session()
        one.execute("BEGIN")
        one.execute("UPDATE accounts SET balance = 1 WHERE id = 1")
        two.execute("BEGIN")
        with pytest.raises(SerializationConflict):
            two.execute("UPDATE accounts SET balance = 2 WHERE id = 2")
        one.execute("COMMIT")
        two.execute("ROLLBACK")

    def test_locks_released_on_commit(self, db):
        one = db.create_session()
        one.execute("BEGIN")
        one.execute("UPDATE accounts SET balance = 1 WHERE id = 1")
        one.execute("COMMIT")
        # Now another writer may proceed.
        db.execute("UPDATE accounts SET balance = 2 WHERE id = 1")
        assert db.execute("SELECT balance FROM accounts WHERE id = 1").scalar() == 2

    def test_serializable_reader_blocks_writer(self, db):
        reader = db.create_session()
        writer = db.create_session()
        reader.execute("BEGIN ISOLATION LEVEL SERIALIZABLE")
        reader.execute("SELECT COUNT(*) FROM accounts")
        writer.execute("BEGIN")
        with pytest.raises(SerializationConflict):
            writer.execute("INSERT INTO accounts VALUES (3, 1)")  # phantom
        reader.execute("COMMIT")
        writer.execute("ROLLBACK")

    def test_own_writes_always_visible(self, db):
        session = db.create_session()
        session.execute("BEGIN ISOLATION LEVEL READ COMMITTED")
        session.execute("UPDATE accounts SET balance = 5 WHERE id = 1")
        assert session.execute("SELECT balance FROM accounts WHERE id = 1").scalar() == 5
        session.execute("ROLLBACK")

    def test_isolation_from_sql_rejects_unknown(self):
        with pytest.raises(TransactionError):
            IsolationLevel.from_sql("CHAOS")
