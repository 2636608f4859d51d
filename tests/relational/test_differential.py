"""Differential testing: the engine vs sqlite3 as a reference oracle.

Hypothesis generates data and parameters for a constrained query family
that both engines interpret identically; any disagreement is a bug in
our engine (or a documented divergence — see the normalization notes).
"""

import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational import Database, NULL

_INTS = st.one_of(st.integers(min_value=-100, max_value=100), st.none())
_LABELS = st.sampled_from(["red", "green", "blue", "cyan"])
_ROWS = st.lists(st.tuples(_INTS, _INTS, _LABELS), min_size=0, max_size=30)


def _build_both(rows):
    ours = Database()
    ours.execute("CREATE TABLE t (a INT, b INT, label VARCHAR(10))")
    reference = sqlite3.connect(":memory:")
    reference.execute("CREATE TABLE t (a INT, b INT, label TEXT)")
    for a, b, label in rows:
        ours.execute(
            "INSERT INTO t VALUES (?, ?, ?)",
            (a if a is not None else None, b if b is not None else None, label),
        )
        reference.execute("INSERT INTO t VALUES (?, ?, ?)", (a, b, label))
    return ours, reference


def _normalize(rows):
    """Map our NULL to None and ints/floats to a comparable form."""
    out = []
    for row in rows:
        normalized = []
        for value in row:
            if value is NULL or value is None:
                normalized.append(None)
            elif isinstance(value, bool):
                normalized.append(int(value))
            elif isinstance(value, float) and value == int(value):
                normalized.append(int(value))
            else:
                normalized.append(value)
        out.append(tuple(normalized))
    return out


def _compare_unordered(ours_rows, ref_rows):
    key = lambda row: tuple(
        (v is None, v if v is not None else 0) for v in row
    )
    assert sorted(_normalize(ours_rows), key=key) == sorted(
        _normalize(ref_rows), key=key
    )


class TestDifferentialQueries:
    @given(_ROWS, st.integers(min_value=-100, max_value=100))
    @settings(max_examples=40, deadline=None)
    def test_where_comparisons(self, rows, pivot):
        ours, reference = _build_both(rows)
        for op in ("<", "<=", "=", ">=", ">", "<>"):
            query = f"SELECT a, b FROM t WHERE a {op} {pivot}"
            _compare_unordered(
                ours.execute(query).rows, reference.execute(query).fetchall()
            )

    @given(_ROWS)
    @settings(max_examples=40, deadline=None)
    def test_null_predicates(self, rows):
        ours, reference = _build_both(rows)
        for query in (
            "SELECT label FROM t WHERE a IS NULL",
            "SELECT label FROM t WHERE a IS NOT NULL",
            "SELECT label FROM t WHERE a = b",
            "SELECT label FROM t WHERE a < b OR a > b",
        ):
            _compare_unordered(
                ours.execute(query).rows, reference.execute(query).fetchall()
            )

    @given(_ROWS)
    @settings(max_examples=40, deadline=None)
    def test_aggregates(self, rows):
        ours, reference = _build_both(rows)
        query = "SELECT COUNT(*), COUNT(a), SUM(a), MIN(a), MAX(a) FROM t"
        _compare_unordered(
            ours.execute(query).rows, reference.execute(query).fetchall()
        )

    @given(_ROWS)
    @settings(max_examples=40, deadline=None)
    def test_group_by(self, rows):
        ours, reference = _build_both(rows)
        query = (
            "SELECT label, COUNT(*), SUM(a) FROM t GROUP BY label"
        )
        _compare_unordered(
            ours.execute(query).rows, reference.execute(query).fetchall()
        )

    @given(_ROWS)
    @settings(max_examples=40, deadline=None)
    def test_order_by_with_tiebreak(self, rows):
        # Full ordering fixed by the label tiebreak; NULLs: both engines
        # place them consistently only under NULLS-specific clauses, so
        # restrict to non-null a.
        ours, reference = _build_both(rows)
        query = (
            "SELECT a, label FROM t WHERE a IS NOT NULL "
            "ORDER BY a, label, b"
        )
        assert _normalize(ours.execute(query).rows) == _normalize(
            reference.execute(query).fetchall()
        )

    @given(_ROWS, st.integers(min_value=0, max_value=8))
    @settings(max_examples=40, deadline=None)
    def test_limit_offset(self, rows, limit):
        ours, reference = _build_both(rows)
        query = (
            "SELECT a FROM t WHERE a IS NOT NULL "
            f"ORDER BY a, b, label LIMIT {limit} OFFSET 2"
        )
        assert _normalize(ours.execute(query).rows) == _normalize(
            reference.execute(query).fetchall()
        )

    @given(_ROWS)
    @settings(max_examples=40, deadline=None)
    def test_distinct(self, rows):
        ours, reference = _build_both(rows)
        query = "SELECT DISTINCT label FROM t"
        _compare_unordered(
            ours.execute(query).rows, reference.execute(query).fetchall()
        )

    @given(_ROWS)
    @settings(max_examples=30, deadline=None)
    def test_self_join_count(self, rows):
        ours, reference = _build_both(rows)
        query = (
            "SELECT COUNT(*) FROM t x JOIN t y ON x.a = y.b"
        )
        _compare_unordered(
            ours.execute(query).rows, reference.execute(query).fetchall()
        )

    @given(_ROWS)
    @settings(max_examples=30, deadline=None)
    def test_case_and_arithmetic(self, rows):
        ours, reference = _build_both(rows)
        query = (
            "SELECT label, CASE WHEN a > 0 THEN a * 2 ELSE a - 1 END FROM t "
            "WHERE a IS NOT NULL"
        )
        _compare_unordered(
            ours.execute(query).rows, reference.execute(query).fetchall()
        )

    @given(_ROWS)
    @settings(max_examples=30, deadline=None)
    def test_in_and_between(self, rows):
        ours, reference = _build_both(rows)
        for query in (
            "SELECT a FROM t WHERE a IN (1, 2, 3)",
            "SELECT a FROM t WHERE a BETWEEN -10 AND 10",
            "SELECT a FROM t WHERE label IN ('red', 'blue')",
            "SELECT a FROM t WHERE label LIKE 'c%'",
        ):
            _compare_unordered(
                ours.execute(query).rows, reference.execute(query).fetchall()
            )

    @given(_ROWS)
    @settings(max_examples=30, deadline=None)
    def test_scalar_subquery(self, rows):
        ours, reference = _build_both(rows)
        query = "SELECT COUNT(*) FROM t WHERE a = (SELECT MAX(b) FROM t)"
        _compare_unordered(
            ours.execute(query).rows, reference.execute(query).fetchall()
        )

    @given(_ROWS)
    @settings(max_examples=30, deadline=None)
    def test_update_then_state(self, rows):
        ours, reference = _build_both(rows)
        update = "UPDATE t SET a = a + 1 WHERE a IS NOT NULL AND a < 0"
        ours.execute(update)
        reference.execute(update)
        _compare_unordered(
            ours.execute("SELECT a, b, label FROM t").rows,
            reference.execute("SELECT a, b, label FROM t").fetchall(),
        )

    @given(_ROWS)
    @settings(max_examples=30, deadline=None)
    def test_left_join(self, rows):
        ours, reference = _build_both(rows)
        query = (
            "SELECT x.a, y.b FROM t x LEFT JOIN t y "
            "ON x.a = y.a AND y.b > 0"
        )
        _compare_unordered(
            ours.execute(query).rows, reference.execute(query).fetchall()
        )

    @given(_ROWS)
    @settings(max_examples=30, deadline=None)
    def test_insert_select(self, rows):
        ours, reference = _build_both(rows)
        ddl = "CREATE TABLE copy (a INT, label TEXT)"
        ours.execute("CREATE TABLE copy (a INT, label VARCHAR(10))")
        reference.execute(ddl)
        dml = "INSERT INTO copy SELECT a, label FROM t WHERE a IS NOT NULL"
        ours.execute(dml)
        reference.execute(dml)
        _compare_unordered(
            ours.execute("SELECT * FROM copy").rows,
            reference.execute("SELECT * FROM copy").fetchall(),
        )

    @given(_ROWS)
    @settings(max_examples=30, deadline=None)
    def test_view_results(self, rows):
        ours, reference = _build_both(rows)
        ddl = "CREATE VIEW pos AS SELECT a, label FROM t WHERE a > 0"
        ours.execute(ddl)
        reference.execute(ddl)
        query = "SELECT label, COUNT(*) FROM pos GROUP BY label"
        _compare_unordered(
            ours.execute(query).rows, reference.execute(query).fetchall()
        )

    @given(_ROWS)
    @settings(max_examples=30, deadline=None)
    def test_in_subquery(self, rows):
        ours, reference = _build_both(rows)
        query = (
            "SELECT label FROM t WHERE a IN "
            "(SELECT b FROM t WHERE b IS NOT NULL)"
        )
        _compare_unordered(
            ours.execute(query).rows, reference.execute(query).fetchall()
        )

    @given(_ROWS)
    @settings(max_examples=30, deadline=None)
    def test_union_and_union_all(self, rows):
        ours, reference = _build_both(rows)
        for query in (
            "SELECT a FROM t UNION SELECT b FROM t",
            "SELECT a FROM t UNION ALL SELECT b FROM t",
        ):
            _compare_unordered(
                ours.execute(query).rows, reference.execute(query).fetchall()
            )

    @given(_ROWS)
    @settings(max_examples=30, deadline=None)
    def test_delete_then_state(self, rows):
        ours, reference = _build_both(rows)
        delete = "DELETE FROM t WHERE a > b"
        ours.execute(delete)
        reference.execute(delete)
        _compare_unordered(
            ours.execute("SELECT a, b, label FROM t").rows,
            reference.execute("SELECT a, b, label FROM t").fetchall(),
        )


# -- the benchmark's query shapes ---------------------------------------------
#
# The three ``engine_adhoc`` texts and the ``indirect_mixed`` factory text
# (bench/workloads.py), over hypothesis data on the same two-table shape,
# plus the other ways an ORDER BY term can be spelled.  Every sort key is
# NULL-free and every ordering is total: sqlite puts NULLs first where
# this engine puts them last, and neither promises an order among ties.

_REGIONS = ["north", "south", "east", "west"]
#: (customer 1..6, total in quarter units) — multiples of 0.25 add exactly
_ORDERS = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=80).map(lambda q: q * 0.25),
    ),
    min_size=0,
    max_size=40,
)
_PIVOT = st.integers(min_value=0, max_value=80).map(lambda q: q * 0.25)


def _build_shop(orders, indexed):
    ours = Database()
    reference = sqlite3.connect(":memory:")
    for engine in (ours, reference):
        engine.execute("CREATE TABLE customers (id INT PRIMARY KEY, region VARCHAR(10))")
        engine.execute(
            "CREATE TABLE orders (id INT PRIMARY KEY, customer_id INT, total FLOAT)"
        )
        if indexed:  # the benchmark's schema has it: the range-scan path
            engine.execute("CREATE INDEX ix_orders_total ON orders (total)")
        for customer in range(1, 7):
            engine.execute(
                "INSERT INTO customers VALUES (?, ?)",
                (customer, _REGIONS[customer % len(_REGIONS)]),
            )
        for order_id, (customer, total) in enumerate(orders, start=1):
            engine.execute(
                "INSERT INTO orders VALUES (?, ?, ?)", (order_id, customer, total)
            )
    return ours, reference


def _same_rows_in_order(ours, reference, query, parameters=()):
    assert _normalize(ours.execute(query, parameters).rows) == _normalize(
        reference.execute(query, parameters).fetchall()
    )


class TestBenchmarkShapes:
    @given(_ORDERS, _PIVOT, st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_adhoc_join_group_order_by_aggregate(self, orders, pivot, indexed):
        ours, reference = _build_shop(orders, indexed)
        # the benchmark's text orders by revenue alone; the region
        # tie-break makes the order total so two engines can agree
        query = (
            "SELECT c.region, COUNT(*) AS n, SUM(o.total) AS revenue "
            "FROM orders o JOIN customers c ON o.customer_id = c.id "
            f"WHERE o.total >= {pivot:.2f} GROUP BY c.region "
            "ORDER BY revenue DESC, c.region"
        )
        _same_rows_in_order(ours, reference, query)

    @given(_ORDERS, _PIVOT, st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_adhoc_range_two_term_order_limit(self, orders, pivot, indexed):
        ours, reference = _build_shop(orders, indexed)
        query = (
            f"SELECT id, total FROM orders WHERE total >= {pivot:.2f} "
            "ORDER BY total, id LIMIT 10"
        )
        _same_rows_in_order(ours, reference, query)

    @given(_ORDERS, _PIVOT, st.booleans(), st.integers(min_value=0, max_value=12))
    @settings(max_examples=40, deadline=None)
    def test_adhoc_topk_mixed_directions_limit_offset(
        self, orders, pivot, indexed, offset
    ):
        ours, reference = _build_shop(orders, indexed)
        query = (
            f"SELECT o.id, o.total FROM orders o WHERE o.total <= {pivot:.2f} "
            f"ORDER BY o.total DESC, o.id LIMIT 10 OFFSET {offset}"
        )
        _same_rows_in_order(ours, reference, query)

    @given(_ORDERS, _PIVOT, st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_indirect_mixed_factory_shape(self, orders, pivot, indexed):
        ours, reference = _build_shop(orders, indexed)
        query = (
            "SELECT id, customer_id, total FROM orders WHERE total >= ? "
            "ORDER BY total, id LIMIT 200"
        )
        _same_rows_in_order(ours, reference, query, (pivot,))

    @given(_ORDERS)
    @settings(max_examples=40, deadline=None)
    def test_order_by_alias_ordinal_and_having(self, orders):
        ours, reference = _build_shop(orders, indexed=False)
        for query in (
            "SELECT id, total * 2 AS dbl FROM orders ORDER BY dbl DESC, 1",
            "SELECT id, total * 2 AS dbl FROM orders ORDER BY dbl + id, id LIMIT 7",
            "SELECT customer_id, COUNT(*) AS n, MAX(total) FROM orders "
            "GROUP BY customer_id HAVING COUNT(*) >= 2 "
            "ORDER BY n DESC, customer_id",
            "SELECT c.region, SUM(o.total) FROM orders o "
            "JOIN customers c ON o.customer_id = c.id GROUP BY c.region "
            "HAVING SUM(o.total) > 5 ORDER BY 2 DESC, 1 LIMIT 2",
        ):
            _same_rows_in_order(ours, reference, query)
