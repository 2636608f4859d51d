"""The compiled row path against the interpreter it replaced.

Two generative guards.  Expressions: hypothesis draws trees over all
sixteen node kinds, rows with NULLs and every value family, parameters,
a correlated outer scope and per-group aggregate slots; the closure from
:func:`compile_expression` and the reference tree-walker must return the
same value (same type) or raise the same exception type.  Ordering:
random key columns — NULLs, int/float/Decimal mixes, duplicates, one to
three terms of either direction, LIMIT/OFFSET — must come out of the
keyed sort exactly as they came out of the old ``cmp_to_key`` comparator,
tie order included.
"""

import datetime
import threading
from decimal import Decimal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.relational import Database, NULL, SqlError, SqlTypeError
from repro.relational import ast_nodes as ast
from repro.relational.catalog import Catalog
from repro.relational.executor import Executor, _sort_order, _walk
from repro.relational.expressions import _FUNCTIONS as _SCALARS
from repro.relational.expressions import (
    Context,
    compile_expression,
    scalar_function,
)
from repro.relational.parser import parse_expression
from repro.relational.types import SqlType
from tests.relational.reference_evaluator import (
    ExpressionEvaluator,
    RowEnvironment,
    sort_by_keys,
)

# -- the world an expression is evaluated in --------------------------------------

#: inner scope: one column per value family, ``x`` holds anything
INNER = (("t", "a"), ("t", "b"), ("t", "s"), ("t", "flag"), ("t", "d"), ("t", "x"))
#: enclosing query: ``a`` is shadowed by the inner scope, ``k`` is not
OUTER = (("o", "a"), ("o", "k"))
AGGREGATES = (
    ast.Aggregate("SUM", ast.ColumnRef(None, "a")),
    ast.Aggregate("COUNT", None),
)
SCOPES = (INNER + AGGREGATES, OUTER)

_INT = st.integers(min_value=-3, max_value=3)
_FLOAT = st.sampled_from([-2.5, 0.0, 1.0, 1.5, 3.0])
_DECIMAL = st.sampled_from([Decimal("-2"), Decimal("0"), Decimal("1.5")])
_NUMBER = st.one_of(_INT, _FLOAT, _DECIMAL)
_TEXT = st.sampled_from(["", "a", "ab", "abc", "b%", "_b", "1", "2.5", " x "])
_BOOL = st.booleans()
_TIME = st.sampled_from(
    [
        datetime.date(2020, 1, 1),
        datetime.date(2021, 6, 15),
        datetime.datetime(2020, 1, 1, 12, 30),
    ]
)
_NULL = st.just(NULL)
_ANY = st.one_of(_NUMBER, _TEXT, _BOOL, _TIME, _NULL)


def _nullable(strategy):
    return st.one_of(strategy, _NULL)


_INNER_ROW = st.tuples(
    _nullable(_INT),
    _nullable(_NUMBER),
    _nullable(_TEXT),
    _nullable(_BOOL),
    _nullable(_TIME),
    _ANY,
    _nullable(_INT),  # SUM(a)
    st.integers(min_value=0, max_value=9),  # COUNT(*)
)
_OUTER_ROW = st.tuples(_nullable(_INT), _ANY)
#: three supplied; ``Parameter(3)`` is the "only 3 supplied" error.  A
#: Python ``None`` parameter reads as NULL.
_PARAMETERS = st.tuples(st.one_of(_ANY, st.none()), _ANY, _ANY)

_COLUMN_REFS = [
    ast.ColumnRef(None, "a"),  # inner wins over o.a
    ast.ColumnRef("t", "B"),  # case-insensitive, qualified
    ast.ColumnRef(None, "s"),
    ast.ColumnRef(None, "flag"),
    ast.ColumnRef(None, "d"),
    ast.ColumnRef("T", "x"),
    ast.ColumnRef("o", "a"),  # reaches past the shadow
    ast.ColumnRef(None, "k"),  # resolves in the outer scope only
]
_LEAVES = st.one_of(
    _ANY.map(ast.Literal),
    st.integers(min_value=0, max_value=3).map(ast.Parameter),
    st.sampled_from(_COLUMN_REFS),
    st.sampled_from(AGGREGATES),
)
_BINARY_OPS = ["=", "<>", "<", "<=", ">", ">=", "+", "-", "*", "/", "%", "AND", "OR", "||"]
_FUNCTIONS = [
    "UPPER", "LOWER", "LENGTH", "CHAR_LENGTH", "TRIM", "LTRIM", "RTRIM", "ABS",
    "MOD", "ROUND", "SUBSTR", "SUBSTRING", "CONCAT", "COALESCE", "NULLIF",
]  # fmt: skip


def _subquery(items, where):
    """``SELECT items [WHERE where]`` with no FROM: zero or one row,
    correlated through whatever the expressions reference."""
    return ast.Select(
        items=tuple(ast.SelectItem(e) for e in items), from_item=None, where=where
    )


def _bindable_call(children):
    """A call with a number of arguments its function takes, so that the
    two evaluators are compared on what it returns and not only on the
    refusal every other count gets where the call is bound."""

    def call(name):
        counts = _SCALARS[name][1] or (0, 1, 2, 3)
        return st.sampled_from(counts).flatmap(
            lambda n: st.builds(
                ast.FunctionCall, st.just(name), st.tuples(*[children] * n)
            )
        )

    return st.sampled_from(_FUNCTIONS).flatmap(call)


def _extend(children):
    pair = st.tuples(children, children)
    some = st.lists(children, min_size=0, max_size=3).map(tuple)
    negated = st.booleans()
    # An aggregate in a subquery's select list would make the subquery an
    # aggregate query of its own (the executor's business, not the
    # expression layer's); in its WHERE it is an outer reference.
    plain = children.filter(
        lambda e: not any(isinstance(n, ast.Aggregate) for n in _walk(e))
    )
    query = st.builds(
        _subquery,
        st.lists(plain, min_size=1, max_size=2),
        st.one_of(st.none(), children),
    )
    return st.one_of(
        st.builds(ast.Unary, st.sampled_from(["NOT", "-"]), children),
        st.builds(ast.Binary, st.sampled_from(_BINARY_OPS), children, children),
        st.builds(ast.IsNull, children, negated),
        st.builds(ast.Like, children, children, negated),
        st.builds(ast.Between, children, children, children, negated),
        st.builds(ast.InList, children, some, negated),
        st.builds(ast.InSubquery, children, query, negated),
        st.builds(ast.Exists, query, negated),
        st.builds(ast.ScalarSubquery, query),
        st.builds(ast.FunctionCall, st.sampled_from(_FUNCTIONS), some),
        _bindable_call(children),
        st.builds(
            ast.Case,
            st.lists(pair, min_size=1, max_size=2).map(tuple),
            st.one_of(st.none(), children),
            st.one_of(st.none(), children),
        ),
        st.builds(
            ast.Cast,
            children,
            st.sampled_from(list(SqlType)),
            st.sampled_from([None, 2]),
        ),
    )


_EXPRESSIONS = st.recursive(_LEAVES, _extend, max_leaves=10)


def _outcome(thunk):
    try:
        value = thunk()
    except Exception as exc:  # the type is the contract, whatever it is
        return ("raised", type(exc))
    return ("value", type(value), value)


def _refuse_bad_calls(*roots):
    """What binding refuses before the first row, the reference being a
    tree-walker that binds nothing: a call with the wrong number of
    arguments anywhere in the expression, taken branch or not.  A
    subquery binds its own expressions each time it runs."""
    for root in roots:
        for node in _walk(root):
            if isinstance(node, ast.FunctionCall):
                scalar_function(node)


def _reference(expression, inner_row, outer_row, parameters):
    def run_subquery(query, env):
        _refuse_bad_calls(*(item.expression for item in query.items), query.where)
        scope = RowEnvironment([], (), env)
        if query.where is not None and not evaluator.truthy(query.where, scope):
            return []
        return [
            tuple(evaluator.evaluate(item.expression, scope) for item in query.items)
        ]

    evaluator = ExpressionEvaluator(parameters, subquery_runner=run_subquery)
    env = RowEnvironment(
        list(INNER),
        inner_row[: len(INNER)],
        parent=RowEnvironment(list(OUTER), outer_row),
    )
    env.aggregates = dict(zip(AGGREGATES, inner_row[len(INNER) :]))
    _refuse_bad_calls(expression)
    return evaluator.evaluate(expression, env)


def _compiled(expression, inner_row, outer_row, parameters):
    # Subqueries run through the real executor: a FROM-less SELECT
    # whose expressions bind against the scopes handed down.
    executor = Executor(Catalog(), {}, parameters)
    ctx = Context(parameters, executor._run_subquery, (OUTER,), (outer_row,))
    return compile_expression(expression, SCOPES)(inner_row, ctx)


#: A row of NULLs for the examples that need no column values.
_NULL_INNER = (NULL,) * 7 + (0,)
_NULL_OUTER = (NULL, NULL)


def _in_subquery_where(where):
    """``0 IN (SELECT 0 WHERE where)``: the executor splits *where*
    into conjuncts, the reference evaluates it as one AND tree."""
    return ast.InSubquery(ast.Literal(0), _subquery([ast.Literal(0)], where))


class TestCompiledAgainstReference:
    @given(_EXPRESSIONS, _INNER_ROW, _OUTER_ROW, _PARAMETERS)
    @settings(max_examples=400, deadline=None)
    # A split WHERE must stay an AND: non-boolean operands raise, and a
    # NULL operand does not hide a later one from the check.
    @example(
        _in_subquery_where(ast.Binary("AND", ast.Literal(0), ast.Literal(0))),
        _NULL_INNER, _NULL_OUTER, (NULL, NULL, NULL),
    )
    @example(
        _in_subquery_where(ast.Binary("AND", ast.Literal(NULL), ast.Literal(0))),
        _NULL_INNER, _NULL_OUTER, (NULL, NULL, NULL),
    )
    @example(
        _in_subquery_where(ast.Binary("AND", ast.Literal(False), ast.Literal(0))),
        _NULL_INNER, _NULL_OUTER, (NULL, NULL, NULL),
    )
    def test_same_value_or_same_exception(
        self, expression, inner_row, outer_row, parameters
    ):
        expected = _outcome(
            lambda: _reference(expression, inner_row, outer_row, parameters)
        )
        got = _outcome(lambda: _compiled(expression, inner_row, outer_row, parameters))
        assert got == expected

    def test_closure_is_shared_between_executions(self):
        """One closure, two contexts: parameters and outer rows are read
        from the context, never captured."""
        expression = ast.Binary(
            "+", ast.Parameter(0), ast.Binary("*", ast.ColumnRef("o", "a"), ast.ColumnRef(None, "a"))
        )
        fn = compile_expression(expression, SCOPES)
        row = (2, NULL, NULL, NULL, NULL, NULL, NULL, 0)
        assert fn(row, Context((10,), None, (OUTER,), ((3, NULL),))) == 16
        assert fn(row, Context((20,), None, (OUTER,), ((5, NULL),))) == 30


#: Calls that used to escape as bare TypeError / IndexError / ValueError:
#: (select item, the SQL error it is now, evaluated or only bound).
_HOSTILE_CALLS = [
    ("ABS(v)", SqlTypeError),
    ("ABS()", SqlError),
    ("UPPER()", SqlError),
    ("MOD(5)", SqlError),
    ("SUBSTR(v, 'x')", SqlTypeError),
    ("ROUND(1.5, 'x')", SqlTypeError),
]


class TestHostileScalarCalls:
    @pytest.mark.parametrize("call, error", _HOSTILE_CALLS)
    def test_sql_error_naming_the_function(self, call, error):
        database = Database()
        database.execute("CREATE TABLE t (k INT, v VARCHAR(8))")
        database.execute("INSERT INTO t VALUES (1, 'abc')")
        name = call.partition("(")[0]
        with pytest.raises(SqlError, match=name) as caught:
            database.execute(f"SELECT {call} FROM t")
        assert type(caught.value) is error
        if error is SqlError:
            # the wrong number of arguments is refused where the call is
            # bound: no row is needed to find it
            database.execute("DELETE FROM t")
            with pytest.raises(SqlError, match=name):
                database.execute(f"SELECT {call} FROM t")

    @pytest.mark.parametrize("call, error", _HOSTILE_CALLS)
    def test_compiled_and_reference_agree_on_the_class(self, call, error):
        expression = parse_expression(call)
        columns, row = [("t", "k"), ("t", "v")], (1, "abc")

        def reference():
            _refuse_bad_calls(expression)
            return ExpressionEvaluator(()).evaluate(
                expression, RowEnvironment(columns, row)
            )

        def compiled():
            return compile_expression(expression, (tuple(columns),))(row, Context())

        assert _outcome(compiled) == _outcome(reference) == ("raised", error)


# -- ordering ---------------------------------------------------------------------

_FAMILIES = {
    "num": _NUMBER,
    "str": st.sampled_from(["", "a", "ab", "b", "B", "10", "9"]),
    "bool": _BOOL,
    "time": _TIME,
}


@st.composite
def _sort_cases(draw, mixed=False):
    terms = draw(st.integers(min_value=1, max_value=3))
    families = [draw(st.sampled_from(sorted(_FAMILIES))) for _ in range(terms)]
    count = draw(st.integers(min_value=0, max_value=25))
    columns = [
        draw(st.lists(_nullable(_FAMILIES[f]), min_size=count, max_size=count))
        for f in families
    ]
    if mixed:
        # one column gets two values no comparison family joins
        victim = draw(st.integers(min_value=0, max_value=terms - 1))
        other = {"num": True, "str": False, "bool": "x", "time": 1.5}[families[victim]]
        native = draw(_FAMILIES[families[victim]])
        columns[victim] = columns[victim] + [native, other]
        for index, column in enumerate(columns):
            if index != victim:
                column.extend([NULL, NULL])
    order_by = tuple(
        ast.OrderItem(ast.Literal(index + 1), ascending=draw(st.booleans()))
        for index in range(terms)
    )
    return columns, order_by


class TestKeyedSortAgainstComparator:
    @given(
        _sort_cases(),
        st.one_of(st.none(), st.integers(min_value=0, max_value=30)),
        st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=400, deadline=None)
    def test_same_order_element_for_element(self, case, limit, offset):
        columns, order_by = case
        rows = list(range(len(columns[0])))  # a row is its input position
        expected = sort_by_keys(rows, [list(k) for k in zip(*columns)], order_by)
        got = _sort_order(columns, order_by)
        end = None if limit is None else offset + limit
        assert got[offset:end] == expected[offset:end]
        assert got == expected  # ties included: both sorts are stable

    @given(_sort_cases(mixed=True))
    @settings(max_examples=200, deadline=None)
    def test_mixed_family_column_raises_as_the_comparator_did(self, case):
        columns, order_by = case
        rows = list(range(len(columns[0])))
        with pytest.raises(SqlTypeError):
            sort_by_keys(rows, [list(k) for k in zip(*columns)], order_by)
        with pytest.raises(SqlTypeError):
            _sort_order(columns, order_by)

    def test_numbers_and_numeric_strings_compare_as_numbers(self):
        """The one mix ``compare_values`` converts.  The comparator's
        answer here depended on which pairs the sort happened to compare
        (two strings compared as text, a string and a number as numbers);
        the keyed sort converts the whole column or refuses it."""
        order_by = (ast.OrderItem(ast.Literal(1)),)
        assert _sort_order([["10", 9, NULL, "2.5"]], order_by) == [3, 1, 0, 2]
        with pytest.raises(SqlTypeError):
            _sort_order([["ten", 9]], order_by)

    _TYPED = {
        "INT": st.integers(min_value=-3, max_value=3),
        "FLOAT": _FLOAT,
        "VARCHAR(8)": st.sampled_from(["", "a", "ab", "b", "B"]),
        "BOOLEAN": _BOOL,
        "DATE": st.sampled_from(["2020-01-01", "2021-06-15", "1999-12-31"]),
    }

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_engine_order_by_limit_offset(self, data):
        """Through ``Database.execute``: every way of naming a term
        (qualified source column, output alias, ordinal) and the
        LIMIT/OFFSET window, against the comparator on the unsorted rows.
        With an index on ``k0`` and a range on it, a ``t.k0`` lead term
        with a LIMIT takes its rows from the ordered walk."""
        types = data.draw(st.lists(st.sampled_from(sorted(self._TYPED)), min_size=1, max_size=3))
        count = data.draw(st.integers(min_value=0, max_value=20))
        database = Database()
        database.execute(
            "CREATE TABLE t (id INT, "
            + ", ".join(f"k{i} {t}" for i, t in enumerate(types))
            + ")"
        )
        where, parameters = "", ()
        if types[0] != "DATE" and data.draw(st.booleans()):  # a date compares with no parameter
            database.execute("CREATE INDEX ix_k0 ON t (k0)")
            op = data.draw(st.sampled_from(["<", "<=", ">", ">="]))
            where, parameters = f" WHERE t.k0 {op} ?", (data.draw(self._TYPED[types[0]]),)
        for row_id in range(count):
            keys = [data.draw(st.one_of(st.none(), self._TYPED[t])) for t in types]
            database.execute(
                f"INSERT INTO t VALUES ({', '.join('?' * (len(types) + 1))})",
                (row_id, *keys),
            )
        select = "SELECT id, " + ", ".join(f"k{i} AS o{i}" for i in range(len(types)))
        spellings, order_by = [], []
        for index in range(len(types)):
            ascending = data.draw(st.booleans())
            style = data.draw(st.sampled_from([f"t.k{index}", f"o{index}", f"{index + 2}"]))
            spellings.append(style + ("" if ascending else " DESC"))
            order_by.append(ast.OrderItem(ast.Literal(index + 2), ascending))
        limit = data.draw(st.one_of(st.none(), st.integers(min_value=0, max_value=25)))
        offset = data.draw(st.integers(min_value=0, max_value=5))
        window = "" if limit is None else f" LIMIT {limit} OFFSET {offset}"

        unsorted = database.execute(f"{select} FROM t{where}", parameters).rows
        expected = sort_by_keys(unsorted, [list(r[1:]) for r in unsorted], tuple(order_by))
        if limit is not None:
            expected = expected[offset : offset + limit]
        got = database.execute(
            f"{select} FROM t{where} ORDER BY {', '.join(spellings)}{window}", parameters
        )
        assert got.rows == expected


# -- one cached plan, many sessions -----------------------------------------------


def test_sessions_sharing_a_cached_plan_get_their_own_answers():
    """8 threads × 200 executions of one SQL text with different
    parameters: the closures memoised on the shared plan hold no
    per-execution state, so no thread may ever see another's answer."""
    database = Database()
    database.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    database.execute(
        "INSERT INTO t VALUES " + ", ".join(f"({i}, {i * 7})" for i in range(64))
    )
    sql = (
        "SELECT id + ?, (SELECT COUNT(*) FROM t u WHERE u.id < t.id) FROM t "
        "WHERE v = ? * 7 AND EXISTS (SELECT 1 FROM t w WHERE w.id = t.id + ?)"
    )
    database.execute(sql, (0, 0, 0))  # compile once, then share
    base = database.plan_cache.stats()["misses"]
    wrong: list = []

    def worker(seed: int) -> None:
        for step in range(200):
            wanted = (seed * 200 + step) % 63
            rows = database.execute(sql, (seed, wanted, 1)).rows
            if rows != [(wanted + seed, wanted)]:
                wrong.append((seed, step, rows))
                return

    threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    assert not wrong
    assert database.plan_cache.stats()["misses"] == base  # one plan served them all
