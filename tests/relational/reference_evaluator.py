"""The tree-walking interpreter the engine used before expressions were
compiled, kept verbatim as the oracle for the compiled row path.

:class:`ExpressionEvaluator` / :class:`RowEnvironment` resolve every
column reference per row by name and walk the AST per evaluation;
:func:`sort_by_keys` is the old ``cmp_to_key`` ORDER BY.  They are slow
and obviously right, which is what a reference is for:
``test_compiled_expressions.py`` checks the compiled closures and the
keyed sort against them.  The scalar function library, arithmetic and
LIKE translation are shared with :mod:`repro.relational.expressions`
(they did not change).
"""

from __future__ import annotations

from decimal import Decimal
from functools import cmp_to_key
from typing import Any, Callable, Optional

from repro.relational import ast_nodes as ast
from repro.relational.errors import CatalogError, SqlError, SqlTypeError
from repro.relational.expressions import (
    _arithmetic,
    _like_regex,
    _stringify,
    scalar_function,
)
from repro.relational.types import NULL, coerce, compare_values


class RowEnvironment:
    """Column bindings for one row, chained for correlated subqueries.

    ``columns`` is a list of ``(qualifier, name)`` pairs (both lower-case,
    qualifier may be ``None`` only conceptually — it is always a string
    here since every from-item has at least a generated alias).
    """

    def __init__(
        self,
        columns: list[tuple[str, str]],
        values: tuple,
        parent: Optional["RowEnvironment"] = None,
    ) -> None:
        self.columns = columns
        self.values = values
        self.parent = parent
        #: aggregate results bound by the executor, keyed by AST node
        self.aggregates: dict[ast.Aggregate, Any] = {}

    def child(self, columns: list[tuple[str, str]], values: tuple) -> "RowEnvironment":
        return RowEnvironment(columns, values, parent=self)

    def lookup(self, table: str | None, column: str) -> Any:
        wanted_table = table.lower() if table else None
        wanted_column = column.lower()
        matches = [
            index
            for index, (qualifier, name) in enumerate(self.columns)
            if name == wanted_column
            and (wanted_table is None or qualifier == wanted_table)
        ]
        if len(matches) > 1:
            raise CatalogError(f"ambiguous column reference {column!r}")
        if matches:
            return self.values[matches[0]]
        if self.parent is not None:
            return self.parent.lookup(table, column)
        display = f"{table}.{column}" if table else column
        raise CatalogError(f"unknown column {display!r}")


SubqueryRunner = Callable[[ast.Select, "RowEnvironment"], list[tuple]]


class ExpressionEvaluator:
    """Evaluates expression ASTs against row environments."""

    def __init__(
        self,
        parameters: tuple = (),
        subquery_runner: SubqueryRunner | None = None,
    ) -> None:
        self._parameters = parameters
        self._subquery_runner = subquery_runner

    # -- entry points -------------------------------------------------------

    def evaluate(self, expr: ast.Expression, env: RowEnvironment) -> Any:
        method = self._DISPATCH.get(type(expr))
        if method is None:
            raise SqlError(f"cannot evaluate {type(expr).__name__} here")
        return method(self, expr, env)

    def truthy(self, expr: ast.Expression, env: RowEnvironment) -> bool:
        """Three-valued filter semantics: only TRUE passes."""
        return self.evaluate(expr, env) is True

    # -- leaves ---------------------------------------------------------------

    def _literal(self, expr: ast.Literal, env: RowEnvironment) -> Any:
        return expr.value

    def _parameter(self, expr: ast.Parameter, env: RowEnvironment) -> Any:
        try:
            value = self._parameters[expr.index]
        except IndexError:
            raise SqlError(
                f"statement uses parameter {expr.index + 1} but only "
                f"{len(self._parameters)} supplied"
            ) from None
        return NULL if value is None else value

    def _column(self, expr: ast.ColumnRef, env: RowEnvironment) -> Any:
        return env.lookup(expr.table, expr.column)

    def _aggregate(self, expr: ast.Aggregate, env: RowEnvironment) -> Any:
        scope: RowEnvironment | None = env
        while scope is not None:
            if expr in scope.aggregates:
                return scope.aggregates[expr]
            scope = scope.parent
        raise SqlError(
            f"aggregate {expr.name} used outside GROUP BY / aggregate query"
        )

    # -- operators -----------------------------------------------------------

    def _unary(self, expr: ast.Unary, env: RowEnvironment) -> Any:
        value = self.evaluate(expr.operand, env)
        if expr.op == "NOT":
            if value is NULL:
                return NULL
            if isinstance(value, bool):
                return not value
            raise SqlTypeError("NOT requires a boolean operand")
        if value is NULL:
            return NULL
        if isinstance(value, (int, float, Decimal)) and not isinstance(value, bool):
            return -value
        raise SqlTypeError("unary minus requires a numeric operand")

    def _binary(self, expr: ast.Binary, env: RowEnvironment) -> Any:
        op = expr.op
        if op == "AND":
            return _and3(
                lambda: self._boolean_operand(expr.left, env),
                lambda: self._boolean_operand(expr.right, env),
            )
        if op == "OR":
            return _or3(
                lambda: self._boolean_operand(expr.left, env),
                lambda: self._boolean_operand(expr.right, env),
            )
        left = self.evaluate(expr.left, env)
        right = self.evaluate(expr.right, env)
        if op in ("=", "<>", "<", "<=", ">", ">="):
            comparison = compare_values(left, right)
            if comparison is None:
                return NULL
            return _COMPARISONS[op](comparison)
        if op == "||":
            if left is NULL or right is NULL:
                return NULL
            return _stringify(left) + _stringify(right)
        # arithmetic
        if left is NULL or right is NULL:
            return NULL
        return _arithmetic(op, left, right)

    def _boolean_operand(self, expr: ast.Expression, env: RowEnvironment) -> Any:
        value = self.evaluate(expr, env)
        if value is NULL or isinstance(value, bool):
            return value
        raise SqlTypeError(
            f"expected a boolean operand, got {type(value).__name__}"
        )

    def _is_null(self, expr: ast.IsNull, env: RowEnvironment) -> bool:
        value = self.evaluate(expr.operand, env)
        result = value is NULL
        return not result if expr.negated else result

    def _like(self, expr: ast.Like, env: RowEnvironment) -> Any:
        value = self.evaluate(expr.operand, env)
        pattern = self.evaluate(expr.pattern, env)
        if value is NULL or pattern is NULL:
            return NULL
        if not isinstance(value, str) or not isinstance(pattern, str):
            raise SqlTypeError("LIKE requires string operands")
        matched = bool(_like_regex(pattern).match(value))
        return not matched if expr.negated else matched

    def _between(self, expr: ast.Between, env: RowEnvironment) -> Any:
        value = self.evaluate(expr.operand, env)
        low = self.evaluate(expr.low, env)
        high = self.evaluate(expr.high, env)
        lower = compare_values(value, low)
        upper = compare_values(value, high)
        result = _and3(
            lambda: NULL if lower is None else lower >= 0,
            lambda: NULL if upper is None else upper <= 0,
        )
        if expr.negated:
            return NULL if result is NULL else not result
        return result

    def _in_list(self, expr: ast.InList, env: RowEnvironment) -> Any:
        value = self.evaluate(expr.operand, env)
        candidates = [self.evaluate(item, env) for item in expr.items]
        return self._in_semantics(value, candidates, expr.negated)

    def _in_subquery(self, expr: ast.InSubquery, env: RowEnvironment) -> Any:
        value = self.evaluate(expr.operand, env)
        rows = self._run_subquery(expr.query, env)
        candidates = [row[0] for row in rows]
        return self._in_semantics(value, candidates, expr.negated)

    def _in_semantics(self, value: Any, candidates: list, negated: bool) -> Any:
        if value is NULL:
            return NULL
        saw_null = False
        for candidate in candidates:
            comparison = compare_values(value, candidate)
            if comparison is None:
                saw_null = True
            elif comparison == 0:
                return not negated
        if saw_null:
            return NULL
        return negated

    def _exists(self, expr: ast.Exists, env: RowEnvironment) -> bool:
        rows = self._run_subquery(expr.query, env)
        found = bool(rows)
        return not found if expr.negated else found

    def _scalar_subquery(self, expr: ast.ScalarSubquery, env: RowEnvironment) -> Any:
        rows = self._run_subquery(expr.query, env)
        if not rows:
            return NULL
        if len(rows) > 1:
            raise SqlError("scalar subquery returned more than one row")
        if len(rows[0]) != 1:
            raise SqlError("scalar subquery must select exactly one column")
        return rows[0][0]

    def _run_subquery(self, query: ast.Select, env: RowEnvironment) -> list[tuple]:
        if self._subquery_runner is None:
            raise SqlError("subqueries are not available in this context")
        return self._subquery_runner(query, env)

    # -- functions ------------------------------------------------------------

    def _function(self, expr: ast.FunctionCall, env: RowEnvironment) -> Any:
        handler = scalar_function(expr)
        args = [self.evaluate(arg, env) for arg in expr.args]
        return handler(args)

    def _case(self, expr: ast.Case, env: RowEnvironment) -> Any:
        if expr.operand is not None:
            # Simple CASE: compare the operand with each WHEN value.
            subject = self.evaluate(expr.operand, env)
            for candidate, result in expr.whens:
                comparison = compare_values(
                    subject, self.evaluate(candidate, env)
                )
                if comparison == 0:
                    return self.evaluate(result, env)
        else:
            for condition, result in expr.whens:
                if self.evaluate(condition, env) is True:
                    return self.evaluate(result, env)
        if expr.default is not None:
            return self.evaluate(expr.default, env)
        return NULL

    def _cast(self, expr: ast.Cast, env: RowEnvironment) -> Any:
        value = self.evaluate(expr.operand, env)
        return coerce(value, expr.target, expr.length)

    _DISPATCH = {}


ExpressionEvaluator._DISPATCH = {
    ast.Literal: ExpressionEvaluator._literal,
    ast.Parameter: ExpressionEvaluator._parameter,
    ast.ColumnRef: ExpressionEvaluator._column,
    ast.Aggregate: ExpressionEvaluator._aggregate,
    ast.Unary: ExpressionEvaluator._unary,
    ast.Binary: ExpressionEvaluator._binary,
    ast.IsNull: ExpressionEvaluator._is_null,
    ast.Like: ExpressionEvaluator._like,
    ast.Between: ExpressionEvaluator._between,
    ast.InList: ExpressionEvaluator._in_list,
    ast.InSubquery: ExpressionEvaluator._in_subquery,
    ast.Exists: ExpressionEvaluator._exists,
    ast.ScalarSubquery: ExpressionEvaluator._scalar_subquery,
    ast.FunctionCall: ExpressionEvaluator._function,
    ast.Case: ExpressionEvaluator._case,
    ast.Cast: ExpressionEvaluator._cast,
}


# ---------------------------------------------------------------------------
# Three-valued connectives
# ---------------------------------------------------------------------------


def _and3(left_thunk, right_thunk) -> Any:
    left = left_thunk()
    if left is False:
        return False
    right = right_thunk()
    if right is False:
        return False
    if left is NULL or right is NULL:
        return NULL
    return True


def _or3(left_thunk, right_thunk) -> Any:
    left = left_thunk()
    if left is True:
        return True
    right = right_thunk()
    if right is True:
        return True
    if left is NULL or right is NULL:
        return NULL
    return False


_COMPARISONS = {
    "=": lambda c: c == 0,
    "<>": lambda c: c != 0,
    "<": lambda c: c < 0,
    "<=": lambda c: c <= 0,
    ">": lambda c: c > 0,
    ">=": lambda c: c >= 0,
}


def sort_by_keys(
    rows: list[tuple], keys: list[list], order_by: tuple[ast.OrderItem, ...]
) -> list[tuple]:
    """Stable sort of *rows* by parallel *keys* honouring per-term direction."""
    directions = [order.ascending for order in order_by]

    def compare(a_index: int, b_index: int) -> int:
        for position, ascending in enumerate(directions):
            a_value = keys[a_index][position]
            b_value = keys[b_index][position]
            # NULLs always sort last, regardless of direction.
            if a_value is NULL or b_value is NULL:
                if a_value is NULL and b_value is NULL:
                    continue
                return 1 if a_value is NULL else -1
            comparison = _null_aware_compare(a_value, b_value)
            if comparison != 0:
                return comparison if ascending else -comparison
        return 0

    order_indexes = sorted(range(len(rows)), key=cmp_to_key(compare))
    return [rows[i] for i in order_indexes]


def _null_aware_compare(a: Any, b: Any) -> int:
    """NULLs sort after everything (ascending)."""
    if a is NULL and b is NULL:
        return 0
    if a is NULL:
        return 1
    if b is NULL:
        return -1
    comparison = compare_values(a, b)
    return comparison if comparison is not None else 0
