"""Access-path selection.

The planner is deliberately modest: it decomposes WHERE clauses into
conjuncts, recognises sargable predicates (``col = literal``,
``col < literal`` and friends, ``col BETWEEN``) on base tables, and picks a
hash or ordered index when one exists.  Join planning recognises
equi-join conditions so the executor can build a hash join instead of a
nested loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Optional

from repro.relational import ast_nodes as ast
from repro.relational.errors import SqlTypeError
from repro.relational.storage import HashIndex, OrderedIndex, TableStorage
from repro.relational.types import NULL, coerce


def conjuncts(expression: Optional[ast.Expression]) -> list[ast.Expression]:
    """Flatten a WHERE tree into its top-level AND-ed conjuncts."""
    if expression is None:
        return []
    if isinstance(expression, ast.Binary) and expression.op == "AND":
        return conjuncts(expression.left) + conjuncts(expression.right)
    return [expression]


def _constant_value(expr: ast.Expression, parameters: tuple) -> tuple[bool, Any]:
    """(is_constant, value) for literals, bound parameters and a unary
    minus over a numeric one (``-5`` parses as ``Unary('-', 5)``)."""
    if isinstance(expr, ast.Literal):
        return True, expr.value
    if isinstance(expr, ast.Parameter):
        if expr.index < len(parameters):
            value = parameters[expr.index]
            return True, (NULL if value is None else value)
    if isinstance(expr, ast.Unary) and expr.op == "-":
        constant, value = _constant_value(expr.operand, parameters)
        if constant and type(value) in (int, float):
            return True, -value
    return False, None


@dataclass
class EqualityLookup:
    """``col = constant`` resolvable via a hash index."""

    index: HashIndex
    key: tuple


@dataclass
class RangeLookup:
    """A range over an ordered index."""

    index: OrderedIndex
    low: Any = None
    high: Any = None
    low_inclusive: bool = True
    high_inclusive: bool = True


AccessPath = EqualityLookup | RangeLookup | None


def choose_access_path(
    storage: TableStorage,
    qualifier: str,
    where_conjuncts: list[ast.Expression],
    parameters: tuple,
) -> AccessPath:
    """Pick an index access path for a base-table scan, if any applies.

    *qualifier* is the alias the table is bound under; only predicates
    whose column reference resolves to this table are considered.
    """
    equalities: dict[str, Any] = {}
    ranges: dict[str, RangeLookup] = {}

    for predicate in _range_conjuncts(where_conjuncts):
        column, op, value = _sargable(predicate, qualifier, parameters, storage)
        if column is None or value is NULL:
            continue
        if op == "=":
            equalities[column] = value
        elif op in ("<", "<=", ">", ">="):
            ordered = storage.find_ordered_index(column)
            if ordered is None:
                continue
            entry = ranges.setdefault(column, RangeLookup(ordered))
            if op in (">", ">="):
                entry.low = value
                entry.low_inclusive = op == ">="
            else:
                entry.high = value
                entry.high_inclusive = op == "<="

    # Prefer the most selective hash lookup: try multi-column index first.
    if equalities:
        columns = tuple(sorted(equalities))
        for size in range(len(columns), 0, -1):
            index = _find_index_subset(storage, columns, size)
            if index is not None:
                key = tuple(
                    equalities[storage.schema.columns[p].name.lower()]
                    for p in index.positions
                )
                return EqualityLookup(index, key)
    if ranges:
        # Pick the range with the most bounds.
        best = max(
            ranges.values(),
            key=lambda r: (r.low is not None) + (r.high is not None),
        )
        return best
    return None


def _range_conjuncts(predicates) -> Iterator[ast.Expression]:
    """``x BETWEEN lo AND hi`` read as ``x >= lo`` and ``x <= hi``: the
    index narrows the scan, the predicate itself still runs on its rows."""
    for predicate in predicates:
        if isinstance(predicate, ast.Between) and not predicate.negated:
            yield ast.Binary(">=", predicate.operand, predicate.low)
            yield ast.Binary("<=", predicate.operand, predicate.high)
        else:
            yield predicate


def _find_index_subset(
    storage: TableStorage, columns: tuple[str, ...], size: int
) -> HashIndex | None:
    from itertools import combinations

    for subset in combinations(columns, size):
        index = storage.find_hash_index(subset)
        if index is not None:
            return index
    return None


def _sargable(
    predicate: ast.Expression,
    qualifier: str,
    parameters: tuple,
    storage: TableStorage,
) -> tuple[str | None, str, Any]:
    """Recognise ``col OP constant`` / ``constant OP col`` for this table."""
    if not isinstance(predicate, ast.Binary):
        return None, "", None
    if predicate.op not in ("=", "<", "<=", ">", ">="):
        return None, "", None
    flip = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}
    left, right, op = predicate.left, predicate.right, predicate.op
    if not isinstance(left, ast.ColumnRef):
        left, right, op = right, left, flip[op]
    if not isinstance(left, ast.ColumnRef) or isinstance(right, ast.ColumnRef):
        return None, "", None
    if left.table is not None and left.table.lower() != qualifier.lower():
        return None, "", None
    if not storage.schema.has_column(left.column):
        return None, "", None
    constant, value = _constant_value(right, parameters)
    if not constant:
        return None, "", None
    column = storage.schema.column(left.column)
    if value is not NULL:
        # Index keys are stored in column-typed form; coerce the constant
        # (parameters arrive as strings over the wire).  An uncoercible
        # constant just means "no index" — the scan still applies the
        # predicate with full comparison semantics.
        try:
            value = coerce(value, column.sql_type, column.length)
        except SqlTypeError:
            return None, "", None
    return column.name.lower(), op, value


@dataclass
class EquiJoin:
    """An equi-join condition usable for a hash join.

    ``left_expr``/``right_expr`` evaluate against the respective sides.
    """

    left_expr: ast.Expression
    right_expr: ast.Expression
    residual: list[ast.Expression]


def recognise_equi_join(
    condition: Optional[ast.Expression],
    left_qualifiers: set[str],
    right_qualifiers: set[str],
) -> EquiJoin | None:
    """Find one ``left.col = right.col`` conjunct; rest become residual."""
    if condition is None:
        return None
    parts = conjuncts(condition)
    for index, part in enumerate(parts):
        if not (isinstance(part, ast.Binary) and part.op == "="):
            continue
        sides = (part.left, part.right)
        if not all(isinstance(s, ast.ColumnRef) and s.table for s in sides):
            continue
        a, b = sides
        a_side = a.table.lower()
        b_side = b.table.lower()
        residual = parts[:index] + parts[index + 1 :]
        if a_side in left_qualifiers and b_side in right_qualifiers:
            return EquiJoin(a, b, residual)
        if b_side in left_qualifiers and a_side in right_qualifiers:
            return EquiJoin(b, a, residual)
    return None
