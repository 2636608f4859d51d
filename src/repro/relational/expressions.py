"""Expression compilation with SQL three-valued logic.

:func:`compile_expression` turns an expression AST into a closure
``fn(row, ctx)`` once per operator: every column reference is resolved
to a position when the statement is bound, so evaluating a row is
closure calls and tuple indexing — no name lookup, no per-row
environment.  A closure is a pure function of ``(AST node, scopes)``:
whatever differs between executions (parameters, the subquery runner,
the rows of enclosing queries) is read from the :class:`Context`
argument, so one closure may be memoised on a cached plan and shared by
concurrent sessions.

Boolean results are ``True``, ``False`` or :data:`NULL` (unknown).
Aggregates are *not* computed here — the executor computes them per
group and appends the results to the group's row, so an expression like
``SUM(x) / COUNT(*)`` is two slot reads and a division.
"""

from __future__ import annotations

import operator
import re
from decimal import Decimal
from functools import lru_cache, partial
from typing import Any, Callable

from repro.relational import ast_nodes as ast
from repro.relational.errors import (
    CatalogError,
    DivisionByZero,
    SqlError,
    SqlTypeError,
)
from repro.relational.types import NULL, SqlType, coerce, compare_values

#: One scope per query nesting level, innermost first.  A scope lists
#: what each position of that level's row holds: ``(qualifier, column)``
#: pairs (lower-cased) and, after a grouped operator's columns, the
#: ``ast.Aggregate`` nodes whose per-group results follow them.
Scopes = tuple[tuple, ...]


class Context:
    """What a compiled closure reads besides its row, per execution."""

    __slots__ = ("parameters", "run_subquery", "scopes", "outer")

    def __init__(
        self,
        parameters: tuple = (),
        run_subquery: Callable[[ast.Select, "Context"], list[tuple]] | None = None,
        scopes: Scopes = (),
        outer: tuple = (),
    ) -> None:
        self.parameters = parameters
        self.run_subquery = run_subquery
        #: scopes of the enclosing queries and, parallel to them, the
        #: row each is currently on (correlated subqueries read these)
        self.scopes = scopes
        self.outer = outer


Compiled = Callable[[tuple, Context], Any]


def compile_expression(expr: ast.Expression, scopes: Scopes) -> Compiled:
    """Bind *expr* against *scopes*; unknown or ambiguous names raise here."""
    compiler = _COMPILERS.get(type(expr))
    if compiler is None:
        raise SqlError(f"cannot evaluate {type(expr).__name__} here")
    return compiler(expr, scopes)


def compile_row(expressions: tuple, scopes: Scopes) -> Compiled:
    """A closure producing the tuple of *expressions*' values."""
    if all(type(e) is ast.ColumnRef for e in expressions):
        slots = [_resolve_column(e, scopes) for e in expressions]
        if slots and all(depth == 0 for depth, _ in slots):
            pick = operator.itemgetter(*(index for _, index in slots))
            if len(slots) == 1:
                return lambda row, ctx: (pick(row),)
            return lambda row, ctx: pick(row)
    parts = [compile_expression(e, scopes) for e in expressions]
    return lambda row, ctx: tuple([part(row, ctx) for part in parts])


def compile_filter(conjuncts: tuple, scopes: Scopes) -> Compiled:
    """Filter semantics over AND-ed *conjuncts*: only TRUE passes.

    Splitting an ``AND`` chain must not change what it means: a conjunct
    that is not TRUE is an ``AND`` operand, so it is type-checked like
    one (``WHERE 0 AND 0`` raises, it is not silently empty), FALSE
    short-circuits, and after a NULL the later operands are still
    evaluated and checked.  Rows that pass never reach any of that.
    """
    tests = [compile_expression(part, scopes) for part in conjuncts]
    if len(tests) == 1:
        (test,) = tests
        return lambda row, ctx: test(row, ctx) is True

    def run(row, ctx):
        for test in tests:
            if (value := test(row, ctx)) is not True:
                break
        else:
            return True
        if value is not False and _boolean(value) is NULL:
            for later in tests[tests.index(test) + 1 :]:
                if _boolean(later(row, ctx)) is False:
                    break
        return False

    return run


# -- leaves -------------------------------------------------------------------


def _literal(expr: ast.Literal, scopes: Scopes) -> Compiled:
    value = expr.value
    return lambda row, ctx: value


def _parameter(expr: ast.Parameter, scopes: Scopes) -> Compiled:
    index = expr.index

    def run(row, ctx):
        try:
            value = ctx.parameters[index]
        except IndexError:
            raise SqlError(
                f"statement uses parameter {index + 1} but only "
                f"{len(ctx.parameters)} supplied"
            ) from None
        return NULL if value is None else value

    return run


def _slot(depth: int, index: int) -> Compiled:
    if depth == 0:
        return lambda row, ctx: row[index]
    depth -= 1
    return lambda row, ctx: ctx.outer[depth][index]


def _resolve_column(expr: ast.ColumnRef, scopes: Scopes) -> tuple[int, int]:
    """(depth, index): the innermost scope with a match wins."""
    table = expr.table.lower() if expr.table else None
    column = expr.column.lower()
    for depth, bindings in enumerate(scopes):
        matches = [
            index
            for index, binding in enumerate(bindings)
            if type(binding) is tuple
            and binding[1] == column
            and (table is None or binding[0] == table)
        ]
        if len(matches) > 1:
            raise CatalogError(f"ambiguous column reference {expr.column!r}")
        if matches:
            return depth, matches[0]
    display = f"{expr.table}.{expr.column}" if expr.table else expr.column
    raise CatalogError(f"unknown column {display!r}")


def _column(expr: ast.ColumnRef, scopes: Scopes) -> Compiled:
    return _slot(*_resolve_column(expr, scopes))


def _aggregate(expr: ast.Aggregate, scopes: Scopes) -> Compiled:
    for depth, bindings in enumerate(scopes):
        if expr in bindings:
            return _slot(depth, bindings.index(expr))
    raise SqlError(
        f"aggregate {expr.name} used outside GROUP BY / aggregate query"
    )


# -- operators ----------------------------------------------------------------


def _unary(expr: ast.Unary, scopes: Scopes) -> Compiled:
    operand = compile_expression(expr.operand, scopes)
    if expr.op == "NOT":

        def run(row, ctx):
            value = operand(row, ctx)
            if value is NULL:
                return NULL
            if isinstance(value, bool):
                return not value
            raise SqlTypeError("NOT requires a boolean operand")

        return run

    def run(row, ctx):
        value = operand(row, ctx)
        if value is NULL:
            return NULL
        if _is_number(value):
            return -value
        raise SqlTypeError("unary minus requires a numeric operand")

    return run


def _boolean(value: Any) -> Any:
    if value is NULL or isinstance(value, bool):
        return value
    raise SqlTypeError(
        f"expected a boolean operand, got {type(value).__name__}"
    )


#: ``a OP b`` for an exact int/float pair, ``compare_values(a, b) OP 0``
#: for everything else — the same six operators serve both.
_COMPARISONS = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}
_PLAIN_NUMBERS = frozenset((int, float))  # bool is its own family


def _binary(expr: ast.Binary, scopes: Scopes) -> Compiled:
    op = expr.op
    left = compile_expression(expr.left, scopes)
    right = compile_expression(expr.right, scopes)
    if op == "AND":

        def run(row, ctx):
            a = _boolean(left(row, ctx))
            if a is False:
                return False
            b = _boolean(right(row, ctx))
            if b is False:
                return False
            return NULL if a is NULL or b is NULL else True

    elif op == "OR":

        def run(row, ctx):
            a = _boolean(left(row, ctx))
            if a is True:
                return True
            b = _boolean(right(row, ctx))
            if b is True:
                return True
            return NULL if a is NULL or b is NULL else False

    elif op in _COMPARISONS:
        test = _COMPARISONS[op]

        def run(row, ctx):
            a = left(row, ctx)
            b = right(row, ctx)
            if type(a) in _PLAIN_NUMBERS and type(b) in _PLAIN_NUMBERS:
                # what compare_values computes, minus its key tuples
                return test((a > b) - (a < b), 0)
            comparison = compare_values(a, b)
            return NULL if comparison is None else test(comparison, 0)

    else:
        apply = _concatenate if op == "||" else partial(_arithmetic, op)

        def run(row, ctx):
            a = left(row, ctx)
            b = right(row, ctx)
            if a is NULL or b is NULL:
                return NULL
            return apply(a, b)

    return run


def _is_null(expr: ast.IsNull, scopes: Scopes) -> Compiled:
    operand = compile_expression(expr.operand, scopes)
    if expr.negated:
        return lambda row, ctx: operand(row, ctx) is not NULL
    return lambda row, ctx: operand(row, ctx) is NULL


def _like(expr: ast.Like, scopes: Scopes) -> Compiled:
    operand = compile_expression(expr.operand, scopes)
    pattern = compile_expression(expr.pattern, scopes)
    negated = expr.negated
    fixed = None
    if isinstance(expr.pattern, ast.Literal) and isinstance(expr.pattern.value, str):
        fixed = _translate_like(expr.pattern.value)

    def run(row, ctx):
        value = operand(row, ctx)
        text = pattern(row, ctx)
        if value is NULL or text is NULL:
            return NULL
        if not isinstance(value, str) or not isinstance(text, str):
            raise SqlTypeError("LIKE requires string operands")
        matched = (fixed or _like_regex(text)).match(value) is not None
        return matched is not negated

    return run


def _between(expr: ast.Between, scopes: Scopes) -> Compiled:
    operand = compile_expression(expr.operand, scopes)
    low = compile_expression(expr.low, scopes)
    high = compile_expression(expr.high, scopes)
    negated = expr.negated

    def run(row, ctx):
        value = operand(row, ctx)
        floor = low(row, ctx)
        ceiling = high(row, ctx)
        lower = compare_values(value, floor)
        upper = compare_values(value, ceiling)
        # three-valued (value >= low) AND (value <= high)
        if (lower is not None and lower < 0) or (upper is not None and upper > 0):
            return negated
        if lower is None or upper is None:
            return NULL
        return not negated

    return run


def _in_list(expr: ast.InList, scopes: Scopes) -> Compiled:
    operand = compile_expression(expr.operand, scopes)
    items = [compile_expression(item, scopes) for item in expr.items]
    negated = expr.negated
    return lambda row, ctx: _in_semantics(
        operand(row, ctx), [item(row, ctx) for item in items], negated
    )


def _in_subquery(expr: ast.InSubquery, scopes: Scopes) -> Compiled:
    operand = compile_expression(expr.operand, scopes)
    query, negated = expr.query, expr.negated

    def run(row, ctx):
        value = operand(row, ctx)
        rows = _run_subquery(query, scopes, row, ctx)
        return _in_semantics(value, [r[0] for r in rows], negated)

    return run


def _in_semantics(value: Any, candidates: list, negated: bool) -> Any:
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


def _exists(expr: ast.Exists, scopes: Scopes) -> Compiled:
    query, negated = expr.query, expr.negated
    return lambda row, ctx: (
        bool(_run_subquery(query, scopes, row, ctx)) is not negated
    )


def _scalar_subquery(expr: ast.ScalarSubquery, scopes: Scopes) -> Compiled:
    query = expr.query

    def run(row, ctx):
        rows = _run_subquery(query, scopes, row, ctx)
        if not rows:
            return NULL
        if len(rows) > 1:
            raise SqlError("scalar subquery returned more than one row")
        if len(rows[0]) != 1:
            raise SqlError("scalar subquery must select exactly one column")
        return rows[0][0]

    return run


def _run_subquery(
    query: ast.Select, scopes: Scopes, row: tuple, ctx: Context
) -> list[tuple]:
    """Run *query* with *row* (bound as ``scopes[0]``) as its outer row."""
    if ctx.run_subquery is None:
        raise SqlError("subqueries are not available in this context")
    inner = Context(ctx.parameters, ctx.run_subquery, scopes, (row, *ctx.outer))
    return ctx.run_subquery(query, inner)


# -- functions ----------------------------------------------------------------


def scalar_function(expr: ast.FunctionCall):
    """The handler for a call, once its name and argument count are
    known to be right — what can be refused before any row is."""
    entry = _FUNCTIONS.get(expr.name)
    if entry is None:
        raise SqlError(f"unknown function {expr.name}()")
    handler, counts = entry
    if counts is not None and len(expr.args) not in counts:
        raise SqlError(
            f"{expr.name}() takes {' or '.join(map(str, counts))} "
            f"argument(s), not {len(expr.args)}"
        )
    return handler


def _function(expr: ast.FunctionCall, scopes: Scopes) -> Compiled:
    handler = scalar_function(expr)
    args = [compile_expression(arg, scopes) for arg in expr.args]
    return lambda row, ctx: handler([arg(row, ctx) for arg in args])


def _case(expr: ast.Case, scopes: Scopes) -> Compiled:
    whens = [
        (compile_expression(when, scopes), compile_expression(then, scopes))
        for when, then in expr.whens
    ]
    default = compile_expression(
        ast.Literal(NULL) if expr.default is None else expr.default, scopes
    )
    if expr.operand is None:

        def run(row, ctx):
            for condition, result in whens:
                if condition(row, ctx) is True:
                    return result(row, ctx)
            return default(row, ctx)

        return run
    operand = compile_expression(expr.operand, scopes)

    def run(row, ctx):
        # Simple CASE: compare the operand with each WHEN value.
        subject = operand(row, ctx)
        for candidate, result in whens:
            if compare_values(subject, candidate(row, ctx)) == 0:
                return result(row, ctx)
        return default(row, ctx)

    return run


def _cast(expr: ast.Cast, scopes: Scopes) -> Compiled:
    operand = compile_expression(expr.operand, scopes)
    target, length = expr.target, expr.length
    return lambda row, ctx: coerce(operand(row, ctx), target, length)


_COMPILERS = {
    ast.Literal: _literal,
    ast.Parameter: _parameter,
    ast.ColumnRef: _column,
    ast.Aggregate: _aggregate,
    ast.Unary: _unary,
    ast.Binary: _binary,
    ast.IsNull: _is_null,
    ast.Like: _like,
    ast.Between: _between,
    ast.InList: _in_list,
    ast.InSubquery: _in_subquery,
    ast.Exists: _exists,
    ast.ScalarSubquery: _scalar_subquery,
    ast.FunctionCall: _function,
    ast.Case: _case,
    ast.Cast: _cast,
}


# ---------------------------------------------------------------------------
# Scalar semantics shared by every compiled form
# ---------------------------------------------------------------------------


def _arithmetic(op: str, left: Any, right: Any) -> Any:
    if not _is_number(left) or not _is_number(right):
        raise SqlTypeError(f"operator {op} requires numeric operands")
    left, right = _unify_numeric(left, right)
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0:
            raise DivisionByZero("division by zero")
        if isinstance(left, int) and isinstance(right, int):
            quotient = abs(left) // abs(right)
            return quotient if (left >= 0) == (right >= 0) else -quotient
        return left / right
    if op == "%":
        if right == 0:
            raise DivisionByZero("division by zero")
        remainder = abs(left) % abs(right)
        return remainder if left >= 0 else -remainder
    raise SqlError(f"unknown operator {op}")


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float, Decimal)) and not isinstance(value, bool)


def _unify_numeric(left: Any, right: Any) -> tuple[Any, Any]:
    if isinstance(left, Decimal) and isinstance(right, float):
        return left, Decimal(str(right))
    if isinstance(right, Decimal) and isinstance(left, float):
        return Decimal(str(left)), right
    if isinstance(left, Decimal) and isinstance(right, int):
        return left, Decimal(right)
    if isinstance(right, Decimal) and isinstance(left, int):
        return Decimal(left), right
    return left, right


def _stringify(value: Any) -> str:
    return coerce(value, SqlType.TEXT)


def _concatenate(left: Any, right: Any) -> str:
    return _stringify(left) + _stringify(right)


def _translate_like(pattern: str) -> re.Pattern:
    parts = ["^"]
    for ch in pattern:
        if ch == "%":
            parts.append(".*")
        elif ch == "_":
            parts.append(".")
        else:
            parts.append(re.escape(ch))
    parts.append("$")
    return re.compile("".join(parts), re.DOTALL)


#: Patterns that arrive as values (parameters, columns); a literal
#: pattern is translated once when its LIKE is compiled instead.
_like_regex = lru_cache(maxsize=256)(_translate_like)


# ---------------------------------------------------------------------------
# Scalar function library
# ---------------------------------------------------------------------------


def _null_propagating(fn):
    def wrapper(args):
        if any(arg is NULL for arg in args):
            return NULL
        return fn(args)

    return wrapper


def _fn_coalesce(args):
    for arg in args:
        if arg is not NULL:
            return arg
    return NULL


def _fn_nullif(args):
    a, b = args
    comparison = compare_values(a, b)
    if comparison == 0:
        return NULL
    return a


def _fn_substr(args):
    text = _expect_str(args[0], "SUBSTR")
    start = _expect_int(args[1], "SUBSTR")
    length = _expect_int(args[2], "SUBSTR") if len(args) == 3 else None
    begin = max(start - 1, 0)
    if length is None:
        return text[begin:]
    if length < 0:
        raise SqlError("SUBSTR length must be non-negative")
    return text[begin : begin + length]


def _expect_str(value, fn):
    if not isinstance(value, str):
        raise SqlTypeError(f"{fn} requires a string argument")
    return value


def _expect_number(value, fn):
    if not _is_number(value):
        raise SqlTypeError(f"{fn} requires a numeric argument")
    return value


def _expect_int(value, fn) -> int:
    """A position or a digit count: whatever ``int`` accepts ('2', 2.0)."""
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise SqlTypeError(f"{fn} requires an integer argument") from None


def _fn_round(args):
    digits = _expect_int(args[1], "ROUND") if len(args) == 2 else 0
    value = _expect_number(args[0], "ROUND")
    try:
        result = round(value, digits)
    except ArithmeticError:  # a Decimal asked for more digits than it can hold
        raise SqlError(f"ROUND cannot keep {digits} digits") from None
    if digits == 0 and isinstance(value, float):
        return float(result)
    return result


#: name → (handler, the argument counts it takes or None for any).  The
#: count is checked once, where the call is compiled
#: (:func:`scalar_function`); the handlers check each value.
_FUNCTIONS = {
    "UPPER": (_null_propagating(lambda a: _expect_str(a[0], "UPPER").upper()), (1,)),
    "LOWER": (_null_propagating(lambda a: _expect_str(a[0], "LOWER").lower()), (1,)),
    "LENGTH": (_null_propagating(lambda a: len(_expect_str(a[0], "LENGTH"))), (1,)),
    "CHAR_LENGTH": (
        _null_propagating(lambda a: len(_expect_str(a[0], "CHAR_LENGTH"))),
        (1,),
    ),
    "TRIM": (_null_propagating(lambda a: _expect_str(a[0], "TRIM").strip()), (1,)),
    "LTRIM": (_null_propagating(lambda a: _expect_str(a[0], "LTRIM").lstrip()), (1,)),
    "RTRIM": (_null_propagating(lambda a: _expect_str(a[0], "RTRIM").rstrip()), (1,)),
    "ABS": (_null_propagating(lambda a: abs(_expect_number(a[0], "ABS"))), (1,)),
    "MOD": (_null_propagating(lambda a: _arithmetic("%", a[0], a[1])), (2,)),
    "ROUND": (_null_propagating(_fn_round), (1, 2)),
    "SUBSTR": (_null_propagating(_fn_substr), (2, 3)),
    "SUBSTRING": (_null_propagating(_fn_substr), (2, 3)),
    "CONCAT": (_null_propagating(lambda a: "".join(_stringify(x) for x in a)), None),
    "COALESCE": (_fn_coalesce, None),
    "NULLIF": (_fn_nullif, (2,)),
}
