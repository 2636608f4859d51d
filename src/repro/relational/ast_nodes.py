"""SQL abstract syntax tree."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Union

from repro.relational.types import SqlType

# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Literal:
    value: Any  # python value or NULL

    # Nodes key the compiled-expression memo, where 1, 1.0 and TRUE
    # (equal and hash-equal in Python) must stay three different literals.
    def __eq__(self, other: object) -> bool:
        return isinstance(other, Literal) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def _key(self) -> tuple:
        return (type(self.value), self.value)


@dataclass(frozen=True)
class Parameter:
    """A ``?`` placeholder; *index* is its zero-based position."""

    index: int


@dataclass(frozen=True)
class ColumnRef:
    """``column`` or ``alias.column``."""

    table: Optional[str]
    column: str


@dataclass(frozen=True)
class Star:
    """``*`` or ``alias.*`` in a select list."""

    table: Optional[str] = None


@dataclass(frozen=True)
class Unary:
    op: str  # NOT, -, +
    operand: "Expression"


@dataclass(frozen=True)
class Binary:
    op: str  # = <> < <= > >= + - * / % AND OR ||
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class IsNull:
    operand: "Expression"
    negated: bool = False


@dataclass(frozen=True)
class Like:
    operand: "Expression"
    pattern: "Expression"
    negated: bool = False


@dataclass(frozen=True)
class Between:
    operand: "Expression"
    low: "Expression"
    high: "Expression"
    negated: bool = False


@dataclass(frozen=True)
class InList:
    operand: "Expression"
    items: tuple["Expression", ...]
    negated: bool = False


@dataclass(frozen=True)
class InSubquery:
    operand: "Expression"
    query: "Select"
    negated: bool = False


@dataclass(frozen=True)
class Exists:
    query: "Select"
    negated: bool = False


@dataclass(frozen=True)
class ScalarSubquery:
    query: "Select"


@dataclass(frozen=True)
class FunctionCall:
    name: str  # upper-cased
    args: tuple["Expression", ...]


@dataclass(frozen=True)
class Aggregate:
    """COUNT/SUM/AVG/MIN/MAX; ``argument`` is None for COUNT(*)."""

    name: str
    argument: Optional["Expression"]
    distinct: bool = False


@dataclass(frozen=True)
class Case:
    """CASE expression.

    *operand* is None for a searched CASE (``WHEN cond THEN ...``);
    when present this is a simple CASE (``CASE x WHEN value THEN ...``)
    and each WHEN condition is the comparison value.
    """

    whens: tuple[tuple["Expression", "Expression"], ...]
    default: Optional["Expression"]
    operand: Optional["Expression"] = None


@dataclass(frozen=True)
class Cast:
    operand: "Expression"
    target: SqlType
    length: Optional[int] = None


Expression = Union[
    Literal,
    Parameter,
    ColumnRef,
    Star,
    Unary,
    Binary,
    IsNull,
    Like,
    Between,
    InList,
    InSubquery,
    Exists,
    ScalarSubquery,
    FunctionCall,
    Aggregate,
    Case,
    Cast,
]

# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SelectItem:
    expression: Expression
    alias: Optional[str] = None


@dataclass(frozen=True)
class TableRef:
    """A base table in FROM, with optional alias."""

    name: str
    alias: Optional[str] = None


@dataclass(frozen=True)
class SubqueryRef:
    """A derived table: ``(SELECT ...) alias``."""

    query: "Select"
    alias: str


@dataclass(frozen=True)
class Join:
    kind: str  # INNER, LEFT, CROSS
    left: "FromItem"
    right: "FromItem"
    condition: Optional[Expression]  # None for CROSS


FromItem = Union[TableRef, SubqueryRef, Join]


@dataclass(frozen=True)
class OrderItem:
    expression: Expression
    ascending: bool = True


@dataclass(frozen=True)
class Select:
    items: tuple[SelectItem, ...]
    from_item: Optional[FromItem]
    where: Optional[Expression] = None
    group_by: tuple[Expression, ...] = ()
    having: Optional[Expression] = None
    order_by: tuple[OrderItem, ...] = ()
    limit: Optional[Expression] = None
    offset: Optional[Expression] = None
    distinct: bool = False
    union: Optional["Union_"] = None


@dataclass(frozen=True)
class Union_:
    """A UNION [ALL] continuation attached to a Select."""

    all: bool
    query: Select

# ---------------------------------------------------------------------------
# DML
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Insert:
    table: str
    columns: tuple[str, ...]  # empty = declared order
    rows: tuple[tuple[Expression, ...], ...]
    query: Optional[Select] = None  # INSERT ... SELECT


@dataclass(frozen=True)
class Update:
    table: str
    assignments: tuple[tuple[str, Expression], ...]
    where: Optional[Expression] = None


@dataclass(frozen=True)
class Delete:
    table: str
    where: Optional[Expression] = None

# ---------------------------------------------------------------------------
# DDL
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ColumnDef:
    name: str
    sql_type: SqlType
    length: Optional[int] = None
    not_null: bool = False
    primary_key: bool = False
    unique: bool = False
    default: Optional[Expression] = None
    check: Optional[Expression] = None
    references: Optional[tuple[str, str]] = None  # (table, column)


@dataclass(frozen=True)
class TableConstraint:
    """Table-level constraint."""

    kind: str  # PRIMARY_KEY, UNIQUE, CHECK, FOREIGN_KEY
    name: Optional[str] = None
    columns: tuple[str, ...] = ()
    expression: Optional[Expression] = None
    ref_table: Optional[str] = None
    ref_columns: tuple[str, ...] = ()


@dataclass(frozen=True)
class CreateTable:
    name: str
    columns: tuple[ColumnDef, ...]
    constraints: tuple[TableConstraint, ...] = ()
    if_not_exists: bool = False


@dataclass(frozen=True)
class DropTable:
    name: str
    if_exists: bool = False


@dataclass(frozen=True)
class CreateIndex:
    name: str
    table: str
    columns: tuple[str, ...]
    unique: bool = False


@dataclass(frozen=True)
class DropIndex:
    name: str


@dataclass(frozen=True)
class CreateView:
    name: str
    query: "Select"
    columns: tuple[str, ...] = ()  # optional output renames


@dataclass(frozen=True)
class DropView:
    name: str
    if_exists: bool = False


@dataclass(frozen=True)
class AlterTableAddColumn:
    table: str
    column: "ColumnDef"


@dataclass(frozen=True)
class Explain:
    statement: "Select"


@dataclass(frozen=True)
class Call:
    """``CALL procedure(arg, ...)`` — a registered stored procedure."""

    procedure: str
    arguments: tuple[Expression, ...] = ()

# ---------------------------------------------------------------------------
# Transactions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BeginTransaction:
    isolation: Optional[str] = None  # parser-level isolation name


@dataclass(frozen=True)
class Commit:
    pass


@dataclass(frozen=True)
class Rollback:
    pass


Statement = Union[
    Select,
    Insert,
    Update,
    Delete,
    CreateTable,
    DropTable,
    CreateIndex,
    DropIndex,
    CreateView,
    DropView,
    AlterTableAddColumn,
    Explain,
    Call,
    BeginTransaction,
    Commit,
    Rollback,
]
