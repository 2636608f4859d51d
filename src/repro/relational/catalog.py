"""Schema objects: columns, tables, constraints, indexes, the catalog.

The catalog is also the source of the metadata that WS-DAIR exposes: the
``CIMDescription`` property (see :mod:`repro.cim`) is rendered straight
from these objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.relational import ast_nodes as ast
from repro.relational.errors import CatalogError
from repro.relational.types import SqlType


@dataclass
class Column:
    """One column of a table schema."""

    name: str
    sql_type: SqlType
    length: Optional[int] = None
    not_null: bool = False
    default: Optional[ast.Expression] = None
    position: int = 0  # ordinal, assigned by the table

    @property
    def type_display(self) -> str:
        """Human/CIM rendering, e.g. ``VARCHAR(40)``."""
        if self.length is not None:
            return f"{self.sql_type.value}({self.length})"
        return self.sql_type.value


@dataclass(frozen=True)
class ForeignKey:
    """A foreign-key constraint (single or multi column)."""

    name: str
    columns: tuple[str, ...]
    ref_table: str
    ref_columns: tuple[str, ...]


@dataclass
class CheckConstraint:
    name: str
    expression: ast.Expression
    #: The expression compiled against its table's columns, memoised by
    #: the executor on first use.  It never goes stale: a CHECK sees only
    #: its own table, whose columns are append-only (ALTER … ADD COLUMN),
    #: so a resolved position never moves.
    compiled: Optional[Callable] = field(default=None, compare=False, repr=False)


class TableSchema:
    """The schema of one table: columns plus declared constraints."""

    def __init__(self, name: str, columns: list[Column]) -> None:
        if not columns:
            raise CatalogError(f"table {name!r} needs at least one column")
        self.name = name
        self.columns: list[Column] = []
        self._by_name: dict[str, int] = {}
        for column in columns:
            key = column.name.lower()
            if key in self._by_name:
                raise CatalogError(
                    f"duplicate column {column.name!r} in table {name!r}"
                )
            column.position = len(self.columns)
            self._by_name[key] = column.position
            self.columns.append(column)
        self.primary_key: tuple[str, ...] = ()
        self.unique_constraints: list[tuple[str, ...]] = []
        self.foreign_keys: list[ForeignKey] = []
        self.checks: list[CheckConstraint] = []

    # -- lookups ---------------------------------------------------------

    @property
    def column_names(self) -> list[str]:
        return [column.name for column in self.columns]

    def has_column(self, name: str) -> bool:
        return name.lower() in self._by_name

    def column(self, name: str) -> Column:
        try:
            return self.columns[self._by_name[name.lower()]]
        except KeyError:
            raise CatalogError(
                f"no column {name!r} in table {self.name!r}"
            ) from None

    def column_index(self, name: str) -> int:
        return self.column(name).position

    def add_column(self, column: Column) -> Column:
        """Append a column (ALTER TABLE ADD COLUMN)."""
        key = column.name.lower()
        if key in self._by_name:
            raise CatalogError(
                f"column {column.name!r} already exists in {self.name!r}"
            )
        column.position = len(self.columns)
        self._by_name[key] = column.position
        self.columns.append(column)
        return column

    # -- constraint declaration -------------------------------------------

    def set_primary_key(self, columns: tuple[str, ...]) -> None:
        if self.primary_key:
            raise CatalogError(f"table {self.name!r} already has a primary key")
        for name in columns:
            column = self.column(name)
            column.not_null = True
        self.primary_key = tuple(self.column(c).name for c in columns)

    def add_unique(self, columns: tuple[str, ...]) -> None:
        self.unique_constraints.append(
            tuple(self.column(c).name for c in columns)
        )

    def add_foreign_key(self, fk: ForeignKey) -> None:
        for name in fk.columns:
            self.column(name)
        self.foreign_keys.append(fk)

    def add_check(self, check: CheckConstraint) -> None:
        self.checks.append(check)


@dataclass
class IndexDef:
    """A secondary index definition (storage keeps the live structure)."""

    name: str
    table: str
    columns: tuple[str, ...]
    unique: bool = False


@dataclass
class ViewDef:
    """A named, stored query (expanded at planning time)."""

    name: str
    query: "object"  # ast.Select — kept loose to avoid an import cycle
    columns: tuple[str, ...] = ()


class Catalog:
    """All schema objects of one database."""

    def __init__(self, database_name: str = "dais") -> None:
        self.database_name = database_name
        self._tables: dict[str, TableSchema] = {}
        self._indexes: dict[str, IndexDef] = {}
        self._views: dict[str, ViewDef] = {}
        self._version = 0

    @property
    def version(self) -> int:
        """Monotonic schema version: bumped on every catalog mutation.

        Plans compiled against version *N* are valid only while the
        catalog still reports *N* — the plan cache compares versions on
        lookup and discards stale entries (DROP/CREATE/ALTER, and the
        undo arms of failed DDL, all bump it).
        """
        return self._version

    def bump_version(self) -> int:
        """Invalidate cached plans after an out-of-band schema change.

        Used by DDL paths that mutate schema objects in place (ALTER
        TABLE mutates the :class:`TableSchema` directly) and by undo
        paths that restore earlier state — restoring is still a change
        relative to what a plan may have been compiled against.
        """
        self._version += 1
        return self._version

    # -- tables -----------------------------------------------------------

    def table_names(self) -> list[str]:
        return sorted(schema.name for schema in self._tables.values())

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def table(self, name: str) -> TableSchema:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise CatalogError(f"no such table {name!r}") from None

    def add_table(self, schema: TableSchema) -> None:
        key = schema.name.lower()
        if key in self._tables:
            raise CatalogError(f"table {schema.name!r} already exists")
        if key in self._views:
            raise CatalogError(f"a view named {schema.name!r} already exists")
        for fk in schema.foreign_keys:
            self._validate_foreign_key(schema, fk)
        self._tables[key] = schema
        self._version += 1

    def drop_table(self, name: str) -> TableSchema:
        key = name.lower()
        schema = self.table(name)
        for other in self._tables.values():
            if other.name.lower() == key:
                continue
            for fk in other.foreign_keys:
                if fk.ref_table.lower() == key:
                    raise CatalogError(
                        f"cannot drop {name!r}: referenced by "
                        f"{other.name!r}.{fk.name}"
                    )
        del self._tables[key]
        for index_name in [
            n for n, d in self._indexes.items() if d.table.lower() == key
        ]:
            del self._indexes[index_name]
        self._version += 1
        return schema

    def _validate_foreign_key(self, schema: TableSchema, fk: ForeignKey) -> None:
        # Self-references are resolved against the table being defined.
        target = (
            schema
            if fk.ref_table.lower() == schema.name.lower()
            else self.table(fk.ref_table)
        )
        for name in fk.ref_columns:
            target.column(name)
        if len(fk.columns) != len(fk.ref_columns):
            raise CatalogError(f"foreign key {fk.name!r} column count mismatch")
        referenced = tuple(target.column(c).name for c in fk.ref_columns)
        if referenced != target.primary_key and referenced not in [
            tuple(u) for u in target.unique_constraints
        ]:
            raise CatalogError(
                f"foreign key {fk.name!r} must reference a primary key or "
                f"unique constraint of {target.name!r}"
            )

    # -- views ---------------------------------------------------------------

    def view_names(self) -> list[str]:
        return sorted(view.name for view in self._views.values())

    def has_view(self, name: str) -> bool:
        return name.lower() in self._views

    def view(self, name: str) -> ViewDef:
        try:
            return self._views[name.lower()]
        except KeyError:
            raise CatalogError(f"no such view {name!r}") from None

    def add_view(self, definition: ViewDef) -> None:
        key = definition.name.lower()
        if key in self._views:
            raise CatalogError(f"view {definition.name!r} already exists")
        if key in self._tables:
            raise CatalogError(
                f"a table named {definition.name!r} already exists"
            )
        self._views[key] = definition
        self._version += 1

    def drop_view(self, name: str) -> ViewDef:
        definition = self.view(name)
        del self._views[name.lower()]
        self._version += 1
        return definition

    # -- indexes ----------------------------------------------------------

    def index_names(self) -> list[str]:
        return sorted(self._indexes)

    def has_index(self, name: str) -> bool:
        return name.lower() in self._indexes

    def index(self, name: str) -> IndexDef:
        try:
            return self._indexes[name.lower()]
        except KeyError:
            raise CatalogError(f"no such index {name!r}") from None

    def indexes_on(self, table: str) -> list[IndexDef]:
        key = table.lower()
        return [d for d in self._indexes.values() if d.table.lower() == key]

    def add_index(self, definition: IndexDef) -> None:
        key = definition.name.lower()
        if key in self._indexes:
            raise CatalogError(f"index {definition.name!r} already exists")
        schema = self.table(definition.table)
        for column in definition.columns:
            schema.column(column)
        self._indexes[key] = definition
        self._version += 1

    def drop_index(self, name: str) -> IndexDef:
        definition = self.index(name)
        del self._indexes[name.lower()]
        self._version += 1
        return definition
