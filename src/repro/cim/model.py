"""CIM-style class model of relational metadata."""

from __future__ import annotations

from dataclasses import dataclass

from repro.relational.catalog import Catalog


@dataclass(frozen=True)
class CimColumn:
    """CIM_Column-like: one column of a table."""

    name: str
    data_type: str
    length: int | None
    nullable: bool
    ordinal_position: int


@dataclass(frozen=True)
class CimKey:
    """CIM_UniqueKey-like: primary-key or unique constraint."""

    kind: str  # "PRIMARY" or "UNIQUE"
    columns: tuple[str, ...]


@dataclass(frozen=True)
class CimForeignKey:
    """CIM_ForeignKey-like: a referential constraint."""

    name: str
    columns: tuple[str, ...]
    referenced_table: str
    referenced_columns: tuple[str, ...]


@dataclass(frozen=True)
class CimTable:
    """CIM_Table-like: one table with columns and keys."""

    name: str
    columns: tuple[CimColumn, ...]
    keys: tuple[CimKey, ...] = ()
    foreign_keys: tuple[CimForeignKey, ...] = ()

    def column(self, name: str) -> CimColumn:
        for column in self.columns:
            if column.name.lower() == name.lower():
                return column
        raise KeyError(name)


@dataclass(frozen=True)
class CimDatabase:
    """CIM_CommonDatabase-like: the schema of one database."""

    name: str
    tables: tuple[CimTable, ...] = ()

    def table(self, name: str) -> CimTable:
        for table in self.tables:
            if table.name.lower() == name.lower():
                return table
        raise KeyError(name)


def describe_catalog(catalog: Catalog) -> CimDatabase:
    """Map a live relational catalog to the CIM model."""
    tables = []
    for schema in catalog.tables():
        columns = tuple(
            CimColumn(
                name=column.name,
                data_type=column.sql_type.value,
                length=column.length,
                nullable=not column.not_null,
                ordinal_position=column.position + 1,
            )
            for column in schema.columns
        )
        keys = []
        if schema.primary_key:
            keys.append(CimKey("PRIMARY", schema.primary_key))
        for unique in schema.unique_constraints:
            keys.append(CimKey("UNIQUE", tuple(unique)))
        foreign_keys = tuple(
            CimForeignKey(
                name=fk.name,
                columns=fk.columns,
                referenced_table=fk.ref_table,
                referenced_columns=fk.ref_columns,
            )
            for fk in schema.foreign_keys
        )
        tables.append(
            CimTable(schema.name, columns, tuple(keys), foreign_keys)
        )
    return CimDatabase(catalog.database_name, tuple(tables))
