"""SQL error taxonomy with SQLSTATE codes.

The SQLSTATE values matter: the WS-DAIR SQL communication area carries
them to consumers, so each error class pins the standard five-character
code for its condition class.
"""

from __future__ import annotations


class SqlError(Exception):
    """Base class for all engine failures."""

    sqlstate = "HY000"  # general error

    def __init__(self, message: str, sqlstate: str | None = None) -> None:
        super().__init__(message)
        if sqlstate is not None:
            self.sqlstate = sqlstate


class SqlSyntaxError(SqlError):
    """Lexical or grammatical error in a statement."""

    sqlstate = "42000"

    def __init__(self, message: str, statement: str = "", position: int = 0) -> None:
        location = f" at position {position}" if statement else ""
        super().__init__(f"{message}{location}")
        self.statement = statement
        self.position = position


class CatalogError(SqlError):
    """Unknown or duplicate table/column/index."""

    sqlstate = "42S02"


class SqlTypeError(SqlError):
    """Value incompatible with a column type or operator."""

    sqlstate = "22000"


class ConstraintViolation(SqlError):
    """PRIMARY KEY / UNIQUE / NOT NULL / CHECK / FOREIGN KEY violation."""

    sqlstate = "23000"


class TransactionError(SqlError):
    """Invalid transaction state or serialization conflict."""

    sqlstate = "25000"


class ReadOnlyViolation(TransactionError):
    """A statement that writes, refused by a read-only session."""

    sqlstate = "25006"


class SerializationConflict(TransactionError):
    """Two concurrent transactions touched conflicting data."""

    sqlstate = "40001"


class DivisionByZero(SqlError):
    """Arithmetic division by zero."""

    sqlstate = "22012"
