"""The SQL type system and value semantics.

Values at runtime are plain Python objects (``int``, ``float``,
``decimal.Decimal``, ``str``, ``bool``, ``datetime.date``,
``datetime.datetime``) with SQL NULL represented by the :data:`NULL`
singleton — *not* ``None`` — so that accidental Python ``None`` leaks are
caught loudly at the storage boundary.
"""

from __future__ import annotations

import datetime
import enum
from decimal import Decimal, InvalidOperation
from typing import Any

from repro.relational.errors import SqlTypeError


class Null:
    """The SQL NULL singleton.  Falsy, equal only to itself."""

    _instance: "Null | None" = None

    def __new__(cls) -> "Null":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NULL"

    def __bool__(self) -> bool:
        return False


NULL = Null()


def is_null(value: Any) -> bool:
    """True for the SQL NULL singleton."""
    return value is NULL


class SqlType(enum.Enum):
    """The column types the engine supports."""

    INTEGER = "INTEGER"
    BIGINT = "BIGINT"
    SMALLINT = "SMALLINT"
    FLOAT = "FLOAT"
    DOUBLE = "DOUBLE"
    DECIMAL = "DECIMAL"
    VARCHAR = "VARCHAR"
    CHAR = "CHAR"
    TEXT = "TEXT"
    BOOLEAN = "BOOLEAN"
    DATE = "DATE"
    TIMESTAMP = "TIMESTAMP"


_INTEGER_RANGES = {
    SqlType.SMALLINT: (-(2**15), 2**15 - 1),
    SqlType.INTEGER: (-(2**31), 2**31 - 1),
    SqlType.BIGINT: (-(2**63), 2**63 - 1),
}

#: Type names accepted by the parser, mapped to (type, takes_length).
TYPE_NAMES: dict[str, SqlType] = {
    "INT": SqlType.INTEGER,
    "INTEGER": SqlType.INTEGER,
    "BIGINT": SqlType.BIGINT,
    "SMALLINT": SqlType.SMALLINT,
    "FLOAT": SqlType.FLOAT,
    "REAL": SqlType.FLOAT,
    "DOUBLE": SqlType.DOUBLE,
    "DECIMAL": SqlType.DECIMAL,
    "NUMERIC": SqlType.DECIMAL,
    "VARCHAR": SqlType.VARCHAR,
    "CHAR": SqlType.CHAR,
    "CHARACTER": SqlType.CHAR,
    "TEXT": SqlType.TEXT,
    "BOOLEAN": SqlType.BOOLEAN,
    "BOOL": SqlType.BOOLEAN,
    "DATE": SqlType.DATE,
    "TIMESTAMP": SqlType.TIMESTAMP,
    "DATETIME": SqlType.TIMESTAMP,
}


def coerce(value: Any, sql_type: SqlType, length: int | None = None) -> Any:
    """Coerce *value* into the Python representation of *sql_type*.

    Raises :class:`SqlTypeError` when the value cannot represent the type.
    ``None`` is rejected — callers must use :data:`NULL` deliberately.
    """
    if value is NULL:
        return NULL
    if value is None:
        raise SqlTypeError("Python None reached the engine; use NULL")
    try:
        return _COERCERS[sql_type](value, length)
    except (ValueError, TypeError, InvalidOperation) as exc:
        raise SqlTypeError(
            f"cannot coerce {value!r} to {sql_type.value}: {exc}"
        ) from exc


def _coerce_integer(bounds):
    low, high = bounds

    def convert(value: Any, length: int | None) -> int:
        if isinstance(value, bool):
            raise ValueError("boolean is not an integer")
        if isinstance(value, float):
            if not value.is_integer():
                raise ValueError("fractional part would be lost")
            value = int(value)
        elif isinstance(value, Decimal):
            if value != int(value):
                raise ValueError("fractional part would be lost")
            value = int(value)
        elif isinstance(value, str):
            value = int(value.strip())
        elif not isinstance(value, int):
            raise ValueError(f"unsupported source type {type(value).__name__}")
        if not low <= value <= high:
            raise ValueError(f"out of range [{low}, {high}]")
        return value

    return convert


def _coerce_float(value: Any, length: int | None) -> float:
    if isinstance(value, bool):
        raise ValueError("boolean is not a number")
    if isinstance(value, (int, float, Decimal)):
        return float(value)
    if isinstance(value, str):
        return float(value.strip())
    raise ValueError(f"unsupported source type {type(value).__name__}")


def _coerce_decimal(value: Any, length: int | None) -> Decimal:
    if isinstance(value, bool):
        raise ValueError("boolean is not a number")
    if isinstance(value, Decimal):
        return value
    if isinstance(value, int):
        return Decimal(value)
    if isinstance(value, float):
        return Decimal(str(value))
    if isinstance(value, str):
        return Decimal(value.strip())
    raise ValueError(f"unsupported source type {type(value).__name__}")


def _coerce_string(value: Any, length: int | None) -> str:
    if isinstance(value, bool):
        text = "true" if value else "false"
    elif isinstance(value, (int, float, Decimal, str)):
        text = str(value)
    elif isinstance(value, (datetime.date, datetime.datetime)):
        text = value.isoformat()
    else:
        raise ValueError(f"unsupported source type {type(value).__name__}")
    if length is not None and len(text) > length:
        raise ValueError(f"length {len(text)} exceeds declared {length}")
    return text


def _coerce_boolean(value: Any, length: int | None) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, str):
        lowered = value.strip().lower()
        if lowered in ("true", "t", "1"):
            return True
        if lowered in ("false", "f", "0"):
            return False
        raise ValueError("not a boolean literal")
    if isinstance(value, int) and value in (0, 1):
        return bool(value)
    raise ValueError(f"unsupported source type {type(value).__name__}")


def _coerce_date(value: Any, length: int | None) -> datetime.date:
    if isinstance(value, datetime.datetime):
        return value.date()
    if isinstance(value, datetime.date):
        return value
    if isinstance(value, str):
        return datetime.date.fromisoformat(value.strip())
    raise ValueError(f"unsupported source type {type(value).__name__}")


def _coerce_timestamp(value: Any, length: int | None) -> datetime.datetime:
    if isinstance(value, datetime.datetime):
        return value
    if isinstance(value, datetime.date):
        return datetime.datetime(value.year, value.month, value.day)
    if isinstance(value, str):
        return datetime.datetime.fromisoformat(value.strip())
    raise ValueError(f"unsupported source type {type(value).__name__}")


_COERCERS = {
    SqlType.INTEGER: _coerce_integer(_INTEGER_RANGES[SqlType.INTEGER]),
    SqlType.BIGINT: _coerce_integer(_INTEGER_RANGES[SqlType.BIGINT]),
    SqlType.SMALLINT: _coerce_integer(_INTEGER_RANGES[SqlType.SMALLINT]),
    SqlType.FLOAT: _coerce_float,
    SqlType.DOUBLE: _coerce_float,
    SqlType.DECIMAL: _coerce_decimal,
    SqlType.VARCHAR: _coerce_string,
    SqlType.CHAR: _coerce_string,
    SqlType.TEXT: _coerce_string,
    SqlType.BOOLEAN: _coerce_boolean,
    SqlType.DATE: _coerce_date,
    SqlType.TIMESTAMP: _coerce_timestamp,
}


def sql_literal(value: Any) -> str:
    """Render a runtime value as a SQL literal (used by tooling/tests)."""
    if value is NULL:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    if isinstance(value, (datetime.date, datetime.datetime)):
        return f"'{value.isoformat()}'"
    return str(value)


def compare_values(left: Any, right: Any) -> int | None:
    """Three-valued comparison: -1/0/1, or None when either side is NULL.

    Numeric types compare numerically across int/float/Decimal; strings
    compare lexicographically; mixing incomparable families raises.
    """
    if left is NULL or right is NULL:
        return None
    left_key = comparison_key(left)
    right_key = comparison_key(right)
    if left_key[0] != right_key[0]:
        # Numeric affinity: an untyped (string) operand compared with a
        # number is converted — WS-DAIR parameters travel as strings.
        families = {left_key[0], right_key[0]}
        if families == {"num", "str"}:
            try:
                left_key = ("num", float(left_key[1])) if left_key[0] == "str" else left_key
                right_key = ("num", float(right_key[1])) if right_key[0] == "str" else right_key
            except ValueError:
                raise SqlTypeError(
                    f"cannot compare {left!r} with {right!r}"
                ) from None
        else:
            raise SqlTypeError(
                f"cannot compare {type(left).__name__} with {type(right).__name__}"
            )
    a, b = left_key[1], right_key[1]
    if a < b:
        return -1
    if a > b:
        return 1
    return 0


def comparison_key(value: Any) -> tuple[str, Any]:
    if isinstance(value, bool):
        return ("bool", value)
    if isinstance(value, (int, float)):
        return ("num", value)
    if isinstance(value, Decimal):
        return ("num", float(value))
    if isinstance(value, str):
        return ("str", value)
    if isinstance(value, datetime.datetime):
        return ("time", (value.date(), value.time()))
    if isinstance(value, datetime.date):
        return ("time", (value, datetime.time()))
    raise SqlTypeError(f"unsupported runtime value {value!r}")
