"""Row storage and index structures.

Rows live in an insertion-ordered map keyed by a surrogate *row id*;
indexes map key tuples to row-id sets.  All mutation goes through
:class:`TableStorage` so indexes never drift from the heap, and every
mutator returns enough information for the transaction undo log.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Iterator

from repro.relational.catalog import TableSchema
from repro.relational.errors import ConstraintViolation
from repro.relational.types import NULL

Row = tuple  # immutable value tuple, in schema column order


class HashIndex:
    """Equality index: key tuple -> set of row ids.

    NULLs never participate (SQL unique semantics: NULLs are all distinct),
    so rows whose key contains NULL are simply not indexed.
    """

    def __init__(self, name: str, positions: tuple[int, ...], unique: bool) -> None:
        self.name = name
        self.positions = positions
        self.unique = unique
        self._buckets: dict[tuple, set[int]] = {}

    def key_of(self, row: Row) -> tuple | None:
        key = tuple(row[p] for p in self.positions)
        if any(v is NULL for v in key):
            return None
        return _hashable(key)

    def insert(self, row_id: int, row: Row) -> None:
        key = self.key_of(row)
        if key is None:
            return
        bucket = self._buckets.setdefault(key, set())
        if self.unique and bucket:
            raise ConstraintViolation(
                f"unique constraint {self.name!r} violated by key {key!r}"
            )
        bucket.add(row_id)

    def remove(self, row_id: int, row: Row) -> None:
        key = self.key_of(row)
        if key is None:
            return
        bucket = self._buckets.get(key)
        if bucket is not None:
            bucket.discard(row_id)
            if not bucket:
                del self._buckets[key]

    def lookup(self, key: tuple) -> set[int]:
        hashable = _hashable(tuple(key))
        return set(self._buckets.get(hashable, ()))

    def would_violate(self, row: Row, ignoring_row_id: int | None = None) -> bool:
        """Check a prospective insert/update without mutating."""
        if not self.unique:
            return False
        key = self.key_of(row)
        if key is None:
            return False
        bucket = self._buckets.get(key, set())
        remaining = bucket - {ignoring_row_id} if ignoring_row_id is not None else bucket
        return bool(remaining)


class OrderedIndex:
    """Sorted index over a single column supporting range scans."""

    def __init__(self, name: str, position: int) -> None:
        self.name = name
        self.position = position
        self._keys: list[Any] = []
        self._ids: list[int] = []

    def insert(self, row_id: int, row: Row) -> None:
        key = row[self.position]
        if key is NULL:
            return
        index = bisect_right(self._keys, _sort_key(key))
        self._keys.insert(index, _sort_key(key))
        self._ids.insert(index, row_id)

    def remove(self, row_id: int, row: Row) -> None:
        key = row[self.position]
        if key is NULL:
            return
        sort_key = _sort_key(key)
        lo = bisect_left(self._keys, sort_key)
        hi = bisect_right(self._keys, sort_key)
        for index in range(lo, hi):
            if self._ids[index] == row_id:
                del self._keys[index]
                del self._ids[index]
                return

    def range(
        self,
        low: Any = None,
        high: Any = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> list[int]:
        """Row ids whose key falls in [low, high] (open-ended when None)."""
        lo, hi = self._bounds(low, high, low_inclusive, high_inclusive)
        return self._ids[lo:hi]

    def walk(
        self,
        low: Any = None,
        high: Any = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
        descending: bool = False,
    ) -> Iterator[tuple[Any, int]]:
        """(key, row id) for :meth:`range`'s entries in key order, highest
        first when *descending*.  Each list is sliced in one C-level copy,
        so a writer that takes no lock cannot shift them mid-walk."""
        lo, hi = self._bounds(low, high, low_inclusive, high_inclusive)
        keys, ids = self._keys[lo:hi], self._ids[lo:hi]
        if descending:
            return zip(reversed(keys), reversed(ids))
        return zip(keys, ids)

    def _bounds(
        self, low: Any, high: Any, low_inclusive: bool, high_inclusive: bool
    ) -> tuple[int, int]:
        lo = 0
        hi = len(self._keys)
        if low is not None:
            key = _sort_key(low)
            lo = bisect_left(self._keys, key) if low_inclusive else bisect_right(
                self._keys, key
            )
        if high is not None:
            key = _sort_key(high)
            hi = bisect_right(self._keys, key) if high_inclusive else bisect_left(
                self._keys, key
            )
        return lo, hi


def _hashable(key: tuple) -> tuple:
    return tuple(
        (float(v) if isinstance(v, (int, float)) and not isinstance(v, bool) else v)
        for v in key
    )


def _sort_key(value: Any):
    if isinstance(value, bool):
        return float(value)
    if isinstance(value, int):
        return float(value)
    return value


class TableStorage:
    """The heap + indexes of one table."""

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self._rows: dict[int, Row] = {}
        self._next_row_id = 1
        self._indexes: dict[str, HashIndex] = {}
        self._ordered: dict[str, OrderedIndex] = {}
        if schema.primary_key:
            self.add_hash_index(
                f"pk_{schema.name}",
                tuple(schema.primary_key),
                unique=True,
            )
        for i, unique_columns in enumerate(schema.unique_constraints):
            self.add_hash_index(
                f"uq_{schema.name}_{i}", tuple(unique_columns), unique=True
            )

    # -- index management ---------------------------------------------------

    def add_hash_index(
        self, name: str, columns: tuple[str, ...], unique: bool
    ) -> HashIndex:
        positions = tuple(self.schema.column_index(c) for c in columns)
        index = HashIndex(name, positions, unique)
        for row_id, row in self._rows.items():
            index.insert(row_id, row)
        self._indexes[name] = index
        return index

    def add_ordered_index(self, name: str, column: str) -> OrderedIndex:
        index = OrderedIndex(name, self.schema.column_index(column))
        for row_id, row in self._rows.items():
            index.insert(row_id, row)
        self._ordered[name] = index
        return index

    def drop_index(self, name: str) -> None:
        self._indexes.pop(name, None)
        self._ordered.pop(name, None)

    def find_hash_index(self, columns: tuple[str, ...]) -> HashIndex | None:
        """An index whose key is exactly *columns* (order-insensitive)."""
        wanted = tuple(sorted(self.schema.column_index(c) for c in columns))
        for index in self._indexes.values():
            if tuple(sorted(index.positions)) == wanted:
                return index
        return None

    def find_ordered_index(self, column: str) -> OrderedIndex | None:
        position = self.schema.column_index(column)
        for index in self._ordered.values():
            if index.position == position:
                return index
        return None

    # -- row access --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._rows)

    def rows(self) -> Iterator[tuple[int, Row]]:
        """All (row_id, row) pairs in insertion order."""
        return iter(list(self._rows.items()))

    def iter_rows(self) -> Iterator[tuple[int, Row]]:
        """Lazy (row_id, row) iteration without the O(table) snapshot
        :meth:`rows` takes.  Row ids are insertion-ordered, so walking
        the id range captured at call time yields the same sequence and
        stays safe against concurrent inserts (their ids land past the
        bound); rows deleted mid-walk are simply skipped."""
        bound = self._next_row_id
        for row_id in range(1, bound):
            row = self._rows.get(row_id)
            if row is not None:
                yield row_id, row

    def get(self, row_id: int) -> Row | None:
        return self._rows.get(row_id)

    # -- mutation -------------------------------------------------------------

    def insert(self, row: Row) -> int:
        """Insert *row*, maintain indexes, return the new row id."""
        row_id = self._next_row_id
        for index in self._indexes.values():
            if index.would_violate(row):
                raise ConstraintViolation(
                    f"unique constraint {index.name!r} violated"
                )
        self._next_row_id += 1
        self._rows[row_id] = row
        for index in self._indexes.values():
            index.insert(row_id, row)
        for ordered in self._ordered.values():
            ordered.insert(row_id, row)
        return row_id

    def restore(self, row_id: int, row: Row) -> None:
        """Undo helper: put a deleted row back under its original id."""
        self._rows[row_id] = row
        self._next_row_id = max(self._next_row_id, row_id + 1)
        for index in self._indexes.values():
            index.insert(row_id, row)
        for ordered in self._ordered.values():
            ordered.insert(row_id, row)

    def delete(self, row_id: int) -> Row:
        row = self._rows.pop(row_id)
        for index in self._indexes.values():
            index.remove(row_id, row)
        for ordered in self._ordered.values():
            ordered.remove(row_id, row)
        return row

    def update(self, row_id: int, new_row: Row) -> Row:
        old_row = self._rows[row_id]
        for index in self._indexes.values():
            if index.would_violate(new_row, ignoring_row_id=row_id):
                raise ConstraintViolation(
                    f"unique constraint {index.name!r} violated"
                )
        for index in self._indexes.values():
            index.remove(row_id, old_row)
            index.insert(row_id, new_row)
        for ordered in self._ordered.values():
            ordered.remove(row_id, old_row)
            ordered.insert(row_id, new_row)
        self._rows[row_id] = new_row
        return old_row
