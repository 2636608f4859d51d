"""Transactions, table-granularity locking and isolation levels.

The engine uses an undo-log (rollback journal) for atomicity and a
non-blocking table-level lock manager for isolation.  Sessions are
cooperative (no threads), so a lock conflict raises
:class:`SerializationConflict` immediately instead of blocking — the
deterministic choice for tests and benchmarks.

Isolation levels map to locking behaviour:

====================  =========================  =========================
Level                 Reads                      Writes
====================  =========================  =========================
READ UNCOMMITTED      no lock (dirty reads OK)   exclusive until commit
READ COMMITTED        conflict with writers      exclusive until commit
REPEATABLE READ       shared lock until commit   exclusive until commit
SERIALIZABLE          shared lock until commit   exclusive until commit
====================  =========================  =========================

At table granularity REPEATABLE READ and SERIALIZABLE coincide (table
locks admit no phantoms); the distinction is kept because the WS-DAIR
``TransactionIsolation`` property enumerates all four levels.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

from repro.relational.errors import SerializationConflict, TransactionError
from repro.relational.executor import Journal


class IsolationLevel(enum.Enum):
    READ_UNCOMMITTED = "READ UNCOMMITTED"
    READ_COMMITTED = "READ COMMITTED"
    REPEATABLE_READ = "REPEATABLE READ"
    SERIALIZABLE = "SERIALIZABLE"

    @classmethod
    def from_sql(cls, name: str) -> "IsolationLevel":
        try:
            return cls(name.upper())
        except ValueError:
            raise TransactionError(f"unknown isolation level {name!r}") from None


@dataclass
class Transaction:
    """One open transaction: its journal, locks and isolation level."""

    txid: int
    isolation: IsolationLevel
    journal: Journal = field(default_factory=Journal)
    read_locks: set[str] = field(default_factory=set)
    write_locks: set[str] = field(default_factory=set)


class LockManager:
    """Non-blocking shared/exclusive locks keyed by table name."""

    def __init__(self) -> None:
        self._readers: dict[str, set[int]] = {}
        self._writer: dict[str, int] = {}

    def acquire_read(self, table: str, txid: int) -> None:
        writer = self._writer.get(table)
        if writer is not None and writer != txid:
            raise SerializationConflict(
                f"table {table!r} is write-locked by transaction {writer}"
            )
        self._readers.setdefault(table, set()).add(txid)

    def acquire_write(self, table: str, txid: int) -> None:
        writer = self._writer.get(table)
        if writer is not None and writer != txid:
            raise SerializationConflict(
                f"table {table!r} is write-locked by transaction {writer}"
            )
        readers = self._readers.get(table, set()) - {txid}
        if readers:
            raise SerializationConflict(
                f"table {table!r} is read-locked by transactions {sorted(readers)}"
            )
        self._writer[table] = txid

    def has_writer(self, table: str, other_than: int) -> bool:
        writer = self._writer.get(table)
        return writer is not None and writer != other_than

    def release_all(self, txid: int) -> None:
        for readers in self._readers.values():
            readers.discard(txid)
        for table in [t for t, w in self._writer.items() if w == txid]:
            del self._writer[table]


class TransactionManager:
    """Creates, commits and rolls back transactions for one database."""

    def __init__(self) -> None:
        self._lock_manager = LockManager()
        self._txids = itertools.count(1)
        self._active: dict[int, Transaction] = {}
        self._data_version = 0

    @property
    def data_version(self) -> int:
        """Bumps on every committed transaction that wrote a table.

        The catalog version only moves on schema changes; this counter
        is the DML analogue, letting caches of *data-derived* artefacts
        (shared factory results) notice that committed rows changed.
        Rollbacks restore the prior state, so they do not bump it.
        """
        return self._data_version

    def begin(
        self, isolation: IsolationLevel = IsolationLevel.READ_COMMITTED
    ) -> Transaction:
        transaction = Transaction(next(self._txids), isolation)
        self._active[transaction.txid] = transaction
        return transaction

    def note_read(self, transaction: Transaction, table: str) -> None:
        """Apply the isolation level's read rule for *table*."""
        level = transaction.isolation
        if level is IsolationLevel.READ_UNCOMMITTED:
            return  # dirty reads permitted
        if level is IsolationLevel.READ_COMMITTED:
            # No lock retained, but reading a dirty table is a conflict.
            if self._lock_manager.has_writer(table, transaction.txid):
                raise SerializationConflict(
                    f"table {table!r} has uncommitted changes"
                )
            return
        self._lock_manager.acquire_read(table, transaction.txid)
        transaction.read_locks.add(table)

    def note_write(self, transaction: Transaction, table: str) -> None:
        """All isolation levels take an exclusive lock to write."""
        self._lock_manager.acquire_write(table, transaction.txid)
        transaction.write_locks.add(table)

    def commit(self, transaction: Transaction) -> None:
        self._require_active(transaction)
        if transaction.write_locks:
            self._data_version += 1
        transaction.journal.entries.clear()
        self._finish(transaction)

    def rollback(self, transaction: Transaction) -> None:
        self._require_active(transaction)
        transaction.journal.undo()
        self._finish(transaction)

    def active_count(self) -> int:
        return len(self._active)

    def _require_active(self, transaction: Transaction) -> None:
        if transaction.txid not in self._active:
            raise TransactionError(
                f"transaction {transaction.txid} is not active"
            )

    def _finish(self, transaction: Transaction) -> None:
        self._lock_manager.release_all(transaction.txid)
        del self._active[transaction.txid]
