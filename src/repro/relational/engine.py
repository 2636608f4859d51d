"""The engine facade: databases, sessions and result sets.

A :class:`Database` owns the catalog, the table storages and the
transaction manager.  A :class:`Session` is one consumer's connection:
it executes statements (autocommit by default, or within an explicit
transaction) and reports each outcome as a :class:`ResultSet` carrying
the :class:`~repro.relational.communication.SqlCommunicationArea` that
the WS-DAIR messages expose.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Optional, Sequence

from repro.relational import ast_nodes as ast
from repro.relational.catalog import (
    Catalog,
    CheckConstraint,
    Column,
    ForeignKey,
    IndexDef,
    TableSchema,
)
from repro.relational.communication import SqlCommunicationArea
from repro.relational.errors import (
    CatalogError,
    SqlError,
    TransactionError,
)
from repro.relational.executor import Executor, Journal
from repro.relational.expressions import Context, compile_expression
from repro.relational.parser import parse_statement
from repro.relational.plancache import PlanCache, PlanEntry
from repro.relational.storage import TableStorage
from repro.relational.transactions import (
    IsolationLevel,
    Transaction,
    TransactionManager,
)
from repro.relational.types import NULL, coerce


@dataclass
class ProcedureResult:
    """What a registered stored procedure returns."""

    columns: list[str] = field(default_factory=list)
    rows: list[tuple] = field(default_factory=list)
    update_count: int = -1
    return_value: Optional[str] = None
    output_parameters: dict[str, str] = field(default_factory=dict)


@dataclass
class ResultSet:
    """The outcome of one statement.

    For queries, ``columns``/``rows`` are populated and ``update_count``
    is -1; for DML the opposite; DDL and transaction-control statements
    report ``update_count`` 0.  ``CALL`` results may additionally carry a
    return value and output parameters (surfaced by WS-DAIR's
    ``GetSQLReturnValue`` / ``GetSQLOutputParameter``).
    """

    statement_kind: str
    columns: list[str] = field(default_factory=list)
    rows: list[tuple] = field(default_factory=list)
    update_count: int = -1
    communication: SqlCommunicationArea = field(
        default_factory=lambda: SqlCommunicationArea.success(0)
    )
    return_value: Optional[str] = None
    output_parameters: dict[str, str] = field(default_factory=dict)
    #: SQL type names parallel to ``columns`` (``""`` where unknown),
    #: resolved from the catalog so dataset metadata survives the wire.
    column_types: list[str] = field(default_factory=list)
    #: When set, rows arrive lazily from this one-shot generator and
    #: ``rows`` stays empty; produced by ``Session.execute(stream=True)``.
    row_source: Optional[Iterator[tuple]] = None

    @property
    def is_query(self) -> bool:
        """True when the result carries a rowset (SELECT, EXPLAIN, or a
        CALL whose procedure returned rows)."""
        return bool(self.columns)

    @property
    def is_streaming(self) -> bool:
        """True when rows come from a lazy source instead of ``rows``."""
        return self.row_source is not None

    def iter_rows(self) -> Iterator[tuple]:
        """Iterate the result's rows.

        For a streamed result this drains the lazy source — it can be
        consumed exactly once, and the autocommit transaction (if any)
        completes when the iterator is exhausted or closed.  For a
        materialized result it simply iterates ``rows``.
        """
        if self.row_source is not None:
            return iter(self.row_source)
        return iter(self.rows)

    def scalar(self) -> Any:
        """First column of the first row (convenience for tests/examples)."""
        if not self.rows:
            raise SqlError("result set is empty")
        return self.rows[0][0]

    def __len__(self) -> int:
        return len(self.rows)


def _constant(expression: ast.Expression) -> Any:
    """A row-less, parameter-less expression's value (DEFAULTs, CALL
    arguments); a column reference or subquery in one is an error."""
    return compile_expression(expression, ())((), Context())


class Database:
    """One database instance: schema + data + transaction machinery."""

    def __init__(self, name: str = "dais") -> None:
        self.catalog = Catalog(name)
        self.storages: dict[str, TableStorage] = {}
        self.transactions = TransactionManager()
        self._procedures: dict[str, object] = {}
        #: Prepared-statement cache shared by every session of this
        #: database; entries are invalidated by catalog version bumps.
        self.plan_cache = PlanCache()

    def register_procedure(self, name: str, procedure) -> None:
        """Register a stored procedure for ``CALL name(...)``.

        *procedure* is ``fn(execute, *args) -> ProcedureResult`` where
        ``execute(sql, params=())`` runs statements inside the calling
        transaction context.
        """
        key = name.lower()
        if key in self._procedures:
            raise CatalogError(f"procedure {name!r} already registered")
        self._procedures[key] = procedure

    def procedure(self, name: str):
        try:
            return self._procedures[name.lower()]
        except KeyError:
            raise CatalogError(f"no such procedure {name!r}") from None

    @property
    def name(self) -> str:
        return self.catalog.database_name

    def create_session(self) -> "Session":
        return Session(self)

    def execute(self, sql: str, parameters: Sequence[Any] = ()) -> ResultSet:
        """One-shot convenience: run *sql* in a fresh autocommit session."""
        return self.create_session().execute(sql, parameters)

    def storage(self, table: str) -> TableStorage:
        schema = self.catalog.table(table)
        return self.storages[schema.name.lower()]

    def row_count(self, table: str) -> int:
        return len(self.storage(table))


class Session:
    """A consumer connection with its own transaction state."""

    def __init__(self, database: Database) -> None:
        self._database = database
        self._transaction: Optional[Transaction] = None
        self.default_isolation = IsolationLevel.READ_COMMITTED

    # -- public API ---------------------------------------------------------

    @property
    def in_transaction(self) -> bool:
        return self._transaction is not None

    @property
    def isolation(self) -> IsolationLevel:
        if self._transaction is not None:
            return self._transaction.isolation
        return self.default_isolation

    def execute(
        self,
        sql: str,
        parameters: Sequence[Any] = (),
        stream: bool = False,
    ) -> ResultSet:
        """Parse and execute one statement.

        Errors inside an explicit transaction leave it open (the consumer
        decides whether to roll back); errors in autocommit mode undo the
        statement's own changes.

        With ``stream=True``, a SELECT whose plan has no pipeline breaker
        (sort/group/distinct/union) returns a streaming
        :class:`ResultSet` — rows arrive via :meth:`ResultSet.iter_rows`
        and the autocommit transaction stays open until that iterator is
        exhausted or closed.  Other statements are unaffected.

        Repeat statements skip the lexer and parser: the compiled form
        is served from the database's :class:`PlanCache`, stamped with
        the catalog version so any schema change forces a recompile.
        """
        cache = self._database.plan_cache
        version = self._database.catalog.version
        plan = cache.lookup(sql, version)
        if plan is None:
            plan = cache.store(
                sql, PlanEntry(parse_statement(sql), catalog_version=version)
            )
        elif plan.compiled is None:
            plan.compiled = {}  # a repeat statement: start keeping closures
        return self.execute_ast(
            plan.statement, parameters, stream=stream, plan=plan
        )

    def execute_ast(
        self,
        statement: ast.Statement,
        parameters: Sequence[Any] = (),
        stream: bool = False,
        plan: Optional[PlanEntry] = None,
    ) -> ResultSet:
        if isinstance(statement, ast.BeginTransaction):
            return self._begin(statement)
        if isinstance(statement, ast.Commit):
            return self._commit()
        if isinstance(statement, ast.Rollback):
            return self._rollback()

        if self._transaction is not None:
            return self._run_in_transaction(
                self._transaction, statement, parameters, stream, plan
            )
        # Autocommit: a statement-scoped transaction.
        transaction = self._database.transactions.begin(self.default_isolation)
        try:
            result = self._run_in_transaction(
                transaction, statement, parameters, stream, plan
            )
        except Exception:
            self._database.transactions.rollback(transaction)
            raise
        if result.is_streaming:
            # The statement transaction must outlive this call: it ends
            # (commit on exhaustion, rollback on error/early close) when
            # the consumer finishes with the rows.
            result.row_source = self._autocommit_stream(
                transaction, result.row_source
            )
            return result
        self._database.transactions.commit(transaction)
        return result

    def _autocommit_stream(
        self, transaction: Transaction, source: Iterator[tuple]
    ) -> Iterator[tuple]:
        manager = self._database.transactions
        try:
            yield from source
        except BaseException:
            manager.rollback(transaction)
            raise
        manager.commit(transaction)

    def close(self) -> None:
        """Roll back any open transaction and release locks."""
        if self._transaction is not None:
            self._database.transactions.rollback(self._transaction)
            self._transaction = None

    # -- transaction control ---------------------------------------------------

    def _begin(self, statement: ast.BeginTransaction) -> ResultSet:
        if self._transaction is not None:
            raise TransactionError("a transaction is already open")
        isolation = (
            IsolationLevel.from_sql(statement.isolation)
            if statement.isolation
            else self.default_isolation
        )
        self._transaction = self._database.transactions.begin(isolation)
        return ResultSet("BEGIN", update_count=0)

    def _commit(self) -> ResultSet:
        if self._transaction is None:
            raise TransactionError("no transaction is open")
        self._database.transactions.commit(self._transaction)
        self._transaction = None
        return ResultSet("COMMIT", update_count=0)

    def _rollback(self) -> ResultSet:
        if self._transaction is None:
            raise TransactionError("no transaction is open")
        self._database.transactions.rollback(self._transaction)
        self._transaction = None
        return ResultSet("ROLLBACK", update_count=0)

    # -- statement execution ---------------------------------------------------

    def _run_in_transaction(
        self,
        transaction: Transaction,
        statement: ast.Statement,
        parameters: Sequence[Any],
        stream: bool = False,
        plan: Optional[PlanEntry] = None,
    ) -> ResultSet:
        manager = self._database.transactions
        executor = Executor(
            self._database.catalog,
            self._database.storages,
            tuple(parameters),
            journal=transaction.journal,
            on_table_read=lambda table: manager.note_read(transaction, table),
            on_table_write=lambda table: manager.note_write(transaction, table),
            compiled=plan.compiled if plan is not None else None,
        )
        checkpoint = len(transaction.journal.entries)
        try:
            return self._dispatch(executor, statement, stream, plan)
        except Exception:
            # Statement-level atomicity inside explicit transactions.
            self._undo_to(transaction.journal, checkpoint)
            raise

    @staticmethod
    def _undo_to(journal: Journal, checkpoint: int) -> None:
        tail = Journal()
        tail.entries = journal.entries[checkpoint:]
        del journal.entries[checkpoint:]
        tail.undo()

    def _dispatch(
        self,
        executor: Executor,
        statement: ast.Statement,
        stream: bool = False,
        plan: Optional[PlanEntry] = None,
    ) -> ResultSet:
        if isinstance(statement, ast.Select):
            if plan is not None:
                # Memoize the catalog-derived planning facts on the
                # cached entry; the version stamp keeps them honest.
                if plan.column_types is None or plan.can_stream is None:
                    with plan.lock:
                        if plan.column_types is None:
                            plan.column_types = executor.select_column_types(
                                statement
                            )
                        if plan.can_stream is None:
                            plan.can_stream = executor.can_stream(statement)
                column_types = plan.column_types
                streamable = plan.can_stream
            else:
                column_types = executor.select_column_types(statement)
                streamable = executor.can_stream(statement)
            if stream and streamable:
                columns, source = executor.iter_select(statement)
                return ResultSet(
                    "SELECT",
                    columns=columns,
                    column_types=list(column_types),
                    row_source=source,
                )
            columns, rows = executor.execute_select(statement)
            return ResultSet(
                "SELECT",
                columns=columns,
                column_types=list(column_types),
                rows=rows,
                communication=SqlCommunicationArea.success(
                    len(rows), f"{len(rows)} row(s)"
                ),
            )
        if isinstance(statement, ast.Insert):
            count = executor.execute_insert(statement)
            return self._dml_result("INSERT", count)
        if isinstance(statement, ast.Update):
            count = executor.execute_update(statement)
            return self._dml_result("UPDATE", count)
        if isinstance(statement, ast.Delete):
            count = executor.execute_delete(statement)
            return self._dml_result("DELETE", count)
        if isinstance(statement, ast.CreateTable):
            return self._create_table(statement)
        if isinstance(statement, ast.DropTable):
            return self._drop_table(statement)
        if isinstance(statement, ast.CreateIndex):
            return self._create_index(statement)
        if isinstance(statement, ast.DropIndex):
            return self._drop_index(statement)
        if isinstance(statement, ast.CreateView):
            return self._create_view(statement)
        if isinstance(statement, ast.DropView):
            return self._drop_view(statement)
        if isinstance(statement, ast.AlterTableAddColumn):
            return self._alter_add_column(statement)
        if isinstance(statement, ast.Explain):
            lines = executor.explain_select(statement.statement)
            return ResultSet(
                "EXPLAIN",
                columns=["plan"],
                rows=[(line,) for line in lines],
                communication=SqlCommunicationArea.success(len(lines)),
            )
        if isinstance(statement, ast.Call):
            return self._call_procedure(executor, statement)
        raise SqlError(f"unsupported statement {type(statement).__name__}")

    def _call_procedure(self, executor: Executor, statement: ast.Call) -> ResultSet:
        procedure = self._database.procedure(statement.procedure)
        arguments = [_constant(argument) for argument in statement.arguments]

        def execute(sql: str, params: Sequence[Any] = ()) -> ResultSet:
            """Run a statement inside the caller's transaction context."""
            nested = executor.with_parameters(tuple(params))
            return self._dispatch(nested, parse_statement(sql))

        outcome = procedure(execute, *arguments)
        if not isinstance(outcome, ProcedureResult):
            raise SqlError(
                f"procedure {statement.procedure!r} must return a "
                "ProcedureResult"
            )
        rows = len(outcome.rows) if outcome.rows else max(outcome.update_count, 0)
        return ResultSet(
            "CALL",
            columns=list(outcome.columns),
            rows=list(outcome.rows),
            update_count=outcome.update_count,
            communication=SqlCommunicationArea.success(
                rows, f"procedure {statement.procedure}"
            ),
            return_value=outcome.return_value,
            output_parameters=dict(outcome.output_parameters),
        )

    @staticmethod
    def _dml_result(kind: str, count: int) -> ResultSet:
        return ResultSet(
            kind,
            update_count=count,
            communication=SqlCommunicationArea.success(
                count, f"{count} row(s) {kind.lower()}d"
            ),
        )

    # -- DDL (autocommitted: DDL is not transactional in this engine) ---------

    def _create_table(self, statement: ast.CreateTable) -> ResultSet:
        catalog = self._database.catalog
        if statement.if_not_exists and catalog.has_table(statement.name):
            return ResultSet("CREATE TABLE", update_count=0)

        columns = [
            Column(
                name=c.name,
                sql_type=c.sql_type,
                length=c.length,
                not_null=c.not_null,
                default=c.default,
            )
            for c in statement.columns
        ]
        schema = TableSchema(statement.name, columns)

        pk_columns: list[str] = [c.name for c in statement.columns if c.primary_key]
        if len(pk_columns) > 1:
            raise CatalogError("multiple PRIMARY KEY column flags; use a "
                               "table-level constraint for composite keys")
        checks = 0
        for c in statement.columns:
            if c.unique:
                schema.add_unique((c.name,))
            if c.check is not None:
                checks += 1
                schema.add_check(
                    CheckConstraint(f"ck_{statement.name}_{checks}", c.check)
                )
            if c.references is not None:
                schema.add_foreign_key(
                    ForeignKey(
                        f"fk_{statement.name}_{c.name}",
                        (c.name,),
                        c.references[0],
                        (c.references[1],),
                    )
                )
        for constraint in statement.constraints:
            if constraint.kind == "PRIMARY_KEY":
                pk_columns.extend(constraint.columns)
            elif constraint.kind == "UNIQUE":
                schema.add_unique(constraint.columns)
            elif constraint.kind == "CHECK":
                checks += 1
                schema.add_check(
                    CheckConstraint(
                        constraint.name or f"ck_{statement.name}_{checks}",
                        constraint.expression,
                    )
                )
            elif constraint.kind == "FOREIGN_KEY":
                schema.add_foreign_key(
                    ForeignKey(
                        constraint.name
                        or f"fk_{statement.name}_{'_'.join(constraint.columns)}",
                        constraint.columns,
                        constraint.ref_table,
                        constraint.ref_columns,
                    )
                )
        if pk_columns:
            schema.set_primary_key(tuple(pk_columns))

        self._validate_defaults(schema)
        self._database.catalog.add_table(schema)
        self._database.storages[schema.name.lower()] = TableStorage(schema)
        return ResultSet("CREATE TABLE", update_count=0)

    def _validate_defaults(self, schema: TableSchema) -> None:
        for column in schema.columns:
            if column.default is None:
                continue
            value = _constant(column.default)
            if value is not NULL:
                coerce(value, column.sql_type, column.length)

    def _drop_table(self, statement: ast.DropTable) -> ResultSet:
        catalog = self._database.catalog
        if not catalog.has_table(statement.name):
            if statement.if_exists:
                return ResultSet("DROP TABLE", update_count=0)
            raise CatalogError(f"no such table {statement.name!r}")
        schema = catalog.drop_table(statement.name)
        del self._database.storages[schema.name.lower()]
        return ResultSet("DROP TABLE", update_count=0)

    def _create_index(self, statement: ast.CreateIndex) -> ResultSet:
        definition = IndexDef(
            statement.name, statement.table, statement.columns, statement.unique
        )
        self._database.catalog.add_index(definition)
        storage = self._database.storage(statement.table)
        try:
            storage.add_hash_index(
                statement.name, statement.columns, statement.unique
            )
            if len(statement.columns) == 1:
                storage.add_ordered_index(
                    f"{statement.name}__ord", statement.columns[0]
                )
        except Exception:
            self._database.catalog.drop_index(statement.name)
            storage.drop_index(statement.name)
            storage.drop_index(f"{statement.name}__ord")
            raise
        return ResultSet("CREATE INDEX", update_count=0)

    def _drop_index(self, statement: ast.DropIndex) -> ResultSet:
        definition = self._database.catalog.drop_index(statement.name)
        storage = self._database.storage(definition.table)
        storage.drop_index(definition.name)
        storage.drop_index(f"{definition.name}__ord")
        return ResultSet("DROP INDEX", update_count=0)

    def _create_view(self, statement: ast.CreateView) -> ResultSet:
        from repro.relational.catalog import ViewDef

        # Validate eagerly: the stored query must run against the current
        # schema (and its column count must match any declared names).
        executor = Executor(self._database.catalog, self._database.storages)
        columns, _ = executor.execute_select(statement.query)
        if statement.columns and len(statement.columns) != len(columns):
            raise CatalogError(
                f"view {statement.name!r} declares {len(statement.columns)} "
                f"columns but its query yields {len(columns)}"
            )
        self._database.catalog.add_view(
            ViewDef(statement.name, statement.query, statement.columns)
        )
        return ResultSet("CREATE VIEW", update_count=0)

    def _drop_view(self, statement: ast.DropView) -> ResultSet:
        catalog = self._database.catalog
        if not catalog.has_view(statement.name):
            if statement.if_exists:
                return ResultSet("DROP VIEW", update_count=0)
            raise CatalogError(f"no such view {statement.name!r}")
        catalog.drop_view(statement.name)
        return ResultSet("DROP VIEW", update_count=0)

    def _alter_add_column(self, statement: ast.AlterTableAddColumn) -> ResultSet:
        schema = self._database.catalog.table(statement.table)
        storage = self._database.storages[schema.name.lower()]
        definition = statement.column

        if definition.default is not None:
            fill_value = coerce(
                _constant(definition.default),
                definition.sql_type,
                definition.length,
            )
        else:
            fill_value = NULL
        if definition.not_null and fill_value is NULL and len(storage):
            raise CatalogError(
                "cannot add a NOT NULL column without a DEFAULT to a "
                "non-empty table"
            )

        column = Column(
            name=definition.name,
            sql_type=definition.sql_type,
            length=definition.length,
            not_null=definition.not_null,
            default=definition.default,
        )
        schema.add_column(column)
        # ALTER mutates the TableSchema in place, which the catalog can't
        # observe — bump its version explicitly so cached plans recompile.
        self._database.catalog.bump_version()
        for row_id, row in storage.rows():
            storage.update(row_id, row + (fill_value,))
        if definition.unique:
            schema.add_unique((column.name,))
            storage.add_hash_index(
                f"uq_{schema.name}_{column.name}", (column.name,), unique=True
            )
        return ResultSet("ALTER TABLE", update_count=0)
