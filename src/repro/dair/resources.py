"""WS-DAIR data resources.

* :class:`SQLDataResource` — an externally managed relational database
  (the left-hand resource of Figure 5);
* :class:`SQLResponseResource` — the service managed outcome of an
  ``SQLExecuteFactory`` call: rowset + SQL communication area + update
  count.  Supports the ``Sensitivity`` property: an *insensitive*
  response snapshots its data at creation; a *sensitive* one re-runs the
  stored query against its parent on every access;
* :class:`SQLRowsetResource` — a service managed, pageable rowset in a
  negotiated dataset format (the Figure 5 web-rowset resource).
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.core.faults import (
    DataResourceUnavailableFault,
    InvalidExpressionFault,
    NotAuthorizedFault,
)
from repro.core.names import AbstractName
from repro.core.namespaces import SQL_LANGUAGE_URI
from repro.core.properties import (
    ConfigurableProperties,
    CorePropertyDocument,
    DataResourceManagement,
    DatasetMapEntry,
    Sensitivity,
)
from repro.core.resource import DataResource
from repro.cim import describe_catalog, render_cim_xml
from repro.dair.datasets import ALL_FORMATS, Rowset, stream_rowset
from repro.dair.namespaces import (
    SQLROWSET_FORMAT_URI,
    WSDAIR_NS,
)
from repro.relational import Database, SqlCommunicationArea, SqlError
from repro.relational.errors import ReadOnlyViolation
from repro.relational.engine import ResultSet
from repro.relational.transactions import IsolationLevel
from repro.xmlutil import E, QName, XmlElement


def _q(local: str) -> QName:
    return QName(WSDAIR_NS, local)


def _invalid_expression(exc: SqlError) -> InvalidExpressionFault:
    return InvalidExpressionFault(f"{type(exc).__name__} [{exc.sqlstate}]: {exc}")


def _faulting(rows: Iterator[tuple]) -> Iterator[tuple]:
    """A lazy result's rows: an engine error met while they are pulled —
    a value a ``CAST`` refuses in the third row — is the typed fault
    :meth:`SQLDataResource.sql_execute` raises for one met before."""
    try:
        yield from rows
    except SqlError as exc:
        raise _invalid_expression(exc) from exc


class SQLPropertyDocument(CorePropertyDocument):
    """Core document + the WS-DAIR extensions (Figure 4, SQL grouping)."""

    ROOT_LOCAL = "SQLPropertyDocument"
    ROOT_NS = WSDAIR_NS

    def __init__(self, *args, cim_description: XmlElement | None = None, **kwargs):
        super().__init__(*args, **kwargs)
        self.cim_description = cim_description

    def extend_xml(self, root: XmlElement) -> None:
        if self.cim_description is not None:
            wrapper = E(_q("CIMDescription"))
            wrapper.append(self.cim_description.copy())
            root.append(wrapper)


class SQLDataResource(DataResource):
    """An externally managed relational database behind a data service."""

    def __init__(
        self,
        abstract_name: AbstractName,
        database: Database,
        statement_rewriter=None,
    ) -> None:
        super().__init__(
            abstract_name, DataResourceManagement.EXTERNALLY_MANAGED
        )
        self.database = database
        #: Paper §2.1: a DAIS service may be a *thin* wrapper (pass query
        #: text straight through — the default) or a *thick* wrapper that
        #: intercepts/translates/redirects statements.  A thick wrapper
        #: supplies a ``str -> str`` rewriter here.
        self.statement_rewriter = statement_rewriter
        #: Open consumer-controlled transaction contexts (id → session).
        self._contexts: dict[str, "object"] = {}

    # -- SQL execution ----------------------------------------------------

    def sql_execute(
        self,
        expression: str,
        parameters: list[str] | None = None,
        configurable: ConfigurableProperties | None = None,
        stream: bool = False,
    ) -> ResultSet:
        """Run one SQL statement, honouring Readable/Writeable and the
        transaction properties of the binding.

        With ``stream=True`` a streamable SELECT returns a lazy result
        (see :meth:`repro.relational.engine.Session.execute`); its
        statement transaction completes when the row iterator does.
        Plan and permission errors still surface here, eagerly; an error
        in a later row surfaces where the rows are pulled, as the same
        typed fault.
        """
        if self.statement_rewriter is not None:
            expression = self.statement_rewriter(expression)
        session = self.database.create_session()
        configurable = configurable or ConfigurableProperties()
        session.default_isolation = _isolation_for(configurable)
        # A write is refused before it runs: refused after, its
        # autocommitted change would already be in the table.
        session.read_only = not configurable.writeable
        # Whether a CALL returns rows shows only once it has run, so a
        # non-readable binding runs each statement in a transaction it
        # commits only when no rows came back; close() rolls back.
        guarded = not configurable.readable
        try:
            if guarded:
                session.execute("BEGIN")
            result = session.execute(
                expression, tuple(parameters or ()), stream=stream
            )
            if guarded:
                if result.is_query:
                    raise NotAuthorizedFault("resource is not readable")
                session.execute("COMMIT")
        except ReadOnlyViolation as exc:
            raise NotAuthorizedFault("resource is not writeable") from exc
        except SqlError as exc:
            raise _invalid_expression(exc) from exc
        finally:
            session.close()
        if result.is_streaming:
            result.row_source = _faulting(result.row_source)
        return result

    # -- consumer-controlled transactions (TransactionInitiation=Consumer) --

    def begin_transaction(self, isolation: str | None = None) -> str:
        """Open a transaction context; returns its id.

        The context holds a live engine session; subsequent
        ``sql_execute_in_context`` calls run inside it until commit or
        rollback.
        """
        import uuid

        session = self.database.create_session()
        begin = "BEGIN"
        if isolation:
            begin = f"BEGIN ISOLATION LEVEL {isolation}"
        try:
            session.execute(begin)
        except SqlError as exc:
            raise InvalidExpressionFault(str(exc)) from exc
        context_id = f"urn:dais:txctx:{uuid.uuid4()}"
        self._contexts[context_id] = session
        return context_id

    def _context_session(self, context_id: str):
        session = self._contexts.get(context_id)
        if session is None:
            raise InvalidExpressionFault(
                f"unknown transaction context {context_id!r}"
            )
        return session

    def sql_execute_in_context(
        self, context_id: str, expression: str, parameters: list[str]
    ) -> ResultSet:
        if self.statement_rewriter is not None:
            expression = self.statement_rewriter(expression)
        session = self._context_session(context_id)
        try:
            return session.execute(expression, tuple(parameters or ()))
        except SqlError as exc:
            raise _invalid_expression(exc) from exc

    def commit_transaction(self, context_id: str) -> None:
        session = self._contexts.pop(context_id, None)
        if session is None:
            raise InvalidExpressionFault(
                f"unknown transaction context {context_id!r}"
            )
        try:
            session.execute("COMMIT")
        except SqlError as exc:
            raise InvalidExpressionFault(str(exc)) from exc

    def rollback_transaction(self, context_id: str) -> None:
        session = self._contexts.pop(context_id, None)
        if session is None:
            raise InvalidExpressionFault(
                f"unknown transaction context {context_id!r}"
            )
        session.close()  # close rolls back

    def on_destroy(self) -> None:
        super().on_destroy()
        # Abandon any open consumer transactions (rollback + release locks).
        for session in self._contexts.values():
            session.close()
        self._contexts.clear()

    # -- generic query (core spec) --------------------------------------------

    def generic_query_languages(self) -> list[str]:
        return [SQL_LANGUAGE_URI]

    def generic_query(
        self, language_uri: str, expression: str, parameters: list[str]
    ) -> list[XmlElement]:
        result = self.sql_execute(expression, parameters)
        rowset = Rowset.from_result(result)
        return [stream_rowset(SQLROWSET_FORMAT_URI, rowset)]

    # -- property document ----------------------------------------------------

    def property_version(self) -> int | None:
        # The document embeds the CIM schema description, which is valid
        # exactly as long as the catalog version stamp is (every DDL
        # path bumps it, including failed-DDL undo arms).
        return self.database.catalog.version

    def property_document(
        self, configurable: ConfigurableProperties
    ) -> SQLPropertyDocument:
        cim = render_cim_xml(describe_catalog(self.database.catalog))
        return SQLPropertyDocument(
            abstract_name=self.abstract_name,
            management=self.management,
            parent=self.parent,
            concurrent_access=True,
            dataset_maps=[
                DatasetMapEntry(_q("SQLExecuteRequest"), uri)
                for uri in ALL_FORMATS
            ],
            languages=[SQL_LANGUAGE_URI],
            configurable=configurable,
            cim_description=cim,
        )


def _isolation_for(configurable: ConfigurableProperties) -> IsolationLevel:
    from repro.core.properties import TransactionIsolation as TI

    mapping = {
        TI.READ_UNCOMMITTED: IsolationLevel.READ_UNCOMMITTED,
        TI.READ_COMMITTED: IsolationLevel.READ_COMMITTED,
        TI.REPEATABLE_READ: IsolationLevel.REPEATABLE_READ,
        TI.SERIALIZABLE: IsolationLevel.SERIALIZABLE,
    }
    return mapping.get(
        configurable.transaction_isolation, IsolationLevel.READ_COMMITTED
    )


class SQLResponseResource(DataResource):
    """The derived resource created by ``SQLExecuteFactory``.

    Holds everything the WS-DAIR SQL response exposes: the rowset(s),
    the update count, the communication area, a return value and output
    parameters (both empty for plain statements — populated by stored
    procedures, which this engine does not implement).
    """

    def __init__(
        self,
        abstract_name: AbstractName,
        parent: SQLDataResource,
        expression: str,
        parameters: list[str],
        sensitivity: Sensitivity,
        configurable: ConfigurableProperties,
    ) -> None:
        super().__init__(
            abstract_name,
            DataResourceManagement.SERVICE_MANAGED,
            parent=parent.abstract_name,
        )
        self._parent_resource = parent
        self._expression = expression
        self._parameters = list(parameters)
        self._creation_config = configurable
        self._snapshot: tuple | None = None
        if sensitivity is Sensitivity.INSENSITIVE:
            self._snapshot = self._evaluate()
        self._destroyed = False
        #: Invoked exactly once when the resource is torn down — the
        #: shared-result cache hooks this to forget its entry, so a
        #: destroyed resource's name can never be handed out again.
        self._destroy_listener = None

    def _evaluate(self) -> tuple:
        result = self._parent_resource.sql_execute(
            self._expression, self._parameters, self._creation_config
        )
        return (
            Rowset.from_result(result),
            result.communication,
            result.update_count,
            result.return_value,
            dict(result.output_parameters),
        )

    def _current(self) -> tuple:
        if self._destroyed:
            raise DataResourceUnavailableFault(
                f"response {self.abstract_name} has been destroyed"
            )
        if self._snapshot is not None:
            return self._snapshot
        # Sensitive responses re-evaluate against the parent on access.
        return self._evaluate()

    # -- ResponseAccess data ---------------------------------------------------

    def rowset(self) -> Rowset:
        return self._current()[0]

    def communication_area(self) -> SqlCommunicationArea:
        return self._current()[1]

    def update_count(self) -> int:
        return self._current()[2]

    def return_value(self) -> Optional[str]:
        """Stored-procedure return value (None for plain statements)."""
        return self._current()[3]

    def output_parameters(self) -> dict[str, str]:
        """Stored-procedure output parameters (empty for plain statements)."""
        return self._current()[4]

    def set_destroy_listener(self, callback) -> None:
        self._destroy_listener = callback

    def on_destroy(self) -> None:
        super().on_destroy()
        # Service managed: data goes away with the relationship (§4.3).
        # Flag first: a concurrent reader must see "destroyed" (a typed
        # fault), never a half-disposed snapshot.
        self._destroyed = True
        self._snapshot = None
        listener, self._destroy_listener = self._destroy_listener, None
        if listener is not None:
            listener(self)

    def property_document(
        self, configurable: ConfigurableProperties
    ) -> CorePropertyDocument:
        document = CorePropertyDocument(
            abstract_name=self.abstract_name,
            management=self.management,
            parent=self.parent,
            dataset_maps=[
                DatasetMapEntry(_q("GetSQLRowsetRequest"), uri)
                for uri in ALL_FORMATS
            ],
            configurable=configurable,
        )
        document.ROOT_LOCAL = "SQLResponsePropertyDocument"
        document.ROOT_NS = WSDAIR_NS
        return document


class SQLRowsetResource(DataResource):
    """A materialized, pageable rowset in a fixed dataset format."""

    def __init__(
        self,
        abstract_name: AbstractName,
        parent: SQLResponseResource,
        data_format_uri: str,
        rowset: Rowset,
    ) -> None:
        super().__init__(
            abstract_name,
            DataResourceManagement.SERVICE_MANAGED,
            parent=parent.abstract_name,
        )
        self.data_format_uri = data_format_uri
        self._rowset = rowset
        self._destroyed = False

    def rowset(self) -> Rowset:
        if self._destroyed:
            raise DataResourceUnavailableFault(
                f"rowset {self.abstract_name} has been destroyed"
            )
        return self._rowset

    def get_tuples(self, start: int, count: int | None = None) -> Rowset:
        """The GetTuples window; *start* is zero-based.

        ``count=None`` (Count omitted on the wire) returns the rest of
        the rowset; an explicit 0 is an empty window.
        """
        if start < 0 or (count is not None and count < 0):
            raise InvalidExpressionFault(
                "GetTuples start/count must be non-negative"
            )
        return self.rowset().slice(start, count)

    @property
    def row_count(self) -> int:
        return self.rowset().row_count

    def on_destroy(self) -> None:
        super().on_destroy()
        # Flag first: with the flag set after the data was blanked, a
        # GetTuples racing destroy could observe the placeholder rowset
        # and answer with an empty window and total_rows=0 instead of
        # the typed DataResourceUnavailableFault.
        self._destroyed = True
        self._rowset = Rowset([], [], [])

    def property_document(
        self, configurable: ConfigurableProperties
    ) -> CorePropertyDocument:
        document = CorePropertyDocument(
            abstract_name=self.abstract_name,
            management=self.management,
            parent=self.parent,
            dataset_maps=[
                DatasetMapEntry(_q("GetTuplesRequest"), self.data_format_uri)
            ],
            configurable=configurable,
        )
        document.ROOT_LOCAL = "SQLRowsetPropertyDocument"
        document.ROOT_NS = WSDAIR_NS
        return document
