"""The WS-DAIR data service.

One service class implements all five WS-DAIR port types; a deployment
enables the subset each service instance should expose (Figure 5 shows
three services with different port types).  Factories can target a
*different* service for the derived resource — exactly the Figure 5
topology — via ``response_target`` / ``rowset_target``.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.core.faults import InvalidDatasetFormatFault, InvalidResourceNameFault
from repro.core.names import mint_abstract_name
from repro.core.properties import Sensitivity
from repro.core.service import DataService, Factory, ResourceBinding
from repro.dair import messages as msg
from repro.dair.datasets import (
    ALL_FORMATS,
    Rowset,
    StreamingRowset,
    stream_rowset,
)
from repro.dair.namespaces import (
    SQL_RESPONSE_ACCESS_PT,
    SQL_ROWSET_ACCESS_PT,
    SQLROWSET_FORMAT_URI,
    WSDAIR_NS,
)
from repro.dair.resources import (
    SQLDataResource,
    SQLResponseResource,
    SQLRowsetResource,
)
from repro.dair.resultcache import SharedResultCache
from repro.jobs.namespaces import MODE_ASYNCHRONOUS
from repro.relational import SqlCommunicationArea
from repro.soap.addressing import MessageHeaders


class SQLRealisationService(DataService):
    """A data service exposing a configurable set of WS-DAIR port types."""

    OPERATIONS = {
        **DataService.OPERATIONS,
        "sql_access": (
            (msg.SQLExecuteRequest, "_handle_sql_execute"),
            (
                msg.GetSQLPropertyDocumentRequest,
                "_handle_property_document",
            ),
            (msg.BeginTransactionRequest, "_handle_begin_transaction"),
            (msg.CommitTransactionRequest, "_handle_commit_transaction"),
            (msg.RollbackTransactionRequest, "_handle_rollback_transaction"),
        ),
        "sql_factory": ((msg.SQLExecuteFactoryRequest, "_handle_factory"),),
        "response_access": (
            (
                msg.GetSQLResponsePropertyDocumentRequest,
                "_handle_property_document",
            ),
            (msg.GetSQLRowsetRequest, "_handle_get_sql_rowset"),
            (msg.GetSQLUpdateCountRequest, "_handle_get_update_count"),
            (
                msg.GetSQLCommunicationAreaRequest,
                "_handle_get_communication_area",
            ),
            (msg.GetSQLReturnValueRequest, "_handle_get_return_value"),
            (msg.GetSQLOutputParameterRequest, "_handle_get_output_parameter"),
            (msg.GetSQLResponseItemRequest, "_handle_get_response_item"),
        ),
        "response_factory": ((msg.SQLRowsetFactoryRequest, "_handle_factory"),),
        "rowset_access": (
            (msg.GetTuplesRequest, "_handle_get_tuples"),
            (
                msg.GetRowsetPropertyDocumentRequest,
                "_handle_property_document",
            ),
        ),
    }
    DOCUMENTS = {
        **DataService.DOCUMENTS,
        msg.GetSQLPropertyDocumentRequest: "_sql_binding",
        msg.GetSQLResponsePropertyDocumentRequest: "_response_binding",
        msg.GetRowsetPropertyDocumentRequest: "_rowset_binding",
    }
    FACTORIES = {
        msg.SQLExecuteFactoryRequest: Factory(
            binding="_sql_binding",
            target="response_target",
            port_type="response_access",
            port_type_qname=SQL_RESPONSE_ACCESS_PT,
            readable=False,
            derive="_derive_response",
            kind="sql-execute-factory",
        ),
        msg.SQLRowsetFactoryRequest: Factory(
            binding="_response_binding",
            target="rowset_target",
            port_type="rowset_access",
            port_type_qname=SQL_ROWSET_ACCESS_PT,
            readable=False,
            derive="_derive_rowset",
            kind=None,
        ),
    }

    def __init__(
        self,
        name: str,
        address: str,
        port_types: Iterable[str] | None = None,
        response_target: Optional["SQLRealisationService"] = None,
        rowset_target: Optional["SQLRealisationService"] = None,
        **kwargs,
    ) -> None:
        from repro.core.namespaces import WSDAI_NS

        kwargs.setdefault(
            "property_namespaces",
            {"wsdai": WSDAI_NS, "wsdair": WSDAIR_NS},
        )
        super().__init__(name, address, **kwargs)
        self._rows_streamed = self.metrics.counter(
            "rowset.rows.streamed",
            "Rows emitted through streamed dataset responses",
        )
        # Plan-cache visibility: bound to each SQL resource's database
        # cache in add_resource, surfaced via /metrics and the
        # obs:ServiceMetrics property like every other counter here.
        self._plan_hits = self.metrics.counter(
            "cache.plan.hits",
            "Statements served from the plan cache without reparsing",
        )
        self._plan_misses = self.metrics.counter(
            "cache.plan.misses",
            "Statements compiled because no live plan was cached",
        )
        self._plan_invalidations = self.metrics.counter(
            "cache.plan.invalidations",
            "Cached plans dropped because the catalog version moved",
        )
        #: Shared derived results: a repeat SQLExecuteFactory request
        #: reuses the existing response resource (refcounted) instead of
        #: re-executing.
        self.result_cache = SharedResultCache()
        self.result_cache.bind_counters(
            self.metrics.counter(
                "cache.result.hits",
                "Factory requests answered with a shared derived resource",
            ),
            self.metrics.counter(
                "cache.result.misses",
                "Factory requests that executed and materialized anew",
            ),
            self.metrics.counter(
                "cache.result.invalidations",
                "Shared-result entries dropped (version moved or destroyed)",
            ),
        )
        #: Where SQLExecuteFactory registers derived responses (default: here).
        self.response_target = response_target or self
        #: Where SQLRowsetFactory registers derived rowsets (default: here).
        self.rowset_target = rowset_target or self
        self.install_own_port_types(port_types)

    def add_resource(self, resource, configurable=None, lifetime_seconds=None):
        binding = super().add_resource(resource, configurable, lifetime_seconds)
        if isinstance(resource, SQLDataResource):
            resource.database.plan_cache.bind_counters(
                self._plan_hits, self._plan_misses, self._plan_invalidations
            )
        return binding

    # -- typed binding lookups -----------------------------------------------

    def _sql_binding(self, abstract_name: str) -> ResourceBinding:
        binding = self.binding(abstract_name)
        if not isinstance(binding.resource, SQLDataResource):
            raise InvalidResourceNameFault(
                f"{abstract_name} is not a SQL data resource"
            )
        return binding

    def _response_binding(self, abstract_name: str) -> ResourceBinding:
        binding = self.binding(abstract_name)
        if not isinstance(binding.resource, SQLResponseResource):
            raise InvalidResourceNameFault(
                f"{abstract_name} is not a SQL response resource"
            )
        return binding

    def _rowset_binding(self, abstract_name: str) -> ResourceBinding:
        binding = self.binding(abstract_name)
        if not isinstance(binding.resource, SQLRowsetResource):
            raise InvalidResourceNameFault(
                f"{abstract_name} is not a SQL rowset resource"
            )
        return binding

    # -- SQLAccess --------------------------------------------------------

    def _handle_sql_execute(
        self, request: msg.SQLExecuteRequest, headers: MessageHeaders
    ) -> msg.SQLExecuteResponse:
        binding = self._sql_binding(request.abstract_name)
        resource: SQLDataResource = binding.resource

        # Check the DatasetMap directly: rendering the whole property
        # document (with its CIM schema snapshot) per execute is pure
        # overhead when only the format list is needed.
        format_uri = request.dataset_format_uri or SQLROWSET_FORMAT_URI
        if format_uri not in ALL_FORMATS:
            raise InvalidDatasetFormatFault(
                f"format {format_uri!r} not in DatasetMap"
            )

        if request.transaction_context:
            self._require_consumer_transactions(binding)
            result = resource.sql_execute_in_context(
                request.transaction_context,
                request.expression,
                request.parameters,
            )
        else:
            result = resource.sql_execute(
                request.expression,
                request.parameters,
                binding.configurable,
                stream=True,
            )
        dataset = None
        communication_factory = None
        if result.is_query:
            if result.is_streaming:
                # Rows flow straight from the engine through the
                # incremental emitter into the transport; the lazy
                # communication area (serialized after the dataset)
                # reports the count that actually went out.
                rowset = StreamingRowset.from_result(result)
                dataset = stream_rowset(format_uri, rowset)

                def communication_factory(
                    rowset: StreamingRowset = rowset,
                ) -> SqlCommunicationArea:
                    count = rowset.rows_streamed
                    self._rows_streamed.inc(count)
                    return SqlCommunicationArea.success(
                        count, f"{count} row(s)"
                    )

            else:
                # A pipeline breaker (or a statement inside a consumer's
                # transaction) already holds its rows: same emitter,
                # nothing left to pull, so the reply is framed by length.
                dataset = stream_rowset(format_uri, Rowset.from_result(result))
        return msg.SQLExecuteResponse(
            dataset_format_uri=format_uri,
            dataset=dataset,
            update_count=result.update_count,
            communication=result.communication,
            communication_factory=communication_factory,
        )

    # -- consumer-controlled transactions ------------------------------------

    @staticmethod
    def _require_consumer_transactions(binding: ResourceBinding) -> None:
        from repro.core.faults import NotAuthorizedFault
        from repro.core.properties import TransactionInitiation

        if (
            binding.configurable.transaction_initiation
            is not TransactionInitiation.CONSUMER
        ):
            raise NotAuthorizedFault(
                "TransactionInitiation is "
                f"{binding.configurable.transaction_initiation.value}; "
                "consumer transaction contexts are not enabled for this "
                "resource"
            )

    def _handle_begin_transaction(
        self, request: msg.BeginTransactionRequest, headers: MessageHeaders
    ) -> msg.BeginTransactionResponse:
        binding = self._sql_binding(request.abstract_name)
        self._require_consumer_transactions(binding)
        binding.require_writeable()
        context_id = binding.resource.begin_transaction(request.isolation)
        return msg.BeginTransactionResponse(transaction_context=context_id)

    def _handle_commit_transaction(
        self, request: msg.CommitTransactionRequest, headers: MessageHeaders
    ) -> msg.TransactionOutcomeResponse:
        binding = self._sql_binding(request.abstract_name)
        self._require_consumer_transactions(binding)
        binding.resource.commit_transaction(request.transaction_context)
        return msg.TransactionOutcomeResponse(
            transaction_context=request.transaction_context,
            outcome="Committed",
        )

    def _handle_rollback_transaction(
        self, request: msg.RollbackTransactionRequest, headers: MessageHeaders
    ) -> msg.TransactionOutcomeResponse:
        binding = self._sql_binding(request.abstract_name)
        self._require_consumer_transactions(binding)
        binding.resource.rollback_transaction(request.transaction_context)
        return msg.TransactionOutcomeResponse(
            transaction_context=request.transaction_context,
            outcome="RolledBack",
        )

    # -- SQLFactory --------------------------------------------------------

    def _derive_response(
        self, binding, target, configurable, request: msg.SQLExecuteFactoryRequest
    ) -> str:
        """Derive the SQL response resource of an ``SQLExecuteFactory``.

        Shared-result reuse: an identical insensitive, unconfigured
        request against the same parent at the same catalog + data
        version answers with the existing derived resource, adding one
        refcount claim.  The stamp is taken *before* evaluation, so a
        write racing the snapshot costs a miss, never a stale hit.
        """
        cache = self.result_cache
        reusable = (
            request.configuration_document is None
            and configurable.sensitivity is Sensitivity.INSENSITIVE
        )
        if reusable:
            database = binding.resource.database
            stamp = (
                database.catalog.version,
                database.transactions.data_version,
            )
            key = (
                str(request.abstract_name),
                request.expression,
                tuple(request.parameters),
            )
            shared = cache.lookup(key, stamp, target.acquire_resource)
            if shared is not None:
                return shared

        derived = SQLResponseResource(
            abstract_name=mint_abstract_name("sqlresponse"),
            parent=binding.resource,
            expression=request.expression,
            parameters=request.parameters,
            sensitivity=configurable.sensitivity,
            # Evaluation runs under the PARENT binding's permissions;
            # the configuration document governs the derived resource.
            configurable=binding.configurable,
        )
        if (
            request.execution_mode == MODE_ASYNCHRONOUS
            and configurable.sensitivity is Sensitivity.SENSITIVE
        ):
            # Asynchronous means the work happens *now*, not at first
            # access: force one evaluation so a faulting expression
            # surfaces as the job outcome instead of at fetch time.
            derived.communication_area()
        target.add_resource(derived, configurable)
        if reusable:
            derived.set_destroy_listener(
                lambda resource: cache.forget(resource.abstract_name)
            )
            cache.store(key, stamp, derived.abstract_name)
        return derived.abstract_name

    # -- ResponseAccess ----------------------------------------------------

    def _handle_get_sql_rowset(
        self, request: msg.GetSQLRowsetRequest, headers: MessageHeaders
    ) -> msg.GetSQLRowsetResponse:
        binding = self._response_binding(request.abstract_name)
        binding.require_readable()
        resource: SQLResponseResource = binding.resource
        format_uri = request.dataset_format_uri or SQLROWSET_FORMAT_URI
        rowset = resource.rowset()
        # The response rowset is already materialized, but handing its
        # rows over as an iterator lets the transport chunk the reply
        # instead of buffering one giant serialized string.
        dataset = stream_rowset(
            format_uri,
            StreamingRowset(rowset.columns, rowset.types, rowset.rows),
        )
        self._rows_streamed.inc(rowset.row_count)
        return msg.GetSQLRowsetResponse(
            dataset_format_uri=format_uri,
            dataset=dataset,
        )

    def _handle_get_update_count(
        self, request: msg.GetSQLUpdateCountRequest, headers: MessageHeaders
    ) -> msg.GetSQLUpdateCountResponse:
        binding = self._response_binding(request.abstract_name)
        return msg.GetSQLUpdateCountResponse(
            update_count=binding.resource.update_count()
        )

    def _handle_get_communication_area(
        self, request: msg.GetSQLCommunicationAreaRequest, headers: MessageHeaders
    ) -> msg.GetSQLCommunicationAreaResponse:
        binding = self._response_binding(request.abstract_name)
        return msg.GetSQLCommunicationAreaResponse(
            communication=binding.resource.communication_area()
        )

    def _handle_get_return_value(
        self, request: msg.GetSQLReturnValueRequest, headers: MessageHeaders
    ) -> msg.GetSQLReturnValueResponse:
        binding = self._response_binding(request.abstract_name)
        return msg.GetSQLReturnValueResponse(value=binding.resource.return_value())

    def _handle_get_output_parameter(
        self, request: msg.GetSQLOutputParameterRequest, headers: MessageHeaders
    ) -> msg.GetSQLOutputParameterResponse:
        binding = self._response_binding(request.abstract_name)
        value = binding.resource.output_parameters().get(request.parameter_name)
        return msg.GetSQLOutputParameterResponse(value=value)

    def _handle_get_response_item(
        self, request: msg.GetSQLResponseItemRequest, headers: MessageHeaders
    ) -> msg.GetSQLResponseItemResponse:
        binding = self._response_binding(request.abstract_name)
        resource: SQLResponseResource = binding.resource
        items = ["SQLCommunicationArea", "SQLUpdateCount"]
        if resource.rowset().columns:
            items.insert(0, "SQLRowset")
        if resource.return_value() is not None:
            items.append("SQLReturnValue")
        items.extend(sorted(resource.output_parameters()))
        return msg.GetSQLResponseItemResponse(items=items)

    # -- ResponseFactory -------------------------------------------------------

    def _derive_rowset(
        self, binding, target, configurable, request: msg.SQLRowsetFactoryRequest
    ) -> str:
        format_uri = request.dataset_format_uri or SQLROWSET_FORMAT_URI
        if format_uri not in ALL_FORMATS:
            raise InvalidDatasetFormatFault(
                f"format {format_uri!r} not supported for rowset resources"
            )
        derived = SQLRowsetResource(
            abstract_name=mint_abstract_name("sqlrowset"),
            parent=binding.resource,
            data_format_uri=format_uri,
            rowset=binding.resource.rowset(),
        )
        target.add_resource(derived, configurable)
        return derived.abstract_name

    # -- RowsetAccess ----------------------------------------------------------

    def _handle_get_tuples(
        self, request: msg.GetTuplesRequest, headers: MessageHeaders
    ) -> msg.GetTuplesResponse:
        binding = self._rowset_binding(request.abstract_name)
        binding.require_readable()
        resource: SQLRowsetResource = binding.resource
        window = resource.get_tuples(request.start_position, request.count)
        return msg.GetTuplesResponse(
            dataset_format_uri=resource.data_format_uri,
            dataset=stream_rowset(resource.data_format_uri, window),
            total_rows=resource.row_count,
        )
