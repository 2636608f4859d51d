"""Consumer proxies for the WS-DAIR port types.

:class:`SQLClient` adds the relational operations to
:class:`~repro.client.core.CoreClient`; calls can target either a plain
service address + abstract name, or a data resource address (EPR) as
returned by the factories — matching the two addressing styles of the
paper (§3).
"""

from __future__ import annotations

from typing import Optional

from repro.client.core import CoreClient
from repro.core.namespaces import WSDAI_NS
from repro.core.properties import CONFIGURABLE_ELEMENTS, configurable_element
from repro.dair import messages as msg
from repro.dair.datasets import Rowset, parse_rowset
from repro.relational import SqlCommunicationArea
from repro.soap.addressing import EndpointReference
from repro.xmlutil import E, QName, XmlElement


def configuration_document(**overrides) -> XmlElement:
    """Build a WS-DAI ConfigurationDocument from keyword overrides.

    Accepted keys mirror the configurable properties:
    ``description``, ``readable``, ``writeable``,
    ``transaction_initiation``, ``transaction_isolation``,
    ``sensitivity`` (enum values or their strings).
    """
    document = E(QName(WSDAI_NS, "ConfigurationDocument"))
    for key, value in overrides.items():
        try:
            name = _KEYWORDS[key]
        except KeyError:
            raise ValueError(f"unknown configurable property {key!r}") from None
        document.append(configurable_element(name, value))
    return document


#: Keyword → configurable property: the field names, the description's
#: without its ``data_resource_`` prefix.
_KEYWORDS = {
    name.removeprefix("data_resource_"): name for name in CONFIGURABLE_ELEMENTS
}


def rowset_of(response) -> Rowset:
    """The dataset a reply carries, decoded; none is an empty rowset."""
    if response.dataset is None:
        return Rowset([], [], [])
    return parse_rowset(response.dataset_format_uri, response.dataset)


class SQLClient(CoreClient):
    """WS-DAIR consumer: SQLAccess / SQLFactory / ResponseAccess /
    ResponseFactory / RowsetAccess."""

    # -- SQLAccess ----------------------------------------------------------

    def sql_execute(
        self,
        address: str,
        abstract_name: str,
        expression: str,
        parameters: list[str] | None = None,
        dataset_format_uri: str | None = None,
        transaction_context: str | None = None,
    ) -> msg.SQLExecuteResponse:
        request = msg.SQLExecuteRequest(
            abstract_name=abstract_name,
            expression=expression,
            parameters=[str(p) for p in (parameters or [])],
            dataset_format_uri=dataset_format_uri,
            transaction_context=transaction_context,
        )
        return self.call(address, request)

    # -- consumer-controlled transactions ------------------------------------

    def begin_transaction(
        self, address: str, abstract_name: str, isolation: str | None = None
    ) -> str:
        """Open a consumer transaction context; returns its id."""
        request = msg.BeginTransactionRequest(
            abstract_name=abstract_name, isolation=isolation
        )
        return self.call(address, request).transaction_context

    def commit_transaction(
        self, address: str, abstract_name: str, transaction_context: str
    ) -> str:
        request = msg.CommitTransactionRequest(
            abstract_name=abstract_name,
            transaction_context=transaction_context,
        )
        return self.call(address, request).outcome

    def rollback_transaction(
        self, address: str, abstract_name: str, transaction_context: str
    ) -> str:
        request = msg.RollbackTransactionRequest(
            abstract_name=abstract_name,
            transaction_context=transaction_context,
        )
        return self.call(address, request).outcome

    def sql_query_rowset(
        self,
        address: str,
        abstract_name: str,
        expression: str,
        parameters: list[str] | None = None,
        dataset_format_uri: str | None = None,
    ) -> Rowset:
        """SQLExecute + decode the dataset into a :class:`Rowset`."""
        return rowset_of(
            self.sql_execute(
                address, abstract_name, expression, parameters, dataset_format_uri
            )
        )

    def get_sql_property_document(
        self, address: str, abstract_name: str
    ) -> XmlElement:
        request = msg.GetSQLPropertyDocumentRequest(abstract_name=abstract_name)
        return self._property_document(address, request)

    # -- SQLFactory ----------------------------------------------------------

    def sql_execute_factory(
        self,
        address: str,
        abstract_name: str,
        expression: str,
        parameters: list[str] | None = None,
        port_type_qname: QName | None = None,
        configuration: XmlElement | None = None,
        execution_mode: str = "",
    ) -> msg.SQLExecuteFactoryResponse:
        """``execution_mode=MODE_ASYNCHRONOUS`` asks the factory to queue
        the execution: the response then carries ``job_id`` instead of
        the derived resource's address (poll with ``wait_for_job``)."""
        request = msg.SQLExecuteFactoryRequest(
            abstract_name=abstract_name,
            expression=expression,
            parameters=[str(p) for p in (parameters or [])],
            port_type_qname=port_type_qname,
            configuration_document=configuration,
            execution_mode=execution_mode,
        )
        return self.call(address, request)

    # -- ResponseAccess (EPR-addressed) ---------------------------------------

    def get_sql_rowset(
        self,
        epr: EndpointReference,
        abstract_name: str,
        dataset_format_uri: str | None = None,
    ) -> Rowset:
        request = msg.GetSQLRowsetRequest(
            abstract_name=abstract_name, dataset_format_uri=dataset_format_uri
        )
        return rowset_of(self.call(epr, request))

    def get_sql_update_count(
        self, epr: EndpointReference, abstract_name: str
    ) -> int:
        request = msg.GetSQLUpdateCountRequest(abstract_name=abstract_name)
        return self.call(epr, request).update_count

    def get_sql_communication_area(
        self, epr: EndpointReference, abstract_name: str
    ) -> SqlCommunicationArea:
        request = msg.GetSQLCommunicationAreaRequest(abstract_name=abstract_name)
        return self.call(epr, request).communication

    def get_sql_return_value(
        self, epr: EndpointReference, abstract_name: str
    ) -> Optional[str]:
        request = msg.GetSQLReturnValueRequest(abstract_name=abstract_name)
        return self.call(epr, request).value

    def get_sql_output_parameter(
        self, epr: EndpointReference, abstract_name: str, parameter_name: str
    ) -> Optional[str]:
        request = msg.GetSQLOutputParameterRequest(
            abstract_name=abstract_name, parameter_name=parameter_name
        )
        return self.call(epr, request).value

    def get_sql_response_items(
        self, epr: EndpointReference, abstract_name: str
    ) -> list[str]:
        request = msg.GetSQLResponseItemRequest(abstract_name=abstract_name)
        return self.call(epr, request).items

    def get_sql_response_property_document(
        self, epr: EndpointReference, abstract_name: str
    ) -> XmlElement:
        request = msg.GetSQLResponsePropertyDocumentRequest(
            abstract_name=abstract_name
        )
        return self._property_document(epr, request)

    # -- ResponseFactory -------------------------------------------------------

    def sql_rowset_factory(
        self,
        epr: EndpointReference,
        abstract_name: str,
        dataset_format_uri: str | None = None,
        port_type_qname: QName | None = None,
        configuration: XmlElement | None = None,
    ) -> msg.SQLRowsetFactoryResponse:
        request = msg.SQLRowsetFactoryRequest(
            abstract_name=abstract_name,
            dataset_format_uri=dataset_format_uri,
            port_type_qname=port_type_qname,
            configuration_document=configuration,
        )
        return self.call(epr, request)

    # -- RowsetAccess ------------------------------------------------------------

    def get_tuples(
        self,
        epr: EndpointReference,
        abstract_name: str,
        start_position: int,
        count: int | None = None,
    ) -> tuple[Rowset, int]:
        """Returns (window, total rows in the rowset resource).

        ``count=None`` omits the ``Count`` element on the wire, which
        per the spec means the rest of the rowset; an explicit ``0``
        requests an empty window (useful to learn ``total_rows``)."""
        request = msg.GetTuplesRequest(
            abstract_name=abstract_name,
            start_position=start_position,
            count=count,
        )
        response = self.call(epr, request)
        return rowset_of(response), response.total_rows

    def get_rowset_property_document(
        self, epr: EndpointReference, abstract_name: str
    ) -> XmlElement:
        request = msg.GetRowsetPropertyDocumentRequest(abstract_name=abstract_name)
        return self._property_document(epr, request)

    def rowset_reader(
        self,
        epr: EndpointReference,
        abstract_name: str,
        page_size: int = 100,
    ) -> "RowsetReader":
        """A lazy iterator over a RowsetAccess resource — see
        :class:`RowsetReader`."""
        return RowsetReader(self, epr, abstract_name, page_size=page_size)


class RowsetReader:
    """Consumer-side lazy iteration over a RowsetAccess resource.

    Iterating pages ``GetTuples`` windows of ``page_size`` rows on
    demand, so an arbitrarily large rowset resource is consumed in
    O(page) client memory — the consumer half of the paper's Figure 5
    indirect-access pattern.  Column names and SQL types are populated
    from the first fetched window, and :attr:`total_rows` holds the
    service-reported rowset size once a page has been fetched.

    Each ``__iter__`` call starts an independent pass from row 0 (the
    rowset resource itself is stable), so a reader can be re-iterated.
    """

    def __init__(
        self,
        client: SQLClient,
        epr: EndpointReference,
        abstract_name: str,
        page_size: int = 100,
    ) -> None:
        if page_size < 1:
            raise ValueError("page_size must be >= 1")
        self._client = client
        self._epr = epr
        self._abstract_name = abstract_name
        self.page_size = page_size
        #: Column names, known after the first page.
        self.columns: list[str] = []
        #: SQL type names per column, known after the first page.
        self.types: list[str] = []
        #: Service-reported rowset size; None until a page was fetched.
        self.total_rows: int | None = None
        #: GetTuples round trips performed across all passes.
        self.pages_fetched = 0

    def __iter__(self):
        position = 0
        while True:
            window, total = self._client.get_tuples(
                self._epr, self._abstract_name, position, self.page_size
            )
            self.pages_fetched += 1
            self.total_rows = total
            if position == 0:
                self.columns = list(window.columns)
                self.types = list(window.types)
            yield from window.rows
            position += len(window.rows)
            if position >= total or not window.rows:
                return

    def read_all(self) -> Rowset:
        """Drain the resource into a materialized :class:`Rowset` —
        for consumers that need random access after all."""
        rows = list(self)
        return Rowset(list(self.columns), list(self.types), rows)
