"""WS-DAIR message payloads (Figures 2, 3, 5 and 6 — SQL column).

These extend the core templates exactly as the specification extends the
core document: ``SQLExecuteRequest`` is the core direct-access template
plus the SQL expression; ``SQLExecuteResponse`` adds the SQL
communication area; ``SQLExecuteFactoryRequest`` is the core factory
template under the WS-DAIR tag.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, ClassVar, Optional

from repro.core.messages import (
    DaisMessage,
    DaisRequest,
    FactoryRequest,
    FactoryResponse,
)
from repro.core.namespaces import WSDAI_NS
from repro.dair.namespaces import WSDAIR_NS
from repro.relational import SqlCommunicationArea
from repro.xmlutil import E, LazyText, QName, XmlElement


def _q(local: str) -> QName:
    return QName(WSDAIR_NS, local)


def communication_area_to_xml(area: SqlCommunicationArea) -> XmlElement:
    return E(
        _q("SQLCommunicationArea"),
        E(_q("SQLCode"), area.sqlcode),
        E(_q("SQLState"), area.sqlstate),
        E(_q("SQLMessage"), area.message),
        E(_q("RowsProcessed"), area.rows_processed),
    )


def lazy_communication_area(
    factory: Callable[[], SqlCommunicationArea],
) -> XmlElement:
    """A communication area whose values resolve at serialization time.

    Document order puts the communication area *after* the dataset, so
    when the dataset is streamed the serializer reaches these values
    only once every row has been emitted — which is how RowsProcessed
    can report the true count of a result that was never materialized.
    *factory* is invoked once, at first access.
    """
    cache: list[SqlCommunicationArea] = []

    def area() -> SqlCommunicationArea:
        if not cache:
            cache.append(factory())
        return cache[0]

    root = E(_q("SQLCommunicationArea"))
    for tag, getter in (
        ("SQLCode", lambda: area().sqlcode),
        ("SQLState", lambda: area().sqlstate),
        ("SQLMessage", lambda: area().message),
        ("RowsProcessed", lambda: area().rows_processed),
    ):
        child = E(_q(tag))
        child.children.append(LazyText(lambda getter=getter: str(getter())))
        root.append(child)
    return root


def communication_area_from_xml(element: XmlElement) -> SqlCommunicationArea:
    return SqlCommunicationArea(
        sqlcode=int(element.findtext(_q("SQLCode"), "0") or "0"),
        sqlstate=element.findtext(_q("SQLState"), "") or "",
        message=element.findtext(_q("SQLMessage"), "") or "",
        rows_processed=int(element.findtext(_q("RowsProcessed"), "0") or "0"),
    )


# ---------------------------------------------------------------------------
# SQLAccess (direct pattern, Figure 2 right-hand column)
# ---------------------------------------------------------------------------


@dataclass
class SQLExecuteRequest(DaisRequest):
    TAG: ClassVar[QName] = _q("SQLExecuteRequest")

    expression: str = ""
    parameters: list[str] = field(default_factory=list)
    dataset_format_uri: Optional[str] = None
    #: Consumer-controlled transaction context id (TransactionInitiation =
    #: Consumer): the statement joins an open transaction instead of
    #: autocommitting (paper Figure 4's third initiation mode).
    transaction_context: Optional[str] = None

    def to_xml(self) -> XmlElement:
        root = self._root()
        if self.dataset_format_uri:
            root.append(
                E(QName(WSDAI_NS, "DatasetFormatURI"), self.dataset_format_uri)
            )
        if self.transaction_context:
            root.append(E(_q("TransactionContext"), self.transaction_context))
        expression = E(_q("SQLExpression"), E(_q("Expression"), self.expression))
        for parameter in self.parameters:
            expression.append(E(_q("Parameter"), parameter))
        root.append(expression)
        return root

    @classmethod
    def from_xml(cls, element: XmlElement) -> "SQLExecuteRequest":
        expression_el = element.find(_q("SQLExpression"))
        expression = ""
        parameters: list[str] = []
        if expression_el is not None:
            expression = expression_el.findtext(_q("Expression"), "") or ""
            parameters = [
                p.text for p in expression_el.findall(_q("Parameter"))
            ]
        return cls(
            abstract_name=cls._read_name(element),
            expression=expression,
            parameters=parameters,
            dataset_format_uri=element.findtext(
                QName(WSDAI_NS, "DatasetFormatURI")
            ),
            transaction_context=element.findtext(_q("TransactionContext")),
        )


@dataclass
class SQLExecuteResponse(DaisMessage):
    """Direct-access response: dataset + SQL communication area."""

    TAG: ClassVar[QName] = _q("SQLExecuteResponse")

    dataset_format_uri: str = ""
    dataset: Optional[XmlElement] = None
    update_count: int = -1
    communication: SqlCommunicationArea = field(
        default_factory=lambda: SqlCommunicationArea.success(0)
    )
    #: When set, the serialized communication area resolves from this
    #: factory instead of ``communication`` — used with a streamed
    #: dataset so RowsProcessed reflects what actually went out.
    communication_factory: Optional[Callable[[], SqlCommunicationArea]] = None

    def to_xml(self) -> XmlElement:
        root = E(
            self.TAG,
            E(QName(WSDAI_NS, "DatasetFormatURI"), self.dataset_format_uri),
        )
        if self.dataset is not None:
            # The dataset subtree is shared, not copied: serializers never
            # mutate and a 1000-row rowset deep copy would dominate the
            # response render (fig-2 message-layer share).
            root.append(E(_q("SQLDataset"), self.dataset))
        root.append(E(_q("SQLUpdateCount"), self.update_count))
        if self.communication_factory is not None:
            root.append(lazy_communication_area(self.communication_factory))
        else:
            root.append(communication_area_to_xml(self.communication))
        return root

    @classmethod
    def from_xml(cls, element: XmlElement) -> "SQLExecuteResponse":
        wrapper = element.find(_q("SQLDataset"))
        dataset = None
        if wrapper is not None:
            children = wrapper.element_children()
            if children:
                # Shared with the (single-use) request tree, not copied —
                # deep-copying a 1000-row rowset dominates client parse time.
                dataset = children[0]
        area_el = element.find(_q("SQLCommunicationArea"))
        return cls(
            dataset_format_uri=element.findtext(
                QName(WSDAI_NS, "DatasetFormatURI"), ""
            )
            or "",
            dataset=dataset,
            update_count=int(element.findtext(_q("SQLUpdateCount"), "-1") or "-1"),
            communication=communication_area_from_xml(area_el)
            if area_el is not None
            else SqlCommunicationArea.success(0),
        )


@dataclass
class GetSQLPropertyDocumentRequest(DaisRequest):
    TAG: ClassVar[QName] = _q("GetSQLPropertyDocumentRequest")

    def to_xml(self) -> XmlElement:
        return self._root()

    @classmethod
    def from_xml(cls, element: XmlElement):
        return cls(abstract_name=cls._read_name(element))


@dataclass
class GetSQLPropertyDocumentResponse(DaisMessage):
    TAG: ClassVar[QName] = _q("GetSQLPropertyDocumentResponse")

    document: Optional[XmlElement] = None

    def to_xml(self) -> XmlElement:
        root = E(self.TAG)
        if self.document is not None:
            root.append(self.document.copy())
        return root

    @classmethod
    def from_xml(cls, element: XmlElement):
        children = element.element_children()
        return cls(document=children[0].copy() if children else None)


# ---------------------------------------------------------------------------
# Consumer-controlled transactions (TransactionInitiation = Consumer)
# ---------------------------------------------------------------------------


@dataclass
class BeginTransactionRequest(DaisRequest):
    TAG: ClassVar[QName] = _q("BeginTransactionRequest")

    isolation: Optional[str] = None  # SQL isolation-level phrase

    def to_xml(self) -> XmlElement:
        root = self._root()
        if self.isolation:
            root.append(E(_q("IsolationLevel"), self.isolation))
        return root

    @classmethod
    def from_xml(cls, element: XmlElement):
        return cls(
            abstract_name=cls._read_name(element),
            isolation=element.findtext(_q("IsolationLevel")),
        )


@dataclass
class BeginTransactionResponse(DaisMessage):
    TAG: ClassVar[QName] = _q("BeginTransactionResponse")

    transaction_context: str = ""

    def to_xml(self) -> XmlElement:
        return E(self.TAG, E(_q("TransactionContext"), self.transaction_context))

    @classmethod
    def from_xml(cls, element: XmlElement):
        return cls(
            transaction_context=element.findtext(_q("TransactionContext"), "")
            or ""
        )


@dataclass
class _TransactionContextRequest(DaisRequest):
    transaction_context: str = ""

    def to_xml(self) -> XmlElement:
        root = self._root()
        root.append(E(_q("TransactionContext"), self.transaction_context))
        return root

    @classmethod
    def from_xml(cls, element: XmlElement):
        return cls(
            abstract_name=cls._read_name(element),
            transaction_context=element.findtext(_q("TransactionContext"), "")
            or "",
        )


@dataclass
class CommitTransactionRequest(_TransactionContextRequest):
    TAG: ClassVar[QName] = _q("CommitTransactionRequest")


@dataclass
class RollbackTransactionRequest(_TransactionContextRequest):
    TAG: ClassVar[QName] = _q("RollbackTransactionRequest")


@dataclass
class TransactionOutcomeResponse(DaisMessage):
    TAG: ClassVar[QName] = _q("TransactionOutcomeResponse")

    transaction_context: str = ""
    outcome: str = ""  # "Committed" | "RolledBack"

    def to_xml(self) -> XmlElement:
        return E(
            self.TAG,
            E(_q("TransactionContext"), self.transaction_context),
            E(_q("Outcome"), self.outcome),
        )

    @classmethod
    def from_xml(cls, element: XmlElement):
        return cls(
            transaction_context=element.findtext(_q("TransactionContext"), "")
            or "",
            outcome=element.findtext(_q("Outcome"), "") or "",
        )


# ---------------------------------------------------------------------------
# SQLFactory (indirect pattern, Figure 3 right-hand column)
# ---------------------------------------------------------------------------


@dataclass
class SQLExecuteFactoryRequest(FactoryRequest):
    TAG: ClassVar[QName] = _q("SQLExecuteFactoryRequest")


@dataclass
class SQLExecuteFactoryResponse(FactoryResponse):
    TAG: ClassVar[QName] = _q("SQLExecuteFactoryResponse")


# ---------------------------------------------------------------------------
# ResponseAccess (Figure 6)
# ---------------------------------------------------------------------------


@dataclass
class _ResponseAccessRequest(DaisRequest):
    """Shared shape: abstract name only."""

    def to_xml(self) -> XmlElement:
        return self._root()

    @classmethod
    def from_xml(cls, element: XmlElement):
        return cls(abstract_name=cls._read_name(element))


@dataclass
class GetSQLResponsePropertyDocumentRequest(_ResponseAccessRequest):
    TAG: ClassVar[QName] = _q("GetSQLResponsePropertyDocumentRequest")


@dataclass
class GetSQLResponsePropertyDocumentResponse(GetSQLPropertyDocumentResponse):
    TAG: ClassVar[QName] = _q("GetSQLResponsePropertyDocumentResponse")


@dataclass
class GetSQLRowsetRequest(DaisRequest):
    TAG: ClassVar[QName] = _q("GetSQLRowsetRequest")

    dataset_format_uri: Optional[str] = None

    def to_xml(self) -> XmlElement:
        root = self._root()
        if self.dataset_format_uri:
            root.append(
                E(QName(WSDAI_NS, "DatasetFormatURI"), self.dataset_format_uri)
            )
        return root

    @classmethod
    def from_xml(cls, element: XmlElement):
        return cls(
            abstract_name=cls._read_name(element),
            dataset_format_uri=element.findtext(
                QName(WSDAI_NS, "DatasetFormatURI")
            ),
        )


@dataclass
class GetSQLRowsetResponse(DaisMessage):
    TAG: ClassVar[QName] = _q("GetSQLRowsetResponse")

    dataset_format_uri: str = ""
    dataset: Optional[XmlElement] = None

    def to_xml(self) -> XmlElement:
        root = E(
            self.TAG,
            E(QName(WSDAI_NS, "DatasetFormatURI"), self.dataset_format_uri),
        )
        if self.dataset is not None:
            # Shared, not copied — see SQLExecuteResponse.to_xml.
            root.append(self.dataset)
        return root

    @classmethod
    def from_xml(cls, element: XmlElement):
        children = [
            c
            for c in element.element_children()
            if c.tag != QName(WSDAI_NS, "DatasetFormatURI")
        ]
        return cls(
            dataset_format_uri=element.findtext(
                QName(WSDAI_NS, "DatasetFormatURI"), ""
            )
            or "",
            dataset=children[0] if children else None,
        )


@dataclass
class GetSQLUpdateCountRequest(_ResponseAccessRequest):
    TAG: ClassVar[QName] = _q("GetSQLUpdateCountRequest")


@dataclass
class GetSQLUpdateCountResponse(DaisMessage):
    TAG: ClassVar[QName] = _q("GetSQLUpdateCountResponse")

    update_count: int = -1

    def to_xml(self) -> XmlElement:
        return E(self.TAG, E(_q("SQLUpdateCount"), self.update_count))

    @classmethod
    def from_xml(cls, element: XmlElement):
        return cls(
            update_count=int(element.findtext(_q("SQLUpdateCount"), "-1") or "-1")
        )


@dataclass
class GetSQLCommunicationAreaRequest(_ResponseAccessRequest):
    TAG: ClassVar[QName] = _q("GetSQLCommunicationAreaRequest")


@dataclass
class GetSQLCommunicationAreaResponse(DaisMessage):
    TAG: ClassVar[QName] = _q("GetSQLCommunicationAreaResponse")

    communication: SqlCommunicationArea = field(
        default_factory=lambda: SqlCommunicationArea.success(0)
    )

    def to_xml(self) -> XmlElement:
        return E(self.TAG, communication_area_to_xml(self.communication))

    @classmethod
    def from_xml(cls, element: XmlElement):
        area_el = element.find(_q("SQLCommunicationArea"))
        return cls(
            communication=communication_area_from_xml(area_el)
            if area_el is not None
            else SqlCommunicationArea.success(0)
        )


@dataclass
class GetSQLReturnValueRequest(_ResponseAccessRequest):
    TAG: ClassVar[QName] = _q("GetSQLReturnValueRequest")


@dataclass
class GetSQLReturnValueResponse(DaisMessage):
    TAG: ClassVar[QName] = _q("GetSQLReturnValueResponse")

    value: Optional[str] = None

    def to_xml(self) -> XmlElement:
        root = E(self.TAG)
        node = E(_q("SQLReturnValue"))
        if self.value is None:
            node.set("nil", "true")
        else:
            node.text = self.value
        root.append(node)
        return root

    @classmethod
    def from_xml(cls, element: XmlElement):
        node = element.find(_q("SQLReturnValue"))
        if node is None or node.get("nil") == "true":
            return cls(value=None)
        return cls(value=node.text)


@dataclass
class GetSQLOutputParameterRequest(_ResponseAccessRequest):
    TAG: ClassVar[QName] = _q("GetSQLOutputParameterRequest")

    parameter_name: str = ""

    def to_xml(self) -> XmlElement:
        root = self._root()
        root.append(E(_q("ParameterName"), self.parameter_name))
        return root

    @classmethod
    def from_xml(cls, element: XmlElement):
        return cls(
            abstract_name=cls._read_name(element),
            parameter_name=element.findtext(_q("ParameterName"), "") or "",
        )


@dataclass
class GetSQLOutputParameterResponse(GetSQLReturnValueResponse):
    TAG: ClassVar[QName] = _q("GetSQLOutputParameterResponse")


@dataclass
class GetSQLResponseItemRequest(_ResponseAccessRequest):
    """Introspection: which response items (rowset/update count/...) exist."""

    TAG: ClassVar[QName] = _q("GetSQLResponseItemRequest")


@dataclass
class GetSQLResponseItemResponse(DaisMessage):
    TAG: ClassVar[QName] = _q("GetSQLResponseItemResponse")

    items: list[str] = field(default_factory=list)

    def to_xml(self) -> XmlElement:
        return E(self.TAG, [E(_q("ResponseItem"), item) for item in self.items])

    @classmethod
    def from_xml(cls, element: XmlElement):
        return cls(items=[c.text for c in element.findall(_q("ResponseItem"))])


# ---------------------------------------------------------------------------
# ResponseFactory + RowsetAccess (Figures 5 and 6)
# ---------------------------------------------------------------------------


@dataclass
class SQLRowsetFactoryRequest(FactoryRequest):
    """Create a rowset resource from a response (Figure 5, step 2).

    ``expression`` is unused here; the requested dataset format URI rides
    in its place as a dedicated element.
    """

    TAG: ClassVar[QName] = _q("SQLRowsetFactoryRequest")

    dataset_format_uri: Optional[str] = None

    def to_xml(self) -> XmlElement:
        root = super().to_xml()
        if self.dataset_format_uri:
            root.append(
                E(QName(WSDAI_NS, "DatasetFormatURI"), self.dataset_format_uri)
            )
        return root

    @classmethod
    def from_xml(cls, element: XmlElement):
        base = FactoryRequest.from_xml(element)
        return cls(
            abstract_name=base.abstract_name,
            port_type_qname=base.port_type_qname,
            configuration_document=base.configuration_document,
            expression=base.expression,
            language_uri=base.language_uri,
            parameters=base.parameters,
            dataset_format_uri=element.findtext(
                QName(WSDAI_NS, "DatasetFormatURI")
            ),
        )


@dataclass
class SQLRowsetFactoryResponse(FactoryResponse):
    TAG: ClassVar[QName] = _q("SQLRowsetFactoryResponse")


@dataclass
class GetRowsetPropertyDocumentRequest(_ResponseAccessRequest):
    TAG: ClassVar[QName] = _q("GetRowsetPropertyDocumentRequest")


@dataclass
class GetRowsetPropertyDocumentResponse(GetSQLPropertyDocumentResponse):
    TAG: ClassVar[QName] = _q("GetRowsetPropertyDocumentResponse")


@dataclass
class GetTuplesRequest(DaisRequest):
    TAG: ClassVar[QName] = _q("GetTuplesRequest")

    start_position: int = 0
    #: ``None`` (Count omitted on the wire) means the rest of the rowset;
    #: an explicit 0 is an empty window.  A bare default of 0 silently
    #: turned every count-less request into an empty page.
    count: Optional[int] = None

    def to_xml(self) -> XmlElement:
        root = self._root()
        root.append(E(_q("StartPosition"), self.start_position))
        if self.count is not None:
            root.append(E(_q("Count"), self.count))
        return root

    @classmethod
    def from_xml(cls, element: XmlElement):
        count_text = element.findtext(_q("Count"))
        return cls(
            abstract_name=cls._read_name(element),
            start_position=int(element.findtext(_q("StartPosition"), "0") or "0"),
            count=None if count_text is None else int(count_text or "0"),
        )


@dataclass
class GetTuplesResponse(DaisMessage):
    TAG: ClassVar[QName] = _q("GetTuplesResponse")

    dataset_format_uri: str = ""
    dataset: Optional[XmlElement] = None
    total_rows: int = 0

    def to_xml(self) -> XmlElement:
        root = E(
            self.TAG,
            E(QName(WSDAI_NS, "DatasetFormatURI"), self.dataset_format_uri),
            E(_q("TotalRows"), self.total_rows),
        )
        if self.dataset is not None:
            # Shared, not copied — see SQLExecuteResponse.to_xml.
            root.append(self.dataset)
        return root

    @classmethod
    def from_xml(cls, element: XmlElement):
        skip = {QName(WSDAI_NS, "DatasetFormatURI"), _q("TotalRows")}
        children = [c for c in element.element_children() if c.tag not in skip]
        return cls(
            dataset_format_uri=element.findtext(
                QName(WSDAI_NS, "DatasetFormatURI"), ""
            )
            or "",
            dataset=children[0] if children else None,
            total_rows=int(element.findtext(_q("TotalRows"), "0") or "0"),
        )
