"""WS-DAIR message payloads (Figures 2, 3, 5 and 6 — SQL column).

These extend the core templates exactly as the specification extends the
core document: ``SQLExecuteRequest`` is the core direct-access template
plus the SQL expression; ``SQLExecuteResponse`` adds the SQL
communication area; ``SQLExecuteFactoryRequest`` is the core factory
template under the WS-DAIR tag.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, Optional

from repro.core.codec import (
    INT,
    NOT_NONE,
    TRUTHY,
    Element,
    Field,
    Group,
    Nillable,
    Repeated,
    Scalar,
    decode_fields,
    encode_fields,
)
from repro.core.messages import (
    DATASET_FORMAT,
    REQUESTED_FORMAT,
    DaisMessage,
    DaisRequest,
    FactoryRequest,
    FactoryResponse,
)
from repro.dair.namespaces import WSDAIR_NS
from repro.relational import SqlCommunicationArea
from repro.xmlutil import LazyText, QName, XmlElement


def _q(local: str) -> QName:
    return QName(WSDAIR_NS, local)


_TRANSACTION_CONTEXT = _q("TransactionContext")
_CONTEXT = Scalar("transaction_context", _TRANSACTION_CONTEXT)
_UPDATE_COUNT = Scalar("update_count", _q("SQLUpdateCount"), INT)
_TOTAL_ROWS = _q("TotalRows")


class _CommunicationArea(Field):
    """The SQL communication area — this realisation's own field kind.

    Written from the message's ``communication``, or — when the message
    carries a ``communication_factory`` — as text that resolves at
    serialization time.  Document order puts the communication area
    *after* the dataset, so when the dataset is streamed the serializer
    reaches these values only once every row has been emitted — which is
    how RowsProcessed can report the true count of a result that was
    never materialized.  The factory is invoked once, at first access.
    """

    name = "communication"
    tag = _q("SQLCommunicationArea")
    parts = (
        Scalar("sqlcode", _q("SQLCode"), INT, default=0),
        Scalar("sqlstate", _q("SQLState"), default=""),
        Scalar("message", _q("SQLMessage"), default=""),
        Scalar("rows_processed", _q("RowsProcessed"), INT, default=0),
    )

    def encode(self, node: XmlElement, message: Any) -> None:
        area = XmlElement(self.tag)
        factory = getattr(message, "communication_factory", None)
        if factory is None:
            encode_fields(self.parts, area, message.communication)
        else:
            resolve = functools.cache(factory)
            for part in self.parts:
                text = LazyText(
                    lambda part=part: part.kind.to_text(
                        getattr(resolve(), part.name)
                    )
                )
                area.children.append(XmlElement(part.tag, {}, [text]))
        node.children.append(area)

    def read(self, element: XmlElement) -> SqlCommunicationArea:
        area = element.find(self.tag)
        if area is None:
            return SqlCommunicationArea.success(0)
        return SqlCommunicationArea(**decode_fields(self.parts, area))


_COMMUNICATION = _CommunicationArea()


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

    WIRE = (
        REQUESTED_FORMAT,
        Scalar("transaction_context", _TRANSACTION_CONTEXT, emit=TRUTHY),
        Group(
            _q("SQLExpression"),
            (
                Scalar("expression", _q("Expression")),
                Repeated("parameters", _q("Parameter")),
            ),
        ),
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

    WIRE = (
        DATASET_FORMAT,
        Element("dataset", wrapper=_q("SQLDataset"), copy=False),
        _UPDATE_COUNT,
        _COMMUNICATION,
    )
    NON_WIRE = frozenset({"communication_factory"})


@dataclass
class GetSQLPropertyDocumentRequest(DaisRequest):
    TAG: ClassVar[QName] = _q("GetSQLPropertyDocumentRequest")


@dataclass
class GetSQLPropertyDocumentResponse(DaisMessage):
    TAG: ClassVar[QName] = _q("GetSQLPropertyDocumentResponse")

    document: Optional[XmlElement] = None

    WIRE = (Element("document", copy=False),)


# ---------------------------------------------------------------------------
# Consumer-controlled transactions (TransactionInitiation = Consumer)
# ---------------------------------------------------------------------------


@dataclass
class BeginTransactionRequest(DaisRequest):
    TAG: ClassVar[QName] = _q("BeginTransactionRequest")

    isolation: Optional[str] = None  # SQL isolation-level phrase

    WIRE = (Scalar("isolation", _q("IsolationLevel"), emit=TRUTHY),)


@dataclass
class BeginTransactionResponse(DaisMessage):
    TAG: ClassVar[QName] = _q("BeginTransactionResponse")

    transaction_context: str = ""

    WIRE = (_CONTEXT,)


@dataclass
class TransactionOutcomeResponse(DaisMessage):
    TAG: ClassVar[QName] = _q("TransactionOutcomeResponse")

    transaction_context: str = ""
    outcome: str = ""  # "Committed" | "RolledBack"

    WIRE = (_CONTEXT, Scalar("outcome", _q("Outcome")))


@dataclass
class _TransactionContextRequest(DaisRequest):
    #: Commit and rollback share one reply, outside the naming rule.
    RESPONSE = TransactionOutcomeResponse

    transaction_context: str = ""

    WIRE = (_CONTEXT,)


@dataclass
class CommitTransactionRequest(_TransactionContextRequest):
    TAG: ClassVar[QName] = _q("CommitTransactionRequest")


@dataclass
class RollbackTransactionRequest(_TransactionContextRequest):
    TAG: ClassVar[QName] = _q("RollbackTransactionRequest")


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
class GetSQLResponsePropertyDocumentRequest(DaisRequest):
    TAG: ClassVar[QName] = _q("GetSQLResponsePropertyDocumentRequest")


@dataclass
class GetSQLResponsePropertyDocumentResponse(GetSQLPropertyDocumentResponse):
    TAG: ClassVar[QName] = _q("GetSQLResponsePropertyDocumentResponse")


@dataclass
class GetSQLRowsetRequest(DaisRequest):
    TAG: ClassVar[QName] = _q("GetSQLRowsetRequest")

    dataset_format_uri: Optional[str] = None

    WIRE = (REQUESTED_FORMAT,)


@dataclass
class GetSQLRowsetResponse(DaisMessage):
    TAG: ClassVar[QName] = _q("GetSQLRowsetResponse")

    dataset_format_uri: str = ""
    dataset: Optional[XmlElement] = None

    WIRE = (
        DATASET_FORMAT,
        Element("dataset", skip=(DATASET_FORMAT.tag,), copy=False),
    )


@dataclass
class GetSQLUpdateCountRequest(DaisRequest):
    TAG: ClassVar[QName] = _q("GetSQLUpdateCountRequest")


@dataclass
class GetSQLUpdateCountResponse(DaisMessage):
    TAG: ClassVar[QName] = _q("GetSQLUpdateCountResponse")

    update_count: int = -1

    WIRE = (_UPDATE_COUNT,)


@dataclass
class GetSQLCommunicationAreaRequest(DaisRequest):
    TAG: ClassVar[QName] = _q("GetSQLCommunicationAreaRequest")


@dataclass
class GetSQLCommunicationAreaResponse(DaisMessage):
    TAG: ClassVar[QName] = _q("GetSQLCommunicationAreaResponse")

    communication: SqlCommunicationArea = field(
        default_factory=lambda: SqlCommunicationArea.success(0)
    )

    WIRE = (_COMMUNICATION,)


@dataclass
class GetSQLReturnValueRequest(DaisRequest):
    TAG: ClassVar[QName] = _q("GetSQLReturnValueRequest")


@dataclass
class GetSQLReturnValueResponse(DaisMessage):
    TAG: ClassVar[QName] = _q("GetSQLReturnValueResponse")

    value: Optional[str] = None

    WIRE = (Nillable("value", _q("SQLReturnValue")),)


@dataclass
class GetSQLOutputParameterRequest(DaisRequest):
    TAG: ClassVar[QName] = _q("GetSQLOutputParameterRequest")

    parameter_name: str = ""

    WIRE = (Scalar("parameter_name", _q("ParameterName")),)


@dataclass
class GetSQLOutputParameterResponse(GetSQLReturnValueResponse):
    TAG: ClassVar[QName] = _q("GetSQLOutputParameterResponse")


@dataclass
class GetSQLResponseItemRequest(DaisRequest):
    """Introspection: which response items (rowset/update count/...) exist."""

    TAG: ClassVar[QName] = _q("GetSQLResponseItemRequest")


@dataclass
class GetSQLResponseItemResponse(DaisMessage):
    TAG: ClassVar[QName] = _q("GetSQLResponseItemResponse")

    items: list[str] = field(default_factory=list)

    WIRE = (Repeated("items", _q("ResponseItem")),)


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

    WIRE = FactoryRequest.WIRE + (REQUESTED_FORMAT,)


@dataclass
class SQLRowsetFactoryResponse(FactoryResponse):
    TAG: ClassVar[QName] = _q("SQLRowsetFactoryResponse")


@dataclass
class GetRowsetPropertyDocumentRequest(DaisRequest):
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

    WIRE = (
        Scalar("start_position", _q("StartPosition"), INT),
        # <Count/> is an explicit (empty) window, not "the rest".
        Scalar("count", _q("Count"), INT, emit=NOT_NONE, empty=0),
    )


@dataclass
class GetTuplesResponse(DaisMessage):
    TAG: ClassVar[QName] = _q("GetTuplesResponse")

    dataset_format_uri: str = ""
    dataset: Optional[XmlElement] = None
    total_rows: int = 0

    WIRE = (
        DATASET_FORMAT,
        Scalar("total_rows", _TOTAL_ROWS, INT),
        Element("dataset", skip=(DATASET_FORMAT.tag, _TOTAL_ROWS), copy=False),
    )
