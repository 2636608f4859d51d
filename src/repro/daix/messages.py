"""WS-DAIX message payloads.

Same construction as :mod:`repro.dair.messages`: each message extends
the core templates, carries the mandatory abstract name first, and
declares the rest of its body as ``WIRE``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Optional

from repro.core.codec import (
    BOOL,
    INT,
    TRUTHY,
    Attribute,
    Element,
    Elements,
    OwnText,
    Records,
    Repeated,
    Scalar,
)
from repro.core.messages import (
    DaisMessage,
    DaisRequest,
    FactoryRequest,
    FactoryResponse,
)
from repro.daix.namespaces import WSDAIX_NS
from repro.xmldb.xupdate import XUPDATE_NS
from repro.xmlutil import QName, XmlElement


def _q(local: str) -> QName:
    return QName(WSDAIX_NS, local)


_COLLECTION_NAME = _q("CollectionName")
#: Optional single-document scope of a query, update or factory.
_DOCUMENT_SCOPE = Scalar("document_name", _q("DocumentName"), emit=TRUTHY)
_RECORD_NAME = Attribute("name", "name", default="")
_DOCUMENTS = Records("documents", _q("Document"), (_RECORD_NAME, Element("content")))
_DOCUMENT_NAMES = Repeated("names", _q("DocumentName"))
_ITEMS = Elements("items", tag=_q("Item"))


# ---------------------------------------------------------------------------
# XMLCollectionAccess
# ---------------------------------------------------------------------------


@dataclass
class AddDocumentsRequest(DaisRequest):
    TAG: ClassVar[QName] = _q("AddDocumentsRequest")

    #: (document name, root element) pairs.
    documents: list[tuple[str, XmlElement]] = field(default_factory=list)
    replace: bool = False

    WIRE = (Attribute("replace", "replace", BOOL), _DOCUMENTS)


@dataclass
class AddDocumentsResponse(DaisMessage):
    TAG: ClassVar[QName] = _q("AddDocumentsResponse")

    #: (document name, status) — status is "Added" or an error token.
    results: list[tuple[str, str]] = field(default_factory=list)

    WIRE = (Records("results", _q("Result"), (_RECORD_NAME, OwnText("status"))),)


@dataclass
class _NamesRequest(DaisRequest):
    """Shared shape: abstract name + list of document names."""

    names: list[str] = field(default_factory=list)

    WIRE = (_DOCUMENT_NAMES,)


@dataclass
class GetDocumentsRequest(_NamesRequest):
    TAG: ClassVar[QName] = _q("GetDocumentsRequest")


@dataclass
class GetDocumentsResponse(DaisMessage):
    TAG: ClassVar[QName] = _q("GetDocumentsResponse")

    documents: list[tuple[str, XmlElement]] = field(default_factory=list)

    WIRE = (_DOCUMENTS,)


@dataclass
class RemoveDocumentsRequest(_NamesRequest):
    TAG: ClassVar[QName] = _q("RemoveDocumentsRequest")


@dataclass
class RemoveDocumentsResponse(DaisMessage):
    TAG: ClassVar[QName] = _q("RemoveDocumentsResponse")

    removed: int = 0

    WIRE = (Scalar("removed", _q("Removed"), INT),)


@dataclass
class ListDocumentsRequest(DaisRequest):
    TAG: ClassVar[QName] = _q("ListDocumentsRequest")


@dataclass
class ListDocumentsResponse(DaisMessage):
    TAG: ClassVar[QName] = _q("ListDocumentsResponse")

    names: list[str] = field(default_factory=list)
    subcollections: list[str] = field(default_factory=list)

    WIRE = (
        _DOCUMENT_NAMES,
        Repeated("subcollections", _q("SubcollectionName")),
    )


@dataclass
class CreateSubcollectionRequest(DaisRequest):
    TAG: ClassVar[QName] = _q("CreateSubcollectionRequest")

    collection_name: str = ""

    WIRE = (Scalar("collection_name", _COLLECTION_NAME),)


@dataclass
class CreateSubcollectionResponse(FactoryResponse):
    """The new subcollection is itself a data resource → factory shape."""

    TAG: ClassVar[QName] = _q("CreateSubcollectionResponse")


@dataclass
class RemoveSubcollectionRequest(CreateSubcollectionRequest):
    TAG: ClassVar[QName] = _q("RemoveSubcollectionRequest")


@dataclass
class RemoveSubcollectionResponse(DaisMessage):
    TAG: ClassVar[QName] = _q("RemoveSubcollectionResponse")

    removed: str = ""

    WIRE = (Scalar("removed", _COLLECTION_NAME),)


@dataclass
class GetCollectionPropertyDocumentRequest(ListDocumentsRequest):
    TAG: ClassVar[QName] = _q("GetCollectionPropertyDocumentRequest")


@dataclass
class GetCollectionPropertyDocumentResponse(DaisMessage):
    TAG: ClassVar[QName] = _q("GetCollectionPropertyDocumentResponse")

    document: Optional[XmlElement] = None

    WIRE = (Element("document", copy=False),)


# ---------------------------------------------------------------------------
# XPath / XQuery / XUpdate access
# ---------------------------------------------------------------------------


@dataclass
class _ExpressionRequest(DaisRequest):
    """Shared shape: optional single-document scope + the expression,
    which each language carries under its own tag."""

    expression: str = ""
    document_name: Optional[str] = None


@dataclass
class XPathExecuteRequest(_ExpressionRequest):
    TAG: ClassVar[QName] = _q("XPathExecuteRequest")

    WIRE = (_DOCUMENT_SCOPE, Scalar("expression", _q("XPathExpression")))


@dataclass
class XQueryExecuteRequest(_ExpressionRequest):
    TAG: ClassVar[QName] = _q("XQueryExecuteRequest")

    WIRE = (_DOCUMENT_SCOPE, Scalar("expression", _q("XQueryExpression")))


@dataclass
class ItemSequenceResponse(DaisMessage):
    """Shared response shape: a sequence of result items."""

    items: list[XmlElement] = field(default_factory=list)

    WIRE = (_ITEMS,)


@dataclass
class XPathExecuteResponse(ItemSequenceResponse):
    TAG: ClassVar[QName] = _q("XPathExecuteResponse")


@dataclass
class XQueryExecuteResponse(ItemSequenceResponse):
    TAG: ClassVar[QName] = _q("XQueryExecuteResponse")


@dataclass
class XUpdateExecuteRequest(DaisRequest):
    TAG: ClassVar[QName] = _q("XUpdateExecuteRequest")

    modifications: Optional[XmlElement] = None
    document_name: Optional[str] = None

    WIRE = (
        _DOCUMENT_SCOPE,
        Element("modifications", tag=QName(XUPDATE_NS, "modifications")),
    )


@dataclass
class XUpdateExecuteResponse(DaisMessage):
    TAG: ClassVar[QName] = _q("XUpdateExecuteResponse")

    modified: int = 0

    WIRE = (Scalar("modified", _q("Modified"), INT),)


# ---------------------------------------------------------------------------
# Factories + SequenceAccess
# ---------------------------------------------------------------------------


@dataclass
class XPathExecuteFactoryRequest(FactoryRequest):
    TAG: ClassVar[QName] = _q("XPathExecuteFactoryRequest")

    document_name: Optional[str] = None

    WIRE = FactoryRequest.WIRE + (_DOCUMENT_SCOPE,)


@dataclass
class XQueryExecuteFactoryRequest(XPathExecuteFactoryRequest):
    TAG: ClassVar[QName] = _q("XQueryExecuteFactoryRequest")


@dataclass
class XPathExecuteFactoryResponse(FactoryResponse):
    TAG: ClassVar[QName] = _q("XPathExecuteFactoryResponse")


@dataclass
class XQueryExecuteFactoryResponse(FactoryResponse):
    TAG: ClassVar[QName] = _q("XQueryExecuteFactoryResponse")


@dataclass
class GetItemsRequest(DaisRequest):
    TAG: ClassVar[QName] = _q("GetItemsRequest")

    start_position: int = 0
    count: int = 0

    WIRE = (
        Scalar("start_position", _q("StartPosition"), INT),
        Scalar("count", _q("Count"), INT),
    )


@dataclass
class GetItemsResponse(DaisMessage):
    TAG: ClassVar[QName] = _q("GetItemsResponse")

    items: list[XmlElement] = field(default_factory=list)
    total_items: int = 0

    WIRE = (Scalar("total_items", _q("TotalItems"), INT), _ITEMS)
