"""WS-DAI message payloads (Figures 2 and 3, core column).

Every request carries the mandatory ``DataResourceAbstractName`` as its
first body child (paper §3: the abstract name is always in the body so
the framework is identical with and without WSRF).  Each message class
knows its body tag and its ``wsa:Action`` URI and declares its body as
``WIRE``, a tuple of :mod:`repro.core.codec` fields in wire order;
realisations subclass the request/response templates and extend them
with ``WIRE = Base.WIRE + (...)`` — exactly how WS-DAIR/WS-DAIX extend
the core message patterns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Optional

from repro.core.codec import (
    NOT_NONE,
    QNAME,
    STR,
    TRUTHY,
    Address,
    Attribute,
    Element,
    Elements,
    Field,
    Group,
    Repeated,
    Scalar,
    decode_fields,
    encode_fields,
    text_element,
)
from repro.core.faults import InvalidExpressionFault, InvalidResourceNameFault
from repro.core.names import AbstractName
from repro.core.namespaces import WSDAI_NS, action_uri
from repro.soap.addressing import EndpointReference
from repro.xmlutil import QName, XmlElement


def _q(local: str) -> QName:
    return QName(WSDAI_NS, local)


_DRAN = _q("DataResourceAbstractName")
_ADDRESS = _q("DataResourceAddress")
_EXPRESSION = Scalar("expression", _q("Expression"))
_PARAMETERS = Repeated("parameters", _q("Parameter"))
#: Absent when the consumer leaves the format to the service.
REQUESTED_FORMAT = Scalar("dataset_format_uri", _q("DatasetFormatURI"), emit=TRUTHY)
#: The format a response's dataset is actually in.
DATASET_FORMAT = Scalar("dataset_format_uri", _q("DatasetFormatURI"))

# Asynchronous-execution extension elements (repro.jobs).  Declared here
# by QName only — serialized solely when a consumer opts in, so the
# synchronous wire format is byte-identical to the pre-jobs one.
_JOBS_NS = "http://www.ggf.org/namespaces/2005/05/WS-DAI-Jobs"


@dataclass
class DaisMessage:
    """Base for all DAIS payloads: tag + action + XML (de)serialization."""

    TAG: ClassVar[QName]
    #: The body, field by field, in wire order.
    WIRE: ClassVar[tuple[Field, ...]] = ()
    #: Dataclass fields that deliberately never travel.
    NON_WIRE: ClassVar[frozenset[str]] = frozenset()

    @classmethod
    def action(cls) -> str:
        return action_uri(cls.TAG.local, cls.TAG.namespace)

    def to_xml(self) -> XmlElement:
        return encode_fields(self.WIRE, XmlElement(self.TAG), self)

    def has_lazy_content(self) -> bool:
        """Whether :meth:`to_xml` leaves content still to be produced.
        Only an embedded element can be (a dataset whose rows have not
        been pulled), so those fields are asked and no tree is walked."""
        for part in self.WIRE:
            if isinstance(part, Elements):
                value = getattr(self, part.name)
                for element in value if isinstance(value, list) else (value,):
                    if getattr(element, "lazy", False):
                        return True
        return False

    @classmethod
    def from_xml(cls, element: XmlElement) -> "DaisMessage":
        return cls(**decode_fields(cls.WIRE, element))


@dataclass
class DaisRequest(DaisMessage):
    """A request targeting one data resource through a data service."""

    abstract_name: str

    def to_xml(self) -> XmlElement:
        name = text_element(_DRAN, STR.to_text(self.abstract_name))
        return encode_fields(self.WIRE, XmlElement(self.TAG, {}, [name]), self)

    @classmethod
    def from_xml(cls, element: XmlElement) -> "DaisRequest":
        text = element.findtext(_DRAN)
        if text is None:  # mandatory, checked before anything else is read
            raise InvalidResourceNameFault(
                f"{element.tag.clark()} is missing the mandatory "
                "DataResourceAbstractName body element"
            )
        return cls(
            abstract_name=AbstractName(text), **decode_fields(cls.WIRE, element)
        )


# ---------------------------------------------------------------------------
# CoreDataAccess
# ---------------------------------------------------------------------------


@dataclass
class GenericQueryRequest(DaisRequest):
    """GenericQuery: language-tagged expression (Figure 6, core)."""

    TAG: ClassVar[QName] = _q("GenericQueryRequest")

    language_uri: str = ""
    expression: str = ""
    parameters: list[str] = field(default_factory=list)
    dataset_format_uri: Optional[str] = None

    WIRE = (
        REQUESTED_FORMAT,
        Group(
            _q("GenericExpression"),
            (Attribute("language_uri", "language"), _EXPRESSION),
            missing=InvalidExpressionFault,
        ),
        _PARAMETERS,
    )


@dataclass
class GenericQueryResponse(DaisMessage):
    TAG: ClassVar[QName] = _q("GenericQueryResponse")

    dataset_format_uri: str = ""
    data: list[XmlElement] = field(default_factory=list)

    WIRE = (DATASET_FORMAT, Elements("data", wrapper=_q("DatasetData"), copy=False))


@dataclass
class DestroyDataResourceRequest(DaisRequest):
    TAG: ClassVar[QName] = _q("DestroyDataResourceRequest")


@dataclass
class DestroyDataResourceResponse(DaisMessage):
    TAG: ClassVar[QName] = _q("DestroyDataResourceResponse")

    destroyed: str = ""

    WIRE = (Scalar("destroyed", _DRAN),)


@dataclass
class GetDataResourcePropertyDocumentRequest(DaisRequest):
    TAG: ClassVar[QName] = _q("GetDataResourcePropertyDocumentRequest")


@dataclass
class GetDataResourcePropertyDocumentResponse(DaisMessage):
    TAG: ClassVar[QName] = _q("GetDataResourcePropertyDocumentResponse")

    document: Optional[XmlElement] = None

    WIRE = (Element("document", copy=False),)


# ---------------------------------------------------------------------------
# CoreResourceList (optional interface)
# ---------------------------------------------------------------------------


@dataclass
class GetResourceListRequest(DaisMessage):
    TAG: ClassVar[QName] = _q("GetResourceListRequest")


@dataclass
class GetResourceListResponse(DaisMessage):
    TAG: ClassVar[QName] = _q("GetResourceListResponse")

    names: list[str] = field(default_factory=list)

    WIRE = (Repeated("names", _DRAN),)


@dataclass
class ResolveRequest(DaisRequest):
    TAG: ClassVar[QName] = _q("ResolveRequest")


@dataclass
class ResolveResponse(DaisMessage):
    TAG: ClassVar[QName] = _q("ResolveResponse")

    address: Optional[EndpointReference] = None

    WIRE = (Address("address", _ADDRESS),)


# ---------------------------------------------------------------------------
# Factory template (Figure 3, core column)
# ---------------------------------------------------------------------------


@dataclass
class FactoryRequest(DaisRequest):
    """The indirect-access template: expression + requested port type +
    configuration document (all per Figure 3)."""

    port_type_qname: Optional[QName] = None
    configuration_document: Optional[XmlElement] = None
    expression: str = ""
    language_uri: str = ""
    parameters: list[str] = field(default_factory=list)
    #: "" (synchronous, the default) or MODE_ASYNCHRONOUS: execute via
    #: the durable job queue and answer with a job id instead of the
    #: derived resource's EPR.
    execution_mode: str = ""

    WIRE = (
        Scalar("execution_mode", QName(_JOBS_NS, "ExecutionMode"), emit=TRUTHY),
        Scalar("port_type_qname", _q("PortTypeQName"), QNAME, emit=NOT_NONE),
        Element("configuration_document", wrapper=_q("ConfigurationDocument")),
        Group(
            _q("GenericExpression"),
            (Attribute("language_uri", "language", emit=TRUTHY), _EXPRESSION),
        ),
        _PARAMETERS,
    )


@dataclass
class FactoryResponse(DaisMessage):
    """The EPR of the derived data resource (Figure 3)."""

    address: Optional[EndpointReference] = None
    abstract_name: str = ""
    #: Set instead of address/abstract_name when the factory accepted
    #: the request asynchronously: poll GetJobStatus with this id.
    job_id: str = ""

    WIRE = (
        Address("address", _ADDRESS),
        Scalar("abstract_name", _DRAN),
        Scalar("job_id", QName(_JOBS_NS, "JobID"), emit=TRUTHY),
    )
