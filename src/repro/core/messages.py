"""WS-DAI message payloads (Figures 2 and 3, core column).

Every request carries the mandatory ``DataResourceAbstractName`` as its
first body child (paper §3: the abstract name is always in the body so
the framework is identical with and without WSRF).  Each message class
knows its body tag and its ``wsa:Action`` URI; realisations subclass the
request/response templates and extend them — exactly how WS-DAIR/WS-DAIX
extend the core message patterns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Optional

from repro.core.names import AbstractName
from repro.core.namespaces import WSDAI_NS, action_uri
from repro.soap.addressing import EndpointReference
from repro.xmlutil import E, QName, XmlElement

_DRAN = QName(WSDAI_NS, "DataResourceAbstractName")

# Asynchronous-execution extension elements (repro.jobs).  Declared here
# by QName only — serialized solely when a consumer opts in, so the
# synchronous wire format is byte-identical to the pre-jobs one.
_EXECUTION_MODE = QName(
    "http://www.ggf.org/namespaces/2005/05/WS-DAI-Jobs", "ExecutionMode"
)
_JOB_ID = QName("http://www.ggf.org/namespaces/2005/05/WS-DAI-Jobs", "JobID")


def _q(local: str) -> QName:
    return QName(WSDAI_NS, local)


@dataclass
class DaisMessage:
    """Base for all DAIS payloads: tag + action + XML (de)serialization."""

    TAG: ClassVar[QName]

    @classmethod
    def action(cls) -> str:
        return action_uri(cls.TAG.local, cls.TAG.namespace)

    def to_xml(self) -> XmlElement:
        raise NotImplementedError

    @classmethod
    def from_xml(cls, element: XmlElement) -> "DaisMessage":
        raise NotImplementedError


@dataclass
class DaisRequest(DaisMessage):
    """A request targeting one data resource through a data service."""

    abstract_name: str

    def _root(self) -> XmlElement:
        return E(self.TAG, E(_DRAN, self.abstract_name))

    @staticmethod
    def _read_name(element: XmlElement) -> AbstractName:
        text = element.findtext(_DRAN)
        if text is None:
            from repro.core.faults import InvalidResourceNameFault

            raise InvalidResourceNameFault(
                f"{element.tag.clark()} is missing the mandatory "
                "DataResourceAbstractName body element"
            )
        return AbstractName(text)


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

    def to_xml(self) -> XmlElement:
        root = self._root()
        if self.dataset_format_uri:
            root.append(E(_q("DatasetFormatURI"), self.dataset_format_uri))
        expression = E(_q("GenericExpression"), E(_q("Expression"), self.expression))
        expression.set("language", self.language_uri)
        root.append(expression)
        for parameter in self.parameters:
            root.append(E(_q("Parameter"), parameter))
        return root

    @classmethod
    def from_xml(cls, element: XmlElement) -> "GenericQueryRequest":
        abstract_name = cls._read_name(element)  # mandatory, checked first
        expression_el = element.find(_q("GenericExpression"))
        if expression_el is None:
            from repro.core.faults import InvalidExpressionFault

            raise InvalidExpressionFault("missing GenericExpression element")
        return cls(
            abstract_name=abstract_name,
            language_uri=expression_el.get("language", "") or "",
            expression=expression_el.findtext(_q("Expression"), "") or "",
            parameters=[p.text for p in element.findall(_q("Parameter"))],
            dataset_format_uri=element.findtext(_q("DatasetFormatURI")),
        )


@dataclass
class GenericQueryResponse(DaisMessage):
    TAG: ClassVar[QName] = _q("GenericQueryResponse")

    dataset_format_uri: str = ""
    data: list[XmlElement] = field(default_factory=list)

    def to_xml(self) -> XmlElement:
        root = E(self.TAG, E(_q("DatasetFormatURI"), self.dataset_format_uri))
        # Data items are shared, not copied: serializers never mutate, and
        # copying every row subtree per render dominates large responses.
        root.append(E(_q("DatasetData"), self.data))
        return root

    @classmethod
    def from_xml(cls, element: XmlElement) -> "GenericQueryResponse":
        dataset = element.find(_q("DatasetData"))
        return cls(
            dataset_format_uri=element.findtext(_q("DatasetFormatURI"), "") or "",
            data=[c.copy() for c in (dataset.element_children() if dataset else [])],
        )


@dataclass
class DestroyDataResourceRequest(DaisRequest):
    TAG: ClassVar[QName] = _q("DestroyDataResourceRequest")

    def to_xml(self) -> XmlElement:
        return self._root()

    @classmethod
    def from_xml(cls, element: XmlElement) -> "DestroyDataResourceRequest":
        return cls(abstract_name=cls._read_name(element))


@dataclass
class DestroyDataResourceResponse(DaisMessage):
    TAG: ClassVar[QName] = _q("DestroyDataResourceResponse")

    destroyed: str = ""

    def to_xml(self) -> XmlElement:
        return E(self.TAG, E(_DRAN, self.destroyed))

    @classmethod
    def from_xml(cls, element: XmlElement) -> "DestroyDataResourceResponse":
        return cls(destroyed=element.findtext(_DRAN, "") or "")


@dataclass
class GetDataResourcePropertyDocumentRequest(DaisRequest):
    TAG: ClassVar[QName] = _q("GetDataResourcePropertyDocumentRequest")

    def to_xml(self) -> XmlElement:
        return self._root()

    @classmethod
    def from_xml(cls, element: XmlElement):
        return cls(abstract_name=cls._read_name(element))


@dataclass
class GetDataResourcePropertyDocumentResponse(DaisMessage):
    TAG: ClassVar[QName] = _q("GetDataResourcePropertyDocumentResponse")

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
# CoreResourceList (optional interface)
# ---------------------------------------------------------------------------


@dataclass
class GetResourceListRequest(DaisMessage):
    TAG: ClassVar[QName] = _q("GetResourceListRequest")

    def to_xml(self) -> XmlElement:
        return E(self.TAG)

    @classmethod
    def from_xml(cls, element: XmlElement):
        return cls()


@dataclass
class GetResourceListResponse(DaisMessage):
    TAG: ClassVar[QName] = _q("GetResourceListResponse")

    names: list[str] = field(default_factory=list)

    def to_xml(self) -> XmlElement:
        return E(self.TAG, [E(_DRAN, name) for name in self.names])

    @classmethod
    def from_xml(cls, element: XmlElement):
        return cls(names=[c.text for c in element.findall(_DRAN)])


@dataclass
class ResolveRequest(DaisRequest):
    TAG: ClassVar[QName] = _q("ResolveRequest")

    def to_xml(self) -> XmlElement:
        return self._root()

    @classmethod
    def from_xml(cls, element: XmlElement):
        return cls(abstract_name=cls._read_name(element))


@dataclass
class ResolveResponse(DaisMessage):
    TAG: ClassVar[QName] = _q("ResolveResponse")

    address: Optional[EndpointReference] = None

    def to_xml(self) -> XmlElement:
        root = E(self.TAG)
        if self.address is not None:
            root.append(self.address.to_xml(_q("DataResourceAddress")))
        return root

    @classmethod
    def from_xml(cls, element: XmlElement):
        address_el = element.find(_q("DataResourceAddress"))
        return cls(
            address=EndpointReference.from_xml(address_el)
            if address_el is not None
            else None
        )


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

    def to_xml(self) -> XmlElement:
        root = self._root()
        if self.execution_mode:
            root.append(E(_EXECUTION_MODE, self.execution_mode))
        if self.port_type_qname is not None:
            root.append(E(_q("PortTypeQName"), self.port_type_qname.clark()))
        if self.configuration_document is not None:
            wrapper = E(_q("ConfigurationDocument"))
            wrapper.append(self.configuration_document.copy())
            root.append(wrapper)
        expression = E(_q("GenericExpression"), E(_q("Expression"), self.expression))
        if self.language_uri:
            expression.set("language", self.language_uri)
        root.append(expression)
        for parameter in self.parameters:
            root.append(E(_q("Parameter"), parameter))
        return root

    @classmethod
    def from_xml(cls, element: XmlElement):
        expression_el = element.find(_q("GenericExpression"))
        port_type_text = element.findtext(_q("PortTypeQName"))
        config_wrapper = element.find(_q("ConfigurationDocument"))
        config = None
        if config_wrapper is not None:
            children = config_wrapper.element_children()
            config = children[0].copy() if children else None
        return cls(
            abstract_name=cls._read_name(element),
            port_type_qname=QName.parse(port_type_text.strip())
            if port_type_text
            else None,
            configuration_document=config,
            expression=(
                expression_el.findtext(_q("Expression"), "") if expression_el else ""
            )
            or "",
            language_uri=(
                (expression_el.get("language", "") or "") if expression_el else ""
            ),
            parameters=[p.text for p in element.findall(_q("Parameter"))],
            execution_mode=element.findtext(_EXECUTION_MODE, "") or "",
        )


@dataclass
class FactoryResponse(DaisMessage):
    """The EPR of the derived data resource (Figure 3)."""

    address: Optional[EndpointReference] = None
    abstract_name: str = ""
    #: Set instead of address/abstract_name when the factory accepted
    #: the request asynchronously: poll GetJobStatus with this id.
    job_id: str = ""

    def to_xml(self) -> XmlElement:
        root = E(self.TAG)
        if self.address is not None:
            root.append(self.address.to_xml(_q("DataResourceAddress")))
        root.append(E(_DRAN, self.abstract_name))
        if self.job_id:
            root.append(E(_JOB_ID, self.job_id))
        return root

    @classmethod
    def from_xml(cls, element: XmlElement):
        address_el = element.find(_q("DataResourceAddress"))
        return cls(
            address=EndpointReference.from_xml(address_el)
            if address_el is not None
            else None,
            abstract_name=element.findtext(_DRAN, "") or "",
            job_id=element.findtext(_JOB_ID, "") or "",
        )
