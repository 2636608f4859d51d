"""WSRF operation payloads in the DAIS framing.

Paper §5: even under WSRF, DAIS mandates the resource abstract name in
the message *body* ("... you still require the data resource abstract
name to be included in the message body even if it is only for a WSRF
implementation to ignore it").  These payloads therefore extend
:class:`~repro.core.messages.DaisRequest` and carry WSRF particulars as
additional children.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Optional

from repro.core.codec import (
    FLOAT,
    NOT_NONE,
    QNAME,
    Attribute,
    Elements,
    Group,
    Nillable,
    OwnText,
    Repeated,
    Scalar,
)
from repro.core.messages import DaisMessage, DaisRequest
from repro.wsrf.namespaces import WSRF_RL_NS, WSRF_RP_NS
from repro.xmlutil import QName, XmlElement

_RESOURCE_PROPERTY = QName(WSRF_RP_NS, "ResourceProperty")


@dataclass
class GetResourcePropertyRequest(DaisRequest):
    TAG: ClassVar[QName] = QName(WSRF_RP_NS, "GetResourceProperty")

    property_qname: Optional[QName] = None

    WIRE = (Scalar("property_qname", _RESOURCE_PROPERTY, QNAME, emit=NOT_NONE),)


@dataclass
class GetResourcePropertyResponse(DaisMessage):
    TAG: ClassVar[QName] = QName(WSRF_RP_NS, "GetResourcePropertyResponse")

    properties: list[XmlElement] = field(default_factory=list)

    WIRE = (Elements("properties"),)


@dataclass
class GetMultipleResourcePropertiesRequest(DaisRequest):
    TAG: ClassVar[QName] = QName(WSRF_RP_NS, "GetMultipleResourceProperties")

    property_qnames: list[QName] = field(default_factory=list)

    WIRE = (Repeated("property_qnames", _RESOURCE_PROPERTY, QNAME),)


@dataclass
class GetMultipleResourcePropertiesResponse(GetResourcePropertyResponse):
    TAG: ClassVar[QName] = QName(
        WSRF_RP_NS, "GetMultipleResourcePropertiesResponse"
    )


@dataclass
class QueryResourcePropertiesRequest(DaisRequest):
    TAG: ClassVar[QName] = QName(WSRF_RP_NS, "QueryResourceProperties")

    query: str = ""
    dialect: str = "http://www.w3.org/TR/1999/REC-xpath-19991116"

    WIRE = (
        Group(
            QName(WSRF_RP_NS, "QueryExpression"),
            # An absent Dialect is not the XPath default: it reads as "".
            (OwnText("query"), Attribute("dialect", "Dialect", default="")),
        ),
    )


@dataclass
class QueryResourcePropertiesResponse(GetResourcePropertyResponse):
    TAG: ClassVar[QName] = QName(WSRF_RP_NS, "QueryResourcePropertiesResponse")


@dataclass
class SetTerminationTimeRequest(DaisRequest):
    TAG: ClassVar[QName] = QName(WSRF_RL_NS, "SetTerminationTime")

    #: Absolute termination time (seconds since epoch), or None = infinite.
    requested_termination_time: Optional[float] = None

    WIRE = (
        Nillable(
            "requested_termination_time",
            QName(WSRF_RL_NS, "RequestedTerminationTime"),
            FLOAT,
        ),
    )


@dataclass
class SetTerminationTimeResponse(DaisMessage):
    TAG: ClassVar[QName] = QName(WSRF_RL_NS, "SetTerminationTimeResponse")

    new_termination_time: Optional[float] = None
    current_time: float = 0.0

    WIRE = (
        Nillable(
            "new_termination_time", QName(WSRF_RL_NS, "NewTerminationTime"), FLOAT
        ),
        Scalar("current_time", QName(WSRF_RL_NS, "CurrentTime"), FLOAT),
    )
