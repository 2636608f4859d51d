"""The WS-DAI property document (Figure 4).

Properties divide into *static* properties fixed by the implementation
and *configurable* properties a consumer may set when a factory creates a
derived resource.  The document renders to XML for
``GetDataResourcePropertyDocument`` and for fine-grained WSRF access;
realisations extend :class:`CorePropertyDocument` with their own
elements (e.g. WS-DAIR's ``CIMDescription``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from repro.core.faults import InvalidConfigurationDocumentFault
from repro.core.namespaces import WSDAI_NS
from repro.xmlutil import E, QName, XmlElement


class DataResourceManagement(enum.Enum):
    """Whether the data outlives the service relationship (paper §3)."""

    EXTERNALLY_MANAGED = "ExternallyManaged"
    SERVICE_MANAGED = "ServiceManaged"


class TransactionInitiation(enum.Enum):
    """When the service opens a transaction for an incoming message."""

    NOT_SUPPORTED = "NotSupported"
    AUTOMATIC = "Automatic"       # one atomic transaction per message
    CONSUMER = "Consumer"         # consumer controls the transaction context


class TransactionIsolation(enum.Enum):
    """Isolation of service-initiated transactions (mirrors SQL levels)."""

    NOT_SUPPORTED = "NotSupported"
    READ_UNCOMMITTED = "ReadUncommitted"
    READ_COMMITTED = "ReadCommitted"
    REPEATABLE_READ = "RepeatableRead"
    SERIALIZABLE = "Serializable"


class Sensitivity(enum.Enum):
    """Whether derived data tracks changes in its parent resource."""

    INSENSITIVE = "Insensitive"   # snapshot
    SENSITIVE = "Sensitive"       # reflects parent updates


@dataclass(frozen=True)
class DatasetMapEntry:
    """One supported return format: request message QName → format URI."""

    message_qname: QName
    data_format_uri: str


@dataclass(frozen=True)
class ConfigurationMapEntry:
    """Factory support: request message QName → port type it can wire up."""

    message_qname: QName
    port_type_qname: QName


@dataclass
class ConfigurableProperties:
    """The consumer-settable properties (Figure 4, right column)."""

    data_resource_description: str = ""
    readable: bool = True
    writeable: bool = True
    transaction_initiation: TransactionInitiation = TransactionInitiation.NOT_SUPPORTED
    transaction_isolation: TransactionIsolation = TransactionIsolation.NOT_SUPPORTED
    sensitivity: Sensitivity = Sensitivity.INSENSITIVE

    def copy(self) -> "ConfigurableProperties":
        return replace(self)

    # -- configuration documents -----------------------------------------------

    def apply_configuration_document(
        self, document: XmlElement
    ) -> "ConfigurableProperties":
        """Return a copy overridden by a factory ConfigurationDocument.

        Unknown elements raise
        :class:`InvalidConfigurationDocumentFault` — silently ignoring a
        consumer's requested behaviour would be worse than failing.
        """
        updated = self.copy()
        for child in document.element_children():
            if child.tag.namespace != WSDAI_NS:
                raise InvalidConfigurationDocumentFault(
                    f"foreign element {child.tag.clark()}"
                )
            local = child.tag.local
            try:
                name, kind = _BY_ELEMENT[local]
            except KeyError:
                raise InvalidConfigurationDocumentFault(
                    f"unknown configurable property {local!r}"
                ) from None
            try:
                setattr(updated, name, _read(kind, child.text))
            except ValueError as exc:
                raise InvalidConfigurationDocumentFault(
                    f"bad value for {local}: {exc}"
                ) from exc
        return updated

    def to_elements(self) -> list[XmlElement]:
        return [
            configurable_element(name, getattr(self, name))
            for name in CONFIGURABLE_ELEMENTS
        ]


#: The configurable properties in document order: dataclass field →
#: (element local name, what its text reads back as).
CONFIGURABLE_ELEMENTS: dict[str, tuple[str, type]] = {
    "data_resource_description": ("DataResourceDescription", str),
    "readable": ("Readable", bool),
    "writeable": ("Writeable", bool),
    "transaction_initiation": ("TransactionInitiation", TransactionInitiation),
    "transaction_isolation": ("TransactionIsolation", TransactionIsolation),
    "sensitivity": ("Sensitivity", Sensitivity),
}
_BY_ELEMENT = {
    local: (name, kind) for name, (local, kind) in CONFIGURABLE_ELEMENTS.items()
}


def configurable_element(name: str, value) -> XmlElement:
    """The configuration-document element setting the configurable
    property *name* (a :class:`ConfigurableProperties` field) to
    *value*: a bool, an enum member or its string."""
    if isinstance(value, bool):
        text = _bool_text(value)
    elif isinstance(value, enum.Enum):
        text = value.value
    else:
        text = str(value)
    return E(_q(CONFIGURABLE_ELEMENTS[name][0]), text)


def _read(kind: type, text: str):
    if kind is str:
        return text  # the description keeps its whitespace
    if kind is bool:
        return _parse_bool(text)
    return kind(text.strip())


@dataclass
class CorePropertyDocument:
    """The full WS-DAI property document for one service↔resource pair."""

    abstract_name: str
    management: DataResourceManagement
    parent: str = ""  # parent's abstract name for derived resources
    concurrent_access: bool = True
    dataset_maps: list[DatasetMapEntry] = field(default_factory=list)
    configuration_maps: list[ConfigurationMapEntry] = field(default_factory=list)
    languages: list[str] = field(default_factory=list)  # GenericQueryLanguage
    configurable: ConfigurableProperties = field(
        default_factory=ConfigurableProperties
    )

    #: Root element tag; realisations override (e.g. SQLPropertyDocument).
    ROOT_LOCAL = "PropertyDocument"
    ROOT_NS = WSDAI_NS

    def to_xml(self) -> XmlElement:
        root = E(
            QName(self.ROOT_NS, self.ROOT_LOCAL),
            E(_q("DataResourceAbstractName"), self.abstract_name),
            E(_q("ParentDataResource"), self.parent),
            E(_q("DataResourceManagement"), self.management.value),
            E(_q("ConcurrentAccess"), _bool_text(self.concurrent_access)),
        )
        for entry in self.dataset_maps:
            root.append(
                E(
                    _q("DatasetMap"),
                    E(_q("MessageQName"), entry.message_qname.clark()),
                    E(_q("DataFormatURI"), entry.data_format_uri),
                )
            )
        for entry in self.configuration_maps:
            root.append(
                E(
                    _q("ConfigurationMap"),
                    E(_q("MessageQName"), entry.message_qname.clark()),
                    E(_q("PortTypeQName"), entry.port_type_qname.clark()),
                )
            )
        for language in self.languages:
            root.append(E(_q("GenericQueryLanguage"), language))
        root.extend(self.configurable.to_elements())
        self.extend_xml(root)
        return root

    def extend_xml(self, root: XmlElement) -> None:
        """Hook for realisations to append their extension properties."""

    # -- conveniences -------------------------------------------------------

    def supports_format(self, data_format_uri: str) -> bool:
        return any(
            entry.data_format_uri == data_format_uri
            for entry in self.dataset_maps
        )

    def supports_language(self, language_uri: str) -> bool:
        return language_uri in self.languages

    def default_format(self) -> str:
        if not self.dataset_maps:
            raise InvalidConfigurationDocumentFault(
                "resource advertises no dataset formats"
            )
        return self.dataset_maps[0].data_format_uri


def _q(local: str) -> QName:
    return QName(WSDAI_NS, local)


def _bool_text(value: bool) -> str:
    return "true" if value else "false"


def _parse_bool(value: str) -> bool:
    lowered = value.strip().lower()
    if lowered in ("true", "1"):
        return True
    if lowered in ("false", "0"):
        return False
    raise ValueError(f"not a boolean: {value!r}")
