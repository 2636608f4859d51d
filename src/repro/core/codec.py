"""The one DAIS message codec: declared fields that write and read themselves.

The specifications define each message as a template that realisations
extend (paper Figures 2, 3 and 6).  A message class states its body as
data — ``WIRE``, a tuple of the field descriptors below *in wire order*,
beside its dataclass fields — and :class:`repro.core.messages.DaisMessage`
carries the only ``to_xml``/``from_xml``.  A realisation extends a
template with ``WIRE = Base.WIRE + (...)``, exactly as its specification
extends the core document.

The wire semantics live here and nowhere else:

* **emit** — a scalar is written :data:`ALWAYS`, only when
  :data:`TRUTHY`, or only when :data:`NOT_NONE`;
* **absent** — an element or attribute that is not there reads as the
  field's ``default=`` when it states one, else it is left to the
  default of the message's own constructor;
* **empty** — a string reads as ``""``; any other kind whose text is
  blank reads as if absent (``empty=`` says otherwise);
* **malformed** — text its kind cannot convert is the sender's mistake:
  a ``Client`` :class:`~repro.soap.fault.SoapFault` naming the element
  and the message, never a bare ``ValueError``;
* **copied or shared** — embedded elements are deep-copied in both
  directions unless the field says ``copy=False``.
"""

from __future__ import annotations

import base64
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Optional

from repro.soap.addressing import EndpointReference
from repro.soap.fault import FaultCode, SoapFault
from repro.xmlutil import QName, Text, XmlElement


def ALWAYS(value: Any) -> bool:
    """Write the element whatever the value (empty text for ``""``)."""
    return True


#: Write the element only for a truthy value (``""``, ``0``, ``False``
#: and ``None`` are all omitted).
TRUTHY = bool


def NOT_NONE(value: Any) -> bool:
    """Write the element unless the value is ``None`` (``0`` is written)."""
    return value is not None


class Kind(NamedTuple):
    """How one scalar type travels as text."""

    to_text: Callable[[Any], str]
    from_text: Callable[[str], Any]


def _text(value: Any) -> str:
    return "" if value is None else str(value)


STR = Kind(_text, str)
INT = Kind(_text, int)
FLOAT = Kind(repr, float)
BOOL = Kind(lambda value: "true" if value else "false", "true".__eq__)
#: Clark notation, ``{namespace}local``.
QNAME = Kind(QName.clark, QName.parse)
#: ``b64decode`` skips characters outside the alphabet, so only bad
#: padding is malformed.
BASE64 = Kind(lambda value: base64.b64encode(value).decode("ascii"), base64.b64decode)

#: What ``read`` returns for "not on the wire, and I state no default".
ABSENT = object()
_NIL = QName("", "nil")


def text_element(tag: QName, text: str) -> XmlElement:
    """``<tag>text</tag>`` (no text node at all for the empty string)."""
    return XmlElement(tag, {}, [Text(text)] if text else [])


def encode_fields(
    fields: Iterable["Field"], node: XmlElement, message: Any
) -> XmlElement:
    """Append each of *fields*, read off *message*, to *node*."""
    for field in fields:
        field.encode(node, message)
    return node


def decode_fields(fields: Iterable["Field"], element: XmlElement) -> dict[str, Any]:
    """Read *fields* out of *element* as constructor keyword arguments.

    The one place a conversion failure (``int``, ``float``, ``QName``,
    base64 — ``binascii.Error`` is a ``ValueError`` — or an EPR without
    an address) becomes a typed fault.
    """
    values: dict[str, Any] = {}
    for field in fields:
        try:
            field.decode(element, values)
        except ValueError as exc:
            raise SoapFault(
                FaultCode.CLIENT,
                f"malformed {field.label} in {element.tag.local}: {exc}",
            ) from exc
    return values


class Field:
    """One declared part of a message body.

    ``write``/``read`` move one *value* into and out of an element;
    ``encode``/``decode`` bind that to the message attribute ``name``.
    A descriptor that spans several attributes (:class:`Group`) or needs
    the whole message overrides the outer pair instead.
    """

    name: str
    tag: Optional[QName] = None

    @property
    def label(self) -> str:
        """What a fault calls this field: its element, else its name."""
        return self.tag.local if self.tag is not None else self.name

    def names(self) -> tuple[str, ...]:
        """The message attributes this descriptor claims."""
        return (self.name,)

    def encode(self, node: XmlElement, message: Any) -> None:
        self.write(node, getattr(message, self.name))

    def decode(self, element: XmlElement, values: dict[str, Any]) -> None:
        value = self.read(element)
        if value is not ABSENT:
            values[self.name] = value


class Scalar(Field):
    """One value as text: here in a child element; the subclasses below
    keep it in an attribute or as the enclosing element's own text."""

    def __init__(
        self,
        name: str,
        tag: Optional[QName],
        kind: Kind = STR,
        emit: Callable[[Any], bool] = ALWAYS,
        default: Any = ABSENT,
        empty: Any = ABSENT,
    ) -> None:
        self.name = name
        self.tag = tag
        self.kind = kind
        self.emit = emit
        self.default = default
        #: What a present-but-blank value of a non-string kind reads as.
        self.empty = default if empty is ABSENT else empty

    def write(self, node: XmlElement, value: Any) -> None:
        if self.emit(value):
            self._put(node, self.kind.to_text(value))

    def read(self, element: XmlElement) -> Any:
        text = self._get(element)
        if text is None:
            return self.default
        if self.kind is STR:
            return text
        text = text.strip()
        return self.kind.from_text(text) if text else self.empty

    def _put(self, node: XmlElement, text: str) -> None:
        node.children.append(text_element(self.tag, text))

    def _get(self, element: XmlElement) -> Optional[str]:
        child = element.find(self.tag)
        return None if child is None else child.text


class Attribute(Scalar):
    """An attribute of the enclosing element."""

    def __init__(self, name: str, attribute: str, kind: Kind = STR, **rules: Any):
        super().__init__(name, QName("", attribute), kind, **rules)

    def _put(self, node: XmlElement, text: str) -> None:
        node.attributes[self.tag] = text

    def _get(self, element: XmlElement) -> Optional[str]:
        return element.attributes.get(self.tag)


class OwnText(Scalar):
    """The enclosing element's own character data."""

    def __init__(self, name: str, kind: Kind = STR) -> None:
        super().__init__(name, None, kind)

    def _put(self, node: XmlElement, text: str) -> None:
        if text:
            node.children.append(Text(text))

    def _get(self, element: XmlElement) -> Optional[str]:
        return element.text


class Nillable(Scalar):
    """A child element that is always written: ``nil="true"`` for
    ``None``, the value as text otherwise.  Absent, nil and (for
    non-string kinds) blank all read as ``None``."""

    def __init__(self, name: str, tag: QName, kind: Kind = STR) -> None:
        super().__init__(name, tag, kind, default=None)

    def write(self, node: XmlElement, value: Any) -> None:
        if value is None:
            node.children.append(XmlElement(self.tag, {_NIL: "true"}))
        else:
            super().write(node, value)

    def _get(self, element: XmlElement) -> Optional[str]:
        child = element.find(self.tag)
        if child is None or child.attributes.get(_NIL) == "true":
            return None
        return child.text


class Records(Field):
    """A list of tuples, one child element per tuple; *parts* place each
    member in turn (:class:`Attribute`, :class:`OwnText`,
    :class:`Element`) and state their own defaults.  A record with a
    member missing altogether — a ``Document`` wrapper with nothing
    inside — is dropped."""

    def __init__(self, name: str, tag: QName, parts: tuple[Field, ...]) -> None:
        self.name = name
        self.tag = tag
        self.parts = parts

    def write(self, node: XmlElement, records: Iterable[tuple]) -> None:
        for record in records:
            entry = XmlElement(self.tag)
            for part, value in zip(self.parts, record):
                part.write(entry, value)
            node.children.append(entry)

    def read(self, element: XmlElement) -> list:
        records = (
            tuple(part.read(entry) for part in self.parts)
            for entry in element.findall(self.tag)
        )
        return [record for record in records if None not in record]


class Repeated(Records):
    """A list of scalars — records of one member, unwrapped: the value
    is each child's text, or its *attribute* when one is named.  A blank
    member of a non-string kind has no default to fall back on, so it
    is malformed."""

    def __init__(
        self,
        name: str,
        tag: QName,
        kind: Kind = STR,
        attribute: Optional[str] = None,
    ) -> None:
        if attribute is None:
            part = OwnText(name, kind)
        else:
            part = Attribute(name, attribute, kind, default="")
        super().__init__(name, tag, (part,))

    def write(self, node: XmlElement, values: Iterable[Any]) -> None:
        super().write(node, ((value,) for value in values))

    def read(self, element: XmlElement) -> list:
        values = [value for (value,) in super().read(element)]
        if ABSENT in values:
            raise ValueError(f"empty {self.tag.local}")
        return values


class Group(Field):
    """A wrapper element holding several of the message's own fields
    (``GenericExpression``, ``SQLExpression``, ``QueryExpression``,
    ``JobFault``).

    Written always, or — with *when* — only while that attribute is
    truthy.  An absent wrapper reads as every member absent, unless
    *missing* names the typed fault its absence raises.
    """

    def __init__(
        self,
        tag: QName,
        fields: tuple[Field, ...],
        when: Optional[str] = None,
        missing: Optional[Callable[[str], Exception]] = None,
    ) -> None:
        self.tag = tag
        self.fields = fields
        self.when = when
        self.missing = missing

    def names(self) -> tuple[str, ...]:
        return tuple(name for field in self.fields for name in field.names())

    def encode(self, node: XmlElement, message: Any) -> None:
        if self.when is None or getattr(message, self.when):
            node.children.append(
                encode_fields(self.fields, XmlElement(self.tag), message)
            )

    def decode(self, element: XmlElement, values: dict[str, Any]) -> None:
        group = element.find(self.tag)
        if group is None:
            if self.missing is not None:
                raise self.missing(f"missing {self.tag.local} element")
            group = XmlElement(self.tag)
        values.update(decode_fields(self.fields, group))


class Elements(Field):
    """A list of embedded elements.

    They sit directly in the message body or, with *wrapper*, inside
    one wrapper child (written even when the list is empty).  On the
    way back *tag* selects them by name; without it every child counts
    except those under the *skip* tags (the message's other fields).

    ``copy=False`` shares the subtree with the tree it came from in
    both directions: serializers never mutate, a decoded payload is
    single-use, and deep-copying a 1000-row dataset would dominate both
    the response render and the client's parse.
    """

    def __init__(
        self,
        name: str,
        wrapper: Optional[QName] = None,
        tag: Optional[QName] = None,
        skip: tuple[QName, ...] = (),
        copy: bool = True,
    ) -> None:
        self.name = name
        self.tag = self.wrapper = wrapper
        self.select = tag
        self.skip = skip
        self.copy = copy

    def write(self, node: XmlElement, values: list[XmlElement]) -> None:
        if self.copy:
            values = [value.copy() for value in values]
        if self.wrapper is not None:
            values = [XmlElement(self.wrapper, {}, list(values))]
        node.children.extend(values)

    def read(self, element: XmlElement) -> Any:
        return list(self._selected(element))

    def _selected(self, element: XmlElement) -> Iterator[XmlElement]:
        if self.wrapper is not None:
            element = element.find(self.wrapper)
            if element is None:
                return
        select, skip = self.select, self.skip
        for child in element.children:
            if isinstance(child, XmlElement) and (
                child.tag not in skip if select is None else child.tag == select
            ):
                yield child.copy() if self.copy else child


class Element(Elements):
    """One embedded element, placed and selected like :class:`Elements`;
    omitted (wrapper and all) when ``None``, and the first candidate is
    the one read back."""

    def write(self, node: XmlElement, value: Optional[XmlElement]) -> None:
        if value is not None:
            super().write(node, [value])

    def read(self, element: XmlElement) -> Any:
        return next(self._selected(element), None)


class Address(Field):
    """An endpoint reference under a tag the message owns; omitted when
    ``None``."""

    def __init__(self, name: str, tag: QName) -> None:
        self.name = name
        self.tag = tag

    def write(self, node: XmlElement, value: Optional[EndpointReference]) -> None:
        if value is not None:
            node.children.append(value.to_xml(self.tag))

    def read(self, element: XmlElement) -> Optional[EndpointReference]:
        child = element.find(self.tag)
        return None if child is None else EndpointReference.from_xml(child)
