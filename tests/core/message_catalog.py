"""Every concrete DAIS message class, and one deterministic sample of each.

Shared by the all-classes wire snapshot, the schema lint and the
generative round-trip.  Nothing here knows a message by name: classes
are discovered from the six message modules and samples are built from
the dataclass field types alone, so the same code runs against any
commit's codecs (the snapshots were generated from the parent's
hand-written ones).
"""

from __future__ import annotations

import collections.abc
import dataclasses
import importlib
import inspect
import typing

from repro.core.messages import DaisMessage
from repro.xmlutil import E, QName, XmlElement

MESSAGE_MODULES = (
    "repro.core.messages",
    "repro.core.wsrf_messages",
    "repro.dair.messages",
    "repro.daix.messages",
    "repro.daif.messages",
    "repro.jobs.messages",
)

#: A valid abstract name that still needs escaping on the wire.
SAMPLE_NAME = "urn:dais:resource:golden:0001&<"

_FOREIGN_NS = "urn:golden:foreign"

# Two decoders select an embedded element by its tag; a sample under any
# other tag would be dropped on the way back and pin nothing.
_ELEMENT_TAGS = {
    "items": QName("http://www.ggf.org/namespaces/2005/05/WS-DAIX", "Item"),
    "modifications": QName("http://www.xmldb.org/xupdate", "modifications"),
}


def message_classes(concrete: bool = True) -> list[type[DaisMessage]]:
    """Message classes of the six modules in a stable order; *concrete*
    ones carry a ``TAG`` (the templates they extend do not)."""
    found = []
    for module_name in MESSAGE_MODULES:
        module = importlib.import_module(module_name)
        for cls in vars(module).values():
            if (
                inspect.isclass(cls)
                and issubclass(cls, DaisMessage)
                and cls.__module__ == module_name
                and hasattr(cls, "TAG") == concrete
            ):
                found.append(cls)
    return sorted(found, key=class_key)


def class_key(cls: type) -> str:
    return f"{cls.__module__}.{cls.__qualname__}"


def sample(cls: type[DaisMessage], populated: bool) -> DaisMessage:
    """*cls* with only its required fields set, or with every field set."""
    hints = typing.get_type_hints(cls)
    values = {}
    for field in dataclasses.fields(cls):
        required = (
            field.default is dataclasses.MISSING
            and field.default_factory is dataclasses.MISSING
        )
        if populated or required:
            values[field.name] = _sample_value(field.name, hints[field.name])
    return cls(**values)


def _sample_value(name: str, hint, index: int = 0):
    origin = typing.get_origin(hint)
    args = typing.get_args(hint)
    if origin is typing.Union:  # Optional[X]
        (hint,) = [a for a in args if a is not type(None)]
        return _sample_value(name, hint, index)
    if origin is list:
        return [_sample_value(name, args[0], i) for i in range(3)]
    if origin is tuple:
        if args[-1] is Ellipsis:
            return (_sample_value(name, args[0], index),)
        return tuple(_sample_value(name, a, index) for a in args)
    if origin is collections.abc.Callable:
        result = _sample_value(name, args[-1], 2)  # differs from the eager twin
        return lambda: result
    if hint is str:
        if name == "abstract_name":
            return SAMPLE_NAME
        # The middle member of every list is the empty string.
        return "" if index == 1 else f"{name} &< \"{index}\""
    if hint is bool:
        return True
    if hint is int:
        return 7 + index
    if hint is float:
        return 1234.5 + index
    if hint is bytes:
        return b"\x00golden\xff bytes"
    if hint is QName:
        return QName("" if index == 1 else "urn:golden:props", f"Property{index}")
    if hint is XmlElement:
        return E(
            _ELEMENT_TAGS.get(name, QName(_FOREIGN_NS, "Payload")),
            E(QName(_FOREIGN_NS, "Nested"), f"nested &< {index}", kind="a&\"b"),
            "mixed text",
            E(QName("", "Bare")),
            position=index,
        )
    if dataclasses.is_dataclass(hint):
        nested = typing.get_type_hints(hint)
        return hint(
            **{
                f.name: _sample_value(f.name, nested[f.name], index)
                for f in dataclasses.fields(hint)
            }
        )
    raise TypeError(f"no sample for field {name!r} of type {hint!r}")


def blank(document: XmlElement, keep_name: bool) -> XmlElement:
    """*document* with every text node dropped and every attribute value
    emptied — except, when *keep_name*, the abstract name a request must
    carry to be decoded at all."""
    name_tag = QName(
        "http://www.ggf.org/namespaces/2005/05/WS-DAI", "DataResourceAbstractName"
    )
    blanked = document.copy()
    kept = blanked.find(name_tag) if keep_name else None
    for node in blanked.iter():
        node.attributes = {key: "" for key in node.attributes}
        if node is not kept:
            node.children = node.element_children()
    return blanked
