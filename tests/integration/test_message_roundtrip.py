"""One generative round trip over every concrete message class.

For each class hypothesis builds instances from a strategy *derived*
from the class itself — its dataclass fields and the ``WIRE`` descriptors
that claim them; there is no per-class code here — and drives the path
every real exchange takes: encode → envelope bytes →
``Envelope.from_bytes`` → decode → an equal object.

The strategy generates the values a field can carry faithfully, which
the descriptor states: a scalar written only when truthy cannot tell
``""`` from absent, so it is given its absent value or a truthy one; a
group written only while a gate attribute is set carries nothing else
while it is not.
"""

import dataclasses
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import codec
from repro.core.messages import DaisRequest
from repro.soap import Envelope, MessageHeaders
from repro.soap.addressing import EndpointReference
from repro.xmlutil import QName, Text, XmlElement
from tests.core.message_catalog import message_classes

_NAMES = st.from_regex(r"urn:dais:resource:[a-z]{1,10}:[0-9]{1,6}", fullmatch=True)
_TEXTS = st.text(
    alphabet=st.characters(codec="utf-8", categories=("L", "N", "P", "S", "Zs")),
    max_size=20,
)
_QNAMES = st.builds(
    QName,
    st.sampled_from(["", "urn:fuzz:a", "http://fuzz.example/ns#b"]),
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_.\-]{0,8}", fullmatch=True),
)
_SCALARS = {
    codec.STR: _TEXTS,
    codec.INT: st.integers(),
    codec.FLOAT: st.floats(allow_nan=False),
    codec.BOOL: st.booleans(),
    codec.QNAME: _QNAMES,
    codec.BASE64: st.binary(max_size=64),
}


def _elements(tag: QName | None = None) -> st.SearchStrategy:
    """Small element trees in normal form (no empty or adjacent text
    nodes), under *tag* or a foreign one."""
    tags = st.just(tag) if tag is not None else _QNAMES
    attributes = st.dictionaries(
        st.sampled_from([QName("", "a"), QName("urn:fuzz:a", "b")]), _TEXTS, max_size=2
    )
    leaves = st.builds(
        XmlElement,
        _QNAMES,
        attributes,
        st.lists(_TEXTS.filter(bool).map(Text), max_size=1),
    )
    children = st.lists(leaves, max_size=3).flatmap(
        lambda nodes: st.tuples(
            *[st.just(node) | _TEXTS.filter(bool).map(Text) for node in nodes]
        ).map(_normal_form)
    )
    return st.builds(XmlElement, tags, attributes, children)


def _normal_form(nodes) -> list:
    out: list = []
    for node in nodes:
        if isinstance(node, Text) and out and isinstance(out[-1], Text):
            continue
        out.append(node)
    return out


_ADDRESSES = st.builds(
    EndpointReference,
    st.from_regex(r"dais://[a-z]{1,8}/[a-z0-9]{0,8}", fullmatch=True),
    st.lists(_elements(), max_size=2).map(tuple),
)


def _from_type(hint) -> st.SearchStrategy:
    """For a realisation-local field kind all that is known is the type
    of the attribute it claims (a plain dataclass of scalars)."""
    if hint is str:
        return _TEXTS
    if hint is int:
        return st.integers()
    hints = typing.get_type_hints(hint)
    return st.builds(
        hint, **{f.name: _from_type(hints[f.name]) for f in dataclasses.fields(hint)}
    )


def _values(field: codec.Field, hint, absent) -> st.SearchStrategy:
    """What *field* can carry and read back unchanged; *absent* is what
    it reads as when nothing was written."""
    if isinstance(field, codec.Nillable):
        return st.none() | _SCALARS[field.kind]
    if isinstance(field, codec.Scalar):  # child element, attribute or own text
        values = _SCALARS[field.kind]
        if field.default is not codec.ABSENT:
            absent = field.default
        if field.emit is codec.TRUTHY:
            return st.just(absent) | values.filter(bool)
        if field.emit is codec.NOT_NONE:
            assert absent is None
            return st.none() | values
        return values
    if isinstance(field, codec.Repeated):
        return st.lists(_values(field.parts[0], None, None), max_size=4)
    if isinstance(field, codec.Records):  # a record missing a member is dropped
        parts = [
            _values(part, None, None).filter(lambda value: value is not None)
            for part in field.parts
        ]
        return st.lists(st.tuples(*parts), max_size=3)
    if isinstance(field, codec.Element):
        return st.none() | _elements(field.select)
    if isinstance(field, codec.Elements):
        return st.lists(_elements(field.select), max_size=3)
    if isinstance(field, codec.Address):
        return st.none() | _ADDRESSES
    return _from_type(hint)


def _leaves(fields):
    for field in fields:
        if isinstance(field, codec.Group):
            yield from _leaves(field.fields)
        else:
            yield field


def _messages(cls) -> st.SearchStrategy:
    hints = typing.get_type_hints(cls)
    claimed = {field.name: field for field in _leaves(cls.WIRE)}
    defaults = {
        f.name: f.default_factory()
        if f.default_factory is not dataclasses.MISSING
        else f.default
        for f in dataclasses.fields(cls)
    }
    strategies = {
        name: _values(field, hints[name], defaults[name])
        for name, field in claimed.items()
    }
    if issubclass(cls, DaisRequest):
        strategies["abstract_name"] = _NAMES

    def close_gates(message):
        for group in cls.WIRE:
            if isinstance(group, codec.Group) and group.when is not None:
                if not getattr(message, group.when):
                    for name in group.names():
                        setattr(message, name, defaults[name])
        return message

    return st.builds(cls, **strategies).map(close_gates)


def _same(left, right) -> bool:
    if isinstance(left, XmlElement):
        return isinstance(right, XmlElement) and left.equals(right)
    if isinstance(left, (list, tuple)):
        return (
            type(left) is type(right)
            and len(left) == len(right)
            and all(_same(a, b) for a, b in zip(left, right))
        )
    if isinstance(left, EndpointReference):
        return isinstance(right, EndpointReference) and all(
            _same(getattr(left, f.name), getattr(right, f.name))
            for f in dataclasses.fields(left)
        )
    return left == right


@pytest.mark.parametrize("cls", message_classes(), ids=lambda cls: cls.__name__)
def test_every_message_survives_the_wire(cls):
    @given(_messages(cls))
    @settings(max_examples=50, deadline=None)
    def round_trip(message):
        envelope = Envelope(
            headers=MessageHeaders(to="dais://svc", action=cls.action()),
            payload=message.to_xml(),
        )
        received = Envelope.from_bytes(envelope.to_bytes())
        decoded = cls.from_xml(received.payload)
        assert type(decoded) is cls
        for field in dataclasses.fields(cls):
            sent, got = getattr(message, field.name), getattr(decoded, field.name)
            assert _same(sent, got), f"{field.name}: sent {sent!r}, got {got!r}"

    round_trip()
