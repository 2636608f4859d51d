"""Parser/serializer unit tests plus property-based round trips."""

import re
from xml.etree import ElementTree

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.xmlutil import (
    E,
    QName,
    XmlParseError,
    parse,
    parse_bytes,
    serialize,
    serialize_bytes,
)
from repro.xmlutil.escape import escape_attribute, escape_text, unescape
from repro.xmlutil.names import NamespaceRegistry
from tests.xmlutil import reference_parser


def _shape(node):
    """(tag, own text, child shapes) of a parsed element."""
    return (
        node.tag.clark(),
        node.text,
        [_shape(child) for child in node.element_children()],
    )


def _et_shape(node):
    return (node.tag, node.text or "", [_et_shape(child) for child in node])


class TestEscape:
    def test_text_escaping(self):
        assert escape_text("a<b&c>d") == "a&lt;b&amp;c&gt;d"

    def test_attribute_escaping_includes_quotes_and_ws(self):
        assert escape_attribute('a"b\nc') == "a&quot;b&#10;c"

    def test_unescape_named(self):
        assert unescape("&lt;&amp;&gt;&quot;&apos;") == "<&>\"'"

    def test_unescape_numeric(self):
        assert unescape("&#65;&#x42;") == "AB"

    def test_unescape_unknown_entity_raises(self):
        with pytest.raises(ValueError):
            unescape("&nbsp;")


class TestParser:
    def test_namespaced_document(self):
        doc = parse('<p:a xmlns:p="urn:one"><p:b/></p:a>')
        assert doc.tag == QName("urn:one", "a")
        assert doc.element_children()[0].tag == QName("urn:one", "b")

    def test_default_namespace_applies_to_elements_only(self):
        doc = parse('<a xmlns="urn:d" k="v"><b/></a>')
        assert doc.tag == QName("urn:d", "a")
        assert doc.get(QName("", "k")) == "v"
        assert doc.element_children()[0].tag == QName("urn:d", "b")

    def test_nested_scope_shadowing(self):
        doc = parse('<a xmlns:p="urn:1"><p:b xmlns:p="urn:2"/><p:c/></a>')
        b, c = doc.element_children()
        assert b.tag.namespace == "urn:2"
        assert c.tag.namespace == "urn:1"

    def test_cdata(self):
        doc = parse("<a><![CDATA[<not-xml> & raw]]></a>")
        assert doc.text == "<not-xml> & raw"

    def test_comment_preserved(self):
        doc = parse("<a><!-- note --></a>")
        assert doc.children[0].value == " note "

    def test_processing_instruction_skipped(self):
        doc = parse('<?xml version="1.0"?><a><?pi data?></a>')
        assert doc.children == []

    def test_entities_in_text_and_attributes(self):
        doc = parse('<a k="&lt;&#65;">&amp;ok</a>')
        assert doc.get("k") == "<A"
        assert doc.text == "&ok"

    def test_bom_tolerated(self):
        assert parse_bytes("﻿<a/>".encode("utf-8")).tag.local == "a"

    @pytest.mark.parametrize(
        "bad",
        [
            "<a>",
            "<a></b>",
            "<a",
            "<a k=v/>",
            '<a k="1" k="2"/>',
            "<a/><b/>",
            "text only",
            '<p:a xmlns:q="urn:x"/>',
            "<!DOCTYPE a [<!ENTITY e 'x'>]><a/>",
            '<a k="<"/>',
            "<a>&bogus;</a>",
            "",
        ],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(XmlParseError):
            parse(bad)

    def test_error_carries_offset(self):
        with pytest.raises(XmlParseError) as err:
            parse("<a></a><junk/>")
        assert err.value.position > 0

    @pytest.mark.parametrize(
        "document",
        ["<r><a><b><c/></b></a ></r>", "<r><a><b>t<!--c--></b></a\n></r>"],
    )
    def test_end_tag_after_an_inner_close_takes_the_slow_path(self, document):
        """``</a >`` needs the name scan; once an inner end tag had popped
        a frame the scan used to be skipped and ``a >`` became text."""
        tree = parse(document)
        assert serialize(tree) == serialize(reference_parser.parse(document))
        assert _shape(tree) == _et_shape(ElementTree.fromstring(document))

    @pytest.mark.parametrize(
        "document",
        [
            '<r><Row xmlns="urn:d">x</Row><Row>y</Row></r>',
            '<r><Row xmlns="urn:d"><V>1</V></Row><Row><V>2</V></Row></r>',
        ],
    )
    def test_run_shortcuts_do_not_leak_an_elements_own_namespace(self, document):
        """Sibling and row runs reuse the first element's QName; they
        must not when that element declared the namespace on itself."""
        tree = parse(document)
        assert serialize(tree) == serialize(reference_parser.parse(document))
        assert _shape(tree) == _et_shape(ElementTree.fromstring(document))

    @pytest.mark.parametrize(
        "document, fragment, construct",
        [
            ("<r><a k=v/></r>", "attribute value must be quoted", "<a k=v/>"),
            ('<r><a k="x<y"/></r>', "'<' not allowed in attribute", '<a k="x<y"/>'),
            ('<r><a k="1" k="2"/></r>', "duplicate attribute 'k'", '<a k="1" k="2"/>'),
            (
                '<r xmlns:p="urn:x" xmlns:q="urn:x"><a p:k="1" q:k="2"/></r>',
                "duplicate attribute {urn:x}k",
                '<a p:k="1" q:k="2"/>',
            ),
            ('<r><a xmlns:p=""/></r>', "cannot undeclare", '<a xmlns:p=""/>'),
            ("<r><z:a/></r>", "undeclared namespace prefix 'z'", "<z:a/>"),
            ("<r><a/ ></r>", "expected an attribute name", "<a/ >"),
            ("<r><a:b:c/></r>", "malformed qualified name 'a:b:c'", "<a:b:c/>"),
            ("<r>x & y</r>", "malformed entity", "x & y"),
            ("<r><a>x &amp y</a></r>", "malformed entity", "x &amp y"),
            (  # the third value of a sibling run
                "<r><V>1</V><V>2</V><V>x &amp y</V></r>",
                "malformed entity",
                "x &amp y",
            ),
            (  # the last value of the second row of a row run
                "<r><R><V>1</V><V>2</V></R><R><V>3</V><V>x &amp y</V></R></r>",
                "malformed entity",
                "x &amp y",
            ),
            ('<r k="&bogus;"/>', "unknown entity reference", "&bogus;"),
            ("<r><!-- open</r>", "missing '-->'", "<!-- open</r>"),
            ("<r><![CDATA[open</r>", "missing ']]>'", "<![CDATA[open</r>"),
            ("<r><?pi open</r>", "missing '?>'", "<?pi open</r>"),
            ("<r/><junk/>", "content after the root element", "<junk/>"),
            ("<!DOCTYPE r><r/>", "DTDs are not supported", "<!DOCTYPE r>"),
            ("<r><!DOCTYPE r></r>", "DTDs are not supported", "<!DOCTYPE r>"),
            ("<r><a", "unexpected end of input", "<a"),
        ],
    )
    def test_error_names_the_fault_inside_the_offending_construct(
        self, document, fragment, construct
    ):
        """A document the token pattern cannot read is re-scanned only
        where it failed: the error says what is wrong, at an offset
        inside the construct that is wrong (a construct running to the
        end of input may report the end)."""
        with pytest.raises(XmlParseError) as err:
            parse(document)
        assert fragment in str(err.value)
        start = document.index(construct)
        assert start <= err.value.position <= start + len(construct)
        with pytest.raises(XmlParseError):
            reference_parser.parse(document)

    def test_mismatched_end_tag_after_an_inner_close_is_rejected(self):
        with pytest.raises(
            XmlParseError,
            match=re.escape("mismatched end tag: expected </a>, got </x>"),
        ):
            parse("<r><a><b><c/></b></x></r>")


class TestSerializer:
    def test_prefers_registered_prefixes(self):
        reg = NamespaceRegistry()
        reg.register("dai", "urn:dai")
        out = serialize(E(QName("urn:dai", "Msg")), registry=reg)
        assert out == '<dai:Msg xmlns:dai="urn:dai"/>'

    def test_generated_prefixes_are_stable(self):
        doc = E(QName("urn:a", "x"), E(QName("urn:b", "y")))
        assert serialize(doc) == serialize(doc)

    def test_xml_declaration(self):
        out = serialize(E("a"), xml_declaration=True)
        assert out.startswith('<?xml version="1.0"')

    def test_serialize_bytes_is_utf8(self):
        data = serialize_bytes(E("a", "héllo"))
        assert "héllo" in data.decode("utf-8")

    def test_pretty_print_indents(self):
        out = serialize(E("a", E("b", E("c"))), indent="  ")
        assert "\n  <b>" in out
        assert "\n    <c/>" in out

    def test_text_only_element_not_padded(self):
        out = serialize(E("a", E("b", "text")), indent="  ")
        assert "<b>text</b>" in out


# ---------------------------------------------------------------------------
# Property-based round trips
# ---------------------------------------------------------------------------

_LOCAL_NAMES = st.sampled_from(["a", "b", "cfg", "Item", "_x", "long-name.v2"])
_NAMESPACES = st.sampled_from(["", "urn:one", "urn:two", "http://example.org/x"])
_TEXTS = st.text(
    alphabet=st.characters(
        codec="utf-8", exclude_characters="\r", categories=("L", "N", "P", "S", "Zs")
    ),
    max_size=40,
)
_ATTR_VALUES = _TEXTS


def _qnames():
    return st.builds(QName, _NAMESPACES, _LOCAL_NAMES)


def _elements(depth: int = 3):
    children = (
        st.lists(st.one_of(_elements(depth - 1), _TEXTS), max_size=4)
        if depth > 0
        else st.lists(_TEXTS, max_size=2)
    )
    return st.builds(
        lambda tag, attrs, kids: E(tag, *kids).extend([])
        or _with_attrs(E(tag, *kids), attrs),
        _qnames(),
        st.dictionaries(_qnames(), _ATTR_VALUES, max_size=3),
        children,
    )


def _with_attrs(node, attrs):
    for key, value in attrs.items():
        node.set(key, value)
    return node


class TestRoundTripProperties:
    @given(_elements())
    @settings(max_examples=150, deadline=None)
    def test_serialize_parse_round_trip(self, doc):
        assert parse(serialize(doc)).equals(doc)

    @given(_elements())
    @settings(max_examples=60, deadline=None)
    def test_bytes_round_trip(self, doc):
        assert parse_bytes(serialize_bytes(doc)).equals(doc)

    @given(_TEXTS)
    @settings(max_examples=100, deadline=None)
    def test_text_escape_round_trip(self, text):
        assert unescape(escape_text(text)) == text

    @given(_ATTR_VALUES)
    @settings(max_examples=100, deadline=None)
    def test_attribute_escape_round_trip(self, value):
        assert unescape(escape_attribute(value)) == value

    @given(_elements())
    @settings(max_examples=60, deadline=None)
    def test_copy_round_trips_identically(self, doc):
        assert serialize(doc.copy()) == serialize(doc)
