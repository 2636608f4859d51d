"""Unit tests for the element tree model."""

import pytest

from repro.xmlutil import Comment, E, QName, Text, XmlElement, is_element


NS = "http://example.org/t"


class TestConstruction:
    def test_builder_nests_children(self):
        doc = E(QName(NS, "a"), E(QName(NS, "b"), "text"), E(QName(NS, "c")))
        assert [c.tag.local for c in doc.element_children()] == ["b", "c"]

    def test_builder_flattens_lists(self):
        doc = E("root", [E("x"), [E("y"), E("z")]])
        assert [c.tag.local for c in doc.element_children()] == ["x", "y", "z"]

    def test_builder_skips_none(self):
        doc = E("root", None, E("x"), None)
        assert len(doc.element_children()) == 1

    def test_builder_attribute_bool_rendering(self):
        assert E("a", flag=True).get("flag") == "true"
        assert E("a", flag=False).get("flag") == "false"

    def test_builder_trailing_underscore_stripped(self):
        assert E("a", class_="c").get("class") == "c"

    def test_builder_none_attribute_omitted(self):
        assert E("a", opt=None).get("opt") is None

    def test_append_string_becomes_text(self):
        node = XmlElement(QName("", "a"))
        node.append("hello")
        assert node.text == "hello"

    def test_string_tag_coerced(self):
        node = XmlElement("{urn:x}a")
        assert node.tag == QName("urn:x", "a")


class TestAccessors:
    def test_find_and_findall(self):
        doc = E("r", E("a", "1"), E("b"), E("a", "2"))
        assert doc.find("a").text == "1"
        assert [n.text for n in doc.findall("a")] == ["1", "2"]
        assert doc.find("missing") is None

    def test_findtext_default(self):
        doc = E("r", E("a", "x"))
        assert doc.findtext("a") == "x"
        assert doc.findtext("zzz", "fallback") == "fallback"

    def test_require_raises_on_missing(self):
        with pytest.raises(KeyError):
            E("r").require("a")

    def test_text_setter_replaces_text_nodes(self):
        doc = E("r", "old", E("kid"))
        doc.text = "new"
        assert doc.text == "new"
        assert len(doc.element_children()) == 1

    def test_full_text_spans_subtree(self):
        doc = E("r", "a", E("k", "b", E("g", "c")), "d")
        assert set(doc.full_text()) == set("abcd")

    def test_iter_is_document_order(self):
        doc = E("r", E("a", E("b")), E("c"))
        assert [n.tag.local for n in doc.iter()] == ["r", "a", "b", "c"]

    def test_descendants(self):
        doc = E("r", E("x"), E("y", E("x")))
        assert len(doc.descendants("x")) == 2

    def test_is_element(self):
        assert is_element(E("a"))
        assert not is_element(Text("t"))
        assert not is_element(Comment("c"))


class TestCopyEquality:
    def test_copy_is_deep(self):
        doc = E("r", E("a", "t"))
        clone = doc.copy()
        clone.find("a").text = "changed"
        assert doc.find("a").text == "t"

    def test_rendered_copy_keeps_the_rendering_and_copies_the_tail(self):
        from repro.xmlutil import serialize
        from repro.xmlutil.tree import RenderedElement

        doc = RenderedElement("r", lambda prefixes: "<cached>1</cached>")
        doc.append(E("tail", "2"))
        clone = doc.copy()
        clone.find("tail").text = "changed"
        assert serialize(doc) == "<r><cached>1</cached><tail>2</tail></r>"
        assert serialize(clone) == "<r><cached>1</cached><tail>changed</tail></r>"

    def test_copy_equals_original(self):
        doc = E("r", E("a", "t", k="v"), Comment("c"))
        assert doc.copy().equals(doc)

    def test_equality_attribute_sensitive(self):
        assert not E("a", k="1").equals(E("a", k="2"))

    def test_equality_ignore_whitespace(self):
        a = E("r", "  ", E("x"), "\n")
        b = E("r", E("x"))
        assert a.equals(b, ignore_whitespace=True)
        assert not a.equals(b)

    def test_comments_ignored_in_equality(self):
        a = E("r", Comment("note"), E("x"))
        b = E("r", E("x"))
        assert a.equals(b)
