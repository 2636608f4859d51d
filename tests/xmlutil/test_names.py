"""Unit tests for QName and NamespaceRegistry."""

import pytest

from repro.xmlutil.names import NamespaceRegistry, QName, is_ncname


class TestQName:
    def test_clark_notation_with_namespace(self):
        name = QName("http://example.org/ns", "Local")
        assert name.clark() == "{http://example.org/ns}Local"
        assert str(name) == name.clark()

    def test_clark_notation_without_namespace(self):
        assert QName("", "bare").clark() == "bare"

    def test_parse_clark(self):
        name = QName.parse("{urn:a}b")
        assert name.namespace == "urn:a"
        assert name.local == "b"

    def test_parse_bare_uses_default_namespace(self):
        name = QName.parse("b", default_namespace="urn:d")
        assert name == QName("urn:d", "b")

    def test_equality_and_hash(self):
        assert QName("u", "l") == QName("u", "l")
        assert hash(QName("u", "l")) == hash(QName("u", "l"))
        assert QName("u", "l") != QName("u", "other")

    @pytest.mark.parametrize("bad", ["", "with space", "1leading", "a:b"])
    def test_invalid_local_name_rejected(self, bad):
        with pytest.raises(ValueError):
            QName("urn:x", bad)

    def test_usable_as_dict_key(self):
        table = {QName("u", "a"): 1}
        assert table[QName("u", "a")] == 1


class TestIsNcname:
    @pytest.mark.parametrize("good", ["a", "_x", "a-b", "a.b", "A1", "élan"])
    def test_accepts(self, good):
        assert is_ncname(good)

    @pytest.mark.parametrize("bad", ["", "a:b", "1a", "a b", "-x"])
    def test_rejects(self, bad):
        assert not is_ncname(bad)


class TestNamespaceRegistry:
    def test_register_and_lookup(self):
        reg = NamespaceRegistry()
        reg.register("dai", "http://ggf.org/dai")
        assert reg.prefix_for("http://ggf.org/dai") == "dai"
        assert reg.uri_for("dai") == "http://ggf.org/dai"

    def test_xml_prefix_preregistered(self):
        reg = NamespaceRegistry()
        assert reg.uri_for("xml") == "http://www.w3.org/XML/1998/namespace"

    def test_reregistration_wins(self):
        reg = NamespaceRegistry()
        reg.register("a", "urn:one")
        reg.register("b", "urn:one")
        assert reg.prefix_for("urn:one") == "b"

    def test_invalid_prefix_rejected(self):
        reg = NamespaceRegistry()
        with pytest.raises(ValueError):
            reg.register("has space", "urn:x")

    def test_empty_uri_rejected(self):
        reg = NamespaceRegistry()
        with pytest.raises(ValueError):
            reg.register("p", "")

    def test_copy_is_independent(self):
        reg = NamespaceRegistry()
        reg.register("a", "urn:one")
        clone = reg.copy()
        clone.register("b", "urn:two")
        assert reg.prefix_for("urn:two") is None
        assert clone.prefix_for("urn:one") == "a"
