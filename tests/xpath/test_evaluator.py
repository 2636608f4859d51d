"""Evaluator conformance tests: axes, predicates, functions, coercions."""

import math

import pytest

from repro.xmlutil import parse as parse_xml
from repro.xpath import AttributeNode, XPathEngine, XPathEvaluationError

DOC = """\
<library xmlns:m="urn:meta">
  <shelf id="s1">
    <book id="b1" price="10" lang="en"><title>Alpha</title><m:note>n1</m:note></book>
    <book id="b2" price="25"><title>Beta</title></book>
  </shelf>
  <shelf id="s2">
    <book id="b3" price="7"><title>Gamma</title></book>
  </shelf>
  <magazine id="m1"/>
</library>
"""


@pytest.fixture()
def doc():
    return parse_xml(DOC)


@pytest.fixture()
def engine():
    return XPathEngine(namespaces={"m": "urn:meta"})


def ids(nodes):
    return [n.get("id") for n in nodes]


class TestPaths:
    def test_absolute_path(self, engine, doc):
        assert ids(engine.select("/library/shelf", doc)) == ["s1", "s2"]

    def test_descendant_shorthand(self, engine, doc):
        assert ids(engine.select("//book", doc)) == ["b1", "b2", "b3"]

    def test_wildcard(self, engine, doc):
        nodes = engine.select("/library/*", doc)
        assert [n.tag.local for n in nodes] == ["shelf", "shelf", "magazine"]

    def test_namespaced_name_test(self, engine, doc):
        nodes = engine.select("//m:note", doc)
        assert len(nodes) == 1

    def test_namespace_wildcard(self, engine, doc):
        nodes = engine.select("//m:*", doc)
        assert [n.tag.local for n in nodes] == ["note"]

    def test_undeclared_prefix_raises(self, doc):
        with pytest.raises(XPathEvaluationError):
            XPathEngine().select("//zzz:a", doc)

    def test_attribute_axis(self, engine, doc):
        attrs = engine.select("//book/@price", doc)
        assert all(isinstance(a, AttributeNode) for a in attrs)
        assert [a.value for a in attrs] == ["10", "25", "7"]

    def test_parent_axis(self, engine, doc):
        nodes = engine.select("//book[@id='b3']/parent::shelf", doc)
        assert ids(nodes) == ["s2"]

    def test_ancestor_axis(self, engine, doc):
        nodes = engine.select("//title/ancestor::*", doc)
        locals_ = {n.tag.local for n in nodes}
        assert locals_ == {"library", "shelf", "book"}

    def test_ancestor_or_self(self, engine, doc):
        nodes = engine.select("//book[@id='b1']/ancestor-or-self::*", doc)
        assert [n.tag.local for n in nodes] == ["library", "shelf", "book"]

    def test_self_axis(self, engine, doc):
        assert ids(engine.select("//book/self::book", doc)) == ["b1", "b2", "b3"]

    def test_following_sibling(self, engine, doc):
        nodes = engine.select("//book[@id='b1']/following-sibling::book", doc)
        assert ids(nodes) == ["b2"]

    def test_preceding_sibling(self, engine, doc):
        nodes = engine.select("//book[@id='b2']/preceding-sibling::book", doc)
        assert ids(nodes) == ["b1"]

    def test_following_axis(self, engine, doc):
        nodes = engine.select("//book[@id='b2']/following::book", doc)
        assert ids(nodes) == ["b3"]

    def test_preceding_axis(self, engine, doc):
        nodes = engine.select("//book[@id='b3']/preceding::book", doc)
        assert ids(nodes) == ["b1", "b2"]

    def test_descendant_axis_excludes_self(self, engine, doc):
        nodes = engine.select("/library/descendant::shelf", doc)
        assert len(nodes) == 2

    def test_text_node_test(self, engine, doc):
        texts = engine.select("//title/text()", doc)
        assert [t.value for t in texts] == ["Alpha", "Beta", "Gamma"]

    def test_document_order_and_dedup(self, engine, doc):
        nodes = engine.select("//book | //book[@id='b1'] | //shelf", doc)
        assert ids(nodes) == ["s1", "b1", "b2", "s2", "b3"]

    def test_path_from_filter_expr(self, engine, doc):
        result = engine.evaluate("count((//shelf)[1]/book)", doc)
        assert result == 2.0

    def test_relative_from_context_node(self, engine, doc):
        shelf = engine.select("//shelf[@id='s2']", doc)[0]
        nodes = engine.select("book", doc, context_node=shelf)
        assert ids(nodes) == ["b3"]

    def test_dotdot(self, engine, doc):
        nodes = engine.select("//title/../..", doc)
        assert {n.tag.local for n in nodes} == {"shelf"}


class TestPredicates:
    def test_numeric_predicate(self, engine, doc):
        assert ids(engine.select("//book[2]", doc)) == ["b2"]

    def test_numeric_predicate_is_per_parent(self, engine, doc):
        assert ids(engine.select("//shelf/book[1]", doc)) == ["b1", "b3"]

    def test_last(self, engine, doc):
        assert ids(engine.select("//book[last()]", doc)) == ["b2", "b3"]

    def test_attribute_comparison(self, engine, doc):
        assert ids(engine.select("//book[@price > 8]", doc)) == ["b1", "b2"]

    def test_existence_predicate(self, engine, doc):
        assert ids(engine.select("//book[@lang]", doc)) == ["b1"]

    def test_string_equality_with_child(self, engine, doc):
        assert ids(engine.select("//book[title = 'Beta']", doc)) == ["b2"]

    def test_chained_predicates(self, engine, doc):
        assert ids(engine.select("//book[@price > 5][2]", doc)) == ["b2"]

    def test_reverse_axis_position(self, engine, doc):
        nodes = engine.select("//book[@id='b2']/preceding-sibling::*[1]", doc)
        assert ids(nodes) == ["b1"]

    def test_boolean_connectives(self, engine, doc):
        assert ids(
            engine.select("//book[@price > 8 and @lang = 'en']", doc)
        ) == ["b1"]
        assert ids(
            engine.select("//book[@price < 8 or @lang = 'en']", doc)
        ) == ["b1", "b3"]

    def test_position_function(self, engine, doc):
        assert ids(engine.select("//shelf/book[position() = 1]", doc)) == [
            "b1",
            "b3",
        ]


class TestFunctions:
    def test_count(self, engine, doc):
        assert engine.evaluate("count(//book)", doc) == 3.0

    def test_sum(self, engine, doc):
        assert engine.evaluate("sum(//book/@price)", doc) == 42.0

    def test_string_functions(self, engine, doc):
        assert engine.evaluate("concat('a', 'b', 'c')", doc) == "abc"
        assert engine.evaluate("starts-with('hello', 'he')", doc) is True
        assert engine.evaluate("contains('hello', 'ell')", doc) is True
        assert engine.evaluate("substring-before('a=b', '=')", doc) == "a"
        assert engine.evaluate("substring-after('a=b', '=')", doc) == "b"
        assert engine.evaluate("substring('12345', 2, 3)", doc) == "234"
        assert engine.evaluate("string-length('abcd')", doc) == 4.0
        assert engine.evaluate("normalize-space('  a   b ')", doc) == "a b"
        assert engine.evaluate("translate('abc', 'abc', 'ABC')", doc) == "ABC"

    def test_substring_edge_cases(self, engine, doc):
        # The infamous XPath 1.0 rounding examples.
        assert engine.evaluate("substring('12345', 1.5, 2.6)", doc) == "234"
        assert engine.evaluate("substring('12345', 0, 3)", doc) == "12"

    def test_name_functions(self, engine, doc):
        assert engine.evaluate("local-name(//m:note)", doc) == "note"
        assert engine.evaluate("namespace-uri(//m:note)", doc) == "urn:meta"
        assert engine.evaluate("local-name()", doc) == ""

    def test_number_functions(self, engine, doc):
        assert engine.evaluate("floor(2.7)", doc) == 2.0
        assert engine.evaluate("ceiling(2.1)", doc) == 3.0
        assert engine.evaluate("round(2.5)", doc) == 3.0
        assert engine.evaluate("round(-2.5)", doc) == -2.0

    def test_boolean_functions(self, engine, doc):
        assert engine.evaluate("not(false())", doc) is True
        assert engine.evaluate("boolean(//book)", doc) is True
        assert engine.evaluate("boolean(//nothing)", doc) is False

    def test_lang_reads_the_nearest_xml_lang(self, engine):
        tree = parse_xml('<r xml:lang="en-GB"><p/><q xml:lang="de"/></r>')
        assert engine.evaluate("count(//*[lang('en')])", tree) == 2.0
        assert engine.evaluate("count(//*[lang('DE')])", tree) == 1.0
        assert engine.evaluate("count(//*[lang('fr')])", tree) == 0.0

    def test_number_coercion(self, engine, doc):
        assert engine.evaluate("number('12')", doc) == 12.0
        assert math.isnan(engine.evaluate("number('nope')", doc))
        assert engine.evaluate("number(true())", doc) == 1.0

    def test_string_of_number(self, engine, doc):
        assert engine.evaluate("string(12)", doc) == "12"
        assert engine.evaluate("string(1.5)", doc) == "1.5"

    def test_unknown_function(self, engine, doc):
        with pytest.raises(XPathEvaluationError):
            engine.evaluate("frobnicate()", doc)

    def test_extension_function(self, doc):
        engine = XPathEngine(functions={"double": lambda ctx, v: 2 * v})
        assert engine.evaluate("double(21)", doc) == 42.0

    def test_concat_arity(self, engine, doc):
        with pytest.raises(XPathEvaluationError):
            engine.evaluate("concat('only-one')", doc)


class TestExpressions:
    def test_arithmetic(self, engine, doc):
        assert engine.evaluate("1 + 2 * 3", doc) == 7.0
        assert engine.evaluate("(1 + 2) * 3", doc) == 9.0
        assert engine.evaluate("7 mod 3", doc) == 1.0
        assert engine.evaluate("-7 mod 3", doc) == -1.0
        assert engine.evaluate("10 div 4", doc) == 2.5

    def test_division_by_zero(self, engine, doc):
        assert engine.evaluate("1 div 0", doc) == math.inf
        assert engine.evaluate("-1 div 0", doc) == -math.inf
        assert math.isnan(engine.evaluate("0 div 0", doc))

    def test_unary_minus(self, engine, doc):
        assert engine.evaluate("--3", doc) == 3.0
        assert engine.evaluate("-(1 + 2)", doc) == -3.0

    def test_nodeset_vs_number_comparison(self, engine, doc):
        assert engine.evaluate("//book/@price = 25", doc) is True
        assert engine.evaluate("//book/@price = 11", doc) is False

    def test_nodeset_vs_nodeset_comparison(self, engine, doc):
        # Existential: any pair of string-values equal.
        assert engine.evaluate("//book/@id = //shelf/book/@id", doc) is True

    def test_nodeset_vs_boolean(self, engine, doc):
        assert engine.evaluate("//book = true()", doc) is True
        assert engine.evaluate("//nothing = false()", doc) is True

    def test_nan_comparisons_false(self, engine, doc):
        assert engine.evaluate("number('x') < 1", doc) is False
        assert engine.evaluate("number('x') >= 1", doc) is False

    def test_variables(self, engine, doc):
        assert (
            engine.evaluate("$threshold + 1", doc, variables={"threshold": 9.0})
            == 10.0
        )

    def test_unbound_variable(self, engine, doc):
        with pytest.raises(XPathEvaluationError):
            engine.evaluate("$nope", doc)

    def test_select_requires_nodeset(self, engine, doc):
        with pytest.raises(XPathEvaluationError):
            engine.select("1 + 1", doc)

    def test_union_requires_nodesets(self, engine, doc):
        with pytest.raises(XPathEvaluationError):
            engine.evaluate("//book | 3", doc)
