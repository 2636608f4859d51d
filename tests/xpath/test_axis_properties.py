"""Property-based tests of XPath axis algebra.

The XPath data model fixes relationships between axes (ancestor is the
inverse of descendant, following/preceding partition the document, ...).
Random trees are generated and the invariants checked on every node.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.xmlutil import E, QName, XmlElement, parse
from repro.xpath import XPathEngine
from repro.xpath.context import DocumentContext
from repro.xpath.evaluator import (
    _ancestors,
    _descendants,
    _following,
    _preceding,
    _siblings,
)
from tests.xpath.reference_evaluator import ReferenceXPathEngine

_TAGS = ["a", "b", "c", "d"]


def _trees(depth: int = 3):
    if depth == 0:
        return st.builds(lambda t: E(t), st.sampled_from(_TAGS))
    return st.builds(
        lambda tag, kids: E(tag, *kids),
        st.sampled_from(_TAGS),
        st.lists(_trees(depth - 1), max_size=3),
    )


def _elements_of(root: XmlElement) -> list[XmlElement]:
    return list(root.iter())


class TestAxisAlgebra:
    @given(_trees())
    @settings(max_examples=60, deadline=None)
    def test_ancestor_inverse_of_descendant(self, root):
        document = DocumentContext(root)
        for node in _elements_of(root):
            for descendant in _descendants(node):
                if isinstance(descendant, XmlElement):
                    assert node in _ancestors(descendant, document)

    @given(_trees())
    @settings(max_examples=60, deadline=None)
    def test_following_preceding_partition(self, root):
        """self + ancestors + descendants + following + preceding covers
        every element exactly once."""
        document = DocumentContext(root)
        all_elements = _elements_of(root)
        for node in all_elements:
            groups = [
                {id(node)},
                {id(n) for n in _ancestors(node, document) if isinstance(n, XmlElement)},
                {id(n) for n in _descendants(node) if isinstance(n, XmlElement)},
                {id(n) for n in _following(node, document) if isinstance(n, XmlElement)},
                {id(n) for n in _preceding(node, document) if isinstance(n, XmlElement)},
            ]
            union = set().union(*groups)
            assert union == {id(n) for n in all_elements}
            total = sum(len(g) for g in groups)
            assert total == len(all_elements)  # pairwise disjoint

    @given(_trees())
    @settings(max_examples=60, deadline=None)
    def test_sibling_symmetry(self, root):
        document = DocumentContext(root)
        for node in _elements_of(root):
            for sibling in _siblings(node, document, forward=True):
                if isinstance(sibling, XmlElement):
                    back = _siblings(sibling, document, forward=False)
                    assert any(candidate is node for candidate in back)

    @given(_trees())
    @settings(max_examples=60, deadline=None)
    def test_document_order_is_total(self, root):
        document = DocumentContext(root)
        keys = [document.order_key(n) for n in _elements_of(root)]
        assert len(set(keys)) == len(keys)
        assert keys == sorted(keys)  # iter() is document order

    @given(_trees())
    @settings(max_examples=40, deadline=None)
    def test_descendant_or_self_counts(self, root):
        engine = XPathEngine()
        via_engine = engine.select("//*", root)
        assert len(via_engine) == len(_elements_of(root))

    @given(_trees())
    @settings(max_examples=40, deadline=None)
    def test_parent_of_child_is_self(self, root):
        engine = XPathEngine()
        for tag in _TAGS:
            children = engine.select(f"//{tag}", root)
            for child in children:
                parents = engine.select("..", root, context_node=child)
                for parent in parents:
                    if isinstance(parent, XmlElement):
                        assert any(c is child for c in parent.children)

    @given(_trees())
    @settings(max_examples=40, deadline=None)
    def test_count_consistency(self, root):
        engine = XPathEngine()
        for tag in _TAGS:
            counted = engine.evaluate(f"count(//{tag})", root)
            selected = engine.select(f"//{tag}", root)
            assert counted == len(selected)


def test_following_from_an_attribute_includes_its_owners_descendants():
    """Attributes precede their owner's children in document order, so
    ``following`` from ``@k`` starts with the owner's descendants."""
    root = parse('<r><a k="1"><b/></a><c/></r>')
    for engine in (XPathEngine(), ReferenceXPathEngine()):
        found = engine.evaluate("//@k/following::*", root)
        assert [node.tag.local for node in found] == ["b", "c"]
        assert engine.evaluate("//@k/preceding::*", root) == []
