"""The compiled XPath path against two oracles.

The benchmark cannot catch a wrong evaluator (its oracle calls the same
``xpath_execute``), so this suite does:

* **reference differential** — hypothesis-generated documents
  (namespaces, attributes, mixed text and comments, nesting) × an
  expression grammar over every axis, positional predicates on forward
  and reverse axes, unions, filters, ``//``, variables and the core
  functions.  The compiled closure and the old AST interpreter
  (``reference_evaluator.py``) run over one shared
  :class:`DocumentContext`; results must agree by node identity and
  order, scalars by value, errors by type.
* **ElementTree differential** — an independent implementation for the
  path subset ``xml.etree.ElementTree`` supports.

Plus the literal regressions of this PR's XPath-side fixes (number
lexical form, reverse-axis positions) and the shared-closure thread
test.
"""

import math
import sys
import threading
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.xmlutil import E, QName, XmlElement, parse
from repro.xmlutil.tree import Comment, Text
from repro.xpath import XPathEngine, XPathError, XPathEvaluationError, compile_xpath
from repro.xpath.context import AttributeNode, DocumentContext, DocumentNode
from repro.xpath.functions import to_number

from tests.xpath.reference_evaluator import ReferenceXPathEngine

NAMESPACES = {"n": "urn:n"}
ENGINE = XPathEngine(namespaces=NAMESPACES)
REFERENCE = ReferenceXPathEngine(namespaces=NAMESPACES)

# -- documents -------------------------------------------------------------------

_TAGS = [QName("", "a"), QName("", "b"), QName("", "c"), QName("urn:n", "a")]
_ATTRS = [QName("", "k"), QName("", "id"), QName("urn:n", "q")]
_VALUES = ["1", "2", "2.5", "x", "", " 3 "]


def _element(tag, attributes, children) -> XmlElement:
    element = XmlElement(tag, dict(attributes))
    for child in children:  # append() merges adjacent text, as the parser does
        element.append(child)
    return element


def _documents(depth: int = 3):
    attributes = st.dictionaries(
        st.sampled_from(_ATTRS), st.sampled_from(_VALUES), max_size=2
    )
    leaves = st.one_of(
        st.sampled_from(_VALUES[:4]).map(Text),
        st.sampled_from(["note", "1"]).map(Comment),
    )
    if depth == 0:
        children = st.lists(leaves, max_size=2)
    else:
        children = st.lists(st.one_of(leaves, _documents(depth - 1)), max_size=4)
    return st.builds(_element, st.sampled_from(_TAGS), attributes, children)


def _all_nodes(document: DocumentContext) -> list:
    """Every node of the document, attributes included, in document order."""
    out = [document.document]
    stack = [document.document.root]
    while stack:
        node = stack.pop()
        out.append(node)
        if isinstance(node, XmlElement):
            out.extend(document.attributes_of(node))
            stack.extend(reversed(node.children))
    return out


# -- expressions -----------------------------------------------------------------

_AXES = [
    "ancestor", "ancestor-or-self", "attribute", "child", "descendant",
    "descendant-or-self", "following", "following-sibling", "parent",
    "preceding", "preceding-sibling", "self",
]
_NODE_TESTS = ["a", "b", "c", "n:a", "n:*", "*", "node()", "text()", "comment()"]
_ATTR_TESTS = ["@k", "@id", "@n:q", "@*", "@n:*", "attribute::node()"]


def _expressions():
    def predicates(expr):
        simple = st.sampled_from(
            [
                "[1]", "[2]", "[last()]", "[position() > 1]", "[position() = last()]",
                "[@k]", "[@k = '1']", "[@id > 1]", "[b]", "[. = 'x']", "[not(*)]",
                "[count(*) > 1]", "[text()]", "[0]", "[1.5]", "[$n]", "[$s]",
                "[last() - 1]", "[a | b]", "[string-length() > 0]",
            ]
        )
        return st.one_of(simple, expr.map("[{}]".format))

    def step(expr):
        axis_step = st.builds(
            "{}::{}{}".format,
            st.sampled_from(_AXES),
            st.sampled_from(_NODE_TESTS),
            st.lists(predicates(expr), max_size=2).map("".join),
        )
        return st.one_of(
            axis_step,
            axis_step,
            st.builds("{}{}".format, st.sampled_from(_NODE_TESTS[:6]),
                      st.lists(predicates(expr), max_size=2).map("".join)),
            st.sampled_from(_ATTR_TESTS + [".", "..", "namespace::a"]),
        )

    def path(expr):
        steps = st.lists(step(expr), min_size=1, max_size=3)
        glue = st.sampled_from(["/", "/", "//"])
        relative = st.builds(
            lambda parts, glues: "".join(
                part + (g if i + 1 < len(parts) else "")
                for i, (part, g) in enumerate(zip(parts, glues + ["/"] * 3))
            ),
            steps,
            st.lists(glue, min_size=3, max_size=3),
        )
        start = st.sampled_from(["", "/", "//", ".//", "$v/", "$v//", "$w/"])
        return st.one_of(
            st.builds("{}{}".format, start, relative),
            st.builds("({}){}/{}".format, relative, predicates(expr), relative),
            st.builds("({} | {})".format, relative, relative),
            st.builds("$v{}".format, predicates(expr)),
            st.just("/"),
        )

    def extend(expr):
        node_sets = path(expr)
        operator_ = st.sampled_from(["=", "!=", "<", "<=", ">", ">=", "+", "-", "*",
                                     "div", "mod", "and", "or", "|"])
        unary = st.sampled_from(
            ["count({})", "sum({})", "string({})", "number({})", "boolean({})",
             "not({})", "name({})", "local-name({})", "namespace-uri({})",
             "string-length({})", "normalize-space({})", "floor({})", "ceiling({})",
             "round({})", "-{}", "({})", "lang({})", "frobnicate({})"]
        )
        binary = st.sampled_from(
            ["concat({}, {})", "contains({}, {})", "starts-with({}, {})",
             "substring-before({}, {})", "substring-after({}, {})",
             "substring({}, {})", "translate({}, {}, 'xyz')"]
        )
        return st.one_of(
            node_sets,
            node_sets,
            st.builds("{} {} {}".format, expr, operator_, expr),
            st.builds(lambda f, x: f.format(x), unary, expr),
            st.builds(lambda f, x, y: f.format(x, y), binary, expr, expr),
        )

    atoms = st.sampled_from(
        ["1", "2", "0.5", "'x'", "'1'", "''", "$n", "$s", "$missing", "true()",
         "false()", "position()", "last()", "string()", "name()", "number('1e3')",
         "count('x')", ".", "*", "@k", "//a", "//*[@k]/@k", "//text()"]
    )
    return st.recursive(atoms, extend, max_leaves=6)


def _same(left, right) -> bool:
    if isinstance(left, list) or isinstance(right, list):
        return (
            isinstance(left, list)
            and isinstance(right, list)
            and len(left) == len(right)
            and all(a is b for a, b in zip(left, right))
        )
    if isinstance(left, float) and isinstance(right, float):
        return left == right or (math.isnan(left) and math.isnan(right))
    return type(left) is type(right) and left == right


def _outcome(run):
    try:
        return "value", run()
    except XPathError as exc:
        return "error", type(exc)


class TestAgainstReference:
    @given(_documents(), _expressions(), st.data())
    @settings(max_examples=400, deadline=None)
    def test_compiled_equals_interpreter(self, root, expression, data):
        document = DocumentContext(root)
        nodes = _all_nodes(document)
        context_node = nodes[data.draw(st.integers(0, len(nodes) - 1), label="node")]
        picks = data.draw(
            st.lists(st.integers(0, len(nodes) - 1), max_size=5), label="$v"
        )
        variables = {
            "v": [nodes[i] for i in picks],  # any order, duplicates allowed
            "w": nodes[1:2],
            "n": 2.0,
            "s": "x",
        }

        def compiled():
            run = compile_xpath(expression, ENGINE.namespace_key)
            return run(context_node, ENGINE.context(document, variables, context_node))

        def interpreted():
            return REFERENCE.evaluate(
                expression, root, context_node=context_node,
                variables=variables, document=document,
            )

        kind, got = _outcome(compiled)
        expected_kind, expected = _outcome(interpreted)
        assert kind == expected_kind, (expression, got, expected)
        if kind == "error":
            assert got is expected, expression
        else:
            assert _same(got, expected), (expression, got, expected)

    @given(_documents(), _expressions())
    @settings(max_examples=100, deadline=None)
    def test_public_entry_point(self, root, expression):
        """``XPathEngine.evaluate`` is the closure plus a context of its
        own, so document and attribute nodes are compared by what they
        stand for rather than by identity."""

        def key(node):
            if isinstance(node, AttributeNode):
                return (id(node.owner), node.name)
            return "/" if isinstance(node, DocumentNode) else id(node)

        variables = {"n": 2.0, "s": "x", "v": [root], "w": [root]}
        kind, got = _outcome(lambda: ENGINE.evaluate(expression, root, variables=variables))
        expected_kind, expected = _outcome(
            lambda: REFERENCE.evaluate(expression, root, variables=variables)
        )
        assert kind == expected_kind, expression
        if isinstance(got, list) and isinstance(expected, list):
            assert [key(n) for n in got] == [key(n) for n in expected], expression
        elif kind == "value":
            assert _same(got, expected), expression

    def test_every_axis_after_every_axis(self):
        """Exhaustive where hypothesis is sparse: every ordered pair of
        axes, with and without positional predicates, from a nested,
        an unordered and a single-node start — each combination the
        static order flag has to get right."""
        root = parse(
            "<a k='1'><a id='2'>t<b k='3'><a/>u<!--c--><b/></b><b/></a>"
            "<b k='4' id='5'><a><a>v</a></a></b><!--d-->w</a>"
        )
        document = DocumentContext(root)
        nodes = _all_nodes(document)
        inner = root.children[0].children[1]
        variables = {
            "v": nodes[::-3] + nodes[4:9],
            "w": nodes[3:4],
            "u": [inner, root],  # two nodes: nested and out of order
            "d": [inner, inner],
        }
        tails = ["", "[1]", "[last()]", "[position() > 1]"]
        starts = ("//node()", "$v", "$w", "$u", "$d", "(//a | //@*)", "(//a)[true()]",
                  "$v[true()]")
        for start in starts:
            for first in _AXES:
                for second in _AXES:
                    for tail in tails:
                        expression = f"{start}/{first}::node()/{second}::node(){tail}"
                        run = compile_xpath(expression)
                        got = run(document.document, ENGINE.context(document, variables))
                        expected = REFERENCE.evaluate(
                            expression, root, variables=variables, document=document
                        )
                        assert _same(got, expected), expression

    def test_undeclared_prefix_is_a_static_error(self):
        """The interpreter noticed an undeclared prefix only when a
        candidate reached the test; the compiler resolves names up front."""
        root = parse("<a/>")
        with pytest.raises(XPathEvaluationError, match="undeclared namespace"):
            XPathEngine().evaluate("zzz:b", root)
        assert ReferenceXPathEngine().evaluate("/a/b/zzz:c", root) == []
        with pytest.raises(XPathEvaluationError):
            ReferenceXPathEngine().evaluate("zzz:a", root)


# -- ElementTree: an independent implementation of a path subset -------------------


def _plain_documents(depth: int = 3):
    """No namespaces, no comments: what ElementTree paths can address."""
    attributes = st.dictionaries(
        st.sampled_from(["k", "id"]), st.sampled_from(["1", "2", "x"]), max_size=2
    )
    text = st.sampled_from(["1", "x", "y z"])
    children = (
        st.lists(text, max_size=1)
        if depth == 0
        else st.lists(st.one_of(text, _plain_documents(depth - 1)), max_size=4)
    )
    return st.builds(
        lambda tag, attrs, kids: _element(QName("", tag), attrs, kids),
        st.sampled_from(["a", "b", "c"]),
        attributes,
        children,
    )


def _to_etree(element: XmlElement, twins: dict) -> ET.Element:
    twin = ET.Element(element.tag.local, {k.local: v for k, v in element.attributes.items()})
    twins[id(twin)] = element
    last = None
    for child in element.children:
        if isinstance(child, XmlElement):
            last = _to_etree(child, twins)
            twin.append(last)
        elif last is None:
            twin.text = (twin.text or "") + child.value
        else:
            last.tail = (last.tail or "") + child.value
    return twin


# ElementTree counts `[n]` among same-tag siblings, which is XPath's
# meaning only directly after a name test: no `*[1]`, no `a[@k][1]`.
_ET_STEPS = st.one_of(
    st.builds(
        "{}{}".format,
        st.sampled_from(["a", "b", "c", "*"]),
        st.sampled_from(["", "", "[@k='1']", "[@id]", "[c='x']", "[b='1']", "[c]",
                         "[@k='x'][b]"]),
    ),
    st.builds(
        "{}{}{}".format,
        st.sampled_from(["a", "b", "c"]),
        st.sampled_from(["[1]", "[2]", "[last()]"]),
        st.sampled_from(["", "", "[@k='1']", "[c]"]),
    ),
)
_ET_PATHS = st.builds(
    lambda start, steps, glues: start
    + "".join(s + (g if i + 1 < len(steps) else "") for i, (s, g) in
              enumerate(zip(steps, glues + ["/"] * 3))),
    st.sampled_from(["", ".//", "./"]),
    st.lists(_ET_STEPS, min_size=1, max_size=3),
    st.lists(st.sampled_from(["/", "/", "//"]), min_size=3, max_size=3),
)


class TestAgainstElementTree:
    @given(_plain_documents(), _ET_PATHS)
    @settings(max_examples=300, deadline=None)
    def test_path_subset(self, root, path):
        """ElementTree says *which* elements (it repeats and misorders
        matches under nested contexts); ``iter()`` says in what order."""
        twins: dict = {}
        expected = {id(twins[id(e)]) for e in _to_etree(root, twins).findall(path)}
        got = XPathEngine().select(path, root, context_node=root)
        assert {id(n) for n in got} == expected, path
        order = {id(e): i for i, e in enumerate(root.iter())}
        positions = [order[id(n)] for n in got]
        assert positions == sorted(set(positions)), path


# -- literal regressions -----------------------------------------------------------


class TestNumberLexicalForm:
    """XPath 1.0 §4.4: ``-? (Digits ('.' Digits?)? | '.' Digits)`` between
    optional whitespace; anything else is NaN (``float()`` is laxer)."""

    @pytest.mark.parametrize(
        "text, value",
        [("12", 12.0), (" 12\n", 12.0), ("-3.50", -3.5), ("5.", 5.0), (".5", 0.5),
         ("-.5", -0.5), ("007", 7.0)],
    )
    def test_numbers(self, text, value):
        assert to_number(text) == value

    @pytest.mark.parametrize(
        "text",
        ["1_0", "1e3", "1E3", "inf", "-inf", "nan", "NaN", "Infinity", "+1", "1 2",
         "", " ", ".", "-", "0x10", "١٢", "1,5", " 12"],
    )
    def test_everything_else_is_nan(self, text):
        assert math.isnan(to_number(text))

    def test_comparisons_and_functions_use_it(self):
        root = parse("<r><p>1e3</p><p>inf</p><p>1_0</p><p>4</p></r>")
        engine = XPathEngine()
        assert [p.text for p in engine.select("/r/p[. > 5]", root)] == []
        assert [p.text for p in engine.select("/r/p[. < 5]", root)] == ["4"]
        assert math.isnan(engine.evaluate("number('1_0')", root))
        assert math.isnan(engine.evaluate("sum(/r/p)", root))
        assert engine.evaluate("number(' 10 ') + 1", root) == 11.0


class TestFunctionsNeverRaiseBareErrors:
    """Found by the differential (which lets anything but an
    ``XPathError`` escape): these were a bare ``ValueError`` — a 500, not
    a fault — and ``floor``/``ceiling``/``round`` returned ``int``."""

    def test_rounding_functions_on_non_finite_numbers(self):
        engine, root = XPathEngine(), parse("<r/>")
        for name in ("floor", "ceiling", "round"):
            assert math.isnan(engine.evaluate(f"{name}('x')", root))
            assert engine.evaluate(f"{name}(1 div 0)", root) == math.inf
            assert type(engine.evaluate(f"{name}(2.5)", root)) is float
        assert engine.evaluate("floor(-2.5)", root) == -3.0
        assert engine.evaluate("ceiling(-2.5)", root) == -2.0
        assert engine.evaluate("round(-2.5)", root) == -2.0

    def test_empty_separator(self):
        engine, root = XPathEngine(), parse("<r/>")
        assert engine.evaluate("substring-before('abc', '')", root) == ""
        assert engine.evaluate("substring-after('abc', '')", root) == "abc"
        assert engine.evaluate("substring-before('a=b', '=')", root) == "a"
        assert engine.evaluate("substring-after('a=b', 'x')", root) == ""


class TestReverseAxisPositions:
    """Proximity position on a reverse axis counts from the context node
    outwards.  The interpreter got ``preceding`` right and the other three
    backwards; both sides are fixed."""

    DOC = "<r><a/><b/><c><d><e/></d></c><f/></r>"

    @pytest.mark.parametrize(
        "expression, expected",
        [
            ("//c/preceding-sibling::*[1]", ["b"]),
            ("//c/preceding-sibling::*[last()]", ["a"]),
            ("//e/ancestor::*[1]", ["d"]),
            ("//e/ancestor::*[last()]", ["r"]),
            ("//e/ancestor-or-self::*[1]", ["e"]),
            ("//e/ancestor-or-self::*[2]", ["d"]),
            ("//f/preceding::*[1]", ["e"]),
            ("//f/preceding::*[position() < 3]", ["d", "e"]),
            ("//c/following-sibling::*[1]", ["f"]),
            ("//a/following::*[2]", ["c"]),
            ("//e/ancestor::*", ["r", "c", "d"]),
        ],
    )
    @pytest.mark.parametrize("engine", [XPathEngine(), ReferenceXPathEngine()])
    def test_positions(self, engine, expression, expected):
        nodes = engine.select(expression, parse(self.DOC))
        assert [n.tag.local for n in nodes] == expected


class TestLazyDocumentContext:
    def test_forward_paths_build_no_maps(self):
        root = parse("<r><a k='1'><b>2</b></a><a k='2'/></r>")
        document = DocumentContext(root)
        run = compile_xpath("count(/r/a[@k = '1']/b[. > 1]) + count(/r/descendant::b)")
        assert run(document.document, XPathEngine().context(document, {})) == 2.0
        assert document._parents is None

    def test_attributes_minted_before_the_maps_keep_their_order(self):
        root = parse("<r><a k='1' j='2'><b/></a></r>")
        document = DocumentContext(root)
        early = document.attributes_of(root.children[0])
        assert document._parents is None
        keys = [document.order_key(n) for n in (root, root.children[0], *early,
                                                root.children[0].children[0])]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)
        assert document.attributes_of(root.children[0])[0] is early[0]
        assert document.parent_of(early[1]) is root.children[0]


class TestSharedClosure:
    def test_eight_threads_share_one_compiled_expression(self):
        """Closures are pure in (AST, namespaces); per-run state rides the
        context.  A closure that kept a focus or a document on itself
        would mix the threads' answers."""
        expression = (
            "sum(//item[position() mod 2 = 1][@w > $floor]/@w)"
            " + count(//item[last()]/preceding-sibling::item[1] | //item[1])"
        )
        run = compile_xpath(expression)
        engine = XPathEngine()
        roots = [
            E("r", *[E("item", w=str(t + i)) for i in range(6 + t)]) for t in range(8)
        ]
        floors = [float(t) for t in range(8)]
        expected = [
            ReferenceXPathEngine().evaluate(expression, root, variables={"floor": floor})
            for root, floor in zip(roots, floors)
        ]
        assert len(set(expected)) == 8  # a mixed-up answer would show
        wrong: list = []

        def worker(index: int) -> None:
            for _ in range(200):
                document = DocumentContext(roots[index])
                ctx = engine.context(document, {"floor": floors[index]})
                value = run(document.document, ctx)
                if value != expected[index]:
                    wrong.append((index, value))

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert compile_xpath(expression) is run
