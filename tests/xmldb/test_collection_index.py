"""The collection value index against the scan it stands in for.

A statement whose compiled form has a root filter (``/T[operand op
literal]…``, ``/P/T[operand op literal]…``, ``count()`` of either, or a
FLWOR over ``/T`` whose first ``where`` is that comparison) is answered
from the elements the collection's value index says pass the filter:
the rest of the statement runs from them, and a count is their number
after it.  That is right only while the index agrees with the
documents, so the generative guard interleaves indexed statements with
every way a collection changes — add, replace, remove, XUpdate — and
checks each answer against the same closure run over *all* roots.  The
threaded cases check the ordering promise: once an XUpdate has returned,
no query answers from an index built before it.
"""

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import mint_abstract_name
from repro.daix import XMLCollectionResource
from repro.daix.resources import value_to_items
from repro.obs import use_exporter
from repro.obs.exposition import prometheus_text
from repro.xmldb import CollectionManager, XQueryEngine
from repro.xmldb.collection import INDEX_CAPACITY
from repro.xmldb.xquery import _plan
from repro.xmlutil import E, QName, XmlElement, parse, serialize
from repro.xpath import XPathEngine, compile_xpath
from repro.xpath.evaluator import RootFilter

NAMESPACES = {"n": "urn:n"}
XPATH = XPathEngine(namespaces=NAMESPACES)
XQUERY = XQueryEngine(namespaces=NAMESPACES)
XUPDATE = "http://www.xmldb.org/xupdate"

# -- documents ---------------------------------------------------------------------

_ROOTS = [QName("", "item")] * 4 + [QName("urn:n", "item"), QName("", "other")]
# Numbers, numbers in XPath's lexical form only with whitespace, and
# strings that are NaN as numbers; repeated values make equal keys.
_VALUES = ["1", "2", "2.5", "10", "-3", " 7 ", "x", "", "NaN", "1e3", "2"]


def _document(parts=(0, 3)):
    """A root with zero or more ``part`` children (*parts*: their number's
    bounds), each like the root but with no parts of its own."""

    def build(tag, code, q, prices, names, parts):
        attributes = {}
        if code is not None:
            attributes[QName("", "code")] = code
        if q is not None:
            attributes[QName("urn:n", "q")] = q
        element = XmlElement(tag, attributes)
        for price in prices:  # zero, one or several: missing and repeated operands
            element.append(E("price", price))
        for part in parts:
            element.append(part)
        for name in names:
            element.append(E("name", name))
        return element

    value = st.sampled_from(_VALUES)

    def elements(tags, parts):
        return st.builds(
            build,
            tags,
            st.none() | value,
            st.none() | value,
            st.lists(value, max_size=3),
            st.lists(st.sampled_from(["bolt", "1", "2.5"]), max_size=2),
            parts,
        )

    # The item/part level: a root's children filtered by /P/part[…].
    part = elements(st.just(QName("", "part")), st.just(()))
    return elements(
        st.sampled_from(_ROOTS), st.lists(part, min_size=parts[0], max_size=parts[1])
    )


# -- statements --------------------------------------------------------------------

_OPERANDS = ["@code", "@n:q", "price", "name"]
_OPS = ["=", "<", "<=", ">", ">="]
_LITERALS = ["'1'", "'2.5'", "'x'", "''", "'NaN'", "'1e3'", "'-3'", "2", "2.5", "0", "10",
             "7"]


def _comparison(operands, operand_prefix: str = ""):
    def render(operand, op, literal, flipped):
        operand = operand_prefix + operand
        return f"{literal} {op} {operand}" if flipped else f"{operand} {op} {literal}"

    return st.builds(
        render,
        st.sampled_from(operands),
        st.sampled_from(_OPS),
        st.sampled_from(_LITERALS),
        st.booleans(),
    )


_ROOT_TESTS = st.sampled_from(["item", "item", "item", "n:item", "other"])
_SECOND = st.sampled_from(["", "", "[name]", "[price > 1]", "[1]", "[last()]", "[2]"])
_TAILS = st.sampled_from(["", "/name", "/price", "/@code", "/price[. > 1]", "/*[2]",
                          "//text()", "/../@code"])


def _statements(operands=_OPERANDS, depths=("", "", "/part")):
    depths = st.sampled_from(depths)  # /T[…] or /P/part[…]
    xpaths = st.builds(
        "/{}{}[{}]{}{}".format,
        _ROOT_TESTS,
        depths,
        _comparison(operands),
        _SECOND,
        _TAILS,
    )
    counts = xpaths.map("count({})".format)
    flwors = st.builds(
        lambda root, where, order, result: (
            f"for $v in /{root} where {where} {order} return {result}"
        ),
        _ROOT_TESTS,
        _comparison(operands, "$v/"),
        st.sampled_from(["", "order by $v/price", "order by $v/@code descending"]),
        st.sampled_from(["$v/name", '<r c="{$v/@code}">{$v/price}</r>', "$v"]),
    )
    parts = st.builds(  # a first for over /P/part[…]: the documents it selects from
        lambda root, where: f"for $v in /{root}/part[{where}] return $v/name",
        _ROOT_TESTS,
        _comparison(operands),
    )
    return st.one_of(
        xpaths.map(lambda text: ("xpath", text)),
        counts.map(lambda text: ("xpath", text)),
        flwors.map(lambda text: ("xquery", text)),
        parts.map(lambda text: ("xquery", text)),
        st.one_of(xpaths, counts).map(lambda text: ("xquery", text)),  # bare XPath
    )


_STATEMENTS = _statements()
#: One statement per operand, asked after every step.
_WATCHED = st.tuples(*[_statements([operand]) for operand in _OPERANDS]).map(list)


# -- the two ways to answer ------------------------------------------------------------


def _indexed(resource, language: str, text: str) -> tuple[list[str], str]:
    """The resource's answer and how the span says it found its roots
    (an XQuery over no documents at all opens no span)."""
    run = resource.xpath_execute if language == "xpath" else resource.xquery_execute
    with use_exporter() as exporter:
        items = run(text)
    spans = exporter.spans("xpath.evaluate")
    how = spans[0].attributes["index"] if spans else "build"
    return [serialize(item) for item in items], how


def _scanned(resource, language: str, text: str) -> list[str]:
    """The same statement over every root, with no index (nor the
    collection's kept document list)."""
    collection = resource.collection
    roots = [collection.get(name).root for name in collection.document_names()]
    if language == "xpath":
        items = []
        for value in XPATH.evaluate_each(text, roots):
            items.extend(value_to_items(value))
    else:
        items = value_to_items(XQUERY.execute(text, roots)) if roots else []
    return [serialize(item) for item in items]


def _modifications(*operations: str) -> XmlElement:
    return parse(
        f'<xu:modifications xmlns:xu="{XUPDATE}" xmlns:n="urn:n">'
        + "".join(operations)
        + "</xu:modifications>"
    )


# (modification, the root and operand whose values it sets, if any)
_XUPDATES = st.sampled_from(
    [
        ('<xu:update select="/item/price">{}</xu:update>', "item", "price"),
        ('<xu:update select="/item/@code">{}</xu:update>', "item", "@code"),
        ('<xu:update select="/n:item/@n:q">{}</xu:update>', "n:item", "@n:q"),
        ('<xu:remove select="/item/price[1]"/>', None, None),
        ('<xu:remove select="/*/@code"/>', None, None),
        ('<xu:append select="/*"><xu:element name="price">{}</xu:element></xu:append>',
         "item", "price"),
        ('<xu:append select="/item"><xu:attribute name="code">{}</xu:attribute>'
         "</xu:append>", "item", "@code"),
        ('<xu:update select="/item/part/price">{}</xu:update>', "item/part", "price"),
        ('<xu:update select="/item/part/@code">{}</xu:update>', "item/part", "@code"),
        ('<xu:remove select="/item/part[1]"/>', None, None),
        ('<xu:append select="/item"><xu:element name="part"><price>{}</price>'
         "</xu:element></xu:append>", "item/part", "price"),
    ]
)


def _probes(step) -> list:
    """For an XUpdate that sets values: statements selecting exactly the
    value it sets, by string and by number — asked before it (building
    the indexes) and after it, when a stale index would miss the
    documents it changed."""
    if step[0] != "xupdate" or step[1][1] is None:
        return []
    _, (_, root, operand), value, _ = step
    return [
        ("xpath", f"/{root}[{operand} = '{value}']"),
        ("xpath", f"count(/{root}[{operand} >= '{value}'])"),
        ("xquery", f"for $v in /{root}['{value}' <= {operand}] return $v"
         if "/" in root else
         f"for $v in /{root} where '{value}' <= $v/{operand} return $v"),
    ]

_STEPS = st.one_of(
    _STATEMENTS.map(lambda statement: ("query",) + statement),
    st.tuples(st.just("add"), _document()),
    st.tuples(st.just("replace"), st.integers(0, 7), _document()),
    st.tuples(st.just("remove"), st.integers(0, 7)),
    st.tuples(
        st.just("xupdate"),
        _XUPDATES,
        st.sampled_from(_VALUES),
        st.none() | st.integers(0, 7),  # one document, or all of them
    ),
)


def _resource(documents) -> XMLCollectionResource:
    collection = CollectionManager().create_path("items")
    for ordinal, root in enumerate(documents):
        collection.add(f"d{ordinal:02d}", root)
    return XMLCollectionResource(mint_abstract_name("items"), collection, NAMESPACES)


def _apply(resource, step, counter: list) -> None:
    collection = resource.collection
    names = collection.document_names()
    if step[0] == "add":
        counter[0] += 1
        collection.add(f"e{counter[0]:03d}", step[1])
    elif step[0] == "replace" and names:
        collection.add(names[step[1] % len(names)], step[2], replace=True)
    elif step[0] == "remove" and names:
        collection.remove(names[step[1] % len(names)])
    elif step[0] == "xupdate":
        _, (template, _, _), value, pick = step
        target = None if pick is None or not names else names[pick % len(names)]
        resource.xupdate_execute(_modifications(template.format(value)), target)


class TestIndexedEqualsScanned:
    @given(
        st.lists(_document(), min_size=1, max_size=6),
        st.lists(_STEPS, min_size=1, max_size=12),
        _WATCHED,
    )
    @settings(max_examples=200, deadline=None)
    def test_interleaved_with_every_mutation(self, documents, steps, watched):
        """*watched* statements are asked again after every step, so an
        index built before a change is probed after it."""
        resource = _resource(documents)
        counter = [0]

        def ask(statements):
            for language, text in statements:
                got, how = _indexed(resource, language, text)
                # A count as an XQuery has a value in every document: a scan.
                counted = language == "xquery" and text.startswith("count(")
                assert how in (("scan", "build") if counted else ("probe", "build")), text
                assert got == _scanned(resource, language, text), (language, text)

        ask(watched)
        for step in steps:
            if step[0] == "query":
                ask([step[1:]])
            else:
                ask(_probes(step))
                _apply(resource, step, counter)
                ask(_probes(step) + watched)

    @given(
        st.lists(_document(parts=(2, 4)), min_size=2, max_size=5),
        st.lists(
            st.builds(
                "/item/part[{} {} {}]{}{}".format,
                st.sampled_from(["price", "@code"]),
                st.sampled_from(_OPS),
                st.sampled_from(["0", "1", "2", "2.5", "7", "'1'"]),
                _SECOND,
                _TAILS,
            ).flatmap(lambda text: st.sampled_from([text, f"count({text})"])),
            min_size=1,
            max_size=10,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_the_child_level(self, documents, statements):
        """``/P/part[…]`` over documents that each hold several parts:
        the parts that pass keep document order within their document,
        later positions count among them, and the rest runs with their
        own document as the context (``/..`` reaches their root)."""
        resource = _resource(documents)
        for text in statements:
            got, _ = _indexed(resource, "xpath", text)
            assert got == _scanned(resource, "xpath", text), text

    def test_every_mutation_moves_the_answer(self):
        """Literal mutation arm: each way of changing the collection is
        seen by the very next probe of an index built before it."""
        resource = _resource(
            [E("item", E("price", "1"), code="a"), E("item", E("price", "5"), code="b")]
        )
        cheap = "/item[price < 3]/@code"

        def codes():
            got, how = _indexed(resource, "xpath", cheap)
            assert got == _scanned(resource, "xpath", cheap)
            return [item.split(">")[1].split("<")[0] for item in got], how

        assert codes() == (["a"], "build")
        assert codes() == (["a"], "probe")
        resource.collection.add("d02", E("item", E("price", "2"), code="c"))
        assert codes() == (["a", "c"], "build")
        resource.collection.add("d00", E("item", E("price", "9"), code="z"), replace=True)
        assert codes() == (["c"], "build")
        resource.collection.remove("d02")
        assert codes() == ([], "build")
        resource.xupdate_execute(
            _modifications('<xu:update select="/item/price">0</xu:update>'), "d01"
        )
        assert codes() == (["b"], "build")
        assert codes() == (["b"], "probe")

    def test_a_failing_xupdate_still_moves_the_version(self):
        """The first document is changed before the second one faults:
        the change must not hide behind a stale index."""
        from repro.core.faults import InvalidExpressionFault

        resource = _resource([E("item", E("price", "1")), E("other", "text")])
        assert _indexed(resource, "xpath", "/item[price = 1]")[0] != []
        version = resource.collection.version
        with pytest.raises(InvalidExpressionFault):
            resource.xupdate_execute(
                _modifications(
                    '<xu:update select="/item/price">4</xu:update>',
                    '<xu:append select="/other/text()">'
                    '<xu:element name="x"/></xu:append>',
                )
            )
        assert resource.collection.version > version
        assert _indexed(resource, "xpath", "/item[price = 1]") == ([], "build")

    def test_an_index_built_during_an_update_is_stale_after_it(self):
        """The version moves after the last document changed: an index a
        query builds half-way through an XUpdate carries the version from
        before it, so the first query after the update builds anew."""
        resource = _resource([E("item", v="0") for _ in range(3)])
        apply = resource._xupdate.apply

        def apply_then_query(modifications, root):
            count = apply(modifications, root)
            resource.xpath_execute("/item[@v >= 1]")  # a reader lands mid-update
            return count

        resource._xupdate.apply = apply_then_query
        resource.xupdate_execute(_modifications('<xu:update select="/item/@v">1</xu:update>'))
        assert len(resource.xpath_execute("/item[@v >= 1]")) == 3


class TestShapes:
    @pytest.mark.parametrize(
        "expression, expected",
        [
            ("/item[@code = '3']/name", ("item", "attribute", "code", "=", "3")),
            ("/item['3' = @code]", ("item", "attribute", "code", "=", "3")),
            ("/item[price > 250]/name", ("item", "child", "price", ">", 250.0)),
            ("/item[250 > price][name]", ("item", "child", "price", "<", 250.0)),
            ("/item[price >= '2.5']", ("item", "child", "price", ">=", 2.5)),
            ("/item[price = 7]", ("item", "child", "price", "=", 7.0)),
            ("/n:item[@n:q <= 1]", ("{urn:n}item", "attribute", "{urn:n}q", "<=", 1.0)),
            ("count(/item[@code = '3'])", ("item", "attribute", "code", "=", "3")),
            ("/item/part[price > 2]/name",
             ("part", "child", "price", ">", 2.0, "item")),
            ("count(/n:item/part[@code = 'a'][1])",
             ("part", "attribute", "code", "=", "a", "{urn:n}item")),
        ],
    )
    def test_filtered(self, expression, expected):
        tag, axis, operand, op, literal, *parent = expected
        assert compile_xpath(expression, XPATH.namespace_key).root_filter == RootFilter(
            QName.parse(tag), axis, QName.parse(operand), op, literal,
            QName.parse(parent[0]) if parent else None,
        )

    @pytest.mark.parametrize(
        "expression, rest, counted",
        [
            ("/item[@code = '3']", False, False),
            ("count(/item/part[price > 2])", False, True),
            ("count(/item/part[price > 2][1])", True, True),
            ("/item/part[price > 2]/name", True, False),
        ],
    )
    def test_rest_and_count(self, expression, rest, counted):
        run = compile_xpath(expression, XPATH.namespace_key)
        assert (run.rest is not None, run.counted) == (rest, counted)

    @pytest.mark.parametrize(
        "expression",
        [
            "/item[@code != '3']",
            "/item[@code = $x]",
            "/item/price[. > 1]",  # the operand is the context node
            "/item[1]/part[price > 1]",  # a predicate on the parent step
            "/item/part/x[price > 1]",  # the predicate is past the second step
            "//item/part[price > 1]",
            "/*/part[price > 1]",
            "sum(/item[price > 1]/price)",
            "count(/item[price > 1], 1)",
            "1 + count(/item[price > 1])",
            "//item[@code = '3']",
            "/*[@code = '3']",
            "/item[1][@code = '3']",
            "/item[price > 1 and name]",
            "/item[price + 1 > 2]",
            "/item[price/x = 1]",
            "/item[price[1] = 1]",
            "/item[. = 1]",
            "/item[price = name]",
            "/item[@code = '3'] | /item",
            "(/item[@code = '3'])/name",
        ],
    )
    def test_scanned(self, expression):
        assert compile_xpath(expression, XPATH.namespace_key).root_filter is None

    @pytest.mark.parametrize(
        "query, filtered",
        [
            ("for $v in /item where $v/price < 5 return $v", True),
            ("for $v in /item where 5 > $v/@code order by $v/price return $v", True),
            ("for $v in /item where $v/price < 5 let $w := $v/name return $w", True),
            ("for $v in /item[@code = 'a'] let $w := 1 return $v", True),
            ("/item[@code = 'a']/name", True),
            ("let $w := 1 for $v in /item where $v/price < 5 return $v", False),
            ("for $v in /item let $w := 1 where $v/price < 5 return $v", False),
            ("for $v in /item where $v/price < 5 for $v in $v/name return $v", False),
            ("for $v in /item where $w/price < 5 return $v", False),
            ("for $v in /item where $v/price < 5 and $v/name return $v", False),
            ("for $v in /item where $v/price != 5 return $v", False),
            ("for $v in /item/price where $v/x < 5 return $v", False),
            ("for $v in //item where $v/price < 5 return $v", False),
            ("count(/item[@code = 'a'])", False),
        ],
    )
    def test_flwor_folding(self, query, filtered):
        assert (_plan(query, XPATH.namespace_key).root_filter is not None) is filtered

    def test_a_scan_shape_evaluates_every_document(self):
        """Only a scan runs the closure on every document; an indexed
        statement runs its rest on the documents with an element that
        passed, and none at all when the rest is empty."""
        resource = _resource([E("item", E("price", str(i))) for i in range(5)])
        with use_exporter() as exporter:
            assert len(resource.xpath_execute("sum(/item[price > 2]/price)")) == 5
            assert len(resource.xpath_execute("count(/item[price > 2])")) == 5
            assert len(resource.xpath_execute("/item[price > 2]")) == 2
            assert len(resource.xpath_execute("/item[price > 2]/price")) == 2
            assert len(resource.xpath_execute("/item[price > 2]", "d04")) == 1
        assert [
            (s.attributes["documents"], s.attributes["documents_evaluated"],
             s.attributes["index"])
            for s in exporter.spans("xpath.evaluate")
        ] == [(5, 5, "scan"), (5, 0, "build"), (5, 0, "probe"), (5, 2, "probe"),
              (1, 1, "scan")]

    def test_a_point_read_probes_one_entry(self):
        """A statement that selects one document is handed that document
        alone, not an entry per document of the collection."""
        resource = _resource(
            [E("item", E("name", f"n{i}"), code=str(i)) for i in range(40)]
        )
        root_filter = compile_xpath(
            "/item[@code = '7']/name", XPATH.namespace_key
        ).root_filter
        for how in ("build", "probe"):
            entries, got, documents = resource.collection.select(root_filter)
            assert (len(entries), got, documents) == (1, how, 40)
        [(ordinal, root, passed)] = entries
        assert ordinal == 7 and passed == [root]
        [name] = resource.xpath_execute("/item[@code = '7']/name")
        assert name.children[0].text == "n7"

    def test_a_count_gives_every_document_a_value(self):
        resource = _resource(
            [E("item", E("part", E("price", "5")), E("part", E("price", "1"))),
             E("other", E("part", E("price", "5"))),
             E("item", E("part", E("price", "4"), E("price", "6")))]
        )
        values = [
            item.children[0].value
            for item in resource.xpath_execute("count(/item/part[price > 3])")
        ]
        assert values == ["1", "0", "1"]  # zeros kept, a repeated key once


class TestCollectionState:
    def test_sorted_documents_are_kept_until_the_version_moves(self):
        collection = CollectionManager().create_path("c")
        for name in ("b", "a", "c"):
            collection.add(name, E("x"))
        first = collection.documents()
        assert [d.name for d in first] == ["a", "b", "c"]
        first.clear()  # a copy: the kept list is not the caller's
        assert collection._snapshot()[1] is collection._snapshot()[1]
        version = collection.version
        collection.remove("b")
        assert collection.version == version + 1
        assert [d.name for d in collection.documents()] == ["a", "c"]

    def test_indexes_are_bounded_and_counted(self):
        from repro.daix import XMLRealisationService

        service = XMLRealisationService("xml", "dais://xml")
        resource = _resource([E("item", E(f"f{i}", "1")) for i in range(3)])
        service.add_resource(resource)
        for i in range(INDEX_CAPACITY + 2):
            resource.xpath_execute(f"/item[f{i} = 1]")
        resource.xpath_execute("/item[f0 = 2]")  # evicted: built again
        resource.xpath_execute(f"/item[f{INDEX_CAPACITY + 1} = 2]")  # a hit
        resource.collection.add("d00", E("item"), replace=True)
        resource.xpath_execute(f"/item[f{INDEX_CAPACITY + 1} = 2]")  # stale
        assert len(resource.collection.indexes) == INDEX_CAPACITY
        exposition = prometheus_text([({"service": "xml"}, service.metrics)])
        for name, value in (("hits", 1), ("misses", INDEX_CAPACITY + 2 + 1 + 1),
                            ("invalidations", 1)):
            assert f'xmldb_index_{name}_total{{service="xml"}} {value}' in exposition


class TestConcurrentXUpdate:
    def test_no_answer_from_before_a_returned_update(self):
        """A writer raises every document's generation attribute step by
        step; readers ask for the documents at least as new as the last
        generation whose XUpdate had *returned* when they asked.  An
        index built before that update would leave documents out.  (The
        generation is an attribute because updating an attribute is one
        assignment: an element's text is briefly empty while XUpdate
        replaces it, which a concurrent scan sees too.)"""
        documents = 60
        resource = _resource([E("item", v="0") for _ in range(documents)])
        returned = [0]
        wrong: list = []
        stop = threading.Event()

        def writer():
            for generation in range(1, 81):
                resource.xupdate_execute(
                    _modifications(f'<xu:update select="/item/@v">{generation}</xu:update>')
                )
                returned[0] = generation
            stop.set()

        def reader():
            while not stop.is_set():
                floor = returned[0]
                for run, text in (
                    (resource.xpath_execute, f"/item[@v >= {floor}]"),
                    (resource.xquery_execute,
                     f"for $p in /item where $p/@v >= {floor} return $p"),
                ):
                    got = [float(item.children[0].get("v")) for item in run(text)]
                    if len(got) != documents or min(got) < floor:
                        wrong.append((floor, text, got))

        threads = [threading.Thread(target=reader) for _ in range(3)]
        threads.append(threading.Thread(target=writer))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

    def test_no_count_from_before_a_returned_update(self):
        """As above for ``count(/item/part[@v >= floor])``, answered from
        the index alone: every document holds three parts, and once the
        XUpdate raising them to a generation has returned, each document
        counts all three for that floor."""
        documents = 40
        resource = _resource(
            [E("item", *(E("part", v="0") for _ in range(3))) for _ in range(documents)]
        )
        returned = [0]
        wrong: list = []
        stop = threading.Event()

        def writer():
            for generation in range(1, 81):
                resource.xupdate_execute(
                    _modifications(
                        f'<xu:update select="/item/part/@v">{generation}</xu:update>'
                    )
                )
                returned[0] = generation
            stop.set()

        def reader():
            while not stop.is_set():
                floor = returned[0]
                text = f"count(/item/part[@v >= {floor}])"
                got = [item.children[0].value for item in resource.xpath_execute(text)]
                if got != ["3"] * documents:
                    wrong.append((floor, got))

        threads = [threading.Thread(target=reader) for _ in range(3)]
        threads.append(threading.Thread(target=writer))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

    def test_updated_text_is_never_seen_empty(self):
        """An XUpdate ``update`` of an element's text replaces its
        children in one assignment, so a concurrent reader sees the old
        text or the new one.  Every generation a writer puts into
        ``<price>`` passes ``price >= floor`` for the last generation that
        had returned, so each answer holds all 12 documents."""
        documents = 12
        resource = _resource([E("item", E("price", "0")) for _ in range(documents)])
        returned = [0]
        wrong: list = []
        stop = threading.Event()

        def writer():
            for generation in range(1, 1001):
                resource.xupdate_execute(
                    _modifications(f'<xu:update select="/item/price">{generation}</xu:update>')
                )
                returned[0] = generation
            stop.set()

        def reader():
            while not stop.is_set():
                floor = returned[0]
                for run, text in (
                    (resource.xpath_execute, f"/item[price >= {floor}]"),
                    (resource.xquery_execute,
                     f"for $p in /item where $p/price >= {floor} return $p"),
                ):
                    got = [item.children[0].findtext("price") for item in run(text)]
                    if len(got) != documents:
                        wrong.append((floor, text, got))

        threads = [threading.Thread(target=reader) for _ in range(3)]
        threads.append(threading.Thread(target=writer))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
