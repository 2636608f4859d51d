"""The seven workloads: what one op is, how its parameters are drawn
from the seed, and how each reply is checked.

An op is written once, against a *port* — the handful of consumer
calls a DAIS program makes (``query``, ``update``, ``propdoc``,
``factory``, ``rowset_factory``, ``get_tuples``, ``destroy``,
``xpath``, ``xquery``).  The untraced run hands it a port over the
real clients and real HTTP (:mod:`bench.ports`); the traced run hands
it one that walks the same call through each layer in-process
(:mod:`bench.walk`).  Both are checked against the same oracle.

Op descriptors are plain tuples drawn from ``random.Random(seed)``
before anything is sent, so the program only ever sees generated
requests and the op sequence is reproducible (and hashable) per seed.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.cim import describe_catalog, render_cim_xml
from repro.core import mint_abstract_name
from repro.core.faults import InvalidResourceNameFault
from repro.daix import XMLCollectionResource
from repro.dair.datasets import Rowset
from repro.xmlutil import serialize

from bench.deploy import build_collection, build_database

CUSTOMERS = 300

POINT_SQL = "SELECT * FROM customers WHERE id = ?"
BULK_SQL = "SELECT * FROM lineitems LIMIT 1000"
#: The engine_adhoc triple; ``{x}`` is a literal inlined per op, so
#: every text is new to the 512-entry plan cache.
ADHOC_JOIN = (
    "SELECT c.region, COUNT(*) AS n, SUM(o.total) AS revenue "
    "FROM orders o JOIN customers c ON o.customer_id = c.id "
    "WHERE o.total >= {x} GROUP BY c.region ORDER BY revenue DESC"
)
ADHOC_RANGE = (
    "SELECT id, total FROM orders WHERE total >= {x} "
    "ORDER BY total, id LIMIT 10"
)
ADHOC_TOPK = (
    "SELECT o.id, o.total FROM orders o WHERE o.total <= {x} "
    "ORDER BY o.total DESC, o.id LIMIT 10"
)
#: Literal pool per adhoc text: 4096 values, 8x the plan-cache capacity.
ADHOC_POOL = 4096
FACTORY_SQL = (
    "SELECT id, customer_id, total FROM orders WHERE total >= ? "
    "ORDER BY total, id LIMIT 200"
)
INSERT_SQL = "INSERT INTO customers VALUES (?,?,?,?)"
#: A hot session's response is destroyed this many sessions later, so
#: identical factory requests overlap and can share one result.
DESTROY_LAG = 4
TUPLE_PAGES = 4
TUPLE_PAGE_ROWS = 50

XPATH_POINT = "/product[@id = '{}']/name"
XPATH_FILTER = "/product[price > {}]/name"
XPATH_AGG = "count(/product/review[rating >= {}])"
XQUERY_FLWOR = (
    "for $p in /product where $p/stock < {} "
    "order by $p/price descending "
    'return <low name="{{$p/name}}">{{$p/stock/text()}}</low>'
)


class CheckFailed(AssertionError):
    """A reply that does not match the oracle's answer."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Oracle:
    """The expected answer to every op, computed locally.

    Holds an identically seeded twin of the served data and evaluates
    each statement through ``Database.execute`` / the collection
    resource directly.  Answers are memoized per statement until a
    write moves the data.
    """

    def __init__(self, realisation: str, extra_tables: bool, seed: int) -> None:
        self.database = None
        self.collection = None
        if realisation == "sql":
            self.database = build_database(seed, extra_tables)
        else:
            self.collection = XMLCollectionResource(
                mint_abstract_name("oracle"), build_collection(seed)
            )
        self._memo: dict = {}

    def rows(self, sql: str, params: tuple = ()) -> Rowset:
        key = (sql, params)
        answer = self._memo.get(key)
        if answer is None:
            answer = Rowset.from_result(self.database.execute(sql, params))
            self._memo[key] = answer
        return answer

    def write(self, sql: str, params: tuple = ()) -> int:
        self._memo.clear()
        return self.database.execute(sql, params).update_count

    def cim(self) -> str:
        """The schema description a property document must carry."""
        catalog = self.database.catalog
        key = ("cim", catalog.version)
        answer = self._memo.get(key)
        if answer is None:
            answer = serialize(render_cim_xml(describe_catalog(catalog)))
            self._memo[key] = answer
        return answer

    def field_values(self, field: str) -> list[float]:
        """Every product's *field*, ascending (the corpus is read-only)."""
        key = ("field", field)
        answer = self._memo.get(key)
        if answer is None:
            answer = sorted(
                float(document.root.findtext(field))
                for document in self.collection.collection.documents()
            )
            self._memo[key] = answer
        return answer

    def items(self, language: str, text: str) -> list[str]:
        key = (language, text)
        answer = self._memo.get(key)
        if answer is None:
            evaluate = (
                self.collection.xpath_execute
                if language == "xpath"
                else self.collection.xquery_execute
            )
            answer = [serialize(item) for item in evaluate(text)]
            self._memo[key] = answer
        return answer


# -- op streams (seeded draws) and op bodies (calls + checks) -------------------


def _point_ops(rng: random.Random) -> Iterator[tuple]:
    while True:
        yield ("point", rng.randint(1, CUSTOMERS))


def _run_point(op, port, oracle: Oracle, state) -> None:
    params = (str(op[1]),)
    rowset = port.query(POINT_SQL, params)
    expect(rowset == oracle.rows(POINT_SQL, params), f"{op}: rows differ")
    expect(
        len(rowset.rows) == 1 and rowset.rows[0][1] == f"customer-{op[1]:05d}",
        f"{op}: not customer-{op[1]:05d}",
    )


def _bulk_ops(rng: random.Random) -> Iterator[tuple]:
    return itertools.repeat(("bulk",))


def _run_bulk(op, port, oracle: Oracle, state) -> None:
    rowset = port.query(BULK_SQL)
    expect(len(rowset.rows) == 1000, f"bulk: {len(rowset.rows)} rows")
    expect(rowset == oracle.rows(BULK_SQL), "bulk: rows differ")


def _adhoc_ops(rng: random.Random) -> Iterator[tuple]:
    def literal() -> str:
        return f"{5 + rng.randrange(ADHOC_POOL) * 0.25:.2f}"

    while True:
        yield (
            "adhoc",
            ADHOC_JOIN.format(x=literal()),
            ADHOC_RANGE.format(x=literal()),
            # top-k wants an upper bound high enough to keep ten rows
            ADHOC_TOPK.format(x=f"{2000 + rng.randrange(ADHOC_POOL) * 0.25:.2f}"),
        )


def _run_adhoc(op, port, oracle: Oracle, state) -> None:
    for sql in op[1:]:
        rowset = port.query(sql)
        expected = oracle.rows(sql)
        expect(rowset == expected, f"adhoc: rows differ for {sql!r}")
        expect(0 < len(rowset.rows) <= 10, f"adhoc: {len(rowset.rows)} rows")


def _propdoc_ops(rng: random.Random) -> Iterator[tuple]:
    return itertools.repeat(("propdoc",))


def _check_propdoc(document, port, oracle: Oracle) -> None:
    names = [
        child.text
        for child in document.element_children()
        if child.tag.local == "DataResourceAbstractName"
    ]
    expect(names == [port.name], f"propdoc: names {names}")
    schema = [
        child
        for child in document.element_children()
        if child.tag.local == "CIMDescription"
    ]
    expect(len(schema) == 1, "propdoc: no CIMDescription")
    described = schema[0].element_children()
    expect(
        len(described) == 1 and serialize(described[0]) == oracle.cim(),
        "propdoc: schema description differs from the twin's catalog",
    )


def _run_propdoc(op, port, oracle: Oracle, state) -> None:
    _check_propdoc(port.propdoc(), port, oracle)


def _xml_ops(rng: random.Random) -> Iterator[tuple]:
    # The filter and FLWOR literals are drawn as *ranks* in the seeded
    # corpus (about 150 dearer products, about 60 with less stock), so
    # the reply size — and with it bytes and time per op — is the same
    # for every seed instead of following the corpus's binomial noise.
    while True:
        yield (
            "xml",
            rng.randrange(300),
            146 + rng.randrange(8),
            rng.randint(2, 5),
            56 + rng.randrange(8),
        )


def _run_xml(op, port, oracle: Oracle, state) -> None:
    _, product, dearer, rating, scarcer = op
    prices = oracle.field_values("price")
    stocks = oracle.field_values("stock")
    calls = (
        ("xpath", XPATH_POINT.format(product)),
        ("xpath", XPATH_FILTER.format(prices[-dearer - 1])),
        ("xpath", XPATH_AGG.format(rating)),
        ("xquery", XQUERY_FLWOR.format(int(stocks[scarcer]))),
    )
    for language, text in calls:
        call = port.xpath if language == "xpath" else port.xquery
        got = [serialize(item) for item in call(text)]
        expect(got == oracle.items(language, text), f"xml: items differ for {text!r}")
        expect(len(got) > 0, f"xml: no items for {text!r}")


def _session_ops(rng: random.Random) -> Iterator[tuple]:
    hot = [f"{rng.uniform(200, 800):.2f}" for _ in range(2)]
    for index in itertools.count(1):
        is_hot = rng.random() < 0.5
        param = rng.choice(hot) if is_hot else f"{rng.uniform(50, 2500):.2f}"
        yield (
            "session",
            index,
            param,
            is_hot,
            index % 4 == 0,  # INSERT: moves data_version
            index % 8 == 0,  # CREATE+DROP TABLE: moves the catalog version
            index % 8 == 4,  # re-access the destroyed rowset: must fault
        )


def _run_session(op, port, oracle: Oracle, state) -> None:
    _, index, param, is_hot, insert, ddl, recheck = op
    deferred = state.setdefault("deferred", deque())
    while deferred and deferred[0][0] <= index:
        port.destroy(*deferred.popleft()[1:])

    _check_propdoc(port.propdoc(), port, oracle)
    params = (param,)
    expected = oracle.rows(FACTORY_SQL, params)
    response_epr, response_name = port.factory(FACTORY_SQL, params)
    rowset_epr, rowset_name = port.rowset_factory(response_epr, response_name)
    for page in range(TUPLE_PAGES):
        start = page * TUPLE_PAGE_ROWS
        window, total = port.get_tuples(
            rowset_epr, rowset_name, start, TUPLE_PAGE_ROWS
        )
        expect(total == len(expected.rows), f"{op}: total {total}")
        expect(
            window.rows == expected.rows[start : start + TUPLE_PAGE_ROWS],
            f"{op}: page {page} differs",
        )
    port.destroy(rowset_epr.address, rowset_name)
    if recheck:
        try:
            port.get_tuples(rowset_epr, rowset_name, 0, 1)
        except InvalidResourceNameFault:
            pass
        else:
            raise CheckFailed(f"{op}: destroyed rowset still answers")
    if is_hot:
        deferred.append((index + DESTROY_LAG, response_epr.address, response_name))
    else:
        port.destroy(response_epr.address, response_name)

    if insert:
        row = (str(100000 + index), f"bench-{index:05d}", "emea", "retail")
        expect(port.update(INSERT_SQL, row, kind="insert") == 1, f"{op}: insert count")
        oracle.write(INSERT_SQL, row)
    if ddl:
        create = f"CREATE TABLE scratch_{index} (id INT PRIMARY KEY, v VARCHAR(10))"
        drop = f"DROP TABLE scratch_{index}"
        for statement in (create, drop):
            port.update(statement, (), kind="ddl")
            oracle.write(statement)


# -- the table ------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    realisation: str  # "sql" | "xml": which service the server mounts
    extra_tables: bool  # the 12 extra_i tables of the fig-4 catalog
    clients: int  # closed-loop client count
    raw: bool  # pre-rendered bytes on raw sockets, client layer bypassed
    walk_ops: int  # ops the traced run replays
    ops: Callable[[random.Random], Iterator[tuple]]
    run: Callable

    def oracle(self, seed: int) -> Oracle:
        return Oracle(self.realisation, self.extra_tables, seed)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "point_query",
            "small-message regime: per-message cost of client, transport, soap, "
            "xmlutil and core dominates; one cached plan, PK lookup",
            "sql", False, 1, False, 200, _point_ops, _run_point,
        ),
        Workload(
            "bulk_rowset",
            "large-message regime: 1000-row streamed reply; row emission, xmlutil, "
            "gzip and client rowset decode do most of the work",
            "sql", False, 1, False, 40, _bulk_ops, _run_bulk,
        ),
        Workload(
            "engine_adhoc",
            "engine-bound: literals inlined from a 4096-value pool so the parse/plan "
            "miss path runs; larger than the 512-entry plan cache; tiny replies",
            "sql", False, 1, False, 40, _adhoc_ops, _run_adhoc,
        ),
        Workload(
            "propdoc_read",
            "every consumer interaction starts here: ~40 KB property document served "
            "from the propdoc cache, gzipped, then a large client parse",
            "sql", True, 1, False, 40, _propdoc_ops, _run_propdoc,
        ),
        Workload(
            "indirect_mixed",
            "indirect access with writes beside reads: factories, paging, destroys, "
            "INSERT and DDL that invalidate the result, propdoc and plan caches",
            "sql", True, 1, False, 40, _session_ops, _run_session,
        ),
        Workload(
            "xml_query",
            "the WS-DAIX realisation: daix, xpath and xmldb do the work, every "
            "relational/dair layer is idle; control for relational-only changes",
            "xml", False, 1, False, 40, _xml_ops, _run_xml,
        ),
        Workload(
            "saturate_point",
            "server capacity with the client layer bypassed: 2 raw keep-alive "
            "connections contend for the event loop, worker hand-off and the GIL",
            "sql", False, 2, True, 200, _point_ops, _run_point,
        ),
    )
}


def op_sequence_hash(workload: Workload, seed: int, count: int = 256) -> str:
    """A digest of the first *count* op descriptors for *seed*."""
    stream = workload.ops(random.Random(seed))
    digest = hashlib.sha256()
    for op in itertools.islice(stream, count):
        digest.update(repr(op).encode("utf-8"))
    return digest.hexdigest()
