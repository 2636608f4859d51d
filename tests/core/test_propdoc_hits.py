"""Property-document cache hits are served from the stored rendering.

A ``Get*PropertyDocument`` reply carries the cached part of the
document as the text the cache entry already holds and builds only the
volatile tail (``ServiceMetrics``, ``LifecycleJournal``, …).  These
tests pin what that must not change:

* for all five property-document operations, over loopback and HTTP
  with and without gzip, the fill reply and a hit reply to the spec's
  plain request (no conditional-read header) are the same bytes apart
  from the tail and the message ids, and both equal the tree path —
  ``binding.property_document()`` in the same envelope;
* a document that needs unregistered ``nsN`` prefixes renders under
  any enclosing prefix map, and the per-entry memo stays bounded;
* DDL, ``SetTerminationTime``, destroy and sweep between reads each
  yield the new document;
* readers racing DDL never see a stale or torn document;
* a hit neither copies nor walks the cached tree.
"""

import re
import sys
import threading

import pytest

from repro.client.sql import SQLClient
from repro.client.xml import XMLClient
from repro.core import ServiceRegistry, mint_abstract_name
from repro.core import messages as core_msg
from repro.core.faults import InvalidResourceNameFault
from repro.core.propcache import RENDERINGS_PER_ENTRY, PropertyDocumentCache
from repro.dair import SQLDataResource, SQLRealisationService
from repro.dair import messages as dair_msg
from repro.daix import XMLCollectionResource, XMLRealisationService
from repro.daix import messages as daix_msg
from repro.soap import Envelope, MessageHeaders
from repro.transport import DaisHttpServer, HttpTransport, LoopbackTransport
from repro.workload import RelationalWorkload, XmlCorpus
from repro.workload.relational import populate_shop_database
from repro.workload.xmlcorpus import populate_catalog_collection
from repro.wsrf.clock import ManualClock
from repro.xmlutil import E, QName, XmlElement, parse_bytes, serialize, serialize_bytes
from repro.xmlutil.serialize import _Writer

SMALL = RelationalWorkload(customers=5, orders_per_customer=1, items_per_order=1)

_UUID = re.compile(
    rb"[0-9a-f]{8}-[0-9a-f]{4}-[0-9a-f]{4}-[0-9a-f]{4}-[0-9a-f]{12}"
)
#: The volatile tail: from ServiceMetrics (always its first element) to
#: the document's end tag.
_TAIL = re.compile(
    rb"<[\w]+:ServiceMetrics[ />].*?(?=</[\w:]+></[\w:]+PropertyDocumentResponse>)",
    re.S,
)


def _elided(reply: bytes) -> bytes:
    return _TAIL.sub(b"TAIL", _UUID.sub(b"UUID", reply))


class Fabric:
    """An SQL (WSRF, manual clock) and an XML service on one registry,
    reachable over loopback and over a real HTTP port."""

    def __init__(self) -> None:
        self.clock = ManualClock(1_000.0)
        self.registry = ServiceRegistry()
        self.server = DaisHttpServer(self.registry, port=0)
        self.sql = SQLRealisationService(
            "hits-sql", self.server.url_for("/sql"), wsrf=True, clock=self.clock
        )
        self.xml = XMLRealisationService("hits-xml", self.server.url_for("/xml"))
        self.registry.register(self.sql)
        self.registry.register(self.xml)
        self.database = populate_shop_database(SMALL)
        self.resource = SQLDataResource(mint_abstract_name("shop"), self.database)
        self.sql.add_resource(self.resource)
        self.collection = XMLCollectionResource(
            mint_abstract_name("catalog"),
            populate_catalog_collection(XmlCorpus(documents=4)),
        )
        self.xml.add_resource(self.collection)

    @property
    def name(self) -> str:
        return str(self.resource.abstract_name)


def _transport(kind: str, registry):
    if kind == "loopback":
        return LoopbackTransport(registry)
    return HttpTransport(compression=kind == "http-gzip")


@pytest.fixture()
def fabric():
    fabric = Fabric()
    with fabric.server:
        yield fabric


@pytest.fixture(params=["loopback", "http-gzip", "http-plain"])
def clients(request, fabric):
    transport = _transport(request.param, fabric.registry)
    yield SQLClient(transport), XMLClient(transport)
    if isinstance(transport, HttpTransport):
        transport.close()


# -- the five operations -----------------------------------------------------
#
# Each row: how to make the target resource, then how to read its
# document through the client, which service holds its binding, which
# response class carries it and which request class asks for it.


def _sql_target(fabric, sql):
    return fabric.sql.address, fabric.name


def _response_target(fabric, sql):
    made = sql.sql_execute_factory(
        fabric.sql.address, fabric.name, "SELECT id FROM customers"
    )
    return made.address, made.abstract_name


def _rowset_target(fabric, sql):
    epr, name = _response_target(fabric, sql)
    made = sql.sql_rowset_factory(epr, name)
    return made.address, made.abstract_name


def _collection_target(fabric, sql):
    return fabric.xml.address, str(fabric.collection.abstract_name)


OPERATIONS = {
    "GetDataResourcePropertyDocument": (
        _sql_target,
        lambda sql, xml, target: sql.get_property_document(*target),
        "sql",
        core_msg.GetDataResourcePropertyDocumentResponse,
        core_msg.GetDataResourcePropertyDocumentRequest,
    ),
    "GetSQLPropertyDocument": (
        _sql_target,
        lambda sql, xml, target: sql.get_sql_property_document(*target),
        "sql",
        dair_msg.GetSQLPropertyDocumentResponse,
        dair_msg.GetSQLPropertyDocumentRequest,
    ),
    "GetSQLResponsePropertyDocument": (
        _response_target,
        lambda sql, xml, target: sql.get_sql_response_property_document(*target),
        "sql",
        dair_msg.GetSQLResponsePropertyDocumentResponse,
        dair_msg.GetSQLResponsePropertyDocumentRequest,
    ),
    "GetRowsetPropertyDocument": (
        _rowset_target,
        lambda sql, xml, target: sql.get_rowset_property_document(*target),
        "sql",
        dair_msg.GetRowsetPropertyDocumentResponse,
        dair_msg.GetRowsetPropertyDocumentRequest,
    ),
    "GetCollectionPropertyDocument": (
        _collection_target,
        lambda sql, xml, target: xml.get_collection_property_document(*target),
        "xml",
        daix_msg.GetCollectionPropertyDocumentResponse,
        daix_msg.GetCollectionPropertyDocumentRequest,
    ),
}


@pytest.fixture()
def replies(monkeypatch):
    """Every property-document reply body a client decodes, as bytes
    (after any gunzip: what ``Envelope.from_bytes`` is handed)."""
    seen: list[bytes] = []
    original = Envelope.from_bytes.__func__

    def recording(cls, data):
        if b"PropertyDocumentResponse" in data:
            seen.append(bytes(data))
        return original(cls, data)

    monkeypatch.setattr(Envelope, "from_bytes", classmethod(recording))
    return seen


def _tree_path(service, name, response_cls, reply: bytes) -> bytes:
    """The reply as the tree path writes it: a real property-document
    tree in an envelope with the reply's own headers — behind an XML
    declaration where the reply has one (loopback sends ``to_bytes()``),
    without where it has none (the HTTP server sends ``iter_bytes()``)."""
    headers = Envelope.from_bytes(reply).headers
    payload = response_cls(
        document=service.binding(name).property_document()
    ).to_xml()
    return serialize(
        Envelope(headers, payload).to_xml(),
        xml_declaration=reply.startswith(b"<?xml"),
    ).encode("utf-8")


def _misses(service) -> float:
    return service.metrics.counter("cache.propdoc.misses").total()


def plain_read(sql, request_cls, target):
    """The document as a spec consumer reads it: the plain request
    through ``CoreClient.call``, no conditional-read header."""
    return sql.call(target[0], request_cls(abstract_name=target[1])).document


@pytest.mark.parametrize("operation", sorted(OPERATIONS))
def test_fill_hit_and_tree_path_write_the_same_bytes(
    fabric, clients, replies, operation
):
    make, _, which, response_cls, request_cls = OPERATIONS[operation]
    sql, xml = clients
    read = lambda sql, xml, target: plain_read(sql, request_cls, target)
    service = getattr(fabric, which)
    target = make(fabric, sql)
    name = target[1]
    assert not any(key == name for key, _ in service.propdoc_cache.items())
    misses = _misses(service)
    filled = read(sql, xml, target)
    assert _misses(service) == misses + 1
    hit = read(sql, xml, target)
    assert _misses(service) == misses + 1  # the second read was a hit
    fill_reply, hit_reply = replies[-2:]
    assert _elided(fill_reply) == _elided(hit_reply)
    assert b"ServiceMetrics" in hit_reply  # the tail is still there, fresh
    assert _elided(hit_reply) == _elided(
        _tree_path(service, name, response_cls, hit_reply)
    )
    # Parsed back, the hit is the whole document: cached part and tail.
    assert filled.tag == hit.tag
    assert [c.tag for c in filled.element_children()] == [
        c.tag for c in hit.element_children()
    ]


# -- prefix maps and the memo bound ------------------------------------------


def _foreign_document() -> bytes:
    """A document in namespaces no registry knows: they get ``nsN``."""
    root = E(
        QName("urn:test:doc", "Doc"),
        E(QName("urn:test:a", "A"), "alpha").set(QName("urn:test:b", "k"), "v"),
        E(QName("urn:test:b", "B"), E(QName("urn:test:a", "C"))),
    )
    root.set("plain", "1")
    return serialize_bytes(root)


def _enclosed(served: XmlElement, shifts: int) -> bytes:
    """*served* inside an envelope-like root whose own unregistered
    namespaces come first, so the document's ``nsN`` numbers shift."""
    wrapper = E(QName("urn:test:wrap", "Wrap"))
    for index in range(shifts):
        wrapper.append(E(QName(f"urn:test:shift{index}", "S")))
    wrapper.append(served)
    return serialize_bytes(wrapper)


def test_every_prefix_map_parses_back_to_the_same_tree_and_the_memo_is_bounded():
    cache = PropertyDocumentCache()
    entry = cache.store("r", 0, _foreign_document())
    expected = entry.tree()
    maps = RENDERINGS_PER_ENTRY + 3
    for shifts in range(maps):
        served = entry.served()
        served.append(E(QName("urn:test:tail", "Tail"), str(shifts)))
        text = _enclosed(served, shifts)
        parsed = parse_bytes(text).element_children()[-1]
        tail = parsed.children.pop()
        assert tail.text == str(shifts)
        assert parsed.equals(expected)
        # The same bytes as the tree path under this prefix map.
        real = entry.tree()
        real.append(E(QName("urn:test:tail", "Tail"), str(shifts)))
        assert text == _enclosed(real, shifts)
    assert len(entry.renderings) == RENDERINGS_PER_ENTRY
    # Past the bound a map is rendered, not remembered — and still right.
    assert parse_bytes(_enclosed(entry.served(), maps)).element_children()[
        -1
    ].equals(expected)
    assert len(entry.renderings) == RENDERINGS_PER_ENTRY


# -- what changes a document between reads -----------------------------------


def _tables(document) -> set[str]:
    from repro.cim import parse_cim_xml

    for node in document.iter():
        if node.tag.local == "CIMDescription":
            cim = parse_cim_xml(node.element_children()[0])
            return {table.name for table in cim.tables}
    raise AssertionError("no CIMDescription in property document")


@pytest.fixture()
def loopback(fabric):
    return SQLClient(LoopbackTransport(fabric.registry))


def test_ddl_between_reads_yields_the_new_document(fabric, loopback):
    read = lambda: loopback.get_sql_property_document(fabric.sql.address, fabric.name)
    read()
    assert "after_ddl" not in _tables(read())
    fabric.database.execute("CREATE TABLE after_ddl (id INT)")
    assert "after_ddl" in _tables(read())
    fabric.database.execute("DROP TABLE after_ddl")
    assert "after_ddl" not in _tables(read())


def test_set_termination_time_between_reads_refills(fabric, loopback, replies):
    read = lambda: plain_read(
        loopback,
        core_msg.GetDataResourcePropertyDocumentRequest,
        (fabric.sql.address, fabric.name),
    )
    read()
    read()
    misses = _misses(fabric.sql)
    loopback.set_termination_time(
        fabric.sql.address, fabric.name, fabric.clock.now() + 3_600
    )
    read()
    assert _misses(fabric.sql) == misses + 1
    assert _elided(replies[-1]) == _elided(replies[-2])


def _rebind(fabric, database):
    """A new resource under the destroyed one's abstract name, over a
    database with another schema but possibly the same catalog version."""
    fabric.sql.add_resource(SQLDataResource(fabric.resource.abstract_name, database))


def _other_database():
    database = populate_shop_database(SMALL)
    database.execute("CREATE TABLE only_in_the_new_one (id INT)")
    return database


def test_destroy_between_reads_yields_the_new_document(fabric, loopback):
    read = lambda: loopback.get_property_document(fabric.sql.address, fabric.name)
    read()
    read()
    loopback.destroy(fabric.sql.address, fabric.name)
    with pytest.raises(InvalidResourceNameFault):
        read()
    _rebind(fabric, _other_database())
    assert "only_in_the_new_one" in _tables(read())


def test_sweep_between_reads_yields_the_new_document(fabric, loopback):
    read = lambda: loopback.get_property_document(fabric.sql.address, fabric.name)
    loopback.set_termination_time(
        fabric.sql.address, fabric.name, fabric.clock.now() + 10
    )
    read()
    read()
    fabric.clock.advance(60)
    assert fabric.sql.sweep_expired() == [fabric.name]
    with pytest.raises(InvalidResourceNameFault):
        read()
    _rebind(fabric, _other_database())
    assert "only_in_the_new_one" in _tables(read())


def test_readers_racing_ddl_never_see_a_stale_or_torn_document(fabric):
    catalog = fabric.database.catalog
    tables_now = lambda: set(catalog.table_names())
    history = {catalog.version: tables_now()}
    observed: list[tuple[int, int, set[str]]] = []
    errors: list[BaseException] = []
    done = threading.Event()
    client = SQLClient(LoopbackTransport(fabric.registry))

    def reader():
        try:
            while not done.is_set():
                before = catalog.version
                document = client.get_sql_property_document(
                    fabric.sql.address, fabric.name
                )
                observed.append((before, catalog.version, _tables(document)))
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    readers = [threading.Thread(target=reader) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in readers:
            thread.start()
        for index in range(12):
            for sql in (f"CREATE TABLE churn_{index} (id INT)", f"DROP TABLE churn_{index}"):
                fabric.database.execute(sql)
                history[catalog.version] = tables_now()
    finally:
        done.set()
        for thread in readers:
            thread.join(30)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in readers)
    assert not errors, errors
    assert observed
    for before, after, tables in observed:
        floor = max(version for version in history if version <= before)
        allowed = [
            history[version]
            for version in history
            if floor <= version <= after
        ]
        assert tables in allowed, (before, after, sorted(tables))


# -- what a hit costs --------------------------------------------------------


def test_a_hit_neither_copies_nor_walks_the_cached_tree(fabric, monkeypatch):
    service = fabric.sql
    request = dair_msg.GetSQLPropertyDocumentRequest(abstract_name=fabric.name)

    def exchange() -> bytes:
        response = service.dispatch(
            Envelope(
                MessageHeaders(
                    to=service.address,
                    action=request.action(),
                    message_id="urn:test:hit",
                ),
                request.to_xml(),
            )
        )
        assert not response.is_fault() and not response.is_streaming()
        return response.to_bytes()

    exchange()  # the fill
    entry = next(value for key, value in service.propdoc_cache.items() if key == fabric.name)
    cached = {id(node) for node in entry.master.iter()}
    copies: list[XmlElement] = []
    walked: list[XmlElement] = []
    copy, walk = XmlElement.copy, XmlElement.iter
    write = _Writer.write

    def counting_copy(self):
        copies.append(self)
        return copy(self)

    def counting_iter(self):
        walked.append(self)
        return walk(self)

    def counting_write(writer, node, depth, declare):
        walked.append(node)
        return write(writer, node, depth, declare)

    monkeypatch.setattr(XmlElement, "copy", counting_copy)
    monkeypatch.setattr(XmlElement, "iter", counting_iter)
    monkeypatch.setattr(_Writer, "write", counting_write)
    reply = exchange()
    monkeypatch.undo()
    assert copies == []
    assert not [node for node in walked if id(node) in cached]
    assert b"CIMDescription" in reply
