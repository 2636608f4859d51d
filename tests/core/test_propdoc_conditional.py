"""Conditional property-document reads (``repro.core.propcache``).

A client holding the current stamp of a resource's cached document part
is answered ``Unchanged`` plus the fresh volatile tail, and grafts a
copy of the part it holds.  These tests pin what that must not change:

* the document a conditional read returns equals a stamp-less read's,
  serialized and by ``equals``, for all five operations, over loopback
  and HTTP with and without gzip;
* DDL, ``SetTerminationTime``, destroy with a rebind under the same
  name, sweep and eviction each mint a new stamp and yield a full reply;
* a forged, malformed or oversized stamp gets the full document;
* a returned document aliases nothing the client keeps;
* the client's cache is bounded and a fault on the resource drops its
  entry; an ``Unchanged`` the client cannot graft never reaches the
  caller;
* readers sharing one client while DDL runs never see a stale or torn
  document;
* on the server, a stamped hit neither copies nor walks the master.
"""

import sys
import threading
import time
import urllib.request

import pytest

import repro.client.core as client_core
from repro.client.sql import SQLClient
from repro.core import messages as core_msg
from repro.core.faults import InvalidResourceNameFault, TransportFault
from repro.core.propcache import (
    HELD_STAMP,
    UNCHANGED,
    CachedDocument,
    PropertyDocumentCache,
    held_block,
    reply_stamp,
)
from repro.dair import messages as dair_msg
from repro.soap import Envelope, MessageHeaders
from repro.transport import LoopbackTransport
from repro.xmlutil import E, QName, XmlElement, serialize
from repro.xmlutil.serialize import _Writer

from tests.core.test_propdoc_hits import (  # noqa: F401 - fixtures
    OPERATIONS,
    _other_database,
    _rebind,
    _tables,
    clients,
    fabric,
    loopback,
    plain_read,
)


def _unchanged(service) -> float:
    return service.metrics.counter("cache.propdoc.unchanged").total()


def _split(document: XmlElement) -> tuple[XmlElement, list[QName]]:
    """The document's cached part (root and the children before the
    volatile tail, which starts at ``ServiceMetrics``) and the tail's
    element tags."""
    children = document.children
    cut = next(
        index
        for index, child in enumerate(children)
        if isinstance(child, XmlElement) and child.tag.local == "ServiceMetrics"
    )
    part = XmlElement(document.tag, dict(document.attributes), children[:cut])
    return part, [child.tag for child in children[cut:]]


def _assert_same(got: XmlElement, expected: XmlElement) -> None:
    (part, tail), (want, want_tail) = _split(got), _split(expected)
    assert serialize(part) == serialize(want)
    assert part.equals(want)
    assert tail == want_tail


def _held(client, target) -> str | None:
    address = getattr(target[0], "address", target[0])
    entry = dict(client._documents.items()).get((address, str(target[1])))
    return None if entry is None else entry[0]


# -- the differential ----------------------------------------------------------


@pytest.mark.parametrize("operation", sorted(OPERATIONS))
def test_a_conditional_read_equals_a_stamp_less_read(fabric, clients, operation):
    make, read, which, _, request_cls = OPERATIONS[operation]
    sql, xml = clients
    service = getattr(fabric, which)
    target = make(fabric, sql)
    unchanged = _unchanged(service)
    filled = read(sql, xml, target)  # full: the part is now held
    assert _unchanged(service) == unchanged
    stats = sql.transport.stats
    grafted = read(sql, xml, target)  # answered Unchanged
    assert _unchanged(service) == unchanged + 1
    unchanged_bytes = stats.calls[-1].response_bytes
    plain = plain_read(sql, request_cls, target)
    assert stats.calls[-1].response_bytes > unchanged_bytes
    for document in (filled, grafted):
        _assert_same(document, plain)
        assert not any(
            getattr(node, "tag", None) in (UNCHANGED, HELD_STAMP)
            for node in document.iter()
        )


# -- what mints a new stamp ----------------------------------------------------


def _read(client, fabric):
    return client.get_property_document(fabric.sql.address, fabric.name)


def _revalidated(client, fabric) -> str:
    """Read twice, the second answered Unchanged; the stamp held."""
    _read(client, fabric)
    before = _unchanged(fabric.sql)
    _read(client, fabric)
    assert _unchanged(fabric.sql) == before + 1
    return _held(client, (fabric.sql.address, fabric.name))


def _full_read_with_a_new_stamp(client, fabric, stamp):
    before = _unchanged(fabric.sql)
    document = _read(client, fabric)
    assert _unchanged(fabric.sql) == before
    assert _held(client, (fabric.sql.address, fabric.name)) not in (None, stamp)
    return document


def test_ddl_mints_a_new_stamp(fabric, loopback):
    stamp = _revalidated(loopback, fabric)
    fabric.database.execute("CREATE TABLE after_ddl (id INT)")
    document = _full_read_with_a_new_stamp(loopback, fabric, stamp)
    assert "after_ddl" in _tables(document)
    stamp = _revalidated(loopback, fabric)
    # The schema comes back as it was, but it is a new entry.
    fabric.database.execute("DROP TABLE after_ddl")
    document = _full_read_with_a_new_stamp(loopback, fabric, stamp)
    assert "after_ddl" not in _tables(document)


def test_set_termination_time_mints_a_new_stamp(fabric, loopback):
    stamp = _revalidated(loopback, fabric)
    loopback.set_termination_time(
        fabric.sql.address, fabric.name, fabric.clock.now() + 3_600
    )
    _full_read_with_a_new_stamp(loopback, fabric, stamp)


def test_destroy_and_rebind_mint_a_new_stamp(fabric, loopback):
    stamp = _revalidated(loopback, fabric)
    loopback.destroy(fabric.sql.address, fabric.name)
    _rebind(fabric, _other_database())
    document = _full_read_with_a_new_stamp(loopback, fabric, stamp)
    assert "only_in_the_new_one" in _tables(document)


def test_sweep_and_rebind_mint_a_new_stamp(fabric, loopback):
    loopback.set_termination_time(
        fabric.sql.address, fabric.name, fabric.clock.now() + 10
    )
    stamp = _revalidated(loopback, fabric)
    fabric.clock.advance(60)
    assert fabric.sql.sweep_expired() == [fabric.name]
    _rebind(fabric, _other_database())
    document = _full_read_with_a_new_stamp(loopback, fabric, stamp)
    assert "only_in_the_new_one" in _tables(document)


def test_eviction_mints_a_new_stamp(fabric, loopback):
    fabric.sql.propdoc_cache = PropertyDocumentCache(capacity=1)
    stamp = _revalidated(loopback, fabric)
    made = loopback.sql_execute_factory(
        fabric.sql.address, fabric.name, "SELECT id FROM customers"
    )
    loopback.get_sql_response_property_document(made.address, made.abstract_name)
    assert [key for key, _ in fabric.sql.propdoc_cache.items()] == [
        made.abstract_name
    ]
    _full_read_with_a_new_stamp(loopback, fabric, stamp)


# -- stamps the server does not know -------------------------------------------


def _send(fabric, *blocks) -> Envelope:
    transport = LoopbackTransport(fabric.registry)
    request = core_msg.GetDataResourcePropertyDocumentRequest(
        abstract_name=fabric.name
    )
    return transport.send(
        fabric.sql.address,
        Envelope(
            MessageHeaders(
                to=fabric.sql.address,
                action=request.action(),
                reference_parameters=blocks,
            ),
            request.to_xml(),
        ),
    ).raise_if_fault()


@pytest.mark.parametrize(
    "block",
    [
        held_block("forged.1"),
        held_block(""),
        held_block("x" * 100_000),
        E(HELD_STAMP, E(QName("urn:test", "Nested"), "child"), "text"),
        E(HELD_STAMP).set("count", "-1"),
    ],
    ids=["forged", "empty", "oversized", "nested", "attribute"],
)
def test_a_stamp_the_server_does_not_know_gets_the_whole_document(
    fabric, loopback, block
):
    expected = plain_read(
        loopback,
        core_msg.GetDataResourcePropertyDocumentRequest,
        (fabric.sql.address, fabric.name),
    )
    before = _unchanged(fabric.sql)
    reply = _send(fabric, block)
    assert _unchanged(fabric.sql) == before
    document = reply.payload.element_children()[0]
    _assert_same(document, expected)
    stamp, count = reply_stamp(reply.headers.reference_parameters)
    assert count == len(_split(document)[0].children)


def test_a_stamp_of_another_process_does_not_match(fabric):
    reply = _send(fabric, held_block(""))
    stamp, _ = reply_stamp(reply.headers.reference_parameters)
    prefix, _, fill = stamp.partition(".")
    assert int(fill) > 0 and len(prefix) == 12
    # The same fill counter under another prefix is another stamp.
    foreign = ("0" * 12 if prefix != "0" * 12 else "1" * 12) + "." + fill
    before = _unchanged(fabric.sql)
    _send(fabric, held_block(foreign))
    assert _unchanged(fabric.sql) == before
    _send(fabric, held_block(stamp))
    assert _unchanged(fabric.sql) == before + 1


# -- aliasing ------------------------------------------------------------------


def _vandalise(document: XmlElement) -> None:
    part, _ = _split(document)
    first = next(c for c in part.children if isinstance(c, XmlElement))
    first.set("vandal", "1")
    first.text = "vandalised"
    deep = [node for node in document.iter() if node.element_children()]
    deep[-1].children.pop()
    document.children.remove(part.children[-1])


def test_mutating_a_returned_document_leaves_the_next_read_whole(fabric, loopback):
    binding = fabric.sql.binding(fabric.name)
    for _ in range(3):  # the fill, then two grafts
        document = _read(loopback, fabric)
        _assert_same(document, binding.property_document())
        _vandalise(document)
    assert _unchanged(fabric.sql) >= 2


# -- the client's cache --------------------------------------------------------


def test_the_client_cache_is_bounded(fabric, monkeypatch):
    monkeypatch.setattr(client_core, "PROPERTY_DOCUMENT_CAPACITY", 2)
    sql = SQLClient(LoopbackTransport(fabric.registry))
    targets = [
        (make(fabric, sql), read)
        for make, read, *_ in (
            OPERATIONS[name]
            for name in (
                "GetSQLPropertyDocument",
                "GetSQLResponsePropertyDocument",
                "GetRowsetPropertyDocument",
            )
        )
    ]
    for target, read in targets:
        read(sql, None, target)
    assert len(sql._documents) == 2
    assert _held(sql, targets[0][0]) is None
    assert all(_held(sql, target) for target, _ in targets[1:])


def test_a_fault_drops_the_entry(fabric, loopback):
    _revalidated(loopback, fabric)
    loopback.destroy(fabric.sql.address, fabric.name)
    with pytest.raises(InvalidResourceNameFault):
        _read(loopback, fabric)
    assert len(loopback._documents) == 0
    _rebind(fabric, _other_database())
    assert "only_in_the_new_one" in _tables(_read(loopback, fabric))


def test_an_unchanged_the_client_cannot_graft_is_asked_again(fabric, loopback):
    _revalidated(loopback, fabric)
    key, (stamp, part) = loopback._documents.items()[0]
    loopback._documents.invalidate(key)
    part = XmlElement(part.tag, {}, part.children[:-1])
    loopback._documents.store(key, None, (stamp, part))
    calls = loopback.transport.stats.call_count
    document = _read(loopback, fabric)
    assert loopback.transport.stats.call_count == calls + 2
    _assert_same(document, fabric.sql.binding(fabric.name).property_document())


def test_a_service_answering_only_unchanged_is_a_transport_fault(
    fabric, loopback, monkeypatch
):
    monkeypatch.setattr(CachedDocument, "served", CachedDocument.unchanged)
    with pytest.raises(TransportFault):
        _read(loopback, fabric)
    assert len(loopback._documents) == 0


# -- concurrency ---------------------------------------------------------------


def test_readers_sharing_a_client_racing_ddl_never_see_a_stale_or_torn_document(
    fabric,
):
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
        # Eight DDL steps keep the test well under a second: a longer
        # stretch of eight contending readers has left a later test's
        # server thread starved of the GIL for tens of seconds.
        for index in range(4):
            for sql in (f"CREATE TABLE churn_{index} (id INT)", f"DROP TABLE churn_{index}"):
                fabric.database.execute(sql)
                history[catalog.version] = tables_now()
                # Let a reader revalidate the new entry before the next DDL.
                seen, deadline = _unchanged(fabric.sql), time.monotonic() + 10
                while _unchanged(fabric.sql) == seen and time.monotonic() < deadline:
                    time.sleep(0.001)
    finally:
        done.set()
        for thread in readers:
            thread.join(30)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in readers)
    assert not errors, errors
    assert observed
    assert _unchanged(fabric.sql) >= 8  # revalidated after every DDL
    for before, after, tables in observed:
        floor = max(version for version in history if version <= before)
        allowed = [
            history[version]
            for version in history
            if floor <= version <= after
        ]
        assert tables in allowed, (before, after, sorted(tables))


# -- the server side -----------------------------------------------------------


def test_a_stamped_hit_neither_copies_nor_walks_the_master(fabric, monkeypatch):
    service = fabric.sql
    request = dair_msg.GetSQLPropertyDocumentRequest(abstract_name=fabric.name)

    def exchange(*blocks) -> Envelope:
        response = service.dispatch(
            Envelope(
                MessageHeaders(
                    to=service.address,
                    action=request.action(),
                    message_id="urn:test:stamped",
                    reference_parameters=blocks,
                ),
                request.to_xml(),
            )
        )
        assert not response.is_fault()
        return response

    stamp, _ = reply_stamp(exchange(held_block("")).headers.reference_parameters)
    entry = dict(service.propdoc_cache.items())[fabric.name]
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
    reply = exchange(held_block(stamp)).to_bytes()
    monkeypatch.undo()
    assert copies == []
    assert not [node for node in walked if id(node) in cached]
    assert b"Unchanged" in reply and b"CIMDescription" not in reply
    assert b"ServiceMetrics" in reply


def test_metrics_count_the_revalidated_replies(fabric, loopback):
    _revalidated(loopback, fabric)
    with urllib.request.urlopen(fabric.server.url_for("/metrics"), timeout=10) as reply:
        text = reply.read().decode("utf-8")
    assert (
        'cache_propdoc_unchanged_total{component="service",service="hits-sql"} 1'
        in text
    )
