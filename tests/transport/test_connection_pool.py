"""The keep-alive connection pool: reuse, staleness, poisoning, bounds.

Covers the pool contract end to end against a real ``DaisHttpServer``:
sequential and concurrent reuse feed the ``rpc.client.connections.*``
counters exactly; a stale keep-alive (server restarted under an idle
connection) is detected and replaced; a write-time failure on a reused
connection gets exactly one transparent reconnect; a dropped socket
(chaos ``DropResponse``) poisons that one connection and leaves the
pool clean; a reply followed by bytes nobody asked for poisons its
connection too.
"""

import socket
import threading

import pytest

from repro.client.sql import SQLClient
from repro.core import ServiceRegistry, TransportFault, mint_abstract_name
from repro.dair import SQLDataResource, SQLRealisationService
from repro.dair.messages import SQLExecuteRequest
from repro.relational import Database
from repro.soap.addressing import MessageHeaders
from repro.soap.envelope import Envelope
from repro.transport import HttpTransport
from repro.transport.http11 import render_response
from repro.transport.pool import (
    MAX_IDLE_PER_HOST,
    ClientConnection,
    HttpConnectionPool,
)

from tests.transport.stubserver import ScriptedServer, send
from tests.faultinject.faults import DropResponse, FaultPlan, FaultyHttpServer


def _make_registry() -> tuple[ServiceRegistry, Database]:
    registry = ServiceRegistry()
    database = Database("pooldb")
    database.execute("CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(10))")
    database.execute("INSERT INTO t VALUES (1,'a'),(2,'b')")
    return registry, database


def _serve(registry: ServiceRegistry, port: int = 0, fault_plan=None):
    server = FaultyHttpServer(registry, port=port, fault_plan=fault_plan)
    address = server.url_for("/pool")
    service = SQLRealisationService("pool-sql", address)
    try:
        registry.register(service)
    except ValueError:
        service = registry.service_at(address)
    return server, address, service


@pytest.fixture()
def deployment():
    registry, database = _make_registry()
    server, address, service = _serve(registry)
    resource = SQLDataResource(mint_abstract_name("t"), database)
    service.add_resource(resource)
    with server:
        yield server, address, resource.abstract_name


def _counter(transport: HttpTransport, name: str):
    return transport.metrics.counter(f"rpc.client.connections.{name}", "")


class TestReuse:
    def test_sequential_calls_reuse_one_connection(self, deployment):
        _, address, name = deployment
        transport = HttpTransport()
        client = SQLClient(transport)
        for _ in range(5):
            client.sql_execute(address, name, "SELECT v FROM t")
        assert _counter(transport, "created").total() == 1
        assert _counter(transport, "reused").total() == 4
        assert transport.pool.idle_total() == 1
        transport.close()
        assert transport.pool.idle_total() == 0

    def test_concurrent_callers_get_distinct_connections(self, deployment):
        _, address, name = deployment
        transport = HttpTransport()
        client = SQLClient(transport)
        threads_n = 4
        barrier = threading.Barrier(threads_n)
        errors: list[BaseException] = []

        def hammer():
            try:
                barrier.wait(timeout=10)
                for _ in range(10):
                    client.sql_execute(address, name, "SELECT v FROM t")
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors, errors
        created = _counter(transport, "created").total()
        reused = _counter(transport, "reused").total()
        # every request got a connection, none was shared mid-flight
        assert created + reused == threads_n * 10
        assert 1 <= created <= threads_n
        assert transport.pool.idle_total() == created
        transport.close()

    def test_pool_counters_visible_per_host(self, deployment):
        _, address, name = deployment
        transport = HttpTransport()
        SQLClient(transport).sql_execute(address, name, "SELECT v FROM t")
        idle = transport.pool.idle_counts()
        assert len(idle) == 1 and list(idle.values()) == [1]
        transport.close()


class TestStaleConnections:
    def test_stale_idle_connection_detected_at_checkout(self, deployment):
        _, address, name = deployment
        transport = HttpTransport()
        client = SQLClient(transport)
        client.sql_execute(address, name, "SELECT v FROM t")
        assert transport.pool.idle_total() == 1

        # Kill the idle keep-alive under the pool (recv now reports EOF,
        # exactly what a server-side close looks like).  The checkout
        # probe must detect it and dial fresh — the caller never notices.
        [stack] = transport.pool._idle.values()
        stack[0].sock.shutdown(socket.SHUT_RDWR)
        client.sql_execute(address, name, "SELECT v FROM t")
        assert _counter(transport, "discarded").value(reason="stale") == 1
        assert _counter(transport, "created").total() == 2
        transport.close()

    def test_write_failure_on_reused_connection_reconnects_once(
        self, deployment
    ):
        _, address, name = deployment
        transport = HttpTransport()
        client = SQLClient(transport)

        class _DeadSock:
            # An idle socket whose peer silently went away: the
            # liveness probe passes, the write blows up.
            def settimeout(self, value):
                pass

            def recv(self, size, flags=0):
                raise BlockingIOError  # the liveness probe says "fine"

            def sendall(self, data):
                raise BrokenPipeError("stale keep-alive")

            def close(self):
                pass

        host_port = address.split("//", 1)[1].split("/", 1)[0]
        host, port = host_port.split(":")
        transport.pool._idle[(host, int(port))] = [
            ClientConnection(host, int(port), _DeadSock())
        ]

        # The call must succeed anyway: one transparent reconnect.
        client.sql_execute(address, name, "SELECT v FROM t")
        assert _counter(transport, "reused").total() == 1
        assert _counter(transport, "discarded").value(reason="poisoned") == 1
        assert _counter(transport, "created").total() == 1
        transport.close()


class TestPoisoning:
    def test_dropped_socket_poisons_only_that_connection(self, deployment):
        server, address, name = deployment
        transport = HttpTransport()
        client = SQLClient(transport)
        client.sql_execute(address, name, "SELECT v FROM t")

        # The next POST gets its response dropped mid-exchange: the
        # request went out, so no transparent resend — the failure
        # surfaces and the connection never re-enters the pool.  (The
        # plan counts calls from when it was armed.)
        server.fault_plan = FaultPlan().at(1, DropResponse())
        with pytest.raises(TransportFault, match="broke mid-exchange"):
            client.sql_execute(address, name, "SELECT v FROM t")
        assert transport.pool.idle_total() == 0
        assert _counter(transport, "discarded").value(reason="poisoned") == 1

        # The pool is clean: the next call dials fresh and succeeds.
        client.sql_execute(address, name, "SELECT v FROM t")
        assert _counter(transport, "created").total() == 2
        transport.close()

    def test_garbage_status_line_poisons_connection(self):
        import socketserver

        class _Garbage(socketserver.BaseRequestHandler):
            def handle(self):
                self.request.recv(65536)
                self.request.sendall(b"this is not HTTP\r\n\r\n")

        with socketserver.ThreadingTCPServer(
            ("127.0.0.1", 0), _Garbage
        ) as garbage:
            threading.Thread(
                target=garbage.serve_forever, daemon=True
            ).start()
            host, port = garbage.server_address
            transport = HttpTransport(timeout=5.0)
            client = SQLClient(transport)
            with pytest.raises(TransportFault, match="broke mid-exchange"):
                client.sql_execute(
                    f"http://{host}:{port}/x", "urn:x", "SELECT 1"
                )
            assert transport.pool.idle_total() == 0
            garbage.shutdown()
        transport.close()

    @pytest.mark.parametrize(
        "stray",
        [
            b"JUNK",
            b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhi",
        ],
        ids=["junk", "unsolicited-response"],
    )
    def test_stray_bytes_after_reply_poison_connection(self, stray):
        # The reply is complete and correct, so the call succeeds; the
        # bytes behind it in the same segment were never asked for and
        # would be read as the next reply — the connection must not be
        # pooled.
        request = Envelope(
            headers=MessageHeaders(to="http://127.0.0.1/stub", action="urn:stub"),
            payload=SQLExecuteRequest(
                abstract_name="urn:dais:stub", expression="SELECT 1"
            ).to_xml(),
        )
        reply = request.to_bytes()
        wire = render_response(200, "text/xml; charset=utf-8", reply)
        with ScriptedServer([send(wire + stray)]) as stub:
            transport = HttpTransport(timeout=5.0)
            assert transport.send(stub.url, request).to_bytes() == reply
            assert transport.pool.idle_total() == 0
            assert _counter(transport, "discarded").value(reason="poisoned") == 1
            transport.close()


class TestBounds:
    def test_idle_stack_is_bounded(self, deployment):
        _, address, _ = deployment
        host_port = address.split("//", 1)[1].split("/", 1)[0]
        host, port = host_port.split(":")[0], int(host_port.split(":")[1])
        pool = HttpConnectionPool()
        conns = [
            pool.acquire(host, port, timeout=5.0)[0]
            for _ in range(MAX_IDLE_PER_HOST + 1)
        ]
        for conn in conns:
            pool.release(conn, reusable=True)
        assert pool.idle_total() == MAX_IDLE_PER_HOST
        assert pool.metrics.counter(
            "rpc.client.connections.discarded", ""
        ).value(reason="overflow") == 1
        pool.close_all()
        assert pool.idle_total() == 0

    def test_released_closed_connection_is_not_pooled(self):
        pool = HttpConnectionPool()
        conn = ClientConnection("127.0.0.1", 1, socket.socket())
        conn.close()
        pool.release(conn, reusable=True)  # sock is None after close
        assert pool.idle_total() == 0
        assert pool.metrics.counter(
            "rpc.client.connections.discarded", ""
        ).value(reason="closed") == 1
