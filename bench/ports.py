"""The consumer calls an op makes, over the real clients and real HTTP.

:class:`HttpPort` is the untraced run's port: every method is one call
on ``SQLClient``/``XMLClient`` through one pooled ``HttpTransport``
(constructor defaults), timed from just before the call to just after
its reply is decoded.  The time an op spends between calls — checking
replies against the oracle — is the consumer's think time and is not
counted: ``busy_ns`` only advances inside calls.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass
from urllib.parse import urlsplit

from repro.client.sql import SQLClient
from repro.client.xml import XMLClient
from repro.transport import HttpTransport


@dataclass(frozen=True)
class Target:
    """Where a workload's requests go: what ``LISTENING`` announced."""

    port: int
    address: str
    name: str

    @property
    def path(self) -> str:
        return urlsplit(self.address).path

    @property
    def host(self) -> str:
        return f"127.0.0.1:{self.port}"


class HttpPort:
    """One consumer: one thread, one keep-alive connection."""

    def __init__(self, target: Target) -> None:
        self.address = target.address
        self.name = target.name
        self.transport = HttpTransport()
        self._sql = SQLClient(self.transport)
        self._xml = XMLClient(self.transport)
        #: Nanoseconds spent inside calls since construction.
        self.busy_ns = 0
        #: Call kind → per-call latencies in ms.
        self.latencies_ms: dict[str, list[float]] = defaultdict(list)

    def close(self) -> None:
        self.transport.close()

    def _timed(self, kind: str, call, *args):
        started = time.perf_counter_ns()
        try:
            return call(*args)
        finally:
            elapsed = time.perf_counter_ns() - started
            self.busy_ns += elapsed
            self.latencies_ms[kind].append(elapsed / 1e6)

    # -- wire accounting ---------------------------------------------------------

    def wire_bytes(self) -> int:
        """Request + response body bytes as they crossed the socket."""
        metrics = self.transport.metrics
        return int(
            metrics.counter("http.bytes.in").total()
            + metrics.counter("http.bytes.out").total()
        )

    def connections_opened(self) -> int:
        return int(
            self.transport.metrics.counter(
                "rpc.client.connections.created"
            ).total()
        )

    # -- the calls ---------------------------------------------------------------

    def query(self, sql: str, params: tuple = ()):
        return self._timed(
            "query", self._sql.sql_query_rowset, self.address, self.name, sql, list(params)
        )

    def update(self, sql: str, params: tuple = (), kind: str = "update") -> int:
        response = self._timed(
            kind, self._sql.sql_execute, self.address, self.name, sql, list(params)
        )
        return response.update_count

    def propdoc(self):
        return self._timed(
            "propdoc", self._sql.get_property_document, self.address, self.name
        )

    def factory(self, sql: str, params: tuple):
        response = self._timed(
            "factory", self._sql.sql_execute_factory,
            self.address, self.name, sql, list(params),
        )
        return response.address, response.abstract_name

    def rowset_factory(self, epr, name: str):
        response = self._timed(
            "rowset_factory", self._sql.sql_rowset_factory, epr, name
        )
        return response.address, response.abstract_name

    def get_tuples(self, epr, name: str, start: int, count: int):
        return self._timed(
            "get_tuples", self._sql.get_tuples, epr, name, start, count
        )

    def destroy(self, address: str, name: str) -> None:
        self._timed("destroy", self._sql.destroy, address, name)

    def xpath(self, text: str):
        return self._timed(
            "xpath", self._xml.xpath_execute, self.address, self.name, text
        )

    def xquery(self, text: str):
        return self._timed(
            "xquery", self._xml.xquery_execute, self.address, self.name, text
        )
