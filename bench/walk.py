"""The traced run: the layer walk.

For each op of a workload, the same deployment is built in-process and
every call of the op is walked through the layers one public function
at a time — client encode → HTTP request parse → envelope parse →
``dispatch`` → reply serialize → gzip → gunzip → client decode — each
wrapped in one of the benchmark's own spans.  Beside those *path*
steps, *probe* spans re-measure a piece of work alone (the XML parse of
the same bytes, the engine on the oracle's twin database, a cold
statement), so a path step's share can be split between layers by
subtraction.  Nothing inside ``src/`` is instrumented.

Span names (children of one ``call`` span per message exchange, which
is a child of the op's root ``op`` span):

    client.encode            request message → Envelope → bytes
      soap.serialize.request   the Envelope.to_bytes() inside it
    transport.http_parse     RequestParser.feed + next_request
    soap.parse.request       Envelope.from_bytes on the server side
    core.dispatch            DataService.dispatch (daix.dispatch on /xml)
    reply.eager              response.to_bytes()
    reply.streamed           b"".join(response.iter_bytes()) — drains the engine
    transport.gzip / transport.gunzip
    client.decode            Envelope.from_bytes + fault check + from_xml
      soap.parse.reply         the Envelope.from_bytes inside it
    dair.rowset_parse        parse_rowset on the decoded dataset
    probe.*                  measured alone; never part of the path sum
"""

from __future__ import annotations

import gc
import itertools
import random
import time
from collections import defaultdict

from repro.core import messages as core_messages
from repro.dair import messages as dair_messages
from repro.dair.datasets import Rowset, parse_rowset
from repro.daix import messages as daix_messages
from repro.soap.addressing import MessageHeaders
from repro.soap.envelope import Envelope
from repro.soap.tracecontext import inject
from repro.transport.compression import (
    GZIP_FLOOR_BYTES,
    gunzip,
    gzip_compress,
    gzip_stream,
)
from repro.transport.http11 import RequestParser
from repro.xmlutil import parse_bytes, serialize_bytes

from bench import stats, yardstick
from bench.deploy import build_deployment
from bench.ports import Target
from bench.rawhttp import render_post
from bench.spans import NullRecorder, SpanRecorder
from bench.workloads import FACTORY_SQL, Oracle, Workload


#: The steps a request really takes, in order; their sum is the walk sum.
PATH_SPANS = (
    "client.encode",
    "transport.http_parse",
    "soap.parse.request",
    "core.dispatch",
    "daix.dispatch",
    "reply.eager",
    "reply.streamed",
    "transport.gzip",
    "transport.gunzip",
    "client.decode",
    "dair.rowset_parse",
)


def address_request(address: str, request, reference_parameters: tuple = ()) -> Envelope:
    """A request message addressed the way the consumer proxies do."""
    return Envelope(
        headers=MessageHeaders(
            to=address,
            action=type(request).action(),
            reference_parameters=reference_parameters,
        ),
        payload=request.to_xml(),
    )


def encode_request(address: str, request, reference_parameters: tuple = ()) -> bytes:
    """... and as the HTTP transport puts it on the wire."""
    return inject(address_request(address, request, reference_parameters)).to_bytes()


def _engine_alone(database, sql: str, params: tuple) -> None:
    """Run one statement on *database* and drain its rows, the way the
    SQL resource does (a session, streaming where the plan allows)."""
    session = database.create_session()
    try:
        for _ in session.execute(sql, params, stream=True).iter_rows():
            pass
    finally:
        session.close()


class WalkPort:
    """The port of the traced run: each call is one walked exchange."""

    def __init__(self, deployment, oracle: Oracle, recorder, raw: bool) -> None:
        self._service = deployment.service
        self._oracle = oracle
        self._rec = recorder
        self._raw = raw
        self.address = deployment.address
        self.name = deployment.name
        target = Target(deployment.server.port, self.address, self.name)
        self._path, self._host = target.path, target.host
        self._dispatch_span = (
            "core.dispatch" if oracle.database is not None else "daix.dispatch"
        )
        self._cold_texts = itertools.count(1)
        self._scratch = itertools.count(1)
        #: Counts taken where the work happens (whole walk).
        self.parsed_bytes = 0
        self.logical_bytes = 0
        self.gzipped_bytes = 0
        self.rows = 0

    # -- one exchange --------------------------------------------------------------

    def _exchange(self, request, response_cls, address=None,
                  reference_parameters=(), probe=None, probe_name=""):
        rec = self._rec
        address = address or self.address
        with rec.span("call"):
            if self._raw:
                body = encode_request(address, request, reference_parameters)
            else:
                with rec.span("client.encode"):
                    envelope = address_request(address, request, reference_parameters)
                    with rec.span("soap.serialize.request"):
                        body = inject(envelope).to_bytes()
            post = render_post(self._path, self._host, body, type(request).action())
            with rec.span("transport.http_parse"):
                parser = RequestParser()
                parser.feed(post)
                parsed = parser.next_request()
            with rec.span("probe.xmlutil.parse.request"):
                tree = parse_bytes(parsed.body)
            with rec.span("probe.xmlutil.serialize.request"):
                serialize_bytes(tree)
            with rec.span("soap.parse.request"):
                request_envelope = Envelope.from_bytes(parsed.body)
            with rec.span(self._dispatch_span):
                response = self._service.dispatch(request_envelope)
            streamed = response.is_streaming()
            flavour = "streamed" if streamed else "eager"
            if probe is not None:
                # A lazy reply has not touched the engine yet: its
                # engine time lands in the reply span, not in dispatch.
                with rec.span(f"probe.{probe_name}.in_{'reply' if streamed else 'dispatch'}"):
                    probe()
            with rec.span(f"reply.{flavour}"):
                if streamed:
                    fragments = list(response.iter_bytes())
                    reply = b"".join(fragments)
                else:
                    reply = response.to_bytes()
            decoded = reply
            if len(reply) >= GZIP_FLOOR_BYTES:
                with rec.span("transport.gzip"):
                    if streamed:
                        wire = b"".join(gzip_stream(fragments))
                    else:
                        wire = gzip_compress(reply)
                with rec.span("transport.gunzip"):
                    decoded = gunzip(wire)
                self.logical_bytes += len(reply)
                self.gzipped_bytes += len(wire)
            with rec.span("probe.xmlutil.parse.reply"):
                reply_tree = parse_bytes(decoded)
            with rec.span(f"probe.xmlutil.serialize.reply.{flavour}"):
                serialize_bytes(reply_tree)
            self.parsed_bytes += len(parsed.body) + len(decoded)
            if self._raw:
                return response_cls.from_xml(
                    Envelope.from_bytes(decoded).raise_if_fault().payload
                )
            with rec.span("client.decode"):
                with rec.span("soap.parse.reply"):
                    reply_envelope = Envelope.from_bytes(decoded)
                reply_envelope.raise_if_fault()
                return response_cls.from_xml(reply_envelope.payload)

    def _rowset(self, response) -> Rowset:
        if response.dataset is None:
            return Rowset([], [], [])
        if self._raw:
            rowset = parse_rowset(response.dataset_format_uri, response.dataset)
        else:
            with self._rec.span("dair.rowset_parse"):
                rowset = parse_rowset(response.dataset_format_uri, response.dataset)
        self.rows += len(rowset.rows)
        return rowset

    def _sql_execute(self, sql: str, params: tuple, probe=None):
        return self._exchange(
            dair_messages.SQLExecuteRequest(
                abstract_name=self.name, expression=sql, parameters=list(params)
            ),
            dair_messages.SQLExecuteResponse,
            probe=probe,
            probe_name="relational.execute",
        )

    # -- the calls -----------------------------------------------------------------

    def query(self, sql: str, params: tuple = ()) -> Rowset:
        twin = self._oracle.database
        with self._rec.span("probe.relational.execute_cold"):
            _engine_alone(twin, sql + " " * next(self._cold_texts), params)
        response = self._sql_execute(
            sql, params, probe=lambda: _engine_alone(twin, sql, params)
        )
        return self._rowset(response)

    def update(self, sql: str, params: tuple = (), kind: str = "update") -> int:
        # No engine probe: the op applies the write to the twin itself.
        return self._sql_execute(sql, params).update_count

    def propdoc(self):
        binding = self._service.binding(self.name)
        response = self._exchange(
            core_messages.GetDataResourcePropertyDocumentRequest(
                abstract_name=self.name
            ),
            core_messages.GetDataResourcePropertyDocumentResponse,
            probe=binding.property_document,
            probe_name="core.propdoc_render",
        )
        return response.document

    def factory(self, sql: str, params: tuple):
        twin = self._oracle.database
        response = self._exchange(
            dair_messages.SQLExecuteFactoryRequest(
                abstract_name=self.name, expression=sql, parameters=list(params)
            ),
            dair_messages.SQLExecuteFactoryResponse,
            probe=lambda: _engine_alone(twin, sql, params),
            probe_name="relational.execute",
        )
        return response.address, response.abstract_name

    def rowset_factory(self, epr, name: str):
        response = self._exchange(
            dair_messages.SQLRowsetFactoryRequest(abstract_name=name),
            dair_messages.SQLRowsetFactoryResponse,
            address=epr.address,
            reference_parameters=epr.reference_parameters,
        )
        return response.address, response.abstract_name

    def get_tuples(self, epr, name: str, start: int, count: int):
        response = self._exchange(
            dair_messages.GetTuplesRequest(
                abstract_name=name, start_position=start, count=count
            ),
            dair_messages.GetTuplesResponse,
            address=epr.address,
            reference_parameters=epr.reference_parameters,
        )
        return self._rowset(response), response.total_rows

    def destroy(self, address: str, name: str) -> None:
        if "sqlresponse" in name:
            self._probe_destroy()
        self._exchange(
            core_messages.DestroyDataResourceRequest(abstract_name=name),
            core_messages.DestroyDataResourceResponse,
            address=address,
        )

    def _probe_destroy(self) -> None:
        """Service-side ``destroy_resource`` on a derived response, alone:
        on a scratch response made for the purpose (a parameter no
        session draws), so the session's own resources are untouched."""
        scratch = self._service.dispatch(
            Envelope.from_bytes(
                encode_request(
                    self.address,
                    dair_messages.SQLExecuteFactoryRequest(
                        abstract_name=self.name,
                        expression=FACTORY_SQL,
                        parameters=[f"{9000 + next(self._scratch)}"],
                    ),
                )
            )
        )
        name = dair_messages.SQLExecuteFactoryResponse.from_xml(
            scratch.raise_if_fault().payload
        ).abstract_name
        with self._rec.span("probe.wsrf.destroy"):
            self._service.destroy_resource(name)

    def _xml(self, request_cls, response_cls, evaluate, text: str):
        response = self._exchange(
            request_cls(abstract_name=self.name, expression=text),
            response_cls,
            probe=lambda: evaluate(text),
            probe_name="xmldb.query",
        )
        return response.items

    def xpath(self, text: str):
        return self._xml(
            daix_messages.XPathExecuteRequest,
            daix_messages.XPathExecuteResponse,
            self._oracle.collection.xpath_execute,
            text,
        )

    def xquery(self, text: str):
        return self._xml(
            daix_messages.XQueryExecuteRequest,
            daix_messages.XQueryExecuteResponse,
            self._oracle.collection.xquery_execute,
            text,
        )


# -- running the walk and rolling spans up into layer metrics ---------------------


def _replay(workload: Workload, seed: int, recorder, max_ops: int,
            budget: float) -> tuple[WalkPort, int, float, list[float]]:
    """Walk up to *max_ops* seeded ops (at least 5, stopping early when
    *budget* seconds are spent) → (port, ops walked, seconds inside
    ops, one yardstick burst per op)."""
    deployment = build_deployment(workload.realisation, workload.extra_tables, seed)
    try:
        oracle = workload.oracle(seed)
        # This process holds two copies of the data (served + twin) that
        # no real consumer or server holds together; keep them out of
        # the collector's way so its pauses are those of the real path.
        gc.collect()
        gc.freeze()
        port = WalkPort(deployment, oracle, recorder, workload.raw)
        ops = workload.ops(random.Random(seed))
        state: dict = {}
        started = time.perf_counter()
        inside = 0.0
        yard = []
        walked = 0
        while walked < max_ops:
            recorder.start_trace()
            entered = time.perf_counter()
            with recorder.span("op"):
                workload.run(next(ops), port, oracle, state)
            inside += time.perf_counter() - entered
            yard.append(yardstick.burst_ms())
            walked += 1
            if walked >= 5 and time.perf_counter() - started > budget:
                break
        return port, walked, inside, yard
    finally:
        gc.unfreeze()
        deployment.server.stop()


def run_walk(workload: Workload, seed: int, budget: float, trace_path=None):
    """The traced run → the *traced* per-layer metrics (None = the
    workload does not cross that layer).  A reply that fails its check
    raises: the walk replays ops the oracle already vouches for."""
    recorder = SpanRecorder()
    port, walked, traced_seconds, yard = _replay(
        workload, seed, recorder, workload.walk_ops, budget / 2
    )
    _, _, plain_seconds, plain_yard = _replay(
        workload, seed, NullRecorder(), walked, float("inf")
    )
    slow = yardstick.slowdown(yard)
    if trace_path is not None:
        recorder.write_jsonl(trace_path)

    per_op = list(recorder.totals_by_trace_ms().values())
    crossed = set().union(*per_op)

    def med(formula) -> float:
        return stats.median(formula(defaultdict(float, totals)) for totals in per_op)

    def metric(names: tuple, formula) -> float | None:
        return med(formula) if crossed.intersection(names) else None

    def less(total: float, part: float) -> float:
        return max(0.0, total - part)

    engine_in_dispatch = (
        "probe.relational.execute.in_dispatch",
        "probe.core.propdoc_render.in_dispatch",
        "probe.xmldb.query.in_dispatch",
    )
    relational = (
        "probe.relational.execute.in_dispatch",
        "probe.relational.execute.in_reply",
    )
    parse_probes = ("probe.xmlutil.parse.request", "probe.xmlutil.parse.reply")
    serialize_probes = (
        "probe.xmlutil.serialize.request",
        "probe.xmlutil.serialize.reply.eager",
        "probe.xmlutil.serialize.reply.streamed",
    )

    def dispatch_self(span: str):
        return lambda t: less(t[span], sum(t[name] for name in engine_in_dispatch))

    walk_sum = med(lambda t: sum(t[name] for name in PATH_SPANS))
    parse_seconds = sum(
        totals.get(name, 0.0) for totals in per_op for name in parse_probes
    ) / 1e3
    layers = {
        "client.encode_ms": metric(("client.encode",), lambda t: t["client.encode"]),
        "client.decode_ms": metric(
            ("client.decode",), lambda t: t["client.decode"] + t["dair.rowset_parse"]
        ),
        "transport.http_parse_ms": med(lambda t: t["transport.http_parse"]),
        "transport.gzip_ms": metric(("transport.gzip",), lambda t: t["transport.gzip"]),
        "transport.gunzip_ms": metric(
            ("transport.gunzip",), lambda t: t["transport.gunzip"]
        ),
        "transport.gzip_ratio": (
            port.logical_bytes / port.gzipped_bytes if port.gzipped_bytes else None
        ),
        "soap.parse_ms": med(
            lambda t: less(t["soap.parse.request"], t["probe.xmlutil.parse.request"])
            + less(t["soap.parse.reply"], t["probe.xmlutil.parse.reply"])
        ),
        "soap.serialize_ms": med(
            lambda t: less(
                t["soap.serialize.request"], t["probe.xmlutil.serialize.request"]
            )
            + less(t["reply.eager"], t["probe.xmlutil.serialize.reply.eager"])
        ),
        "xmlutil.parse_ms": med(lambda t: sum(t[name] for name in parse_probes)),
        "xmlutil.parse_mb_s": port.parsed_bytes / 1e6 / parse_seconds,
        "xmlutil.serialize_ms": med(lambda t: sum(t[name] for name in serialize_probes)),
        "core.dispatch_ms": metric(("core.dispatch",), dispatch_self("core.dispatch")),
        "core.propdoc_render_ms": metric(
            ("probe.core.propdoc_render.in_dispatch",),
            lambda t: t["probe.core.propdoc_render.in_dispatch"],
        ),
        "dair.emit_ms": metric(
            ("reply.streamed",),
            lambda t: less(t["reply.streamed"], t["probe.relational.execute.in_reply"]),
        ),
        "dair.rowset_parse_ms": metric(
            ("dair.rowset_parse",), lambda t: t["dair.rowset_parse"]
        ),
        "dair.rows_per_op": (
            port.rows / walked if crossed.intersection(relational) else None
        ),
        "relational.execute_ms": metric(
            relational, lambda t: sum(t[name] for name in relational)
        ),
        "relational.execute_cold_ms": metric(
            ("probe.relational.execute_cold",),
            lambda t: t["probe.relational.execute_cold"],
        ),
        "daix.dispatch_ms": metric(("daix.dispatch",), dispatch_self("daix.dispatch")),
        "xmldb.query_ms": metric(
            ("probe.xmldb.query.in_dispatch",),
            lambda t: t["probe.xmldb.query.in_dispatch"],
        ),
        "wsrf.destroy_ms": metric(
            ("probe.wsrf.destroy",), lambda t: t["probe.wsrf.destroy"]
        ),
        "trace.walk_sum_ms": walk_sum,
        "trace.overhead_share": (
            (traced_seconds / slow)
            / (plain_seconds / yardstick.slowdown(plain_yard))
            - 1.0
        ),
        "trace.spans": len(recorder.spans),
    }
    return yardstick.at_reference_speed(layers, slow), walked
