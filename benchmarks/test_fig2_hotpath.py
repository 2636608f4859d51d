"""Figure 2 — the compiled hot path gate (one path, one oracle).

Paper claim: figure 2's round-trip decomposition shows the message
layer — serialization, parsing, dispatch framing — dominating the
engine for realistic result sizes.  PR 9 compiled that hot path:
prepared-statement plans cached on SQL text, precompiled byte-template
serialization, a tag-interning single-pass parser, and batched tuple
emission.  There is no switch to turn any of it off: ``src/`` holds one
implementation per layer, and every "before" leg here comes from an
oracle or from the public tree API instead of from a mode of the
program.

Hard gate (``make bench-fig2``):

* the shipped parser reads the 1000-row reply **≥ 3x** faster than the
  classic recursive parser it replaced (``tests/xmlutil/
  reference_parser.py``), measured interleaved (min-of-rounds ×
  best-of-N) so machine noise cancels, and builds the same tree;
* the same comparison on the benchmark's ~40 KB property-document
  reply (general XML: attributes, no rowset lattice), **≥ 2.5x**;
* wire output is **byte-identical**: templated ``to_bytes()`` vs
  generic tree serialization of the same response, and eager (a
  pipeline breaker, emitted from memory) vs streamed (chunked) delivery
  of the same rows;
* the plan-cache invalidation regressions and the parser differential
  stay green (they run in the same target).

``BENCH_FIG2_SMOKE=1`` (wired into ``make test``) runs a scaled-down
tier: fewer rounds and looser floors (1.8x, 1.5x), so the everyday suite
stays fast and immune to CI noise while still catching a regressed
parser; the full bars are enforced by ``make bench-fig2``.
"""

import os
import re
import time

import pytest

from bench.deploy import build_deployment
from benchmarks.harness import Table
from repro.core import messages as core_messages
from repro.core import mint_abstract_name
from repro.dair import SQLDataResource, SQLRealisationService
from repro.dair import messages as msg
from repro.soap.addressing import MessageHeaders
from repro.soap.envelope import Envelope
from repro.workload import RelationalWorkload, populate_shop_database
from repro.xmlutil import parse, serialize, serialize_bytes
from tests.xmlutil import reference_parser

SMOKE = os.environ.get("BENCH_FIG2_SMOKE", "") == "1"

#: Same scale as the other figure-2 benchmarks: 1200 lineitems.
WORKLOAD = RelationalWorkload(
    customers=100, orders_per_customer=4, items_per_order=3
)
QUERY = "SELECT * FROM lineitems LIMIT 1000"

ROUNDS = 2 if SMOKE else 6
BEST_OF = 3 if SMOKE else 8
GATE_RATIO = 1.8 if SMOKE else 3.0
PROPDOC_GATE_RATIO = 1.5 if SMOKE else 2.5


#: The same 1000 rows in the same order (``id`` is the key they are
#: stored by), asked as a pipeline breaker: the engine holds every row
#: before the first leaves, so the reply is emitted from memory.
QUERY_MATERIALIZED = "SELECT * FROM lineitems ORDER BY id LIMIT 1000"


@pytest.fixture(scope="module")
def deploy():
    service = SQLRealisationService("hot-sql", "dais://hot-sql")
    resource = SQLDataResource(
        mint_abstract_name("shop"), populate_shop_database(WORKLOAD)
    )
    service.add_resource(resource)
    return service, resource


def _best(fn, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
    return best


def _tree_bytes(envelope: Envelope) -> bytes:
    """The generic rendering: build the envelope tree, walk it."""
    return serialize_bytes(envelope.to_xml())


def _execute_bytes(
    service, resource, render=Envelope.to_bytes, query: str = QUERY
) -> bytes:
    """One SQLExecute round trip at the envelope layer, returning the
    response as *render* serializes it.  Dispatched fresh every call: a
    streamed response drains its dataset when serialized, so the
    envelope is single-use by design."""
    request = Envelope(
        headers=MessageHeaders(
            to=service.address, action=msg.SQLExecuteRequest.action()
        ),
        payload=msg.SQLExecuteRequest(
            abstract_name=resource.abstract_name,
            expression=query,
        ).to_xml(),
    )
    request_bytes = request.to_bytes()
    return render(service.dispatch(Envelope.from_bytes(request_bytes)))


#: Every dispatch mints fresh ``wsa:MessageID``/``wsa:RelatesTo`` UUIDs;
#: pin them so responses to identical requests compare byte-for-byte.
_UUID = re.compile(rb"urn:uuid:[0-9a-f-]{36}")


def _normalize(wire: bytes) -> bytes:
    return _UUID.sub(b"urn:uuid:pinned", wire)


def _parse_gate(reply: str, title: str, floor: float) -> None:
    """Shipped parser vs the oracle on *reply*: both must build the same
    tree, and the oracle/shipped ratio of the min-of-rounds times must
    reach *floor*.  The two parsers alternate within every round and
    each number is the min across rounds, so load spikes hit both legs
    alike."""
    assert serialize(parse(reply)) == serialize(reference_parser.parse(reply))

    legs = {"shipped": parse, "oracle": reference_parser.parse}
    samples = {leg: [] for leg in legs}
    for _ in range(ROUNDS):
        for leg, parser in legs.items():
            samples[leg].append(_best(lambda: parser(reply), BEST_OF))
    best = {leg: min(times) for leg, times in samples.items()}
    ratio = best["oracle"] / best["shipped"]

    table = Table(
        title,
        ["parser", "parse ms", "MB/s"],
        note=(
            f"{len(reply) / 1e3:.0f} KB reply; min of {ROUNDS} interleaved "
            f"rounds × best-of-{BEST_OF}; gate: oracle/shipped ≥ {floor}x"
        ),
    )
    for leg in ("oracle", "shipped"):
        table.add(
            leg,
            f"{best[leg] * 1e3:8.2f}",
            f"{len(reply) / best[leg] / 1e6:6.1f}",
        )
    table.add("ratio", f"{ratio:8.2f}x", "")
    table.show()

    assert ratio >= floor, (
        f"parse speed-up {ratio:.2f}x below the {floor}x gate "
        f"(oracle {best['oracle'] * 1e3:.2f}ms, "
        f"shipped {best['shipped'] * 1e3:.2f}ms)"
    )


def test_fig2_hotpath_gate(deploy):
    """Parse rate on the 1000-row reply: shipped parser vs the oracle.

    The reply is what a consumer of the repeat query receives; parsing
    it is the largest single share of the figure-2 message layer.
    """
    service, resource = deploy
    reply = _execute_bytes(service, resource).decode("utf-8")
    _parse_gate(
        reply,
        "Figure 2 — parsing the 1000-row reply, shipped parser vs oracle",
        GATE_RATIO,
    )


def test_fig2_general_document_gate():
    """Parse rate on the benchmark's property-document reply (~40 KB of
    CIM description: attribute-carrying elements, no rowset lattice),
    the document every consumer interaction starts by reading.  The
    sibling-run and row-run recognisers do not apply to it, so this leg
    measures the one tokenizer alone."""
    deployment = build_deployment("sql", extra_tables=True, seed=1)
    request = Envelope(
        headers=MessageHeaders(
            to=deployment.address,
            action=core_messages.GetDataResourcePropertyDocumentRequest.action(),
        ),
        payload=core_messages.GetDataResourcePropertyDocumentRequest(
            abstract_name=deployment.name
        ).to_xml(),
    )
    response = deployment.service.dispatch(Envelope.from_bytes(request.to_bytes()))
    reply = response.to_bytes().decode("utf-8")
    assert len(reply) > 30_000
    _parse_gate(
        reply,
        "Figure 2 — parsing the property-document reply, shipped parser vs oracle",
        PROPDOC_GATE_RATIO,
    )


def test_fig2_wire_bytes_identical_templated_vs_tree(deploy):
    """The byte-template serializer is an optimization, not a dialect:
    the same response rendered through the generic tree walker must
    match ``to_bytes()`` exactly."""
    service, resource = deploy
    templated = _execute_bytes(service, resource)
    tree = _execute_bytes(service, resource, _tree_bytes)
    assert _normalize(templated) == _normalize(tree)


def test_fig2_wire_bytes_identical_eager_vs_streamed(deploy):
    """Streaming changes when bytes are produced, never which bytes:
    the rows pulled lazily from the engine while the reply is written,
    and the same rows held by a pipeline breaker and emitted from
    memory, are identical wire output."""
    service, resource = deploy

    def lazy(response: Envelope) -> bytes:
        assert response.is_streaming()
        return response.to_bytes()

    def held(response: Envelope) -> bytes:
        assert not response.is_streaming()
        return response.to_bytes()

    streamed = _execute_bytes(service, resource, lazy)
    eager = _execute_bytes(service, resource, held, QUERY_MATERIALIZED)
    assert _normalize(streamed) == _normalize(eager)
