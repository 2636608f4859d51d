"""Figure 5 follow-on — bounded-memory streamed result delivery.

The streamed pipeline's claim: delivering an N-row dataset costs O(page)
service memory instead of O(N), because rows flow generator → lazy
dataset emitter → chunked serializer without ever materializing.  This
benchmark measures peak traced memory and serialization throughput of
one SQLExecute dispatch + full body drain, streamed vs materialized, at
1k / 10k / 100k rows.  The service has one way of writing a dataset,
so the materialized arm is not a mode of it: it is the design streaming
replaced, rebuilt here from the oracle renderer — drain the result into
a ``Rowset``, build the dataset as an element tree
(``tests/dair/reference_render.py``), serialize the envelope in one
piece.

Hard gates (``make bench-stream``):

* streamed peak memory at 100k rows stays under 2x the 1k-row streamed
  baseline (flat in result size);
* streamed throughput at 10k rows is no worse than the materialized
  path's.
"""

import time
import tracemalloc

import pytest

from repro.bench import Table
from repro.core import ServiceRegistry, mint_abstract_name
from repro.dair import (
    SQLROWSET_FORMAT_URI,
    Rowset,
    SQLDataResource,
    SQLRealisationService,
)
from repro.dair import messages as msg
from repro.soap.addressing import MessageHeaders
from repro.soap.envelope import Envelope
from repro.relational import Database
from tests.dair.reference_render import render_rowset

SIZES = [1_000, 10_000, 100_000]
THROUGHPUT_SIZE = 10_000
SQL = "SELECT k, v FROM t"


@pytest.fixture(scope="module")
def deployments():
    built = {}
    for rows in SIZES:
        registry = ServiceRegistry()
        address = "dais://stream-bench"
        service = SQLRealisationService("stream-bench", address)
        registry.register(service)
        database = Database(f"bench{rows}")
        database.execute(
            "CREATE TABLE t (k INT PRIMARY KEY, v VARCHAR(32))"
        )
        for base in range(0, rows, 5000):
            batch = min(5000, rows - base)
            database.execute(
                "INSERT INTO t VALUES "
                + ",".join(
                    f"({i},'value-{i:06d}')"
                    for i in range(base, base + batch)
                )
            )
        resource = SQLDataResource(mint_abstract_name("t"), database)
        service.add_resource(resource)
        built[rows] = (service, address, resource.abstract_name)
    return built


def _materialized(service, name, request: Envelope) -> Envelope:
    """The reply as the tree design produced it: every row held, one
    ``XmlElement`` per value."""
    result = service.binding(name).resource.sql_execute(SQL)
    message = msg.SQLExecuteResponse(
        dataset_format_uri=SQLROWSET_FORMAT_URI,
        dataset=render_rowset(SQLROWSET_FORMAT_URI, Rowset.from_result(result)),
        update_count=result.update_count,
        communication=result.communication,
    )
    return Envelope(
        headers=request.headers.reply(f"{request.headers.action}Response"),
        payload=message.to_xml(),
    )


def _measure(service, address, name, streamed):
    """One SQLExecute dispatch + full body drain under tracemalloc.

    Returns (peak traced bytes, seconds, body bytes).  The drain
    mirrors the transport: chunk-by-chunk for the streamed path (the
    chunked HTTP writer), one materialized string otherwise.
    """
    request = Envelope(
        headers=MessageHeaders(
            to=address, action=msg.SQLExecuteRequest.action()
        ),
        payload=msg.SQLExecuteRequest(
            abstract_name=name, expression=SQL
        ).to_xml(),
    )
    tracemalloc.start()
    tracemalloc.reset_peak()
    started = time.perf_counter()
    if streamed:
        response = service.dispatch(request)
        assert response.is_streaming()
        body_bytes = sum(len(piece) for piece in response.iter_bytes())
    else:
        body_bytes = len(_materialized(service, name, request).to_bytes())
    elapsed = time.perf_counter() - started
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak, elapsed, body_bytes


def test_fig5_streamed_memory_and_throughput(deployments):
    table = Table(
        "Figure 5 — streamed vs materialized SQLExecute delivery",
        ["rows", "mode", "peak KiB", "body MiB", "ms", "rows/s"],
        note="peak = tracemalloc high-water across dispatch + body drain",
    )
    peaks = {}
    rates = {}
    for rows in SIZES:
        service, address, name = deployments[rows]
        for streamed in (False, True):
            mode = "streamed" if streamed else "materialized"
            # One warm-up to stabilize caches, then the measured run.
            _measure(service, address, name, streamed)
            peak, elapsed, body_bytes = _measure(
                service, address, name, streamed
            )
            peaks[rows, mode] = peak
            rates[rows, mode] = rows / elapsed
            table.add(
                rows,
                mode,
                round(peak / 1024),
                round(body_bytes / (1024 * 1024), 2),
                round(elapsed * 1000, 1),
                round(rows / elapsed),
            )
    table.show()

    # Gate 1: streamed peak memory is flat in result size.
    baseline = peaks[SIZES[0], "streamed"]
    top = peaks[SIZES[-1], "streamed"]
    assert top < 2 * baseline, (
        f"streamed peak grew {top / baseline:.1f}x from "
        f"{SIZES[0]} to {SIZES[-1]} rows (gate: < 2x)"
    )
    # Sanity: the materialized path really is O(result) — it should dwarf
    # the streamed peak at the top size.
    assert peaks[SIZES[-1], "materialized"] > 5 * top

    # Gate 2: streaming costs no throughput at the mid size (10% noise
    # allowance on an already tracemalloc-slowed measurement).
    assert (
        rates[THROUGHPUT_SIZE, "streamed"]
        >= 0.9 * rates[THROUGHPUT_SIZE, "materialized"]
    ), (
        f"streamed {rates[THROUGHPUT_SIZE, 'streamed']:.0f} rows/s vs "
        f"materialized {rates[THROUGHPUT_SIZE, 'materialized']:.0f} rows/s"
    )
