"""Figure 5 — the three-service relational pipeline.

Paper claims: the EPR hand-offs between consumers are tiny; the bulk
data flows only on the final (service 3 → consumer 3) leg; paging via
``GetTuples`` delivers the same bytes as one bulk pull, spread over N
calls (per-call latency trade-off).

Regenerated tables: per-leg byte accounting, and a page-size sweep.
"""

from benchmarks.harness import Table
from repro.dair import WEBROWSET_FORMAT_URI
from repro.transport.wire import WAN


def _run_pipeline(fig5, page_size):
    client = fig5.client
    factory1 = client.sql_execute_factory(
        "dais://ds1",
        fig5.resource.abstract_name,
        "SELECT id, customer_id, total FROM orders ORDER BY id",
    )
    factory2 = client.sql_rowset_factory(
        factory1.address,
        factory1.abstract_name,
        dataset_format_uri=WEBROWSET_FORMAT_URI,
    )
    start = 0
    calls = 0
    while True:
        _, total = client.get_tuples(
            factory2.address, factory2.abstract_name, start, page_size
        )
        calls += 1
        start += page_size
        if start >= total:
            return calls, total


def test_fig5_per_leg_bytes(benchmark, fig5):
    table = Table(
        "Figure 5 — response bytes per service leg",
        ["leg", "service", "bytes"],
        note="EPR hand-offs on legs 1-2; data only on leg 3",
    )

    def run_once():
        stats = fig5.client.transport.stats
        stats.reset()
        _run_pipeline(fig5, page_size=100)
        per_address = {}
        for record in stats.calls:
            per_address[record.address] = (
                per_address.get(record.address, 0) + record.response_bytes
            )
        for leg, address in enumerate(
            ("dais://ds1", "dais://ds2", "dais://ds3"), start=1
        ):
            table.add(leg, address, per_address.get(address, 0))

    benchmark.pedantic(run_once, rounds=1, iterations=1)
    table.show()
    bytes_by_leg = [row[2] for row in table.rows]
    assert bytes_by_leg[2] > 10 * bytes_by_leg[0]
    assert bytes_by_leg[2] > 10 * bytes_by_leg[1]


def test_fig5_page_size_sweep(benchmark, fig5):
    table = Table(
        "Figure 5 — GetTuples page-size sweep",
        ["page size", "calls", "bytes", "modeled WAN seconds"],
        note="smaller pages trade latency (per-call WAN cost) for memory",
    )

    def run_sweep():
        for page_size in (10, 50, 200, 1000):
            stats = fig5.client.transport.stats
            stats.reset()
            _run_pipeline(fig5, page_size)
            modeled = sum(
                WAN.transfer_time(r.request_bytes)
                + WAN.transfer_time(r.response_bytes)
                for r in stats.calls
            )
            table.add(
                page_size, stats.call_count, stats.total_bytes, f"{modeled:7.3f}"
            )

    benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    table.show()
    # Shape: fewer calls with larger pages; modeled time decreases.
    calls = [row[1] for row in table.rows]
    assert calls == sorted(calls, reverse=True)
    modeled = [float(row[3]) for row in table.rows]
    assert modeled[0] > modeled[-1]


def test_fig5_pipeline_end_to_end_latency(benchmark, fig5):
    benchmark(lambda: _run_pipeline(fig5, page_size=100))
