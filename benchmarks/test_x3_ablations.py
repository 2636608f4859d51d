"""Experiment X3 — ablations of dais-py design choices.

Not a paper figure: these quantify the substrate decisions DESIGN.md
calls out, so a reader can see what each mechanism buys.

* index vs full scan for selective predicates (the engine's access-path
  selection);
* hash join vs nested-loop join (the executor's equi-join detection);
* loopback vs real HTTP transport (the wire-fidelity cost).
"""

import time

from repro.bench import Table
from repro.bench.harness import measure_wall
from repro.relational import Database
from repro.workload import RelationalWorkload, populate_shop_database

SCALE = RelationalWorkload(customers=400, orders_per_customer=4, items_per_order=2)


def test_x3_index_vs_scan(benchmark):
    table = Table(
        "X3 — point lookup: primary-key index vs forced scan",
        ["rows in table", "indexed ms", "scan ms", "speedup"],
        note="scan forced by wrapping the key in an opaque expression",
    )

    def run_sweep():
        for customers in (100, 400, 1600):
            db = populate_shop_database(RelationalWorkload(customers=customers))
            indexed = measure_wall(
                lambda d=db: d.execute("SELECT * FROM customers WHERE id = 7"),
                repeat=3,
            )
            # `id + 0 = 7` defeats the sargability test -> full scan.
            scan = measure_wall(
                lambda d=db: d.execute("SELECT * FROM customers WHERE id + 0 = 7"),
                repeat=3,
            )
            table.add(
                customers,
                f"{indexed * 1e3:8.3f}",
                f"{scan * 1e3:8.3f}",
                f"{scan / indexed:6.1f}x",
            )

    benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    table.show()
    # Shape: the index advantage grows with table size.
    speedups = [float(row[3][:-1]) for row in table.rows]
    assert speedups[-1] > speedups[0]


def test_x3_hash_vs_nested_loop_join(benchmark):
    table = Table(
        "X3 — equi-join (hash) vs theta-join (nested loop)",
        ["orders", "hash join ms", "nested loop ms"],
        note="same result cardinality order; executor picks by condition shape",
    )

    def run_sweep():
        for customers in (50, 150):
            db = populate_shop_database(
                RelationalWorkload(customers=customers, orders_per_customer=4)
            )
            hash_join = measure_wall(
                lambda d=db: d.execute(
                    "SELECT COUNT(*) FROM orders o JOIN customers c "
                    "ON o.customer_id = c.id"
                ),
                repeat=2,
            )
            nested = measure_wall(
                lambda d=db: d.execute(
                    "SELECT COUNT(*) FROM orders o JOIN customers c "
                    "ON o.customer_id <= c.id AND o.customer_id >= c.id"
                ),
                repeat=2,
            )
            table.add(
                customers * 4,
                f"{hash_join * 1e3:9.2f}",
                f"{nested * 1e3:9.2f}",
            )

    benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    table.show()
    assert all(
        float(row[1]) < float(row[2]) for row in table.rows
    ), "hash join should beat the nested loop"


def test_x3_loopback_vs_http(benchmark):
    from repro.client.sql import SQLClient
    from repro.core import ServiceRegistry, mint_abstract_name
    from repro.dair import SQLDataResource, SQLRealisationService
    from repro.transport import DaisHttpServer, HttpTransport, LoopbackTransport

    table = Table(
        "X3 — transport ablation: loopback vs HTTP (same messages)",
        ["transport", "ms per SQLExecute", "bytes per call"],
    )

    def run_comparison():
        registry = ServiceRegistry()
        server = DaisHttpServer(registry, port=0)
        address = server.url_for("/db")
        service = SQLRealisationService("db", address)
        registry.register(service)
        resource = SQLDataResource(
            mint_abstract_name("db"),
            populate_shop_database(RelationalWorkload(customers=30)),
        )
        service.add_resource(resource)

        query = "SELECT id, total FROM orders WHERE total > 200 LIMIT 50"
        with server:
            for label, transport in (
                ("loopback", LoopbackTransport(registry)),
                # Same messages, different transport: the HTTP arm does
                # not negotiate gzip, or it would compare encodings too.
                ("http", HttpTransport(compression=False)),
            ):
                client = SQLClient(transport)
                seconds = measure_wall(
                    lambda c=client: c.sql_execute(
                        address, resource.abstract_name, query
                    ),
                    repeat=3,
                )
                per_call = transport.stats.total_bytes / transport.stats.call_count
                table.add(label, f"{seconds * 1e3:8.2f}", int(per_call))

    benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    table.show()
    # Same messages → same bytes, regardless of transport.
    assert abs(table.rows[0][2] - table.rows[1][2]) < 50


def test_x3_engine_point_query_latency(benchmark):
    db = populate_shop_database(RelationalWorkload(customers=400))
    benchmark(lambda: db.execute("SELECT * FROM customers WHERE id = 123"))


def test_x3_engine_join_latency(benchmark):
    db = populate_shop_database(RelationalWorkload(customers=100))
    benchmark(
        lambda: db.execute(
            "SELECT c.region, SUM(o.total) FROM orders o "
            "JOIN customers c ON o.customer_id = c.id GROUP BY c.region"
        )
    )
