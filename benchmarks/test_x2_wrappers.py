"""Experiment X2 — thin vs thick wrappers (paper §2.1).

Paper claim: DAIS services "may implement thin or thick wrappers" —
they may pass statements through or "intercept, parse, translate or
redirect" them — while satisfying identical message contracts.

Regenerated table: the same consumer workload against a thin wrapper
and a thick (rewriting) wrapper — identical results, bounded overhead.
"""

from benchmarks.harness import Table, measure_wall
from repro.client.sql import SQLClient
from repro.core import ServiceRegistry, mint_abstract_name
from repro.dair import SQLDataResource, SQLRealisationService
from repro.transport import LoopbackTransport
from repro.workload import RelationalWorkload, populate_shop_database
from repro.workload.relational import QUERY_MIX

WORKLOAD = RelationalWorkload(customers=60)

#: A legacy-to-current schema mapping the thick wrapper applies.
_RENAMES = {"clients": "customers", "purchases": "orders", "details": "lineitems"}


def _thick_rewriter(statement: str) -> str:
    for legacy, current in _RENAMES.items():
        statement = statement.replace(legacy, current)
    return statement


def _build(thick: bool):
    registry = ServiceRegistry()
    service = SQLRealisationService("svc", "dais://svc")
    registry.register(service)
    resource = SQLDataResource(
        mint_abstract_name("db"),
        populate_shop_database(WORKLOAD),
        statement_rewriter=_thick_rewriter if thick else None,
    )
    service.add_resource(resource)
    return SQLClient(LoopbackTransport(registry)), resource.abstract_name


def test_x2_wrapper_comparison(benchmark):
    table = Table(
        "X2 — thin vs thick wrapper, same query mix",
        ["query", "thin ms", "thick ms", "same result"],
        note="thick wrapper rewrites legacy table names before execution",
    )

    def run_comparison():
        thin_client, thin_name = _build(thick=False)
        thick_client, thick_name = _build(thick=True)
        for label, query in QUERY_MIX.items():
            params = ["5"] if "?" in query else []
            legacy_query = query
            for legacy, current in _RENAMES.items():
                legacy_query = legacy_query.replace(current, legacy)

            thin_seconds = measure_wall(
                lambda: thin_client.sql_query_rowset(
                    "dais://svc", thin_name, query, params
                ),
                repeat=2,
            )
            thick_seconds = measure_wall(
                lambda: thick_client.sql_query_rowset(
                    "dais://svc", thick_name, legacy_query, params
                ),
                repeat=2,
            )
            thin_rows = thin_client.sql_query_rowset(
                "dais://svc", thin_name, query, params
            ).rows
            thick_rows = thick_client.sql_query_rowset(
                "dais://svc", thick_name, legacy_query, params
            ).rows
            table.add(
                label,
                f"{thin_seconds * 1e3:8.2f}",
                f"{thick_seconds * 1e3:8.2f}",
                thin_rows == thick_rows,
            )

    benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    table.show()
    assert all(row[3] for row in table.rows)


def test_x2_thin_latency(benchmark):
    client, name = _build(thick=False)
    benchmark(
        lambda: client.sql_query_rowset(
            "dais://svc", name, QUERY_MIX["join"]
        )
    )


def test_x2_thick_latency(benchmark):
    client, name = _build(thick=True)
    benchmark(
        lambda: client.sql_query_rowset(
            "dais://svc", name,
            QUERY_MIX["join"].replace("customers", "clients").replace(
                "orders", "purchases"
            ),
        )
    )
