"""Figure 4 — property documents and their realisation extensions.

Paper claims: the core property set is extended per realisation (the
SQL document adds ``CIMDescription``); without WSRF only the *whole*
document can be retrieved, so per-property cost scales with document
size — which grows with the schema (the CIM rendering).

Regenerated table: property-document size vs schema size; whole-document
vs fine-grained retrieval cost for one property.
"""

from benchmarks.harness import Table
from repro.core.namespaces import WSDAI_NS
from repro.workload import RelationalWorkload, build_single_service
from repro.wsrf import ManualClock
from repro.xmlutil import QName

EXTRA_TABLES = [0, 10, 40]


def test_fig4_document_size_tracks_schema(benchmark):
    table = Table(
        "Figure 4 — SQLPropertyDocument size vs schema size",
        ["extra tables", "document bytes", "whole-doc fetch for 1 property"],
        note="non-WSRF consumers pay the whole document per property read",
    )

    def run_sweep():
        for extra in EXTRA_TABLES:
            deployment = build_single_service(RelationalWorkload(customers=5))
            for index in range(extra):
                deployment.database.execute(
                    f"CREATE TABLE extra_{index} "
                    "(id INT PRIMARY KEY, a VARCHAR(20), b FLOAT, c INT)"
                )
            stats = deployment.client.transport.stats
            stats.reset()
            deployment.client.get_property_document(
                deployment.address, deployment.name
            )
            size = stats.calls[-1].response_bytes
            table.add(extra, size, size)

    benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    table.show()
    assert table.rows[-1][1] > 2 * table.rows[0][1]


def test_fig4_whole_vs_fine_grained(benchmark):
    table = Table(
        "Figure 4 — retrieving one property (Readable)",
        ["profile", "operation", "response bytes"],
    )

    def run_comparison():
        plain = build_single_service(RelationalWorkload(customers=20))
        wsrf = build_single_service(
            RelationalWorkload(customers=20), wsrf=True, clock=ManualClock(0.0)
        )

        stats = plain.client.transport.stats
        stats.reset()
        plain.client.get_property_document(plain.address, plain.name)
        table.add(
            "non-WSRF",
            "GetDataResourcePropertyDocument",
            stats.calls[-1].response_bytes,
        )

        stats = wsrf.client.transport.stats
        stats.reset()
        wsrf.client.get_resource_property(
            wsrf.address, wsrf.name, QName(WSDAI_NS, "Readable")
        )
        table.add("WSRF", "GetResourceProperty", stats.calls[-1].response_bytes)

        stats.reset()
        wsrf.client.query_resource_properties(
            wsrf.address, wsrf.name, "//wsdai:Readable"
        )
        table.add("WSRF", "QueryResourceProperties", stats.calls[-1].response_bytes)

    benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    table.show()
    whole = table.rows[0][2]
    fine = table.rows[1][2]
    assert fine < whole / 10


def test_fig4_whole_document_latency(benchmark, single):
    benchmark(
        lambda: single.client.get_property_document(single.address, single.name)
    )


def test_fig4_fine_grained_latency(benchmark, wsrf_pair):
    _, wsrf = wsrf_pair
    benchmark(
        lambda: wsrf.client.get_resource_property(
            wsrf.address, wsrf.name, QName(WSDAI_NS, "Readable")
        )
    )
