"""Figure 3 — the indirect (factory) message pattern.

Paper claims: the factory response is a constant-size EPR; creation cost
for an *insensitive* resource is paid once at the factory (snapshot);
the consumer controls derived-resource behaviour via the configuration
document.

Regenerated table: factory response size and creation time vs derived
result size; configuration-document variants.
"""

from benchmarks.harness import Table, measure_wall
from repro.client.sql import configuration_document
from repro.core import Sensitivity

SIZES = [10, 100, 1000]


def test_fig3_factory_cost_vs_result_size(benchmark, single):
    table = Table(
        "Figure 3 — SQLExecuteFactory vs derived size",
        ["derived rows", "response bytes", "create ms", "later GetSQLRowset bytes"],
        note="the factory answer is an EPR; the data stays at the service",
    )

    def run_sweep():
        client = single.client
        stats = client.transport.stats
        for size in SIZES:
            query = f"SELECT * FROM lineitems LIMIT {size}"
            seconds = measure_wall(
                lambda q=query: client.sql_execute_factory(
                    single.address, single.name, q
                ),
                repeat=1,
            )
            stats.reset()
            factory = client.sql_execute_factory(single.address, single.name, query)
            create_bytes = stats.calls[-1].response_bytes
            stats.reset()
            client.get_sql_rowset(factory.address, factory.abstract_name)
            pull_bytes = stats.calls[-1].response_bytes
            table.add(size, create_bytes, f"{seconds * 1e3:7.2f}", pull_bytes)

    benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    table.show()
    response_sizes = [row[1] for row in table.rows]
    assert max(response_sizes) - min(response_sizes) < 100  # constant EPR
    assert table.rows[-1][3] > table.rows[0][3]  # data size shows on pull


def test_fig3_configuration_variants(benchmark, single):
    table = Table(
        "Figure 3 — configuration document variants",
        ["variant", "sensitivity", "readable"],
    )

    def run_variants():
        client = single.client
        variants = {
            "default": None,
            "sensitive": configuration_document(
                sensitivity=Sensitivity.SENSITIVE
            ),
            "read-only": configuration_document(
                readable=True, writeable=False
            ),
        }
        from repro.core.namespaces import WSDAI_NS
        from repro.xmlutil import QName

        for label, config in variants.items():
            factory = client.sql_execute_factory(
                single.address,
                single.name,
                "SELECT COUNT(*) FROM orders",
                configuration=config,
            )
            document = client.get_sql_response_property_document(
                factory.address, factory.abstract_name
            )
            table.add(
                label,
                document.findtext(QName(WSDAI_NS, "Sensitivity")),
                document.findtext(QName(WSDAI_NS, "Readable")),
            )

    benchmark.pedantic(run_variants, rounds=1, iterations=1)
    table.show()
    assert table.rows[1][1] == "Sensitive"


def test_fig3_factory_create_latency(benchmark, single):
    benchmark(
        lambda: single.client.sql_execute_factory(
            single.address, single.name, "SELECT id FROM orders"
        )
    )


def test_fig3_sensitive_access_reevaluates(benchmark, single):
    factory = single.client.sql_execute_factory(
        single.address,
        single.name,
        "SELECT COUNT(*) FROM lineitems",
        configuration=configuration_document(sensitivity=Sensitivity.SENSITIVE),
    )
    benchmark(
        lambda: single.client.get_sql_rowset(
            factory.address, factory.abstract_name
        )
    )
