"""Figure 7 — layering WSRF over the DAIS core.

Paper claims (§5): the core functionality has *no* reliance on WSRF —
message bodies are identical in both profiles (abstract name always in
the body); WSRF adds fine-grained property access and soft-state
lifetime.  The upgrade path is therefore free at the data plane.

Regenerated tables: identical data-plane cost across profiles; the
property-access gap; soft-state sweep scaling.
"""

from benchmarks.harness import Table, measure_wall
from repro.client.sql import SQLClient
from repro.core import messages as msg
from repro.core.namespaces import WSDAI_NS
from repro.workload import RelationalWorkload, build_single_service
from repro.wsrf import ManualClock
from repro.xmlutil import QName

QUERY = "SELECT id, total FROM orders WHERE total > 300 ORDER BY total DESC"


def test_fig7_data_plane_parity(benchmark, wsrf_pair):
    plain, wsrf = wsrf_pair
    table = Table(
        "Figure 7 — data plane is profile-independent",
        ["profile", "SQLExecute ms", "request bytes", "response bytes"],
        note="identical bodies; the abstract name rides in both profiles",
    )

    def run_comparison():
        for label, deployment in (("non-WSRF", plain), ("WSRF", wsrf)):
            seconds = measure_wall(
                lambda d=deployment: d.client.sql_execute(
                    d.address, d.name, QUERY
                ),
                repeat=3,
            )
            stats = deployment.client.transport.stats
            stats.reset()
            deployment.client.sql_execute(deployment.address, deployment.name, QUERY)
            record = stats.calls[-1]
            table.add(
                label,
                f"{seconds * 1e3:8.2f}",
                record.request_bytes,
                record.response_bytes,
            )

    benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    table.show()
    # Same request and response sizes in both profiles.
    assert table.rows[0][2] == table.rows[1][2]
    assert table.rows[0][3] == table.rows[1][3]


def test_fig7_property_access_gap(benchmark, wsrf_pair):
    """The spec consumer pays for the whole document on every read: it
    sends the plain request, no conditional-read header.  A consumer
    that revalidates (``repro.core.propcache``) pays for it once and
    then for the ``Unchanged`` reply and the volatile tail."""
    plain, wsrf = wsrf_pair
    table = Table(
        "Figure 7 — bytes to read N properties",
        ["N", "non-WSRF (whole doc xN)", "WSRF (GetMultiple)"],
    )
    conditional = Table(
        "Figure 7 — the conditional consumer, non-WSRF",
        ["N", "whole doc xN", "whole doc once, then Unchanged"],
    )
    whole_request = msg.GetDataResourcePropertyDocumentRequest(
        abstract_name=plain.name
    )

    def run_sweep():
        for n in (1, 3, 6):
            names = [
                QName(WSDAI_NS, local)
                for local in (
                    "Readable", "Writeable", "Sensitivity",
                    "ConcurrentAccess", "TransactionIsolation",
                    "DataResourceManagement",
                )[:n]
            ]
            stats = plain.client.transport.stats
            stats.reset()
            for _ in range(n):
                plain.client.call(plain.address, whole_request)
            whole = stats.bytes_received

            stats = wsrf.client.transport.stats
            stats.reset()
            wsrf.client.get_multiple_resource_properties(
                wsrf.address, wsrf.name, names
            )
            fine = stats.bytes_received
            table.add(n, whole, fine)

        revalidating = SQLClient(plain.client.transport)
        stats = plain.client.transport.stats
        stats.reset()
        for _ in range(6):
            revalidating.get_property_document(plain.address, plain.name)
        conditional.add(6, table.rows[-1][1], stats.bytes_received)

    benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    table.show()
    conditional.show()
    assert all(row[2] < row[1] / 10 for row in table.rows)
    # One whole document plus five revalidations: under half of six.
    assert all(row[2] < row[1] / 2 for row in conditional.rows)


def test_fig7_soft_state_sweep_scaling(benchmark):
    table = Table(
        "Figure 7 — soft-state sweep cost",
        ["derived resources", "sweep ms", "destroyed"],
        note="expired derived resources are reclaimed without consumer messages",
    )

    def run_sweep():
        for count in (10, 100, 400):
            clock = ManualClock(0.0)
            deployment = build_single_service(
                RelationalWorkload(customers=5), wsrf=True, clock=clock
            )
            for _ in range(count):
                factory = deployment.client.sql_execute_factory(
                    deployment.address, deployment.name, "SELECT 1"
                )
                deployment.client.set_termination_time(
                    deployment.address, factory.abstract_name, 30.0
                )
            clock.advance(31)
            seconds = measure_wall(deployment.service.sweep_expired, repeat=1)
            # sweep_expired already ran inside measure_wall; count results:
            remaining = len(deployment.service.resource_names())
            table.add(count, f"{seconds * 1e3:8.2f}", count + 1 - remaining)

    benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    table.show()
    assert all(row[2] >= row[0] for row in table.rows)


def test_fig7_wsrf_query_latency(benchmark, wsrf_pair):
    _, wsrf = wsrf_pair
    benchmark(
        lambda: wsrf.client.query_resource_properties(
            wsrf.address, wsrf.name, "//wsdai:GenericQueryLanguage"
        )
    )


def test_fig7_plain_execute_latency(benchmark, wsrf_pair):
    plain, _ = wsrf_pair
    benchmark(lambda: plain.client.sql_execute(plain.address, plain.name, QUERY))


def test_fig7_wsrf_execute_latency(benchmark, wsrf_pair):
    _, wsrf = wsrf_pair
    benchmark(lambda: wsrf.client.sql_execute(wsrf.address, wsrf.name, QUERY))
