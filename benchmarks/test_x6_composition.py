"""Experiment X6 — request composition overhead (paper §2.2).

The activity pipeline composes DAIS client calls; its engine should add
negligible cost over issuing the same calls by hand.  Measures the
query → transform → deliver scenario both ways.
"""

from benchmarks.harness import Table, measure_wall
from repro.client.xml import XMLClient
from repro.compose import (
    DeliverToCollectionActivity,
    Pipeline,
    RowsetToXmlActivity,
    SQLQueryActivity,
    XQueryTransformActivity,
)
from repro.core import mint_abstract_name
from repro.daix import XMLCollectionResource, XMLRealisationService
from repro.transport import LoopbackTransport
from repro.workload import RelationalWorkload, build_single_service
from repro.xmldb import CollectionManager, XQueryEngine

QUERY = (
    "SELECT region, COUNT(*) AS n FROM customers GROUP BY region ORDER BY region"
)
TRANSFORM = (
    "for $r in /rows/row where $r/n > 1 "
    'return <busy name="{$r/region}">{$r/n/text()}</busy>'
)


def _fabric():
    deployment = build_single_service(RelationalWorkload(customers=40))
    manager = CollectionManager()
    xml_service = XMLRealisationService("sink", "dais://sink")
    deployment.registry.register(xml_service)
    sink = XMLCollectionResource(
        mint_abstract_name("sink"), manager.create_path("sink")
    )
    xml_service.add_resource(sink)
    xml_client = XMLClient(LoopbackTransport(deployment.registry))
    return deployment, sink, xml_client


def test_x6_pipeline_vs_manual(benchmark):
    table = Table(
        "X6 — query -> transform -> deliver: pipeline vs hand-written",
        ["style", "ms"],
        note="same client calls; the pipeline adds only orchestration",
    )

    def run_comparison():
        deployment, sink, xml_client = _fabric()

        pipeline = Pipeline(
            [
                SQLQueryActivity(
                    deployment.client, deployment.address, deployment.name, QUERY
                ),
                RowsetToXmlActivity("rows", "row"),
                XQueryTransformActivity(TRANSFORM, result_tag="report"),
                DeliverToCollectionActivity(
                    xml_client, "dais://sink", sink.abstract_name, "report"
                ),
            ]
        )
        pipeline_seconds = measure_wall(pipeline.execute, repeat=3)

        engine = XQueryEngine()
        rowset_to_xml = RowsetToXmlActivity("rows", "row")

        def manual():
            rowset = deployment.client.sql_query_rowset(
                deployment.address, deployment.name, QUERY
            )
            document = rowset_to_xml.run(rowset)
            from repro.xmlutil import E

            report = E("report")
            for item in engine.execute(TRANSFORM, document):
                report.append(item)
            xml_client.add_documents(
                "dais://sink", sink.abstract_name,
                [("report", report)], replace=True,
            )

        manual_seconds = measure_wall(manual, repeat=3)
        table.add("pipeline", f"{pipeline_seconds * 1e3:8.2f}")
        table.add("hand-written", f"{manual_seconds * 1e3:8.2f}")

    benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    table.show()
    pipeline_ms = float(table.rows[0][1])
    manual_ms = float(table.rows[1][1])
    # Orchestration overhead is bounded (well under 2x).
    assert pipeline_ms < manual_ms * 2 + 5


def test_x6_pipeline_latency(benchmark):
    deployment, sink, xml_client = _fabric()
    pipeline = Pipeline(
        [
            SQLQueryActivity(
                deployment.client, deployment.address, deployment.name, QUERY
            ),
            RowsetToXmlActivity("rows", "row"),
            XQueryTransformActivity(TRANSFORM, result_tag="report"),
            DeliverToCollectionActivity(
                xml_client, "dais://sink", sink.abstract_name, "report"
            ),
        ]
    )
    benchmark(pipeline.execute)
