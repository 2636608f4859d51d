"""Experiment X1 — the WS-DAIX realisation follows the same patterns.

Paper claim (§4/§6): "The XML extensions follow the same principles" —
direct access, factories and paged retrieval behave like their
relational counterparts, and collection operations scale with corpus
size.

Regenerated tables: query-mix latency/bytes over corpus sizes; XML
factory (sequence) vs direct access byte shape.
"""

from benchmarks.harness import Table, measure_wall
from repro.obs import use_exporter
from repro.workload import XmlCorpus, build_xml_deployment
from repro.workload.xmlcorpus import XML_QUERY_MIX

CORPUS_SIZES = [30, 120, 480]


def test_x1_query_mix_scaling(benchmark):
    table = Table(
        "X1 — WS-DAIX query mix vs corpus size",
        ["documents", "query", "ms", "response bytes", "items"],
    )

    def run_sweep():
        for size in CORPUS_SIZES:
            deployment = build_xml_deployment(XmlCorpus(documents=size))
            for label, (kind, text) in XML_QUERY_MIX.items():
                runner = (
                    deployment.client.xpath_execute
                    if kind == "xpath"
                    else deployment.client.xquery_execute
                )
                seconds = measure_wall(
                    lambda r=runner, t=text: r(
                        deployment.address, deployment.name, t
                    ),
                    repeat=1,
                )
                stats = deployment.client.transport.stats
                stats.reset()
                items = runner(deployment.address, deployment.name, text)
                table.add(
                    size,
                    label,
                    f"{seconds * 1e3:8.2f}",
                    stats.calls[-1].response_bytes,
                    len(items),
                )

    benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    table.show()
    # Shape: the scan-style query returns more items on bigger corpora.
    filter_rows = [r for r in table.rows if r[1] == "xpath_filter"]
    assert filter_rows[-1][4] >= filter_rows[0][4]


def test_x1_point_read_evaluates_one_document():
    """Shape: the value index hands the point read the one document it
    selects at every corpus size; the aggregate, a value per document,
    answers from the index with no closure run."""
    for size in CORPUS_SIZES:
        deployment = build_xml_deployment(XmlCorpus(documents=size))
        with use_exporter() as exporter:
            items = [
                len(deployment.client.xpath_execute(
                    deployment.address, deployment.name, XML_QUERY_MIX[label][1]
                ))
                for label in ("xpath_point", "xpath_agg")
            ]
        assert items == [1, size]  # a count per document, zeros included
        point, aggregate = (
            (s.attributes["documents"], s.attributes["documents_evaluated"],
             s.attributes["index"], s.attributes["result_type"])
            for s in exporter.spans("xpath.evaluate")
        )
        assert point == (size, 1, "build", "list")
        assert aggregate == (size, 0, "build", "float")


def test_x1_direct_vs_factory_bytes(benchmark, xml_deploy):
    table = Table(
        "X1 — direct XPathExecute vs XPath factory + GetItems",
        ["pattern", "initial response bytes", "total bytes to drain"],
        note="the XML factory answers with an EPR, like SQLExecuteFactory",
    )

    def run_comparison():
        client = xml_deploy.client
        stats = client.transport.stats
        expression = "/product/name"

        stats.reset()
        items = client.xpath_execute(
            xml_deploy.address, xml_deploy.name, expression
        )
        table.add("direct", stats.calls[-1].response_bytes, stats.total_bytes)

        stats.reset()
        factory = client.xpath_execute_factory(
            xml_deploy.address, xml_deploy.name, expression
        )
        initial = stats.calls[-1].response_bytes
        start = 0
        while True:
            window, total = client.get_items(
                factory.address, factory.abstract_name, start, 40
            )
            start += 40
            if start >= total:
                break
        table.add("factory+paging", initial, stats.total_bytes)
        assert total == len(items)

    benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    table.show()
    assert table.rows[1][1] < table.rows[0][1] / 5


def test_x1_xupdate_scaling(benchmark):
    from repro.xmlutil import parse

    table = Table(
        "X1 — XUpdateExecute cost vs documents touched",
        ["documents", "nodes modified", "ms"],
    )
    modifications = parse(
        '<xu:modifications xmlns:xu="http://www.xmldb.org/xupdate">'
        '<xu:update select="/product/stock">0</xu:update>'
        "</xu:modifications>"
    )

    def run_sweep():
        for size in CORPUS_SIZES:
            deployment = build_xml_deployment(XmlCorpus(documents=size))
            seconds = measure_wall(
                lambda d=deployment: d.client.xupdate_execute(
                    d.address, d.name, modifications
                ),
                repeat=1,
            )
            table.add(size, size, f"{seconds * 1e3:8.2f}")

    benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    table.show()


def test_x1_xpath_latency(benchmark, xml_deploy):
    benchmark(
        lambda: xml_deploy.client.xpath_execute(
            xml_deploy.address, xml_deploy.name, "/product[price > 250]/name"
        )
    )


def test_x1_xquery_latency(benchmark, xml_deploy):
    benchmark(
        lambda: xml_deploy.client.xquery_execute(
            xml_deploy.address,
            xml_deploy.name,
            XML_QUERY_MIX["xquery_flwor"][1],
        )
    )
