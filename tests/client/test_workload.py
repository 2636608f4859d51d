"""Workload generator and deployment topology tests."""

import pytest

from repro.workload import (
    RelationalWorkload,
    XmlCorpus,
    build_figure5_deployment,
    build_single_service,
    build_xml_deployment,
    populate_shop_database,
    populate_catalog_collection,
)


class TestRelationalWorkload:
    def test_row_counts_match_scale(self):
        workload = RelationalWorkload(
            customers=7, orders_per_customer=3, items_per_order=2
        )
        db = populate_shop_database(workload)
        assert db.row_count("customers") == 7
        assert db.row_count("orders") == 21
        assert db.row_count("lineitems") == 42

    def test_deterministic_for_same_seed(self):
        workload = RelationalWorkload(customers=5)
        a = populate_shop_database(workload)
        b = populate_shop_database(workload)
        rows_a = a.execute("SELECT * FROM orders ORDER BY id").rows
        rows_b = b.execute("SELECT * FROM orders ORDER BY id").rows
        assert rows_a == rows_b

    def test_different_seed_differs(self):
        a = populate_shop_database(RelationalWorkload(customers=5, seed=1))
        b = populate_shop_database(RelationalWorkload(customers=5, seed=2))
        rows_a = a.execute("SELECT total FROM orders ORDER BY id").rows
        rows_b = b.execute("SELECT total FROM orders ORDER BY id").rows
        assert rows_a != rows_b

    def test_referential_integrity_holds(self):
        db = populate_shop_database(RelationalWorkload(customers=10))
        orphans = db.execute(
            "SELECT COUNT(*) FROM orders o WHERE o.customer_id NOT IN "
            "(SELECT id FROM customers)"
        ).scalar()
        assert orphans == 0

    def test_totals_consistent_with_lineitems(self):
        db = populate_shop_database(RelationalWorkload(customers=3))
        mismatches = db.execute(
            "SELECT COUNT(*) FROM orders o WHERE o.total < 0"
        ).scalar()
        assert mismatches == 0

    def test_indexes_created(self):
        db = populate_shop_database(RelationalWorkload(customers=2))
        assert db.catalog.has_index("ix_orders_customer")


class TestXmlCorpus:
    def test_document_count(self):
        collection = populate_catalog_collection(XmlCorpus(documents=13))
        assert collection.document_count() == 13

    def test_deterministic(self):
        a = populate_catalog_collection(XmlCorpus(documents=5))
        b = populate_catalog_collection(XmlCorpus(documents=5))
        assert a.get("p00002").to_text() == b.get("p00002").to_text()

    def test_document_structure(self):
        collection = populate_catalog_collection(XmlCorpus(documents=2,
                                                           reviews_per_product=3))
        root = collection.get("p00000").root
        assert root.tag.local == "product"
        assert root.find("name") is not None
        assert len(root.findall("review")) == 3


class TestDeployments:
    def test_single_service_ready_to_query(self):
        deployment = build_single_service(RelationalWorkload(customers=3))
        count = deployment.client.sql_query_rowset(
            deployment.address, deployment.name, "SELECT COUNT(*) FROM customers"
        )
        assert count.rows == [("3",)]

    def test_figure5_port_type_split(self):
        deployment = build_figure5_deployment(RelationalWorkload(customers=2))
        assert deployment.service1.port_types == {"sql_access", "sql_factory"}
        assert deployment.service2.port_types == {
            "response_access",
            "response_factory",
        }
        assert deployment.service3.port_types == {"rowset_access"}
        assert deployment.service1.response_target is deployment.service2
        assert deployment.service2.rowset_target is deployment.service3

    def test_figure5_services_registered(self):
        deployment = build_figure5_deployment(RelationalWorkload(customers=2))
        assert set(deployment.registry.addresses()) == {
            "dais://ds1",
            "dais://ds2",
            "dais://ds3",
        }

    def test_xml_deployment_ready(self):
        deployment = build_xml_deployment(XmlCorpus(documents=4))
        listing = deployment.client.list_documents(
            deployment.address, deployment.name
        )
        assert len(listing.names) == 4

    def test_wsrf_flag_propagates(self):
        from repro.wsrf import ManualClock

        deployment = build_single_service(
            RelationalWorkload(customers=2), wsrf=True, clock=ManualClock(0.0)
        )
        assert deployment.service.wsrf
        assert deployment.service.lifetime is not None


    def test_http_deployment_serves_over_its_port(self):
        from repro.client.sql import SQLClient
        from repro.transport import HttpTransport
        from repro.workload import build_http_deployment

        deployment = build_http_deployment(RelationalWorkload(customers=3))
        with deployment.server:
            assert deployment.address.endswith(f":{deployment.port}/sql")
            rows = SQLClient(HttpTransport()).sql_query_rowset(
                deployment.address,
                deployment.name,
                "SELECT COUNT(*) FROM customers",
            ).rows
        assert rows == [("3",)]


class TestBenchHarness:
    def test_table_renders_aligned(self):
        from benchmarks.harness import Table

        table = Table("T", ["a", "long-column"], note="n")
        table.add(1, "x")
        rendered = table.render()
        assert "== T ==" in rendered
        assert "note: n" in rendered

    def test_table_rejects_wrong_arity(self):
        from benchmarks.harness import Table

        table = Table("T", ["a"])
        with pytest.raises(ValueError):
            table.add(1, 2)

    def test_measure_wall_positive(self):
        from benchmarks.harness import measure_wall

        assert measure_wall(lambda: sum(range(100)), repeat=2) > 0

    def test_load_percentiles_are_nearest_rank(self):
        from benchmarks.harness import LoadReport

        seconds = [value / 1000 for value in range(1, 101)]
        report = LoadReport(
            connections=1, threads=1, requests=100, ok=100, sheds=0,
            unparseable_sheds=0, lost=0, elapsed=1.0,
            latencies=seconds, healthz_latencies=seconds[:10],
        )
        assert report.latency_ms(50) == pytest.approx(50.0)
        assert report.latency_ms(99) == pytest.approx(99.0)
        assert report.healthz_ms(50) == pytest.approx(5.0)
