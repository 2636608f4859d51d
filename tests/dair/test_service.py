"""WS-DAIR service tests: SQLAccess, factories, response/rowset access."""

import pytest

from repro.client.sql import SQLClient, configuration_document
from repro.core import (
    DataResourceUnavailableFault,
    InvalidConfigurationDocumentFault,
    InvalidDatasetFormatFault,
    InvalidExpressionFault,
    InvalidPortTypeQNameFault,
    InvalidResourceNameFault,
    NotAuthorizedFault,
    Sensitivity,
    mint_abstract_name,
)
from repro.core.namespaces import WSDAI_NS, SQL_LANGUAGE_URI
from repro.dair import (
    CSV_FORMAT_URI,
    SQLROWSET_FORMAT_URI,
    WEBROWSET_FORMAT_URI,
)
from repro.dair import messages as dair_msg
from repro.dair.namespaces import SQL_ROWSET_ACCESS_PT
from repro.jobs.namespaces import MODE_ASYNCHRONOUS
from repro.resilience import RETRYABLE_FAULTS
from repro.relational.types import NULL
from repro.workload import (
    RelationalWorkload,
    build_figure5_deployment,
    build_single_service,
)
from repro.xmlutil import QName
from tests.faultinject.faults import UnavailableSQLDataResource

SMALL = RelationalWorkload(customers=10, orders_per_customer=2, items_per_order=2)


@pytest.fixture()
def single():
    return build_single_service(SMALL)


@pytest.fixture()
def fig5():
    return build_figure5_deployment(SMALL)


class TestSQLAccess:
    def test_query_returns_rowset(self, single):
        rowset = single.client.sql_query_rowset(
            single.address, single.name, "SELECT id FROM customers ORDER BY id"
        )
        assert rowset.columns == ["id"]
        assert len(rowset.rows) == 10

    def test_dispatch_records_whether_rows_are_still_to_be_pulled(self, single):
        """The reply's payload says whether rows are still to be pulled
        (only a dataset can hold them): a streamable statement's does,
        a pipeline breaker's, a write's and a fault's do not."""
        from repro.soap import Envelope, MessageHeaders

        def reply(sql):
            request = dair_msg.SQLExecuteRequest(
                abstract_name=single.name, expression=sql
            )
            return single.service.dispatch(
                Envelope(
                    MessageHeaders(to=single.address, action=request.action()),
                    request.to_xml(),
                )
            )

        streamed = reply("SELECT id FROM customers")
        assert streamed.is_streaming()
        for sql in (
            "SELECT id FROM customers ORDER BY id",  # pipeline breaker
            "UPDATE customers SET segment = segment",  # no dataset at all
        ):
            held = reply(sql)
            assert not held.is_streaming()
        fault = reply("SELECT nosuch FROM customers")
        assert fault.is_fault() and not fault.is_streaming()

    def test_parameterised_query(self, single):
        rowset = single.client.sql_query_rowset(
            single.address,
            single.name,
            "SELECT name FROM customers WHERE id = ?",
            ["7"],
        )
        assert rowset.rows == [("customer-00007",)]

    def test_update_returns_count_and_communication_area(self, single):
        response = single.client.sql_execute(
            single.address, single.name, "UPDATE orders SET status = 'audited'"
        )
        assert response.update_count == SMALL.order_count
        assert response.communication.sqlcode == 0
        assert response.dataset is None

    def test_no_rows_touched_reports_sqlcode_100(self, single):
        response = single.client.sql_execute(
            single.address, single.name, "DELETE FROM orders WHERE id = -1"
        )
        assert response.communication.sqlcode == 100

    def test_format_negotiation(self, single):
        for format_uri in (SQLROWSET_FORMAT_URI, WEBROWSET_FORMAT_URI, CSV_FORMAT_URI):
            rowset = single.client.sql_query_rowset(
                single.address,
                single.name,
                "SELECT id FROM customers ORDER BY id LIMIT 2",
                dataset_format_uri=format_uri,
            )
            assert rowset.rows == [("1",), ("2",)]

    def test_unknown_format_faults(self, single):
        with pytest.raises(InvalidDatasetFormatFault):
            single.client.sql_execute(
                single.address,
                single.name,
                "SELECT 1",
                dataset_format_uri="urn:fmt:nope",
            )

    def test_sql_error_becomes_invalid_expression_fault(self, single):
        with pytest.raises(InvalidExpressionFault, match="42000"):
            single.client.sql_execute(single.address, single.name, "SELEKT 1")

    def test_constraint_violation_carries_sqlstate(self, single):
        with pytest.raises(InvalidExpressionFault, match="23000"):
            single.client.sql_execute(
                single.address,
                single.name,
                "INSERT INTO customers VALUES (1, 'dup', 'emea', 'retail')",
            )

    def test_unavailable_resource_faults(self, single):
        resource = UnavailableSQLDataResource(mint_abstract_name("gone"), single.database)
        single.service.add_resource(resource)
        resource.available = False
        with pytest.raises(DataResourceUnavailableFault):
            single.client.sql_execute(single.address, resource.abstract_name, "SELECT 1")

    def test_generic_query_also_works(self, single):
        response = single.client.generic_query(
            single.address,
            single.name,
            SQL_LANGUAGE_URI,
            "SELECT COUNT(*) FROM customers",
        )
        assert response.data[0].tag.local == "SQLRowset"

    def test_sql_property_document_carries_cim(self, single):
        document = single.client.get_sql_property_document(
            single.address, single.name
        )
        assert document.tag.local == "SQLPropertyDocument"
        cim = document.descendants(
            "{%s}INSTANCE" % "http://schemas.dmtf.org/wbem/wscim/1/cim-schema/2"
        )
        classnames = {el.get("CLASSNAME") for el in cim}
        assert "CIM_CommonDatabase" in classnames
        assert "CIM_Table" in classnames
        assert "CIM_Column" in classnames

    def test_wrong_resource_kind_faults(self, single):
        # A single service exposing every port type: SQLExecute against a
        # derived response resource is a resource-kind mismatch.
        factory = single.client.sql_execute_factory(
            single.address, single.name, "SELECT 1"
        )
        with pytest.raises(InvalidResourceNameFault, match="not a SQL data"):
            single.client.sql_execute(
                single.address, factory.abstract_name, "SELECT 1"
            )


class TestSQLFactoryAndResponseAccess:
    def test_factory_returns_epr_to_target_service(self, fig5):
        factory = fig5.client.sql_execute_factory(
            "dais://ds1",
            fig5.resource.abstract_name,
            "SELECT id, total FROM orders ORDER BY id",
        )
        assert factory.address.address == "dais://ds2"
        assert fig5.service2.has_resource(factory.abstract_name)

    def test_response_resource_is_service_managed(self, fig5):
        factory = fig5.client.sql_execute_factory(
            "dais://ds1", fig5.resource.abstract_name, "SELECT 1"
        )
        document = fig5.client.get_sql_response_property_document(
            factory.address, factory.abstract_name
        )
        assert (
            document.findtext(QName(WSDAI_NS, "DataResourceManagement"))
            == "ServiceManaged"
        )
        assert (
            document.findtext(QName(WSDAI_NS, "ParentDataResource"))
            == fig5.resource.abstract_name
        )

    def test_get_rowset_from_response(self, fig5):
        factory = fig5.client.sql_execute_factory(
            "dais://ds1",
            fig5.resource.abstract_name,
            "SELECT id FROM customers ORDER BY id LIMIT 3",
        )
        rowset = fig5.client.get_sql_rowset(factory.address, factory.abstract_name)
        assert rowset.rows == [("1",), ("2",), ("3",)]

    def test_response_access_suite(self, fig5):
        factory = fig5.client.sql_execute_factory(
            "dais://ds1", fig5.resource.abstract_name, "SELECT id FROM customers"
        )
        epr, name = factory.address, factory.abstract_name
        assert fig5.client.get_sql_update_count(epr, name) == -1
        area = fig5.client.get_sql_communication_area(epr, name)
        assert area.sqlcode == 0
        assert fig5.client.get_sql_return_value(epr, name) is None
        assert fig5.client.get_sql_output_parameter(epr, name, "p") is None
        items = fig5.client.get_sql_response_items(epr, name)
        assert items[0] == "SQLRowset"

    def test_dml_through_factory_reports_update_count(self, fig5):
        factory = fig5.client.sql_execute_factory(
            "dais://ds1",
            fig5.resource.abstract_name,
            "UPDATE customers SET segment = 'vip' WHERE id <= 3",
        )
        count = fig5.client.get_sql_update_count(
            factory.address, factory.abstract_name
        )
        assert count == 3

    def test_insensitive_snapshot_does_not_track_parent(self, fig5):
        factory = fig5.client.sql_execute_factory(
            "dais://ds1",
            fig5.resource.abstract_name,
            "SELECT COUNT(*) FROM customers",
        )
        before = fig5.client.get_sql_rowset(factory.address, factory.abstract_name)
        fig5.database.execute("DELETE FROM lineitems WHERE order_id = 1")
        fig5.database.execute("DELETE FROM orders WHERE id = 1")
        after = fig5.client.get_sql_rowset(factory.address, factory.abstract_name)
        assert before == after

    def test_sensitive_response_tracks_parent(self, fig5):
        factory = fig5.client.sql_execute_factory(
            "dais://ds1",
            fig5.resource.abstract_name,
            "SELECT COUNT(*) FROM customers",
            configuration=configuration_document(sensitivity=Sensitivity.SENSITIVE),
        )
        before = fig5.client.get_sql_rowset(factory.address, factory.abstract_name)
        fig5.database.execute(
            "INSERT INTO customers VALUES (999, 'new', 'emea', 'retail')"
        )
        after = fig5.client.get_sql_rowset(factory.address, factory.abstract_name)
        assert int(after.rows[0][0]) == int(before.rows[0][0]) + 1

    def test_configuration_document_readable_false(self, fig5):
        factory = fig5.client.sql_execute_factory(
            "dais://ds1",
            fig5.resource.abstract_name,
            "SELECT 1",
            configuration=configuration_document(readable=False),
        )
        with pytest.raises(NotAuthorizedFault):
            fig5.client.get_sql_rowset(factory.address, factory.abstract_name)

    def test_wrong_port_type_faults(self, fig5):
        with pytest.raises(InvalidPortTypeQNameFault):
            fig5.client.sql_execute_factory(
                "dais://ds1",
                fig5.resource.abstract_name,
                "SELECT 1",
                port_type_qname=SQL_ROWSET_ACCESS_PT,
            )

    def test_destroy_response_removes_data(self, fig5):
        factory = fig5.client.sql_execute_factory(
            "dais://ds1", fig5.resource.abstract_name, "SELECT 1"
        )
        fig5.client.destroy("dais://ds2", factory.abstract_name)
        with pytest.raises(InvalidResourceNameFault):
            fig5.client.get_sql_rowset(factory.address, factory.abstract_name)


class TestRowsetAccess:
    @pytest.fixture()
    def rowset_epr(self, fig5):
        factory = fig5.client.sql_execute_factory(
            "dais://ds1",
            fig5.resource.abstract_name,
            "SELECT id FROM orders ORDER BY id",
        )
        rowset_factory = fig5.client.sql_rowset_factory(
            factory.address,
            factory.abstract_name,
            dataset_format_uri=WEBROWSET_FORMAT_URI,
        )
        return rowset_factory

    def test_rowset_created_on_third_service(self, fig5, rowset_epr):
        assert rowset_epr.address.address == "dais://ds3"
        assert fig5.service3.has_resource(rowset_epr.abstract_name)

    def test_get_tuples_pages(self, fig5, rowset_epr):
        total_orders = SMALL.order_count
        window, total = fig5.client.get_tuples(
            rowset_epr.address, rowset_epr.abstract_name, 0, 5
        )
        assert total == total_orders
        assert [r[0] for r in window.rows] == ["1", "2", "3", "4", "5"]
        window, _ = fig5.client.get_tuples(
            rowset_epr.address, rowset_epr.abstract_name, total_orders - 2, 5
        )
        assert len(window.rows) == 2

    def test_get_tuples_negative_faults(self, fig5, rowset_epr):
        with pytest.raises(InvalidExpressionFault):
            fig5.client.get_tuples(
                rowset_epr.address, rowset_epr.abstract_name, -1, 5
            )

    def test_paged_union_equals_whole(self, fig5, rowset_epr):
        collected = []
        start = 0
        while True:
            window, total = fig5.client.get_tuples(
                rowset_epr.address, rowset_epr.abstract_name, start, 7
            )
            collected.extend(window.rows)
            start += 7
            if start >= total:
                break
        assert len(collected) == SMALL.order_count

    def test_rowset_property_document(self, fig5, rowset_epr):
        document = fig5.client.get_rowset_property_document(
            rowset_epr.address, rowset_epr.abstract_name
        )
        assert document.tag.local == "SQLRowsetPropertyDocument"

    def test_rowset_format_fixed_at_creation(self, fig5, rowset_epr):
        window, _ = fig5.client.get_tuples(
            rowset_epr.address, rowset_epr.abstract_name, 0, 1
        )
        assert window.columns == ["id"]

    def test_bad_rowset_format_faults(self, fig5):
        factory = fig5.client.sql_execute_factory(
            "dais://ds1", fig5.resource.abstract_name, "SELECT 1"
        )
        with pytest.raises(InvalidDatasetFormatFault):
            fig5.client.sql_rowset_factory(
                factory.address,
                factory.abstract_name,
                dataset_format_uri="urn:fmt:nope",
            )

    def test_asynchronous_rowset_factory_is_refused_not_run_synchronously(
        self, fig5
    ):
        """ExecutionMode survives the SQLRowsetFactoryRequest round trip
        (the hand-written decoder dropped it, so the service silently
        answered with a synchronous EPR), and — there being no deferred
        rowset factory — is answered with a typed, non-retryable fault."""
        factory = fig5.client.sql_execute_factory(
            "dais://ds1", fig5.resource.abstract_name, "SELECT 1"
        )
        before = fig5.service3.resource_names()
        with pytest.raises(InvalidConfigurationDocumentFault) as err:
            fig5.client.call(
                factory.address,
                dair_msg.SQLRowsetFactoryRequest(
                    abstract_name=factory.abstract_name,
                    execution_mode=MODE_ASYNCHRONOUS,
                ),
            )
        assert "asynchronous" in str(err.value)
        assert not isinstance(err.value, RETRYABLE_FAULTS)
        assert fig5.service3.resource_names() == before  # nothing derived


class TestNonWriteableBinding:
    """A write a non-writeable binding refuses is refused before it
    runs: the fault comes back and the table is as it was."""

    INSERT = "INSERT INTO customers VALUES (999, 'new', 'emea', 'retail')"

    @pytest.fixture()
    def read_only(self, single):
        from repro.core import ConfigurableProperties, mint_abstract_name
        from repro.dair import SQLDataResource

        resource = SQLDataResource(mint_abstract_name("readonly"), single.database)
        single.service.add_resource(
            resource, ConfigurableProperties(writeable=False)
        )
        return resource.abstract_name

    @pytest.mark.parametrize(
        "statement",
        [
            INSERT,
            "UPDATE customers SET segment = 'vip'",
            "DELETE FROM customers WHERE id = 1",
        ],
    )
    def test_sql_execute_write_is_refused_and_not_committed(
        self, single, read_only, statement
    ):
        before = single.database.execute(
            "SELECT id, segment FROM customers ORDER BY id"
        ).rows
        with pytest.raises(NotAuthorizedFault, match="not writeable"):
            single.client.sql_execute(single.address, read_only, statement)
        after = single.database.execute(
            "SELECT id, segment FROM customers ORDER BY id"
        ).rows
        assert after == before

    def test_sql_execute_ddl_is_refused_before_it_runs(self, single, read_only):
        with pytest.raises(NotAuthorizedFault):
            single.client.sql_execute(
                single.address, read_only, "CREATE TABLE scratch (id INT)"
            )
        with pytest.raises(InvalidExpressionFault):  # no such table
            single.client.sql_query_rowset(
                single.address, single.name, "SELECT id FROM scratch"
            )

    def test_factory_write_is_refused_and_not_committed(self, single, read_only):
        before = single.database.row_count("customers")
        with pytest.raises(NotAuthorizedFault):
            single.client.sql_execute_factory(
                single.address, read_only, self.INSERT
            )
        assert single.database.row_count("customers") == before
        # Reads through the same binding are still served.
        rowset = single.client.sql_query_rowset(
            single.address, read_only, "SELECT COUNT(*) FROM customers"
        )
        assert int(rowset.rows[0][0]) == before
