"""Derived-result reuse: identical factory requests share one resource.

PR-10 gives the SQL factory a :class:`SharedResultCache`: a repeated
``SQLExecuteFactory`` with the same expression and parameters against
the same parent — at the same catalog *and* data version — answers with
the already-materialized response resource instead of evaluating again.
Sharing is refcounted: each reuse adds a claim, each destroy releases
one, and only the last claim actually tears the resource down.
"""

import pytest

from repro.client.sql import SQLClient, configuration_document
from repro.core import InvalidResourceNameFault, Sensitivity
from repro.workload import RelationalWorkload, build_single_service

SMALL = RelationalWorkload(customers=8, orders_per_customer=2, items_per_order=1)

QUERY = "SELECT id, name FROM customers ORDER BY id"


@pytest.fixture()
def single():
    return build_single_service(SMALL)


def _counter(service, name):
    return service.metrics.counter(name)


class TestReuse:
    def test_identical_requests_share_one_resource(self, single):
        first = single.client.sql_execute_factory(
            single.address, single.name, QUERY
        )
        second = single.client.sql_execute_factory(
            single.address, single.name, QUERY
        )
        assert first.abstract_name == second.abstract_name
        assert _counter(single.service, "cache.result.hits").total() == 1
        assert _counter(single.service, "cache.result.misses").total() == 1
        rowset = single.client.get_sql_rowset(
            second.address, second.abstract_name
        )
        assert len(rowset.rows) == SMALL.customers

    def test_different_expression_or_parameters_do_not_share(self, single):
        base = single.client.sql_execute_factory(
            single.address, single.name, "SELECT id FROM customers WHERE id = ?",
            parameters=["1"],
        )
        other_expr = single.client.sql_execute_factory(
            single.address, single.name, "SELECT id FROM customers WHERE id = 1"
        )
        other_params = single.client.sql_execute_factory(
            single.address, single.name, "SELECT id FROM customers WHERE id = ?",
            parameters=["2"],
        )
        names = {
            base.abstract_name,
            other_expr.abstract_name,
            other_params.abstract_name,
        }
        assert len(names) == 3

    def test_committed_dml_invalidates_shared_result(self, single):
        first = single.client.sql_execute_factory(
            single.address, single.name, QUERY
        )
        single.client.sql_execute(
            single.address, single.name,
            "UPDATE customers SET name = 'renamed' WHERE id = 1",
        )
        second = single.client.sql_execute_factory(
            single.address, single.name, QUERY
        )
        assert second.abstract_name != first.abstract_name
        # The old snapshot keeps its pre-update rows (insensitive), the
        # new one sees the committed write.
        old = single.client.get_sql_rowset(first.address, first.abstract_name)
        new = single.client.get_sql_rowset(
            second.address, second.abstract_name
        )
        assert ("1", "renamed") not in old.rows
        assert ("1", "renamed") in new.rows

    def test_ddl_invalidates_shared_result(self, single):
        first = single.client.sql_execute_factory(
            single.address, single.name, QUERY
        )
        single.database.execute("CREATE TABLE unrelated (id INT)")
        second = single.client.sql_execute_factory(
            single.address, single.name, QUERY
        )
        assert second.abstract_name != first.abstract_name

    def test_sensitive_configuration_is_never_shared(self, single):
        config = configuration_document(sensitivity=Sensitivity.SENSITIVE)
        first = single.client.sql_execute_factory(
            single.address, single.name, QUERY, configuration=config
        )
        second = single.client.sql_execute_factory(
            single.address, single.name, QUERY, configuration=config
        )
        assert first.abstract_name != second.abstract_name


class TestRefcountedDestroy:
    def test_last_claim_destroys_earlier_claims_release(self, single):
        first = single.client.sql_execute_factory(
            single.address, single.name, QUERY
        )
        second = single.client.sql_execute_factory(
            single.address, single.name, QUERY
        )
        shared = first.abstract_name
        assert second.abstract_name == shared

        # First destroy releases one claim: still readable.
        single.client.destroy(single.address, shared)
        rowset = single.client.get_sql_rowset(first.address, shared)
        assert len(rowset.rows) == SMALL.customers

        # Second destroy drops the last claim: resource is gone.
        single.client.destroy(single.address, shared)
        with pytest.raises(InvalidResourceNameFault):
            single.client.get_sql_rowset(first.address, shared)

    def test_destroyed_shared_result_is_forgotten_by_the_cache(self, single):
        first = single.client.sql_execute_factory(
            single.address, single.name, QUERY
        )
        single.client.destroy(single.address, first.abstract_name)
        invalidations = _counter(single.service, "cache.result.invalidations")
        assert invalidations.total() == 1
        second = single.client.sql_execute_factory(
            single.address, single.name, QUERY
        )
        assert second.abstract_name != first.abstract_name

    def test_failed_reply_on_a_hit_releases_the_claim_it_acquired(
        self, single, monkeypatch
    ):
        """A cache hit adds a claim before the reply is built; when the
        reply then fails, the claim goes back — one destroy still ends
        the resource."""
        from repro.soap.fault import SoapFault

        first = single.client.sql_execute_factory(
            single.address, single.name, QUERY
        )
        shared = first.abstract_name
        assert single.service.binding(shared).refcount == 1

        def explode(abstract_name):
            raise RuntimeError("epr minting failed after the hit")

        monkeypatch.setattr(single.service, "epr_for", explode)
        with pytest.raises(SoapFault):
            single.client.sql_execute_factory(single.address, single.name, QUERY)
        monkeypatch.undo()
        assert _counter(single.service, "cache.result.hits").total() == 1
        assert single.service.binding(shared).refcount == 1
        single.client.destroy(single.address, shared)
        assert not single.service.has_resource(shared)
