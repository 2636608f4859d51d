"""The client-side resolve cache: cached EPRs, fault-driven dropping.

``CoreClient.resolve`` caches the EPR per ``(address, abstract_name)``
— an EPR is stable for the resource's lifetime, so re-resolving per
interaction only burns round trips.  The cache self-corrects through
the typed-fault handling in ``CoreClient.call``: a resource-name fault
drops the entry it names, a :class:`ServiceNotFoundFault` drops every
entry for the address.
"""

import pytest

from repro.client import core as client_core
from repro.client.sql import SQLClient
from repro.core import (
    InvalidResourceNameFault,
    ServiceNotFoundFault,
    mint_abstract_name,
)
from repro.dair import SQLDataResource
from repro.core import messages as cmsg
from repro.relational import Database
from repro.transport import LoopbackTransport
from repro.workload import RelationalWorkload, build_single_service

SMALL = RelationalWorkload(customers=4, orders_per_customer=1, items_per_order=1)


@pytest.fixture()
def single():
    return build_single_service(SMALL)


def _counter(client, name):
    return client.transport.metrics.counter(name)


class TestResolveCache:
    def test_repeat_resolve_served_from_cache(self, single):
        first = single.client.resolve(single.address, single.name)
        second = single.client.resolve(single.address, single.name)
        assert second.address == first.address
        assert second.reference_parameters == first.reference_parameters
        assert _counter(single.client, "cache.resolve.hits").total() == 1
        assert _counter(single.client, "cache.resolve.misses").total() == 1

    def test_refresh_bypasses_and_overwrites(self, single):
        single.client.resolve(single.address, single.name)
        single.client.resolve(single.address, single.name, refresh=True)
        assert _counter(single.client, "cache.resolve.hits").total() == 0
        assert _counter(single.client, "cache.resolve.misses").total() == 2

    def test_resource_fault_drops_the_named_entry(self, single):
        epr = single.client.resolve(single.address, single.name)
        # Destroy behind the client's back, then call through the
        # stale EPR: the typed fault must evict the cached entry.
        single.service.destroy_resource(single.name)
        with pytest.raises(InvalidResourceNameFault):
            single.client.call(
                epr,
                cmsg.GetDataResourcePropertyDocumentRequest(
                    abstract_name=single.name
                ),
            )
        assert (
            _counter(single.client, "cache.resolve.invalidations").total()
            == 1
        )
        # Re-registering under the same name: the next resolve goes to
        # the wire instead of serving the evicted EPR.
        resource = SQLDataResource(single.name, Database("fresh"))
        single.service.add_resource(resource)
        single.client.resolve(single.address, single.name)
        assert _counter(single.client, "cache.resolve.misses").total() == 2

    def test_service_not_found_drops_every_entry_for_the_address(
        self, single
    ):
        other = SQLDataResource(
            mint_abstract_name("other"), Database("otherdb")
        )
        single.service.add_resource(other)
        single.client.resolve(single.address, single.name)
        single.client.resolve(single.address, other.abstract_name)
        single.registry.unregister(single.address)
        with pytest.raises(ServiceNotFoundFault):
            single.client.list_resources(single.address)
        assert (
            _counter(single.client, "cache.resolve.invalidations").total()
            == 2
        )

    def test_unrelated_fault_leaves_cache_alone(self, single):
        single.client.resolve(single.address, single.name)
        with pytest.raises(Exception):
            single.client.sql_query_rowset(
                single.address, single.name, "SELECT nope FROM nothing"
            )
        assert (
            _counter(single.client, "cache.resolve.invalidations").total()
            == 0
        )
        single.client.resolve(single.address, single.name)
        assert _counter(single.client, "cache.resolve.hits").total() == 1

    def test_cached_epr_usable_for_calls(self, single):
        epr = single.client.resolve(single.address, single.name)
        epr_again = single.client.resolve(single.address, single.name)
        document = single.client.call(
            epr_again,
            cmsg.GetDataResourcePropertyDocumentRequest(
                abstract_name=single.name
            ),
        ).document
        assert document is not None
        assert epr.address == epr_again.address


class TestResolveBound:
    def test_cache_stays_at_its_bound_and_evicted_names_re_resolve(
        self, single, monkeypatch
    ):
        bound = 3
        monkeypatch.setattr(client_core, "RESOLVE_CACHE_CAPACITY", bound)
        client = SQLClient(LoopbackTransport(single.registry))
        names = [single.name]
        for index in range(bound):
            resource = SQLDataResource(
                mint_abstract_name(f"extra{index}"), Database(f"extra{index}")
            )
            single.service.add_resource(resource)
            names.append(resource.abstract_name)

        for name in names:  # bound + 1 distinct names
            client.resolve(single.address, name)
        assert len(client._resolved) == bound
        assert _counter(client, "cache.resolve.misses").total() == bound + 1

        # The most recent `bound` names are served from the cache …
        for name in names[1:]:
            client.resolve(single.address, name)
        assert _counter(client, "cache.resolve.hits").total() == bound
        # … and the evicted one goes back on the wire: exactly one miss,
        # no invalidation (making room is not an invalidation).
        client.resolve(single.address, names[0])
        assert _counter(client, "cache.resolve.misses").total() == bound + 2
        assert _counter(client, "cache.resolve.invalidations").total() == 0
        assert len(client._resolved) == bound

        # Typed-fault eviction counts one invalidation per dropped entry.
        single.registry.unregister(single.address)
        with pytest.raises(ServiceNotFoundFault):
            client.list_resources(single.address)
        assert (
            _counter(client, "cache.resolve.invalidations").total() == bound
        )
        assert len(client._resolved) == 0
