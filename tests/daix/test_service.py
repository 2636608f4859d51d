"""WS-DAIX service tests: collections, queries, factories, sequences."""

import pytest

from repro.core import (
    InvalidExpressionFault,
    InvalidResourceNameFault,
    NotAuthorizedFault,
)
from repro.core.namespaces import WSDAI_NS, XPATH_LANGUAGE_URI
from repro.client.sql import configuration_document
from repro.workload import XmlCorpus, build_xml_deployment
from repro.xmlutil import E, QName, parse

SMALL = XmlCorpus(documents=20, reviews_per_product=2)


@pytest.fixture()
def deploy():
    return build_xml_deployment(SMALL)


def mods(body: str):
    return parse(
        '<xu:modifications xmlns:xu="http://www.xmldb.org/xupdate">'
        + body
        + "</xu:modifications>"
    )


class TestCollectionAccess:
    def test_list_documents(self, deploy):
        listing = deploy.client.list_documents(deploy.address, deploy.name)
        assert len(listing.names) == SMALL.documents
        assert listing.names[0] == "p00000"

    def test_add_and_get_documents(self, deploy):
        results = deploy.client.add_documents(
            deploy.address,
            deploy.name,
            [("extra", E("product", E("name", "added"), id="999"))],
        )
        assert results == [("extra", "Added")]
        documents = deploy.client.get_documents(
            deploy.address, deploy.name, ["extra"]
        )
        assert documents[0][1].findtext("name") == "added"

    def test_add_duplicate_reports_error_status(self, deploy):
        results = deploy.client.add_documents(
            deploy.address, deploy.name, [("p00000", E("product"))]
        )
        assert results[0][0] == "p00000"
        assert results[0][1].startswith("Error")

    def test_add_with_replace(self, deploy):
        deploy.client.add_documents(
            deploy.address,
            deploy.name,
            [("p00000", E("product", E("name", "replaced")))],
            replace=True,
        )
        documents = deploy.client.get_documents(
            deploy.address, deploy.name, ["p00000"]
        )
        assert documents[0][1].findtext("name") == "replaced"

    def test_get_missing_documents_omitted(self, deploy):
        documents = deploy.client.get_documents(
            deploy.address, deploy.name, ["p00000", "nope"]
        )
        assert [n for n, _ in documents] == ["p00000"]

    def test_remove_documents(self, deploy):
        removed = deploy.client.remove_documents(
            deploy.address, deploy.name, ["p00000", "p00001", "ghost"]
        )
        assert removed == 2
        listing = deploy.client.list_documents(deploy.address, deploy.name)
        assert len(listing.names) == SMALL.documents - 2

    def test_subcollection_lifecycle(self, deploy):
        created = deploy.client.create_subcollection(
            deploy.address, deploy.name, "archive"
        )
        assert deploy.service.has_resource(created.abstract_name)
        deploy.client.add_documents(
            deploy.address, created.abstract_name, [("old", E("x"))]
        )
        listing = deploy.client.list_documents(
            deploy.address, created.abstract_name
        )
        assert listing.names == ["old"]
        removed = deploy.client.remove_subcollection(
            deploy.address, deploy.name, "archive"
        )
        assert removed == "archive"
        assert not deploy.service.has_resource(created.abstract_name)

    def test_duplicate_subcollection_faults(self, deploy):
        deploy.client.create_subcollection(deploy.address, deploy.name, "dup")
        with pytest.raises(InvalidExpressionFault):
            deploy.client.create_subcollection(deploy.address, deploy.name, "dup")

    def test_collection_property_document(self, deploy):
        document = deploy.client.get_collection_property_document(
            deploy.address, deploy.name
        )
        assert document.tag.local == "XMLCollectionPropertyDocument"
        languages = [
            e.text
            for e in document.findall(QName(WSDAI_NS, "GenericQueryLanguage"))
        ]
        assert XPATH_LANGUAGE_URI in languages

    def test_readonly_collection_blocks_writes(self, deploy):
        deploy.service.binding(deploy.name).configurable.writeable = False
        with pytest.raises(NotAuthorizedFault):
            deploy.client.add_documents(
                deploy.address, deploy.name, [("x", E("y"))]
            )
        with pytest.raises(NotAuthorizedFault):
            deploy.client.remove_documents(deploy.address, deploy.name, ["p00000"])


class TestQueryAccess:
    def test_xpath_execute_over_collection(self, deploy):
        items = deploy.client.xpath_execute(
            deploy.address, deploy.name, "/product/name"
        )
        assert len(items) == SMALL.documents

    def test_xpath_scoped_to_document(self, deploy):
        items = deploy.client.xpath_execute(
            deploy.address, deploy.name, "/product/name", document_name="p00003"
        )
        assert len(items) == 1

    def test_xpath_atomic_result(self, deploy):
        items = deploy.client.xpath_execute(
            deploy.address, deploy.name, "count(/product/review)",
            document_name="p00000",
        )
        assert items[0].full_text() == str(SMALL.reviews_per_product)

    def test_xpath_attribute_result(self, deploy):
        items = deploy.client.xpath_execute(
            deploy.address, deploy.name, "/product/@id", document_name="p00005"
        )
        assert items[0].full_text() == "5"
        assert items[0].get("name") == "id"

    def test_bad_xpath_faults(self, deploy):
        with pytest.raises(InvalidExpressionFault):
            deploy.client.xpath_execute(deploy.address, deploy.name, "///")

    def test_xquery_execute(self, deploy):
        items = deploy.client.xquery_execute(
            deploy.address,
            deploy.name,
            "for $p in /product where $p/price > 250 "
            'return <hit>{$p/name/text()}</hit>',
        )
        assert all(
            i.element_children()[0].tag.local == "hit" for i in items
        )
        assert len(items) >= 1

    def test_bad_xquery_faults(self, deploy):
        with pytest.raises(InvalidExpressionFault):
            deploy.client.xquery_execute(
                deploy.address, deploy.name, "for $x in"
            )

    def test_xupdate_execute(self, deploy):
        modified = deploy.client.xupdate_execute(
            deploy.address,
            deploy.name,
            mods('<xu:update select="/product/stock">0</xu:update>'),
        )
        assert modified == SMALL.documents
        items = deploy.client.xpath_execute(
            deploy.address, deploy.name, "/product[stock = 0]"
        )
        assert len(items) == SMALL.documents

    def test_xupdate_scoped_to_document(self, deploy):
        modified = deploy.client.xupdate_execute(
            deploy.address,
            deploy.name,
            mods('<xu:append select="/product"><flag/></xu:append>'),
            document_name="p00000",
        )
        assert modified == 1
        items = deploy.client.xpath_execute(
            deploy.address, deploy.name, "/product/flag"
        )
        assert len(items) == 1

    def test_xupdate_requires_modifications(self, deploy):
        from repro.daix import messages as msg

        with pytest.raises(InvalidExpressionFault):
            deploy.client.call(
                deploy.address,
                msg.XUpdateExecuteRequest(abstract_name=deploy.name),
            )

    def test_xupdate_blocked_when_not_writeable(self, deploy):
        deploy.service.binding(deploy.name).configurable.writeable = False
        with pytest.raises(NotAuthorizedFault):
            deploy.client.xupdate_execute(
                deploy.address,
                deploy.name,
                mods('<xu:remove select="/product/review"/>'),
            )

    def test_generic_query_xpath(self, deploy):
        response = deploy.client.generic_query(
            deploy.address, deploy.name, XPATH_LANGUAGE_URI, "/product/@id"
        )
        assert len(response.data) == SMALL.documents


class TestFactoriesAndSequences:
    def test_xpath_factory_creates_sequence(self, deploy):
        factory = deploy.client.xpath_execute_factory(
            deploy.address, deploy.name, "/product/name"
        )
        assert deploy.service.has_resource(factory.abstract_name)
        items, total = deploy.client.get_items(
            factory.address, factory.abstract_name, 0, 5
        )
        assert total == SMALL.documents
        assert len(items) == 5

    def test_xquery_factory_creates_sequence(self, deploy):
        factory = deploy.client.xquery_execute_factory(
            deploy.address,
            deploy.name,
            "for $p in /product order by $p/price return $p/price",
        )
        items, total = deploy.client.get_items(
            factory.address, factory.abstract_name, 0, total := SMALL.documents
        )
        prices = [float(i.full_text()) for i in items]
        assert prices == sorted(prices)

    def test_sequence_snapshot_is_insensitive(self, deploy):
        factory = deploy.client.xpath_execute_factory(
            deploy.address, deploy.name, "/product"
        )
        deploy.client.remove_documents(deploy.address, deploy.name, ["p00000"])
        _, total = deploy.client.get_items(
            factory.address, factory.abstract_name, 0, 1
        )
        assert total == SMALL.documents

    def test_sensitive_sequence_tracks_parent(self, deploy):
        from repro.core import Sensitivity

        factory = deploy.client.xpath_execute_factory(
            deploy.address,
            deploy.name,
            "/product",
            configuration=configuration_document(
                sensitivity=Sensitivity.SENSITIVE
            ),
        )
        deploy.client.remove_documents(
            deploy.address, deploy.name, ["p00000", "p00001"]
        )
        _, total = deploy.client.get_items(
            factory.address, factory.abstract_name, 0, 1
        )
        assert total == SMALL.documents - 2

    def test_sequence_paging_union(self, deploy):
        factory = deploy.client.xpath_execute_factory(
            deploy.address, deploy.name, "/product/@id"
        )
        seen = []
        start = 0
        while True:
            items, total = deploy.client.get_items(
                factory.address, factory.abstract_name, start, 7
            )
            seen.extend(i.full_text() for i in items)
            start += 7
            if start >= total:
                break
        assert sorted(seen, key=int) == [str(i) for i in range(SMALL.documents)]

    def test_sequence_is_service_managed(self, deploy):
        factory = deploy.client.xpath_execute_factory(
            deploy.address, deploy.name, "/product"
        )
        document = deploy.client.get_property_document(
            deploy.address, factory.abstract_name
        )
        assert (
            document.findtext(QName(WSDAI_NS, "DataResourceManagement"))
            == "ServiceManaged"
        )

    def test_destroyed_sequence_unavailable(self, deploy):
        factory = deploy.client.xpath_execute_factory(
            deploy.address, deploy.name, "/product"
        )
        deploy.client.destroy(deploy.address, factory.abstract_name)
        with pytest.raises(InvalidResourceNameFault):
            deploy.client.get_items(factory.address, factory.abstract_name, 0, 1)

    def test_factory_configuration_readable_false(self, deploy):
        factory = deploy.client.xpath_execute_factory(
            deploy.address,
            deploy.name,
            "/product",
            configuration=configuration_document(readable=False),
        )
        with pytest.raises(NotAuthorizedFault):
            deploy.client.get_items(factory.address, factory.abstract_name, 0, 1)

    def test_get_items_replies_do_not_alias_the_sequence(self, deploy):
        """Items go into a reply uncopied, so each reply must own them:
        editing one reply's items leaves the next reply unchanged."""
        from repro.daix import messages as msg
        from repro.soap import Envelope, MessageHeaders
        from repro.xmlutil import serialize

        factory = deploy.client.xpath_execute_factory(
            deploy.address, deploy.name, "/product/name"
        )
        request = msg.GetItemsRequest(
            abstract_name=factory.abstract_name, start_position=0, count=3
        )

        def items():
            reply = deploy.service.dispatch(
                Envelope(
                    headers=MessageHeaders(
                        to=deploy.address, action=msg.GetItemsRequest.action()
                    ),
                    payload=request.to_xml(),
                )
            )
            return msg.GetItemsResponse.from_xml(reply.payload).items

        first = items()
        before = [serialize(item) for item in first]
        for item in first:
            item.children[0].children.clear()
            item.set("edited", "yes")
        assert [serialize(item) for item in items()] == before

    def test_get_items_on_collection_faults(self, deploy):
        from repro.daix import messages as msg

        with pytest.raises(InvalidResourceNameFault, match="not an XML sequence"):
            deploy.client.call(
                deploy.address,
                msg.GetItemsRequest(abstract_name=deploy.name, count=1),
            )
