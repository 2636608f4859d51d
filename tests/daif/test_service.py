"""WS-DAIF (files realisation) service tests."""

import pytest

from repro.client.files import FilesClient
from repro.core import (
    InvalidExpressionFault,
    InvalidResourceNameFault,
    NotAuthorizedFault,
    ServiceRegistry,
    mint_abstract_name,
)
from repro.core.properties import ConfigurableProperties
from repro.daif import FileCollectionResource, FileRealisationService
from repro.filestore import FileStore
from repro.transport import LoopbackTransport
from repro.wsrf import ManualClock


@pytest.fixture()
def setup():
    store = FileStore(ManualClock(0.0))
    store.make_directory("data/raw")
    store.write("data/readme.txt", b"hello grid")
    store.write("data/raw/a.csv", b"1,2,3\n4,5,6")
    store.write("data/raw/b.csv", b"7,8,9")
    store.write("data/raw/notes.md", b"# notes")

    registry = ServiceRegistry()
    service = FileRealisationService("files", "dais://files")
    registry.register(service)
    resource = FileCollectionResource(
        mint_abstract_name("data"), store, base_path="data"
    )
    service.add_resource(resource)
    client = FilesClient(LoopbackTransport(registry))
    return client, service, resource, store


class TestCollectionAccess:
    def test_list_files(self, setup):
        client, _, resource, _ = setup
        listing = client.list_files("dais://files", resource.abstract_name)
        assert [f[0] for f in listing.files] == ["readme.txt"]
        assert listing.directories == ["raw"]

    def test_list_subdirectory(self, setup):
        client, _, resource, _ = setup
        listing = client.list_files("dais://files", resource.abstract_name, "raw")
        assert [f[0] for f in listing.files] == ["a.csv", "b.csv", "notes.md"]

    def test_get_file_content(self, setup):
        client, _, resource, _ = setup
        response = client.get_file(
            "dais://files", resource.abstract_name, "readme.txt"
        )
        assert response.content == b"hello grid"
        assert response.total_size == 10

    def test_get_file_byte_range(self, setup):
        client, _, resource, _ = setup
        response = client.get_file(
            "dais://files", resource.abstract_name, "raw/a.csv",
            offset=6, length=5,
        )
        assert response.content == b"4,5,6"
        assert response.total_size == 11  # range reads report full size

    def test_binary_content_round_trips(self, setup):
        client, _, resource, _ = setup
        payload = bytes(range(256))
        client.put_file("dais://files", resource.abstract_name, "bin.dat", payload)
        response = client.get_file(
            "dais://files", resource.abstract_name, "bin.dat"
        )
        assert response.content == payload

    def test_put_creates_directories(self, setup):
        client, _, resource, store = setup
        client.put_file(
            "dais://files", resource.abstract_name, "new/deep/f.txt", b"x"
        )
        assert store.exists("data/new/deep/f.txt")

    def test_delete_file(self, setup):
        client, _, resource, store = setup
        client.delete_file("dais://files", resource.abstract_name, "readme.txt")
        assert not store.exists("data/readme.txt")

    def test_missing_file_faults(self, setup):
        client, _, resource, _ = setup
        with pytest.raises(InvalidExpressionFault):
            client.get_file("dais://files", resource.abstract_name, "ghost")

    def test_path_escape_rejected(self, setup):
        client, _, resource, _ = setup
        with pytest.raises(InvalidExpressionFault, match="escapes"):
            client.get_file(
                "dais://files", resource.abstract_name, "../outside.txt"
            )

    def test_base_path_confines_view(self, setup):
        client, service, _, store = setup
        store.make_directory("secret")
        store.write("secret/keys.txt", b"shh")
        resource2 = FileCollectionResource(
            mint_abstract_name("raw-only"), store, base_path="data/raw"
        )
        service.add_resource(resource2)
        listing = client.list_files("dais://files", resource2.abstract_name)
        assert [f[0] for f in listing.files] == ["a.csv", "b.csv", "notes.md"]

    def test_write_blocked_when_not_writeable(self, setup):
        client, service, _, store = setup
        readonly = FileCollectionResource(
            mint_abstract_name("ro"), store, base_path="data"
        )
        service.add_resource(readonly, ConfigurableProperties(writeable=False))
        with pytest.raises(NotAuthorizedFault):
            client.put_file("dais://files", readonly.abstract_name, "x", b"y")
        with pytest.raises(NotAuthorizedFault):
            client.delete_file("dais://files", readonly.abstract_name, "readme.txt")

    def test_property_document(self, setup):
        client, _, resource, _ = setup
        document = client.get_property_document(
            "dais://files", resource.abstract_name
        )
        assert document.tag.local == "FileCollectionPropertyDocument"


class TestSelectionFactory:
    def test_glob_selection(self, setup):
        client, service, resource, _ = setup
        factory = client.file_selection_factory(
            "dais://files", resource.abstract_name, "raw/*.csv"
        )
        members, total = client.get_fileset_members(
            factory.address, factory.abstract_name, 0, 10
        )
        assert total == 2
        assert members == ["raw/a.csv", "raw/b.csv"]

    def test_selection_is_snapshot(self, setup):
        client, _, resource, store = setup
        factory = client.file_selection_factory(
            "dais://files", resource.abstract_name, "raw/*.csv"
        )
        store.write("data/raw/c.csv", b"new")
        _, total = client.get_fileset_members(
            factory.address, factory.abstract_name, 0, 10
        )
        assert total == 2  # derived set does not track the parent

    def test_paging(self, setup):
        client, _, resource, _ = setup
        factory = client.file_selection_factory(
            "dais://files", resource.abstract_name, "raw/*"
        )
        members, total = client.get_fileset_members(
            factory.address, factory.abstract_name, 1, 1
        )
        assert total == 3
        assert len(members) == 1

    def test_destroy_fileset(self, setup):
        client, service, resource, _ = setup
        factory = client.file_selection_factory(
            "dais://files", resource.abstract_name, "*"
        )
        client.destroy("dais://files", factory.abstract_name)
        with pytest.raises(InvalidResourceNameFault):
            client.get_fileset_members(
                factory.address, factory.abstract_name, 0, 1
            )

    def test_fileset_resource_kind_checked(self, setup):
        client, _, resource, _ = setup
        from repro.daif import messages as msg

        with pytest.raises(InvalidResourceNameFault, match="not a file set"):
            client.call(
                "dais://files",
                msg.GetFileSetMembersRequest(
                    abstract_name=resource.abstract_name, count=1
                ),
            )

    def test_empty_selection(self, setup):
        client, _, resource, _ = setup
        factory = client.file_selection_factory(
            "dais://files", resource.abstract_name, "*.nomatch"
        )
        members, total = client.get_fileset_members(
            factory.address, factory.abstract_name, 0, 10
        )
        assert members == [] and total == 0
