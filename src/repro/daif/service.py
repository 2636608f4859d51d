"""The WS-DAIF data service."""

from __future__ import annotations

from typing import Iterable, Optional

from repro.core.faults import InvalidResourceNameFault
from repro.core.names import mint_abstract_name
from repro.core.service import DataService, Factory, ResourceBinding
from repro.daif import messages as msg
from repro.daif.namespaces import FILE_SET_ACCESS_PT, WSDAIF_NS
from repro.daif.resources import FileCollectionResource, FileSetResource
from repro.soap.addressing import MessageHeaders


class FileRealisationService(DataService):
    """A data service exposing the files realisation port types."""

    OPERATIONS = {
        **DataService.OPERATIONS,
        "collection_access": (
            (msg.ListFilesRequest, "_handle_list_files"),
            (msg.GetFileRequest, "_handle_get_file"),
            (msg.PutFileRequest, "_handle_put_file"),
            (msg.DeleteFileRequest, "_handle_delete_file"),
        ),
        "selection_factory": (
            (msg.FileSelectionFactoryRequest, "_handle_factory"),
        ),
        "fileset_access": (
            (msg.GetFileSetMembersRequest, "_handle_get_members"),
        ),
    }
    FACTORIES = {
        msg.FileSelectionFactoryRequest: Factory(
            binding="_collection_binding",
            target="fileset_target",
            port_type="fileset_access",
            port_type_qname=FILE_SET_ACCESS_PT,
            readable=True,
            derive="_derive_fileset",
            kind="file-selection-factory",
        ),
    }

    def __init__(
        self,
        name: str,
        address: str,
        port_types: Iterable[str] | None = None,
        fileset_target: Optional["FileRealisationService"] = None,
        **kwargs,
    ) -> None:
        from repro.core.namespaces import WSDAI_NS

        kwargs.setdefault(
            "property_namespaces", {"wsdai": WSDAI_NS, "wsdaif": WSDAIF_NS}
        )
        super().__init__(name, address, **kwargs)
        self.fileset_target = fileset_target or self
        self.install_own_port_types(port_types)

    # -- typed lookups -------------------------------------------------------

    def _collection_binding(self, abstract_name: str) -> ResourceBinding:
        binding = self.binding(abstract_name)
        if not isinstance(binding.resource, FileCollectionResource):
            raise InvalidResourceNameFault(
                f"{abstract_name} is not a file collection resource"
            )
        return binding

    def _fileset_binding(self, abstract_name: str) -> ResourceBinding:
        binding = self.binding(abstract_name)
        if not isinstance(binding.resource, FileSetResource):
            raise InvalidResourceNameFault(
                f"{abstract_name} is not a file set resource"
            )
        return binding

    # -- FileCollectionAccess --------------------------------------------------

    def _handle_list_files(
        self, request: msg.ListFilesRequest, headers: MessageHeaders
    ) -> msg.ListFilesResponse:
        binding = self._collection_binding(request.abstract_name)
        binding.require_readable()
        files, directories = binding.resource.list_files(request.path)
        return msg.ListFilesResponse(
            files=[(f.name, f.size, f.modified) for f in files],
            directories=directories,
        )

    def _handle_get_file(
        self, request: msg.GetFileRequest, headers: MessageHeaders
    ) -> msg.GetFileResponse:
        binding = self._collection_binding(request.abstract_name)
        binding.require_readable()
        entry, content = binding.resource.get_file(
            request.path, request.offset, request.length
        )
        return msg.GetFileResponse(
            path=request.path, content=content, total_size=entry.size
        )

    def _handle_put_file(
        self, request: msg.PutFileRequest, headers: MessageHeaders
    ) -> msg.PutFileResponse:
        binding = self._collection_binding(request.abstract_name)
        binding.require_writeable()
        entry = binding.resource.put_file(request.path, request.content)
        return msg.PutFileResponse(path=request.path, size=entry.size)

    def _handle_delete_file(
        self, request: msg.DeleteFileRequest, headers: MessageHeaders
    ) -> msg.DeleteFileResponse:
        binding = self._collection_binding(request.abstract_name)
        binding.require_writeable()
        entry = binding.resource.delete_file(request.path)
        return msg.DeleteFileResponse(path=request.path, size=entry.size)

    # -- FileSelectionFactory ----------------------------------------------------

    def _derive_fileset(
        self, binding, target, configurable, request: msg.FileSelectionFactoryRequest
    ) -> str:
        resource: FileCollectionResource = binding.resource
        derived = FileSetResource(
            mint_abstract_name("fileset"),
            resource,
            resource.select(request.expression),
        )
        target.add_resource(derived, configurable)
        return derived.abstract_name

    # -- FileSetAccess -----------------------------------------------------------

    def _handle_get_members(
        self, request: msg.GetFileSetMembersRequest, headers: MessageHeaders
    ) -> msg.GetFileSetMembersResponse:
        binding = self._fileset_binding(request.abstract_name)
        binding.require_readable()
        resource: FileSetResource = binding.resource
        return msg.GetFileSetMembersResponse(
            members=resource.page(request.start_position, request.count),
            total_members=resource.member_count,
        )
