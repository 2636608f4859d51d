"""The WS-DAIF data service."""

from __future__ import annotations

from typing import Iterable, Optional

from repro.core.faults import (
    DataResourceUnavailableFault,
    InvalidPortTypeQNameFault,
    InvalidResourceNameFault,
)
from repro.core.names import mint_abstract_name
from repro.core.service import DataService, ResourceBinding
from repro.daif import messages as msg
from repro.daif.namespaces import FILE_SET_ACCESS_PT, WSDAIF_NS
from repro.daif.resources import FileCollectionResource, FileSetResource
from repro.jobs.namespaces import MODE_ASYNCHRONOUS
from repro.soap.addressing import MessageHeaders
from repro.xmlutil import parse, serialize

PORT_TYPES = {"collection_access", "selection_factory", "fileset_access"}


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
            (msg.FileSelectionFactoryRequest, "_handle_selection_factory"),
        ),
        "fileset_access": (
            (msg.GetFileSetMembersRequest, "_handle_get_members"),
        ),
    }

    def __init__(
        self,
        name: str,
        address: str,
        port_types: Iterable[str] = tuple(sorted(PORT_TYPES)),
        fileset_target: Optional["FileRealisationService"] = None,
        **kwargs,
    ) -> None:
        from repro.core.namespaces import WSDAI_NS

        kwargs.setdefault(
            "property_namespaces", {"wsdai": WSDAI_NS, "wsdaif": WSDAIF_NS}
        )
        super().__init__(name, address, **kwargs)
        self.port_types = set(port_types)
        unknown = self.port_types - PORT_TYPES
        if unknown:
            raise ValueError(f"unknown port types {sorted(unknown)}")
        self.fileset_target = fileset_target or self

        self.install_port_types(self.port_types)

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

    def _handle_selection_factory(
        self, request: msg.FileSelectionFactoryRequest, headers: MessageHeaders
    ) -> msg.FileSelectionFactoryResponse:
        binding = self._collection_binding(request.abstract_name)
        binding.require_readable()
        resource: FileCollectionResource = binding.resource

        requested_pt = request.port_type_qname or FILE_SET_ACCESS_PT
        if requested_pt != FILE_SET_ACCESS_PT:
            raise InvalidPortTypeQNameFault(
                f"FileSelectionFactory wires up {FILE_SET_ACCESS_PT.clark()}"
            )
        target = self.fileset_target
        if "fileset_access" not in target.port_types:
            raise InvalidPortTypeQNameFault(
                f"target service {target.name!r} lacks FileSetAccess"
            )

        configurable = binding.configurable.copy()
        if request.configuration_document is not None:
            configurable = configurable.apply_configuration_document(
                request.configuration_document
            )

        if request.execution_mode == MODE_ASYNCHRONOUS:
            if self.jobs is None:
                raise DataResourceUnavailableFault(
                    f"service {self.name!r} does not accept asynchronous "
                    "factory requests (no job queue attached)"
                )
            job = self.jobs.submit(
                self._selection_factory_kind(),
                {
                    "resource": str(request.abstract_name),
                    "expression": request.expression,
                    "configuration": serialize(request.configuration_document)
                    if request.configuration_document is not None
                    else "",
                },
            )
            return msg.FileSelectionFactoryResponse(job_id=job.job_id)

        derived = FileSetResource(
            mint_abstract_name("fileset"),
            resource,
            resource.select(request.expression),
        )
        target.add_resource(derived, configurable)
        try:
            return msg.FileSelectionFactoryResponse(
                address=target.epr_for(derived.abstract_name),
                abstract_name=derived.abstract_name,
            )
        except BaseException:
            # A failure after the name was reserved must not leave the
            # registry entry dangling.
            target.destroy_resource(derived.abstract_name)
            raise

    # -- asynchronous factory execution ------------------------------------

    def _selection_factory_kind(self) -> str:
        return f"{self.name}:file-selection-factory"

    def enable_jobs(self, jobs, terminal_ttl: float | None = None) -> None:
        super().enable_jobs(jobs, terminal_ttl)
        if "selection_factory" in self.port_types:
            jobs.register_executor(
                self._selection_factory_kind(),
                self._execute_selection_factory_job,
                rollback=self._rollback_selection_factory_job,
            )

    def _execute_selection_factory_job(self, job) -> dict:
        """Run one deferred FileSelectionFactory request."""
        binding = self._collection_binding(job.payload["resource"])
        binding.require_readable()
        resource: FileCollectionResource = binding.resource
        configurable = binding.configurable.copy()
        if job.payload.get("configuration"):
            configurable = configurable.apply_configuration_document(
                parse(job.payload["configuration"])
            )
        derived = FileSetResource(
            mint_abstract_name("fileset"),
            resource,
            resource.select(job.payload["expression"]),
        )
        target = self.fileset_target
        target.add_resource(derived, configurable)
        return {
            "abstract_name": str(derived.abstract_name),
            "address": target.address,
        }

    def _rollback_selection_factory_job(self, job, result: dict) -> None:
        name = result.get("abstract_name")
        if name and self.fileset_target.has_resource(name):
            self.fileset_target.destroy_resource(name)

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
