"""Consumer proxy for the WS-DAIF files realisation."""

from __future__ import annotations

from typing import Optional

from repro.client.core import CoreClient
from repro.daif import messages as msg
from repro.soap.addressing import EndpointReference
from repro.xmlutil import XmlElement


class FilesClient(CoreClient):
    """FileCollectionAccess / FileSelectionFactory / FileSetAccess."""

    def list_files(
        self, address: str, abstract_name: str, path: str = ""
    ) -> msg.ListFilesResponse:
        request = msg.ListFilesRequest(abstract_name=abstract_name, path=path)
        return self.call(address, request)

    def get_file(
        self,
        address: str,
        abstract_name: str,
        path: str,
        offset: int = 0,
        length: Optional[int] = None,
    ) -> msg.GetFileResponse:
        request = msg.GetFileRequest(
            abstract_name=abstract_name, path=path, offset=offset, length=length
        )
        return self.call(address, request)

    def put_file(
        self, address: str, abstract_name: str, path: str, content: bytes
    ) -> msg.PutFileResponse:
        request = msg.PutFileRequest(
            abstract_name=abstract_name, path=path, content=content
        )
        return self.call(address, request)

    def delete_file(
        self, address: str, abstract_name: str, path: str
    ) -> msg.DeleteFileResponse:
        request = msg.DeleteFileRequest(abstract_name=abstract_name, path=path)
        return self.call(address, request)

    def file_selection_factory(
        self,
        address: str,
        abstract_name: str,
        pattern: str,
        configuration: Optional[XmlElement] = None,
        execution_mode: str = "",
    ) -> msg.FileSelectionFactoryResponse:
        request = msg.FileSelectionFactoryRequest(
            abstract_name=abstract_name,
            expression=pattern,
            configuration_document=configuration,
            execution_mode=execution_mode,
        )
        return self.call(address, request)

    def get_fileset_members(
        self,
        epr: EndpointReference,
        abstract_name: str,
        start_position: int,
        count: int,
    ) -> tuple[list[str], int]:
        request = msg.GetFileSetMembersRequest(
            abstract_name=abstract_name,
            start_position=start_position,
            count=count,
        )
        response = self.call(epr, request)
        return response.members, response.total_members
