"""WS-DAIF message payloads."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Optional

from repro.core.codec import (
    BASE64,
    FLOAT,
    INT,
    NOT_NONE,
    TRUTHY,
    Attribute,
    Records,
    Repeated,
    Scalar,
)
from repro.core.messages import DaisMessage, DaisRequest, FactoryRequest, FactoryResponse
from repro.daif.namespaces import WSDAIF_NS
from repro.xmlutil import QName


def _q(local: str) -> QName:
    return QName(WSDAIF_NS, local)


_PATH = Scalar("path", _q("Path"))
_CONTENT = Scalar("content", _q("Content"), BASE64)


@dataclass
class ListFilesRequest(DaisRequest):
    TAG: ClassVar[QName] = _q("ListFilesRequest")

    path: str = ""

    WIRE = (_PATH,)


@dataclass
class ListFilesResponse(DaisMessage):
    TAG: ClassVar[QName] = _q("ListFilesResponse")

    #: (name, size, modified) triples.
    files: list[tuple[str, int, float]] = field(default_factory=list)
    directories: list[str] = field(default_factory=list)

    WIRE = (
        Records(
            "files",
            _q("File"),
            (
                Attribute("name", "name", default=""),
                Attribute("size", "size", INT, default=0),
                Attribute("modified", "modified", FLOAT, default=0.0),
            ),
        ),
        Repeated("directories", _q("Directory"), attribute="name"),
    )


@dataclass
class GetFileRequest(DaisRequest):
    TAG: ClassVar[QName] = _q("GetFileRequest")

    path: str = ""
    offset: int = 0
    length: Optional[int] = None

    WIRE = (
        _PATH,
        Scalar("offset", _q("Offset"), INT, emit=TRUTHY),
        Scalar("length", _q("Length"), INT, emit=NOT_NONE),
    )


@dataclass
class GetFileResponse(DaisMessage):
    TAG: ClassVar[QName] = _q("GetFileResponse")

    path: str = ""
    content: bytes = b""
    total_size: int = 0

    WIRE = (_PATH, Scalar("total_size", _q("TotalSize"), INT), _CONTENT)


@dataclass
class PutFileRequest(DaisRequest):
    TAG: ClassVar[QName] = _q("PutFileRequest")

    path: str = ""
    content: bytes = b""

    WIRE = (_PATH, _CONTENT)


@dataclass
class PutFileResponse(DaisMessage):
    TAG: ClassVar[QName] = _q("PutFileResponse")

    path: str = ""
    size: int = 0

    WIRE = (_PATH, Scalar("size", _q("Size"), INT))


@dataclass
class DeleteFileRequest(GetFileRequest):
    TAG: ClassVar[QName] = _q("DeleteFileRequest")


@dataclass
class DeleteFileResponse(PutFileResponse):
    TAG: ClassVar[QName] = _q("DeleteFileResponse")


@dataclass
class FileSelectionFactoryRequest(FactoryRequest):
    """``expression`` carries the glob pattern."""

    TAG: ClassVar[QName] = _q("FileSelectionFactoryRequest")


@dataclass
class FileSelectionFactoryResponse(FactoryResponse):
    TAG: ClassVar[QName] = _q("FileSelectionFactoryResponse")


@dataclass
class GetFileSetMembersRequest(DaisRequest):
    TAG: ClassVar[QName] = _q("GetFileSetMembersRequest")

    start_position: int = 0
    count: int = 0

    WIRE = (
        Scalar("start_position", _q("StartPosition"), INT),
        Scalar("count", _q("Count"), INT),
    )


@dataclass
class GetFileSetMembersResponse(DaisMessage):
    TAG: ClassVar[QName] = _q("GetFileSetMembersResponse")

    members: list[str] = field(default_factory=list)
    total_members: int = 0

    WIRE = (
        Scalar("total_members", _q("TotalMembers"), INT),
        Repeated("members", _q("Member")),
    )
