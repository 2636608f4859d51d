"""Job status / cancel message payloads and the job-phase property.

Jobs are addressed like WS-Resources: the job id (a URI) travels in the
mandatory ``DataResourceAbstractName`` body slot, exactly as every
other DAIS request addresses its target — the framework stays identical
with and without WSRF (paper §3/§5), and the same holds for jobs.

``GetJobStatusResponse`` carries the phase, the attempt count, and —
once the job is COMPLETED — the derived data resource's EPR and
abstract name, i.e. exactly what the synchronous factory response would
have carried.  An ERROR job carries the *original* fault's typed name
and message, which :func:`fault_from_status` rehydrates into the typed
DAIS exception on the consumer side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Optional

from repro.core.codec import BOOL, INT, TRUTHY, Address, Group, Scalar
from repro.core.faults import fault_class_for
from repro.core.messages import DaisMessage, DaisRequest
from repro.jobs.model import ERROR, Job
from repro.jobs.namespaces import WSDAIJ_NS
from repro.soap.addressing import EndpointReference
from repro.soap.fault import FaultCode, SoapFault
from repro.xmlutil import E, QName, XmlElement


def _q(local: str) -> QName:
    return QName(WSDAIJ_NS, local)


#: QName of the job-status property element (GetResourceProperty target).
JOB_STATUS = _q("JobStatus")
#: QName of the per-resource job list property element.
JOB_SET = _q("JobSet")

_JOB_ID = Scalar("job_id", _q("JobID"))
_PHASE = Scalar("phase", _q("Phase"))
_RESULT_NAME = _q("ResultAbstractName")
#: The original fault of an ERROR job; written only when there is one.
_JOB_FAULT = Group(
    _q("JobFault"),
    (
        Scalar("fault_type", _q("FaultType")),
        Scalar("fault_message", _q("FaultMessage")),
    ),
    when="fault_type",
)


@dataclass
class GetJobStatusRequest(DaisRequest):
    """Poll one job's phase (the async half of the DALI sync/async split)."""

    TAG: ClassVar[QName] = _q("GetJobStatusRequest")


@dataclass
class GetJobStatusResponse(DaisMessage):
    TAG: ClassVar[QName] = _q("GetJobStatusResponse")

    job_id: str = ""
    phase: str = ""
    attempts: int = 0
    cancel_requested: bool = False
    #: EPR of the derived data resource, once COMPLETED.
    address: Optional[EndpointReference] = None
    #: Abstract name of the derived data resource, once COMPLETED.
    result_name: str = ""
    #: Original fault, once ERROR.
    fault_type: str = ""
    fault_message: str = ""

    WIRE = (
        _JOB_ID,
        _PHASE,
        Scalar("attempts", _q("Attempts"), INT),
        Scalar("cancel_requested", _q("CancelRequested"), BOOL, emit=TRUTHY),
        Address("address", _q("ResultAddress")),
        Scalar("result_name", _RESULT_NAME, emit=TRUTHY),
        _JOB_FAULT,
    )


@dataclass
class CancelJobRequest(DaisRequest):
    """Request cancellation; the response reports the phase that won."""

    TAG: ClassVar[QName] = _q("CancelJobRequest")


@dataclass
class CancelJobResponse(DaisMessage):
    """The job's phase after the cancel raced every other outcome.

    ``phase=CANCELLED`` means the cancel won; a terminal phase that is
    not CANCELLED means a completion or failure committed first — the
    cancel was a no-op, per the one-terminal-state rule.
    """

    TAG: ClassVar[QName] = _q("CancelJobResponse")

    job_id: str = ""
    phase: str = ""

    WIRE = (_JOB_ID, _PHASE)


# ---------------------------------------------------------------------------
# The job-phase WSRF property rendering
# ---------------------------------------------------------------------------


def job_status_element(job: Job, tag: QName = JOB_STATUS) -> XmlElement:
    """Render one job as the ``wsdaij:JobStatus`` property element."""
    node = E(
        tag,
        job=job.job_id,
        phase=job.phase,
        kind=job.kind,
        attempts=job.attempts,
        cancelRequested=True if job.cancel_requested else None,
    )
    if job.result and job.result.get("abstract_name"):
        node.append(E(_RESULT_NAME, job.result["abstract_name"]))
    _JOB_FAULT.encode(node, job)
    return node


def job_set_element(jobs: list[Job]) -> XmlElement:
    """Render *jobs* as the ``wsdaij:JobSet`` resource property — how a
    consumer reads job phases through the standard WSRF property
    operations instead of (or alongside) ``GetJobStatus``."""
    root = E(JOB_SET)
    for job in jobs:
        root.append(job_status_element(job))
    return root


def fault_from_status(status: GetJobStatusResponse) -> SoapFault:
    """Rehydrate an ERROR job's original fault as a typed exception."""
    if status.phase != ERROR:
        raise ValueError(f"job {status.job_id} is {status.phase}, not ERROR")
    message = status.fault_message or f"job {status.job_id} failed"
    cls = fault_class_for(status.fault_type)
    if cls is not None:
        return cls(message)
    return SoapFault(FaultCode.SERVER, f"{status.fault_type}: {message}")
