"""Consumer proxy for the WS-DAI core operations."""

from __future__ import annotations

import random
import time
from typing import Callable, Optional

from repro.client.base import DaisClient
from repro.core import messages as msg
from repro.core import wsrf_messages as wmsg
from repro.core.faults import InvalidResourceNameFault, ServiceNotFoundFault
from repro.core.messages import DaisMessage
from repro.wsrf.faults import ResourceUnknownFault
from repro.jobs import messages as jmsg
from repro.jobs.model import ERROR, TERMINAL_PHASES
from repro.lru import VersionedLRU
from repro.resilience.policy import RetryPolicy
from repro.soap.addressing import EndpointReference
from repro.xmlutil import QName, XmlElement

#: Default pacing for :meth:`CoreClient.wait_for_job`: frequent early
#: polls backing off exponentially, bounded overall — the same
#: :class:`RetryPolicy` shape the transport retry loop uses, reused as
#: a poll schedule.
DEFAULT_POLL_POLICY = RetryPolicy(
    max_attempts=60,
    base_delay=0.005,
    multiplier=2.0,
    max_delay=0.25,
    jitter="full",
    budget_seconds=30.0,
)


#: EPRs :meth:`CoreClient.resolve` keeps per client (LRU beyond this).
RESOLVE_CACHE_CAPACITY = 1024


class JobTimeoutError(TimeoutError):
    """The poll schedule ran out before the job reached a terminal phase.

    Carries the last observed status so the caller can keep polling,
    cancel, or report the in-flight phase.
    """

    def __init__(self, status: "jmsg.GetJobStatusResponse") -> None:
        super().__init__(
            f"job {status.job_id} still {status.phase} when the poll "
            "schedule was exhausted"
        )
        self.status = status


class CoreClient(DaisClient):
    """CoreDataAccess + CoreResourceList + WSRF property/lifetime calls.

    :meth:`resolve` results are cached per ``(address, abstract_name)``
    in a :class:`~repro.lru.VersionedLRU` of
    :data:`RESOLVE_CACHE_CAPACITY` entries — an EPR is stable for the
    life of the resource, so re-resolving on every interaction only
    burns round trips.  Entries carry no version stamp; the cache
    self-corrects on typed faults instead: a
    :class:`ServiceNotFoundFault` from an address drops every EPR cached
    against it, and a resource-name fault (unknown, invalid, or
    WSRF-expired) drops the one entry it names.
    """

    def __init__(self, transport, resilience=None) -> None:
        super().__init__(transport, resilience)
        self._resolved = VersionedLRU(RESOLVE_CACHE_CAPACITY)
        metrics = getattr(transport, "metrics", None)
        if metrics is not None:  # every shipped transport has metrics
            self._resolved.bind_counters(
                metrics.counter(
                    "cache.resolve.hits", "resolve() calls served from cache"
                ),
                metrics.counter(
                    "cache.resolve.misses", "resolve() calls sent on the wire"
                ),
                metrics.counter(
                    "cache.resolve.invalidations",
                    "cached EPRs dropped by a typed fault or a refresh",
                ),
            )

    # -- CoreDataAccess ------------------------------------------------------

    def generic_query(
        self,
        address: str,
        abstract_name: str,
        language_uri: str,
        expression: str,
        parameters: list[str] | None = None,
        dataset_format_uri: str | None = None,
    ) -> msg.GenericQueryResponse:
        request = msg.GenericQueryRequest(
            abstract_name=abstract_name,
            language_uri=language_uri,
            expression=expression,
            parameters=list(parameters or []),
            dataset_format_uri=dataset_format_uri,
        )
        return self.call(address, request, msg.GenericQueryResponse)

    def destroy(self, address: str, abstract_name: str) -> str:
        response = self.call(
            address,
            msg.DestroyDataResourceRequest(abstract_name=abstract_name),
            msg.DestroyDataResourceResponse,
        )
        return response.destroyed

    def get_property_document(
        self, address: str, abstract_name: str
    ) -> XmlElement:
        response = self.call(
            address,
            msg.GetDataResourcePropertyDocumentRequest(
                abstract_name=abstract_name
            ),
            msg.GetDataResourcePropertyDocumentResponse,
        )
        if response.document is None:
            raise ValueError("service returned an empty property document")
        return response.document

    # -- CoreResourceList ---------------------------------------------------

    def list_resources(self, address: str) -> list[str]:
        response = self.call(
            address, msg.GetResourceListRequest(), msg.GetResourceListResponse
        )
        return response.names

    def resolve(
        self, address: str, abstract_name: str, refresh: bool = False
    ) -> EndpointReference:
        """The EPR for *abstract_name*, cached across calls.

        ``refresh=True`` drops the cached entry first, so the call goes
        on the wire and the fresh EPR replaces it.
        """
        key = (address, abstract_name)
        if refresh:
            self._resolved.invalidate(key)
        cached = self._resolved.lookup(key)
        if cached is not None:
            return cached
        response = self.call(
            address,
            msg.ResolveRequest(abstract_name=abstract_name),
            msg.ResolveResponse,
        )
        if response.address is None:
            raise ValueError(f"service could not resolve {abstract_name!r}")
        return self._resolved.store(key, None, response.address)

    def _on_call_fault(self, address: str, request: DaisMessage, exc) -> None:
        """Drop cached EPRs contradicted by a typed fault.

        The faulting call may have travelled through a cached EPR (so
        *address* is the EPR's own address) or named the resource
        directly — either way the stale entries are found by matching
        both the cache key's address and the cached EPR's address.
        """
        if isinstance(exc, ServiceNotFoundFault):
            name = None  # every entry for the address
        elif isinstance(exc, (InvalidResourceNameFault, ResourceUnknownFault)):
            name = getattr(request, "abstract_name", None)
            if name is None:
                return
        else:
            return
        for key, epr in self._resolved.items():
            if (name is None or key[1] == name) and (
                key[0] == address or epr.address == address
            ):
                self._resolved.invalidate(key)

    # -- asynchronous jobs ----------------------------------------------------

    def get_job_status(
        self, address: str, job_id: str
    ) -> jmsg.GetJobStatusResponse:
        """One GetJobStatus round trip (the job id rides the abstract-
        name slot, like every other DAIS request)."""
        return self.call(
            address,
            jmsg.GetJobStatusRequest(abstract_name=job_id),
            jmsg.GetJobStatusResponse,
        )

    def cancel_job(self, address: str, job_id: str) -> jmsg.CancelJobResponse:
        """Request cancellation; the response's phase says what won."""
        return self.call(
            address,
            jmsg.CancelJobRequest(abstract_name=job_id),
            jmsg.CancelJobResponse,
        )

    def wait_for_job(
        self,
        address: str,
        job_id: str,
        policy: RetryPolicy | None = None,
        sleep: Callable[[float], None] = time.sleep,
        rng: random.Random | None = None,
        raise_on_error: bool = True,
    ) -> jmsg.GetJobStatusResponse:
        """Poll until the job reaches a terminal phase.

        *policy* is a :class:`~repro.resilience.RetryPolicy` reused as
        the poll schedule: ``max_attempts`` bounds the number of status
        calls, the backoff curve spaces them, and ``budget_seconds``
        caps the total wait.  *sleep* is injectable so tests drive the
        wait from a virtual clock.  An ERROR outcome re-raises the
        job's original typed DAIS fault (``raise_on_error=False``
        returns the status instead); running out of schedule raises
        :class:`JobTimeoutError` carrying the last status.
        """
        policy = policy or DEFAULT_POLL_POLICY
        rng = rng or random.Random()
        waited = 0.0
        status = self.get_job_status(address, job_id)
        for poll in range(1, policy.max_attempts):
            if status.phase in TERMINAL_PHASES:
                break
            delay = policy.delay(poll, rng)
            if (
                policy.budget_seconds is not None
                and waited + delay > policy.budget_seconds
            ):
                break
            sleep(delay)
            waited += delay
            status = self.get_job_status(address, job_id)
        if status.phase not in TERMINAL_PHASES:
            raise JobTimeoutError(status)
        if raise_on_error and status.phase == ERROR:
            raise jmsg.fault_from_status(status)
        return status

    # -- WSRF profile ---------------------------------------------------------

    def get_resource_property(
        self, address: str, abstract_name: str, property_qname: QName
    ) -> list[XmlElement]:
        response = self.call(
            address,
            wmsg.GetResourcePropertyRequest(
                abstract_name=abstract_name, property_qname=property_qname
            ),
            wmsg.GetResourcePropertyResponse,
        )
        return response.properties

    def get_multiple_resource_properties(
        self, address: str, abstract_name: str, property_qnames: list[QName]
    ) -> list[XmlElement]:
        response = self.call(
            address,
            wmsg.GetMultipleResourcePropertiesRequest(
                abstract_name=abstract_name, property_qnames=property_qnames
            ),
            wmsg.GetMultipleResourcePropertiesResponse,
        )
        return response.properties

    def query_resource_properties(
        self,
        address: str,
        abstract_name: str,
        query: str,
        dialect: Optional[str] = None,
    ) -> list[XmlElement]:
        request = wmsg.QueryResourcePropertiesRequest(
            abstract_name=abstract_name, query=query
        )
        if dialect is not None:
            request.dialect = dialect
        response = self.call(
            address, request, wmsg.QueryResourcePropertiesResponse
        )
        return response.properties

    def set_termination_time(
        self,
        address: str,
        abstract_name: str,
        termination_time: Optional[float],
    ) -> wmsg.SetTerminationTimeResponse:
        return self.call(
            address,
            wmsg.SetTerminationTimeRequest(
                abstract_name=abstract_name,
                requested_termination_time=termination_time,
            ),
            wmsg.SetTerminationTimeResponse,
        )
