"""Consumer proxy for the WS-DAI core operations, and the request/
response machinery every client shares."""

from __future__ import annotations

import random
import time
from typing import Callable, Optional

from repro.core import messages as msg
from repro.core import wsrf_messages as wmsg
from repro.core.faults import (
    InvalidResourceNameFault,
    ServiceNotFoundFault,
    TransportFault,
)
from repro.core.messages import DaisMessage, response_class
from repro.core.propcache import held_block, is_unchanged, reply_stamp
from repro.wsrf.faults import ResourceUnknownFault
from repro.jobs import messages as jmsg
from repro.jobs.model import ERROR, TERMINAL_PHASES
from repro.lru import VersionedLRU
from repro.resilience import coerce_resilience
from repro.resilience.policy import RetryPolicy
from repro.soap.addressing import EndpointReference, MessageHeaders
from repro.soap.envelope import Envelope
from repro.soap.fault import SoapFault
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

#: Property documents whose cached part a client keeps for conditional
#: reads (LRU beyond this); docs/CACHING.md gives the memory per entry.
PROPERTY_DOCUMENT_CAPACITY = 16


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


class CoreClient:
    """CoreDataAccess + CoreResourceList + WSRF property/lifetime calls.

    Every proxy (WS-DAI core, WS-DAIR, WS-DAIX, files) descends from
    this class, so all of them accept a *resilience* layer — either a
    :class:`repro.resilience.Resilience` instance or a bare
    :class:`~repro.resilience.RetryPolicy` — which is installed on the
    transport: retries, backoff and circuit breaking then apply to every
    call made through it.

    :meth:`resolve` results are cached per ``(address, abstract_name)``
    in a :class:`~repro.lru.VersionedLRU` of
    :data:`RESOLVE_CACHE_CAPACITY` entries — an EPR is stable for the
    life of the resource, so re-resolving on every interaction only
    burns round trips.  Entries carry no version stamp; the cache
    self-corrects on typed faults instead: a
    :class:`ServiceNotFoundFault` from an address drops every EPR cached
    against it, and a resource-name fault (unknown, invalid, or
    WSRF-expired) drops the one entry it names.

    Every ``Get*PropertyDocument`` call is a conditional read
    (:mod:`repro.core.propcache`, :meth:`_property_document`), its
    state kept per ``(address, abstract_name)`` in a second
    :class:`~repro.lru.VersionedLRU`.
    """

    def __init__(self, transport, resilience=None) -> None:
        self._transport = transport
        layer = coerce_resilience(resilience)
        if layer is not None:
            transport.resilience = layer
        self._resolved = VersionedLRU(RESOLVE_CACHE_CAPACITY)
        self._documents = VersionedLRU(PROPERTY_DOCUMENT_CAPACITY)
        metrics = getattr(transport, "metrics", None)
        if metrics is not None:  # every shipped transport has metrics
            self._documents.bind_counters(
                metrics.counter(
                    "cache.propdoc.held.hits",
                    "property-document reads sent holding a stamp",
                ),
                metrics.counter(
                    "cache.propdoc.held.misses",
                    "property-document reads sent holding none",
                ),
                metrics.counter(
                    "cache.propdoc.held.invalidations",
                    "held cached parts dropped by a new stamp or a fault",
                ),
            )
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

    @property
    def transport(self):
        return self._transport

    def call(
        self, target: str | EndpointReference, request: DaisMessage
    ) -> DaisMessage:
        """One request/response round trip; raises typed DAIS faults.

        *target* is a service address or a data resource address (EPR).
        An EPR's reference parameters (carrying the abstract name) are
        echoed in the SOAP header, per WS-Addressing — while the
        abstract name also travels in the body, per DAIS.  The reply is
        decoded as :func:`~repro.core.messages.response_class` of the
        request; a reply whose body element is any other is a
        :class:`TransportFault`.
        """
        return _decoded(request, self._exchange(target, request))

    def _exchange(
        self,
        target: str | EndpointReference,
        request: DaisMessage,
        blocks: tuple[XmlElement, ...] = (),
    ) -> Envelope:
        """Send *request* with the extension header *blocks*; the reply
        envelope, or its fault raised."""
        if isinstance(target, EndpointReference):
            address, parameters = target.address, target.reference_parameters
        else:
            address, parameters = target, ()
        envelope = Envelope(
            headers=MessageHeaders(
                to=address,
                action=type(request).action(),
                reference_parameters=parameters + blocks,
            ),
            payload=request.to_xml(),
        )
        response = self._transport.send(address, envelope)
        try:
            response.raise_if_fault()
        except SoapFault as fault:
            # Drop the cached EPRs the fault contradicts.  The call may
            # have travelled through a cached EPR (so *address* is the
            # EPR's own) or named the resource directly: either way the
            # stale entries match on the key's or the EPR's address.
            name = getattr(request, "abstract_name", None)
            if isinstance(fault, ServiceNotFoundFault):
                name = None  # every entry for the address
            elif name is None or not isinstance(
                fault, (InvalidResourceNameFault, ResourceUnknownFault)
            ):
                raise
            for key, epr in self._resolved.items():
                if (name is None or key[1] == name) and (
                    key[0] == address or epr.address == address
                ):
                    self._resolved.invalidate(key)
            raise
        return response

    def _property_document(
        self, target: str | EndpointReference, request: DaisMessage
    ) -> XmlElement:
        """Every ``Get*PropertyDocument`` call: a conditional read.

        The request holds the stamp kept for the resource, or an empty
        one.  An ``Unchanged`` reply gets a copy of the kept part in
        place of its marker; a full reply's part is kept (a copy, so the
        caller's document aliases nothing kept).  An ``Unchanged`` that
        cannot be grafted is asked again holding no stamp, so no marker
        is ever returned.
        """
        address = getattr(target, "address", target)
        key = (address, str(request.abstract_name))
        held = self._documents.lookup(key)
        for holding in (held, None):
            block = held_block(holding[0] if holding else "")
            try:
                reply = self._exchange(target, request, (block,))
            except SoapFault:
                self._documents.invalidate(key)
                raise
            document = document_of(_decoded(request, reply))
            stamp = reply_stamp(reply.headers.reference_parameters)
            children = document.children
            if not is_unchanged(document):
                self._documents.invalidate(key)
                if stamp is not None and stamp[1] <= len(children):
                    part = XmlElement(document.tag, {}, children[: stamp[1]])
                    self._documents.store(key, None, (stamp[0], part.copy()))
                return document
            if holding is not None and stamp == (
                holding[0], len(holding[1].children)
            ):
                document.children = holding[1].copy().children + children[1:]
                return document
            self._documents.invalidate(key)
        raise TransportFault(
            f"{request.TAG.clark()} was answered Unchanged holding no stamp"
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
        return self.call(address, request)

    def destroy(self, address: str, abstract_name: str) -> str:
        request = msg.DestroyDataResourceRequest(abstract_name=abstract_name)
        return self.call(address, request).destroyed

    def get_property_document(
        self, address: str, abstract_name: str
    ) -> XmlElement:
        request = msg.GetDataResourcePropertyDocumentRequest(
            abstract_name=abstract_name
        )
        return self._property_document(address, request)

    # -- CoreResourceList ---------------------------------------------------

    def list_resources(self, address: str) -> list[str]:
        return self.call(address, msg.GetResourceListRequest()).names

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
        request = msg.ResolveRequest(abstract_name=abstract_name)
        epr = self.call(address, request).address
        if epr is None:
            raise ValueError(f"service could not resolve {abstract_name!r}")
        return self._resolved.store(key, None, epr)

    # -- asynchronous jobs ----------------------------------------------------

    def get_job_status(
        self, address: str, job_id: str
    ) -> jmsg.GetJobStatusResponse:
        """One GetJobStatus round trip (the job id rides the abstract-
        name slot, like every other DAIS request)."""
        return self.call(address, jmsg.GetJobStatusRequest(abstract_name=job_id))

    def cancel_job(self, address: str, job_id: str) -> jmsg.CancelJobResponse:
        """Request cancellation; the response's phase says what won."""
        return self.call(address, jmsg.CancelJobRequest(abstract_name=job_id))

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
        request = wmsg.GetResourcePropertyRequest(
            abstract_name=abstract_name, property_qname=property_qname
        )
        return self.call(address, request).properties

    def get_multiple_resource_properties(
        self, address: str, abstract_name: str, property_qnames: list[QName]
    ) -> list[XmlElement]:
        request = wmsg.GetMultipleResourcePropertiesRequest(
            abstract_name=abstract_name, property_qnames=property_qnames
        )
        return self.call(address, request).properties

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
        return self.call(address, request).properties

    def set_termination_time(
        self,
        address: str,
        abstract_name: str,
        termination_time: Optional[float],
    ) -> wmsg.SetTerminationTimeResponse:
        request = wmsg.SetTerminationTimeRequest(
            abstract_name=abstract_name,
            requested_termination_time=termination_time,
        )
        return self.call(address, request)


def _decoded(request: DaisMessage, response: Envelope) -> DaisMessage:
    """*response*'s body decoded as the reply to *request*; any other
    body element is a :class:`TransportFault`."""
    response_cls = response_class(type(request))
    if response.payload.tag != response_cls.TAG:
        raise TransportFault(
            f"{request.TAG.clark()} was answered by "
            f"{response.payload.tag.clark()}, not {response_cls.TAG.clark()}"
        )
    return response_cls.from_xml(response.payload)


def document_of(response: DaisMessage) -> XmlElement:
    """The document a ``Get*PropertyDocument`` reply carries."""
    if response.document is None:
        raise ValueError(f"empty property document in {response.TAG.local}")
    return response.document
