"""The data service: resource bindings, operation dispatch, two profiles.

A :class:`DataService` represents zero or more data resources (paper §3)
and exposes operations keyed by ``wsa:Action``.  The service always
implements the ``CoreDataAccess`` operations; ``CoreResourceList`` is on
by default (it is optional in the spec, so it can be disabled); the WSRF
profile adds fine-grained property access and soft-state lifetime
(paper §5) without changing any message body.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Iterable, Optional

from repro.core import messages as msg
from repro.core import wsrf_messages as wmsg
from repro.core.faults import (
    InvalidResourceNameFault,
    NotAuthorizedFault,
    ServiceBusyFault,
)
from repro.core.names import AbstractName
from repro.core.propcache import PropertyDocumentCache
from repro.core.properties import ConfigurableProperties
from repro.core.resource import DataResource
from repro.jobs import messages as jmsg
from repro.obs import MetricsRegistry, get_tracer
from repro.obs.journal import get_journal, journal_element, record_event
from repro.obs.properties import metrics_element
from repro.soap.addressing import EndpointReference, MessageHeaders
from repro.soap.envelope import Envelope, fault_envelope
from repro.soap.fault import FaultCode, SoapFault
from repro.soap.tracecontext import extract_context
from repro.wsrf.clock import Clock
from repro.wsrf.faults import WsrfFault
from repro.wsrf.lifetime import LifetimeManager
from repro.wsrf.namespaces import WSRF_RL_NS
from repro.wsrf.properties import PropertyAccess
from repro.xmlutil import E, QName, XmlElement, serialize_bytes
from repro.core.namespaces import WSDAI_NS

#: The reference-parameter tag DAIS puts in data resource EPRs.
RESOURCE_REFERENCE_PARAMETER = QName(WSDAI_NS, "DataResourceAbstractName")

#: A handler takes the decoded request message — or, registered without
#: a request class, the raw payload element — and the message headers.
Handler = Callable[[Any, MessageHeaders], msg.DaisMessage]


class ResourceBinding:
    """One service↔resource relationship and its configurable properties."""

    def __init__(
        self,
        resource: DataResource,
        configurable: ConfigurableProperties,
        service: "DataService",
    ) -> None:
        self.resource = resource
        self.configurable = configurable
        self._service = service
        #: How many independent service↔resource relationships share this
        #: binding.  A shared derived resource (factory result reuse)
        #: raises it via :meth:`DataService.acquire_resource`; explicit
        #: destroys release claims one at a time and only the last claim
        #: actually destroys (soft-state expiry ignores claims — a
        #: passed termination time ends the resource for every holder).
        self.refcount = 1

    @property
    def abstract_name(self) -> str:
        return self.resource.abstract_name

    def property_document(self) -> XmlElement:
        """Render the current property document (WSRF provider protocol).

        The service's live metrics ride along as a ``ServiceMetrics``
        extension element, so consumers can read them through the
        standard property operations (paper §5).  When a span exporter
        or the journal has dropped records at capacity, the drop counts
        ride along too — eviction is observable, never silent.  The
        resource's lifecycle history is the ``LifecycleJournal``
        property element.

        Only the resource's *own* document is cacheable (see
        :meth:`DataService._resource_document`); the metrics, journal,
        resilience and job-set elements are volatile and are appended
        fresh on every read (:meth:`_volatile_properties`).
        """
        document = self._service._resource_document(self, reply=False)
        document.extend(self._volatile_properties())
        return document

    def reply_document(self) -> XmlElement:
        """The same document for a ``Get*PropertyDocument`` reply.

        Serialized, it is byte-identical to :meth:`property_document`;
        on a cache hit its cached part is the entry's stored rendering
        (a :class:`~repro.xmlutil.RenderedElement`) and only the
        volatile properties are built, so nothing cached is walked or
        copied.  Its tree API sees only those properties — it is meant
        to be written, and readers use :meth:`property_document`."""
        document = self._service._resource_document(self, reply=True)
        document.extend(self._volatile_properties())
        return document

    def _volatile_properties(self) -> list[XmlElement]:
        journal = get_journal()
        extra = []
        exporter = get_tracer().exporter
        if exporter is not None:
            extra.append(
                ("obs.spans.dropped", {}, getattr(exporter, "dropped", 0))
            )
        if journal.dropped:
            extra.append(("obs.journal.dropped", {}, journal.dropped))
        properties = [
            metrics_element(self._service.metrics, extra_counters=extra),
            journal_element(journal.events(resource=self.abstract_name)),
        ]
        resilience = self._service.resilience
        if resilience is not None:
            properties.append(resilience.status_element())
        jobs = self._service.jobs
        if jobs is not None:
            properties.append(
                jmsg.job_set_element(
                    [
                        job
                        for job in jobs.jobs()
                        if job.payload.get("resource") == self.abstract_name
                    ]
                )
            )
        return properties

    def require_readable(self) -> None:
        if not self.configurable.readable:
            raise NotAuthorizedFault(
                f"resource {self.abstract_name} is not readable"
            )

    def require_writeable(self) -> None:
        if not self.configurable.writeable:
            raise NotAuthorizedFault(
                f"resource {self.abstract_name} is not writeable"
            )


class DataService:
    """A DAIS data service bound to zero or more data resources."""

    #: The operations, as data: port type → rows of (request class,
    #: handler method name[, wsa:Action when it is not the class's own]).
    #: Realisations extend the table; the constructor installs the port
    #: types it was given, :meth:`enable_jobs` the ``jobs`` one.
    OPERATIONS: dict[str, tuple[tuple, ...]] = {
        "core_data_access": (
            (msg.GenericQueryRequest, "_handle_generic_query"),
            (msg.DestroyDataResourceRequest, "_handle_destroy"),
            (
                msg.GetDataResourcePropertyDocumentRequest,
                "_handle_get_property_document",
            ),
        ),
        "core_resource_list": (
            (msg.GetResourceListRequest, "_handle_get_resource_list"),
            (msg.ResolveRequest, "_handle_resolve"),
        ),
        "wsrf": (
            (wmsg.GetResourcePropertyRequest, "_handle_get_resource_property"),
            (
                wmsg.GetMultipleResourcePropertiesRequest,
                "_handle_get_multiple_properties",
            ),
            (wmsg.QueryResourcePropertiesRequest, "_handle_query_properties"),
            (wmsg.SetTerminationTimeRequest, "_handle_set_termination_time"),
            # WS-ResourceLifetime's immediate Destroy is an alias for the
            # DAIS DestroyDataResource semantics on this service.
            (
                msg.DestroyDataResourceRequest,
                "_handle_destroy",
                f"{WSRF_RL_NS}/Destroy",
            ),
        ),
        "jobs": (
            (jmsg.GetJobStatusRequest, "_handle_get_job_status"),
            (jmsg.CancelJobRequest, "_handle_cancel_job"),
        ),
    }

    def __init__(
        self,
        name: str,
        address: str,
        wsrf: bool = False,
        resource_list_enabled: bool = True,
        clock: Clock | None = None,
        property_namespaces: dict[str, str] | None = None,
        max_concurrent: int | None = None,
    ) -> None:
        self.name = name
        self.address = address
        self.wsrf = wsrf
        #: Guards the service↔resource table.  An RLock because a
        #: lifetime destructor (running under this lock via
        #: ``destroy_resource``) pops from the same table.
        self._resources_lock = threading.RLock()
        self._bindings: dict[str, ResourceBinding] = {}
        self._handlers: dict[str, tuple[Optional[type], Handler]] = {}
        self._property_namespaces = dict(property_namespaces or {})
        self._property_namespaces.setdefault("wsdai", WSDAI_NS)
        self.lifetime = LifetimeManager(clock) if wsrf else None
        #: Failure injection: when set, every dispatch faults ServiceBusy.
        self.fail_busy = False
        #: When this service also acts as a consumer, attach its outbound
        #: :class:`repro.resilience.Resilience` layer here: its breaker
        #: states then publish as the ``obs:ResilienceStatus`` property.
        self.resilience = None
        #: The durable job queue this service's factories submit into
        #: when a consumer requests ``ExecutionMode=asynchronous``; None
        #: (the default) keeps every factory strictly synchronous.  Set
        #: via :meth:`enable_jobs`.
        self.jobs = None
        #: The ConcurrentAccess limit: None = unbounded.  Exceeding it
        #: (possible under the threaded HTTP binding) faults ServiceBusy.
        self.max_concurrent = max_concurrent
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        #: Per-service metrics (dispatch counts, latency, faults); exposed
        #: to consumers through the property document (ServiceMetrics).
        self.metrics = MetricsRegistry()
        #: Cache of resource property documents (master + rendering).
        self.propdoc_cache = PropertyDocumentCache()
        self.propdoc_cache.bind_counters(
            self.metrics.counter(
                "cache.propdoc.hits", "property-document cache hits"
            ),
            self.metrics.counter(
                "cache.propdoc.misses", "property-document cache misses"
            ),
            self.metrics.counter(
                "cache.propdoc.invalidations",
                "property-document cache invalidations",
            ),
        )
        self._dispatch_counter = self.metrics.counter(
            "dais.dispatch.count", "dispatches per wsa:Action"
        )
        self._fault_counter = self.metrics.counter(
            "dais.dispatch.faults", "fault responses per wsa:Action"
        )
        self._dispatch_seconds = self.metrics.histogram(
            "dais.dispatch.seconds", "dispatch wall-clock seconds"
        )

        port_types = ["core_data_access"]
        if resource_list_enabled:
            port_types.append("core_resource_list")
        if wsrf:
            port_types.append("wsrf")
        self.install_port_types(port_types)

    # -- resource management ---------------------------------------------------

    def add_resource(
        self,
        resource: DataResource,
        configurable: ConfigurableProperties | None = None,
        lifetime_seconds: float | None = None,
    ) -> ResourceBinding:
        """Bind *resource* to this service.

        *lifetime_seconds* only applies under the WSRF profile (soft
        state); without WSRF the resource lives until explicit destroy.
        """
        name = resource.abstract_name
        binding = ResourceBinding(
            resource, (configurable or ConfigurableProperties()).copy(), self
        )
        with self._resources_lock:
            if name in self._bindings:
                raise ValueError(
                    f"resource {name} already bound to {self.name}"
                )
            self._bindings[name] = binding
            if self.lifetime is not None:
                try:
                    self.lifetime.register(
                        name, self._destroy_by_lifetime, lifetime_seconds
                    )
                except BaseException:
                    del self._bindings[name]
                    raise
        return binding

    def resource_names(self) -> list[str]:
        with self._resources_lock:
            return sorted(self._bindings)

    def has_resource(self, abstract_name: str) -> bool:
        with self._resources_lock:
            return abstract_name in self._bindings

    def binding(self, abstract_name: str) -> ResourceBinding:
        with self._resources_lock:
            try:
                return self._bindings[abstract_name]
            except KeyError:
                raise InvalidResourceNameFault(
                    f"service {self.name!r} does not know resource "
                    f"{abstract_name!r}"
                ) from None

    def acquire_resource(self, abstract_name: str) -> bool:
        """Add one claim on an existing binding (shared derived results).

        Returns ``False`` when the resource is already gone — the caller
        (the factory result cache) must then treat its entry as stale.
        The claim is released by :meth:`destroy_resource`: only the last
        release actually destroys.
        """
        with self._resources_lock:
            binding = self._bindings.get(abstract_name)
            if binding is None:
                return False
            binding.refcount += 1
            return True

    def destroy_resource(self, abstract_name: str) -> None:
        """Sever the service↔resource relationship (paper §4.3).

        Safe against racing destroyers: the check-then-act on the
        binding table happens under the resource lock, and the lifetime
        route is idempotent — when an explicit destroy, a sweep and a
        WSRF ``Destroy`` race, exactly one runs ``on_destroy``.

        A binding holding several claims (see :meth:`acquire_resource`)
        just sheds one claim here; the relationship persists for the
        other holders and only the final destroy tears it down.
        """
        with self._resources_lock:
            binding = self.binding(abstract_name)  # faults when unknown
            if binding.refcount > 1:
                binding.refcount -= 1
                record_event(
                    "released",
                    abstract_name,
                    service=self.name,
                    remaining=binding.refcount,
                )
                return
            via_lifetime = (
                self.lifetime is not None
                and self.lifetime.registered(abstract_name)
            )
            if not via_lifetime:
                del self._bindings[abstract_name]
        if via_lifetime:
            # Route through the lifetime manager so records stay
            # coherent; losing the claim to a concurrent sweep is fine.
            self.lifetime.destroy(abstract_name, missing_ok=True)
            return
        self.propdoc_cache.invalidate(abstract_name)
        binding.resource.on_destroy()

    def _destroy_by_lifetime(self, abstract_name: str) -> None:
        with self._resources_lock:
            binding = self._bindings.pop(abstract_name, None)
        if binding is not None:
            self.propdoc_cache.invalidate(abstract_name)
            binding.resource.on_destroy()

    def sweep_expired(self) -> list[str]:
        """WSRF soft state: destroy resources past their termination time."""
        if self.lifetime is None:
            return []
        return self.lifetime.sweep()

    # -- property-document cache -------------------------------------------

    def _resource_document(
        self, binding: ResourceBinding, reply: bool
    ) -> XmlElement:
        """The resource's own property document, served from the cache.

        A miss renders the live document, serializes it and stores the
        bytes; the entry's master tree is parsed back from them, so no
        serve aliases mutable catalog state.  Every serve, the fill's
        included, then comes from the entry: for a *reply* the stored
        rendering, otherwise a deep copy of the master — the two write
        the same bytes.  A resource whose
        :meth:`~repro.core.resource.DataResource.property_version` is
        ``None`` renders directly.
        """
        cache = self.propdoc_cache
        version = binding.resource.property_version()
        if version is None:
            return binding.resource.property_document(
                binding.configurable
            ).to_xml()
        key = binding.abstract_name
        entry = cache.lookup(key, version)
        if entry is None:
            document = binding.resource.property_document(
                binding.configurable
            ).to_xml()
            entry = cache.store(key, version, serialize_bytes(document))
        return entry.served() if reply else entry.tree()

    def epr_for(self, abstract_name: str) -> EndpointReference:
        """The data resource address: service address + abstract name as a
        reference parameter (paper §3)."""
        self.binding(abstract_name)  # existence check
        return EndpointReference(
            address=self.address,
            reference_parameters=(
                E(RESOURCE_REFERENCE_PARAMETER, abstract_name),
            ),
        )

    # -- operation registry ------------------------------------------------

    def register_operation(
        self,
        action: str,
        handler: Handler,
        request_cls: Optional[type[msg.DaisMessage]] = None,
    ) -> None:
        """Register *handler* for an action URI.  With *request_cls*,
        dispatch decodes the payload with it and hands the handler the
        message; without, the handler gets the payload element itself."""
        self._handlers[action] = (request_cls, handler)

    def install_port_types(self, port_types: Iterable[str]) -> None:
        """Register every row :attr:`OPERATIONS` lists under *port_types*."""
        for port_type in port_types:
            for request_cls, handler, *action in self.OPERATIONS[port_type]:
                self.register_operation(
                    action[0] if action else request_cls.action(),
                    getattr(self, handler),
                    request_cls,
                )

    def supports_action(self, action: str) -> bool:
        return action in self._handlers

    def actions(self) -> list[str]:
        return sorted(self._handlers)

    # -- dispatch ----------------------------------------------------------

    @property
    def dispatch_counts(self) -> dict[str, int]:
        """Dispatch count per action URI (a snapshot of the live counter)."""
        return {
            labels.get("action", ""): int(value)
            for labels, value in self._dispatch_counter.items()
        }

    def dispatch(self, request: Envelope) -> Envelope:
        """Process one request envelope; always returns a response
        envelope (success or fault).

        Every dispatch is one ``dais.dispatch`` span (action, resource
        abstract name, fault status) with a ``dais.handler`` child for
        the handler body, and feeds the per-action metrics.  When the
        request carries an ``obs:TraceContext`` header and no in-process
        span is already open (a remote caller), the dispatch span adopts
        the caller's trace so consumer and service form one tree; when
        the target resource was created by a *different* trace (a
        factory product), that trace is recorded as a span link.
        """
        action = request.headers.action
        tracer = get_tracer()
        started = time.perf_counter()
        with tracer.span("dais.dispatch", service=self.name, action=action) as span:
            if span.recording:
                if span.parent_id is None:
                    context = extract_context(
                        request.headers.reference_parameters
                    )
                    if context is not None:
                        span.adopt(context.trace_id, context.parent_id)
                resource = request.payload.findtext(RESOURCE_REFERENCE_PARAMETER)
                if resource:
                    name = resource.strip()
                    span.set_attribute("resource", name)
                    with self._resources_lock:
                        binding = self._bindings.get(name)
                    creating = (
                        getattr(binding.resource, "creating_trace", None)
                        if binding is not None
                        else None
                    )
                    if creating and creating[0] != span.trace_id:
                        span.add_link(
                            creating[0], creating[1], relation="created-by"
                        )
            response = self._dispatch_guarded(request, action, tracer)
            self._dispatch_counter.inc(action=action)
            self._dispatch_seconds.observe(
                time.perf_counter() - started, action=action
            )
            if response.is_fault():
                span.mark_fault()
                self._fault_counter.inc(action=action)
            return response

    def _dispatch_guarded(
        self, request: Envelope, action: str, tracer
    ) -> Envelope:
        admitted = False
        try:
            if self.fail_busy:
                raise ServiceBusyFault(f"service {self.name!r} is busy")
            admitted = self._admit()
            if not admitted:
                raise ServiceBusyFault(
                    f"service {self.name!r} is at its concurrency limit "
                    f"({self.max_concurrent})"
                )
            if action not in self._handlers:
                raise SoapFault(
                    FaultCode.CLIENT, f"unsupported wsa:Action {action!r}"
                )
            request_cls, handler = self._handlers[action]
            with tracer.span("dais.handler", action=action):
                # Decoded inside the span and the fault boundary: a
                # malformed body is a fault envelope like any other.
                message = request.payload
                if request_cls is not None:
                    message = request_cls.from_xml(message)
                response_message = handler(message, request.headers)
            response = Envelope(
                headers=request.headers.reply(f"{action}Response"),
                payload=response_message.to_xml(),
            )
            # Said once here, so no transport walks the payload to
            # decide how to frame it.
            response.known_streaming = response_message.has_lazy_content()
            return response
        except SoapFault as fault:
            return fault_envelope(request.headers, fault)
        except Exception as exc:  # pragma: no cover - defensive boundary
            return fault_envelope(
                request.headers,
                SoapFault(FaultCode.SERVER, f"internal error: {exc}"),
            )
        finally:
            if admitted:
                self._release()

    def _admit(self) -> bool:
        with self._inflight_lock:
            if (
                self.max_concurrent is not None
                and self._inflight >= self.max_concurrent
            ):
                return False
            self._inflight += 1
            return True

    def _release(self) -> None:
        with self._inflight_lock:
            self._inflight -= 1

    # -- CoreDataAccess handlers ----------------------------------------------

    def _handle_generic_query(
        self, request: msg.GenericQueryRequest, headers: MessageHeaders
    ) -> msg.GenericQueryResponse:
        binding = self.binding(request.abstract_name)
        binding.require_readable()
        from repro.core.faults import InvalidLanguageFault

        if request.language_uri not in binding.resource.generic_query_languages():
            raise InvalidLanguageFault(
                f"language {request.language_uri!r} not supported; "
                f"advertised: {binding.resource.generic_query_languages()}"
            )
        data = binding.resource.generic_query(
            request.language_uri, request.expression, request.parameters
        )
        return msg.GenericQueryResponse(
            dataset_format_uri=request.dataset_format_uri or "",
            data=data,
        )

    def _handle_destroy(
        self, request: msg.DestroyDataResourceRequest, headers: MessageHeaders
    ) -> msg.DestroyDataResourceResponse:
        self.destroy_resource(request.abstract_name)
        return msg.DestroyDataResourceResponse(destroyed=request.abstract_name)

    def _handle_get_property_document(
        self,
        request: msg.GetDataResourcePropertyDocumentRequest,
        headers: MessageHeaders,
    ) -> msg.GetDataResourcePropertyDocumentResponse:
        binding = self.binding(request.abstract_name)
        return msg.GetDataResourcePropertyDocumentResponse(
            document=binding.reply_document()
        )

    # -- CoreResourceList handlers ----------------------------------------------

    def _handle_get_resource_list(
        self, request: msg.GetResourceListRequest, headers: MessageHeaders
    ) -> msg.GetResourceListResponse:
        return msg.GetResourceListResponse(names=self.resource_names())

    def _handle_resolve(
        self, request: msg.ResolveRequest, headers: MessageHeaders
    ) -> msg.ResolveResponse:
        address = self.epr_for(request.abstract_name)
        record_event("resolved", request.abstract_name, service=self.name)
        return msg.ResolveResponse(address=address)

    # -- asynchronous jobs ----------------------------------------------------

    def enable_jobs(self, jobs, terminal_ttl: float | None = None) -> None:
        """Attach a :class:`repro.jobs.JobManager` and install the
        ``GetJobStatus``/``CancelJob`` operations.

        Factories on this service then honour
        ``ExecutionMode=asynchronous`` (realisations override this to
        register their executors).  Under the WSRF profile,
        *terminal_ttl* gives finished job records a soft-state
        termination time via the service's LifetimeManager, so the job
        table does not grow without bound.
        """
        self.jobs = jobs
        if self.lifetime is not None and terminal_ttl is not None:
            jobs.attach_lifetime(self.lifetime, terminal_ttl)
        self.install_port_types(["jobs"])

    def _job_or_fault(self, job_id: str):
        from repro.core.faults import UnknownJobFault
        from repro.jobs.manager import UnknownJobError

        if self.jobs is None:  # pragma: no cover - handlers install with jobs
            raise UnknownJobFault("asynchronous jobs are not enabled")
        try:
            return self.jobs.get(job_id)
        except UnknownJobError:
            raise UnknownJobFault(
                f"service {self.name!r} knows no job {job_id!r}"
            ) from None

    def _job_status_response(self, job):
        from repro.jobs.model import COMPLETED

        response = jmsg.GetJobStatusResponse(
            job_id=job.job_id,
            phase=job.phase,
            attempts=job.attempts,
            cancel_requested=job.cancel_requested,
            fault_type=job.fault_type,
            fault_message=job.fault_message,
        )
        if job.phase == COMPLETED and job.result:
            name = job.result.get("abstract_name", "")
            address = job.result.get("address", "")
            response.result_name = name
            if address and name:
                # Reconstruct the data resource address the synchronous
                # factory response would have carried (paper §3).
                response.address = EndpointReference(
                    address=address,
                    reference_parameters=(
                        E(RESOURCE_REFERENCE_PARAMETER, name),
                    ),
                )
        return response

    def _handle_get_job_status(
        self, request: jmsg.GetJobStatusRequest, headers: MessageHeaders
    ):
        return self._job_status_response(self._job_or_fault(request.abstract_name))

    def _handle_cancel_job(
        self, request: jmsg.CancelJobRequest, headers: MessageHeaders
    ):
        self._job_or_fault(request.abstract_name)
        job = self.jobs.cancel(request.abstract_name)
        return jmsg.CancelJobResponse(job_id=job.job_id, phase=job.phase)

    # -- WSRF handlers -------------------------------------------------------

    def _property_access(self, binding: ResourceBinding) -> PropertyAccess:
        return PropertyAccess(binding, namespaces=self._property_namespaces)

    def _handle_get_resource_property(
        self, request: wmsg.GetResourcePropertyRequest, headers: MessageHeaders
    ) -> wmsg.GetResourcePropertyResponse:
        binding = self.binding(request.abstract_name)
        if request.property_qname is None:
            raise WsrfFault("GetResourceProperty requires a property QName")
        return wmsg.GetResourcePropertyResponse(
            properties=self._property_access(binding).get(request.property_qname)
        )

    def _handle_get_multiple_properties(
        self,
        request: wmsg.GetMultipleResourcePropertiesRequest,
        headers: MessageHeaders,
    ) -> wmsg.GetMultipleResourcePropertiesResponse:
        binding = self.binding(request.abstract_name)
        return wmsg.GetMultipleResourcePropertiesResponse(
            properties=self._property_access(binding).get_multiple(
                request.property_qnames
            )
        )

    def _handle_query_properties(
        self, request: wmsg.QueryResourcePropertiesRequest, headers: MessageHeaders
    ) -> wmsg.QueryResourcePropertiesResponse:
        binding = self.binding(request.abstract_name)
        return wmsg.QueryResourcePropertiesResponse(
            properties=self._property_access(binding).query(
                request.query, request.dialect
            )
        )

    def _handle_set_termination_time(
        self, request: wmsg.SetTerminationTimeRequest, headers: MessageHeaders
    ) -> wmsg.SetTerminationTimeResponse:
        self.binding(request.abstract_name)
        if self.lifetime is None:  # pragma: no cover - wsrf only installs this
            raise WsrfFault("service runs the non-WSRF profile")
        record = self.lifetime.set_termination_time(
            request.abstract_name, request.requested_termination_time
        )
        # A lifetime transition changes what a property read should
        # reflect without touching the resource's version stamp.
        self.propdoc_cache.invalidate(request.abstract_name)
        return wmsg.SetTerminationTimeResponse(
            new_termination_time=record.termination_time,
            current_time=record.current_time,
        )
