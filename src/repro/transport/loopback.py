"""The in-process transport.

Performs the full serialize→bytes→parse round trip on both legs so the
message structure is exercised exactly as over a socket, while staying
deterministic and fast enough for property tests and benchmarks.
"""

from __future__ import annotations

from repro.core.faults import ServiceNotFoundFault
from repro.core.registry import ServiceRegistry
from repro.obs import MetricsRegistry, get_tracer
from repro.resilience import coerce_resilience
from repro.soap.envelope import Envelope, fault_envelope
from repro.soap.fault import SoapFault
from repro.soap.tracecontext import inject
from repro.transport.wire import CallRecord, NetworkModel, WireStats


class LoopbackTransport:
    """Dispatches envelopes through a :class:`ServiceRegistry` in-process."""

    def __init__(
        self,
        registry: ServiceRegistry,
        network: NetworkModel | None = None,
        resilience=None,
    ) -> None:
        self._registry = registry
        self._network = network if network is not None else NetworkModel()
        #: Optional retry/breaker layer (a ``Resilience`` or bare
        #: ``RetryPolicy``); every ``send`` routes through it when set.
        self.resilience = coerce_resilience(resilience)
        self.stats = WireStats()
        #: Client-side metrics: request counts and wire bytes per action.
        self.metrics = MetricsRegistry()
        self._requests = self.metrics.counter(
            "rpc.client.requests", "requests sent per wsa:Action"
        )
        self._request_bytes = self.metrics.counter(
            "rpc.client.request.bytes", "request bytes per wsa:Action"
        )
        self._response_bytes = self.metrics.counter(
            "rpc.client.response.bytes", "response bytes per wsa:Action"
        )
        self._faults = self.metrics.counter(
            "rpc.client.faults", "fault responses per wsa:Action"
        )

    @property
    def registry(self) -> ServiceRegistry:
        return self._registry

    def send(self, address: str, request: Envelope) -> Envelope:
        """Send *request* to the service at *address*; returns the
        response envelope (which may carry a fault — callers decide
        whether to raise via :meth:`Envelope.raise_if_fault`).

        With a :attr:`resilience` layer installed, the call is retried
        and breaker-guarded per its policy."""
        if self.resilience is None:
            return self._send_once(address, request)
        return self.resilience.call(address, request, self._send_once)

    def _send_once(self, address: str, request: Envelope) -> Envelope:
        action = request.headers.action
        with get_tracer().span(
            "rpc.send", transport="loopback", address=address, action=action
        ) as span:
            request_bytes = inject(request).to_bytes()
            try:
                service = self._registry.service_at(address)
            except LookupError as exc:
                # Same fault shape the HTTP binding produces for an
                # unknown path, so consumers see one behaviour.
                response = fault_envelope(
                    request.headers, ServiceNotFoundFault(str(exc))
                )
                span.mark_fault()
            else:
                response = service.dispatch(Envelope.from_bytes(request_bytes))
            try:
                response_bytes = response.to_bytes()
            except SoapFault as fault:
                # A lazy payload faulted while it was drained (a row the
                # statement cannot produce): no byte has left, so the
                # consumer gets the fault envelope the HTTP binding sends.
                response = fault_envelope(request.headers, fault)
                response_bytes = response.to_bytes()
            modeled = self._network.transfer_time(
                len(request_bytes)
            ) + self._network.transfer_time(len(response_bytes))
            self._record(
                action, len(request_bytes), len(response_bytes), response
            )
            span.set_attributes(
                request_bytes=len(request_bytes),
                response_bytes=len(response_bytes),
                modeled_seconds=modeled,
            )
            self.stats.record(
                CallRecord(
                    address=address,
                    action=action,
                    request_bytes=len(request_bytes),
                    response_bytes=len(response_bytes),
                    modeled_seconds=modeled,
                )
            )
            return Envelope.from_bytes(response_bytes)

    def _record(
        self, action: str, sent: int, received: int, response: Envelope
    ) -> None:
        self._requests.inc(action=action)
        self._request_bytes.inc(sent, action=action)
        self._response_bytes.inc(received, action=action)
        if response.is_fault():
            self._faults.inc(action=action)
