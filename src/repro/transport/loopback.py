"""The in-process transport.

Performs the full serialize→bytes→parse round trip on both legs so the
message structure is exercised exactly as over a socket, while staying
deterministic and fast enough for property tests and benchmarks.
"""

from __future__ import annotations

from repro.core.faults import ServiceNotFoundFault
from repro.core.registry import ServiceRegistry
from repro.obs import get_tracer
from repro.soap.envelope import Envelope, fault_envelope
from repro.soap.fault import SoapFault
from repro.soap.tracecontext import inject
from repro.transport.wire import ClientTransport, NetworkModel


class LoopbackTransport(ClientTransport):
    """Dispatches envelopes through a :class:`ServiceRegistry` in-process."""

    def __init__(
        self,
        registry: ServiceRegistry,
        network: NetworkModel | None = None,
        resilience=None,
    ) -> None:
        super().__init__(network, resilience)
        self._registry = registry

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
            self._account(
                span,
                address,
                action,
                len(request_bytes),
                len(response_bytes),
                response.is_fault(),
            )
            return Envelope.from_bytes(response_bytes)
