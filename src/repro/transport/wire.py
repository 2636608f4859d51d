"""Wire accounting and the deterministic network model.

The paper's figures make claims about *who moves how many bytes where*
(direct vs indirect access, third-party delivery).  :class:`WireStats`
records exact request/response byte counts per call;
:class:`NetworkModel` converts them into a modeled transfer time
(latency + size/bandwidth) so benchmarks can report reproducible
"transfer cost" series independent of host speed.
:class:`ClientTransport` is what every client transport shares: the
retry hook and that per-call account.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs import MetricsRegistry
from repro.resilience import coerce_resilience


@dataclass(frozen=True)
class NetworkModel:
    """A fixed-latency, fixed-bandwidth link model."""

    latency_seconds: float = 0.0
    bandwidth_bytes_per_second: float | None = None  # None = infinite

    def transfer_time(self, payload_bytes: int) -> float:
        """Modeled one-way time to move *payload_bytes* over this link."""
        time = self.latency_seconds
        if self.bandwidth_bytes_per_second:
            time += payload_bytes / self.bandwidth_bytes_per_second
        return time


#: A LAN-ish default: 0.5 ms latency, 100 MB/s.
LAN = NetworkModel(latency_seconds=0.0005, bandwidth_bytes_per_second=100e6)
#: A WAN-ish default: 40 ms latency, 10 MB/s.
WAN = NetworkModel(latency_seconds=0.040, bandwidth_bytes_per_second=10e6)


@dataclass(frozen=True)
class CallRecord:
    """One request/response exchange as observed on the wire."""

    address: str
    action: str
    request_bytes: int
    response_bytes: int
    modeled_seconds: float

    @property
    def total_bytes(self) -> int:
        return self.request_bytes + self.response_bytes


@dataclass
class WireStats:
    """Accumulated wire activity for one transport."""

    calls: list[CallRecord] = field(default_factory=list)

    def record(self, record: CallRecord) -> None:
        self.calls.append(record)

    def reset(self) -> None:
        self.calls.clear()

    @property
    def call_count(self) -> int:
        return len(self.calls)

    @property
    def bytes_sent(self) -> int:
        return sum(record.request_bytes for record in self.calls)

    @property
    def bytes_received(self) -> int:
        return sum(record.response_bytes for record in self.calls)

    @property
    def total_bytes(self) -> int:
        return self.bytes_sent + self.bytes_received

    @property
    def modeled_seconds(self) -> float:
        return sum(record.modeled_seconds for record in self.calls)

    def by_action(self) -> dict[str, int]:
        """Total bytes per action URI (handy for per-operation tables)."""
        totals: dict[str, int] = {}
        for record in self.calls:
            totals[record.action] = totals.get(record.action, 0) + record.total_bytes
        return totals


class ClientTransport:
    """The half every client transport shares.

    :meth:`send` routes through the optional retry/breaker layer
    (:attr:`resilience`, a ``Resilience`` or bare ``RetryPolicy``) into
    the subclass's ``_send_once``, which calls :meth:`_account` once per
    completed exchange: ``rpc.client.*`` counters per ``wsa:Action``,
    the ``rpc.send`` span's byte attributes, and a :class:`CallRecord`
    priced by the :class:`NetworkModel`.
    """

    def __init__(self, network: NetworkModel | None = None, resilience=None) -> None:
        self._network = network if network is not None else NetworkModel()
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

    def send(self, address: str, request):
        """Send *request* to the service at *address*; returns the
        response envelope (which may carry a fault — callers decide
        whether to raise via ``Envelope.raise_if_fault``)."""
        if self.resilience is None:
            return self._send_once(address, request)
        return self.resilience.call(address, request, self._send_once)

    def _account(
        self, span, address: str, action: str, sent: int, received: int, fault: bool
    ) -> None:
        modeled = self._network.transfer_time(sent) + self._network.transfer_time(
            received
        )
        self._requests.inc(action=action)
        self._request_bytes.inc(sent, action=action)
        self._response_bytes.inc(received, action=action)
        if fault:
            self._faults.inc(action=action)
        span.set_attributes(
            request_bytes=sent, response_bytes=received, modeled_seconds=modeled
        )
        self.stats.record(CallRecord(address, action, sent, received, modeled))
