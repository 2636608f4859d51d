"""Wire accounting and the deterministic network model.

The paper's figures make claims about *who moves how many bytes where*
(direct vs indirect access, third-party delivery).  :class:`WireStats`
keeps exact request/response byte totals and the most recent calls;
:class:`NetworkModel` converts them into a modeled transfer time
(latency + size/bandwidth) so benchmarks can report reproducible
"transfer cost" series independent of host speed.
:class:`ClientTransport` is what every client transport shares: the
retry hook and that per-call account.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass

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


class WireStats:
    """Accumulated wire activity for one transport.

    The totals are exact over every call since the last :meth:`reset`;
    the records themselves are kept for the :attr:`RECENT_CALLS` most
    recent calls only, so a long-lived transport holds a bounded
    account however many calls it makes.  Safe to record from many
    threads at once.
    """

    #: How many records :attr:`calls` retains.
    RECENT_CALLS = 1024

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: The most recent calls, oldest first (``calls[-1]`` is the last).
        self.calls: deque[CallRecord] = deque(maxlen=self.RECENT_CALLS)
        self.reset()

    def record(self, record: CallRecord) -> None:
        with self._lock:
            self.calls.append(record)
            self.call_count += 1
            self.bytes_sent += record.request_bytes
            self.bytes_received += record.response_bytes
            self.modeled_seconds += record.modeled_seconds
            self._by_action[record.action] = (
                self._by_action.get(record.action, 0) + record.total_bytes
            )

    def reset(self) -> None:
        with self._lock:
            self.calls.clear()
            self.call_count = 0
            self.bytes_sent = 0
            self.bytes_received = 0
            self.modeled_seconds = 0.0
            self._by_action: dict[str, int] = {}

    @property
    def total_bytes(self) -> int:
        return self.bytes_sent + self.bytes_received

    def by_action(self) -> dict[str, int]:
        """Total bytes per action URI (handy for per-operation tables)."""
        with self._lock:
            return dict(self._by_action)


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
