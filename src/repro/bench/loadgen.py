"""Raw-socket HTTP load generator for the event-loop server benchmarks.

``make bench-load`` needs to hold thousands of *open keep-alive
connections* against one :class:`~repro.transport.DaisHttpServer` —
far more than the pooled client transport is shaped for.  This
generator opens ``connections`` plain client connections up front,
partitions them across ``threads`` driver threads, and drives one full
request/response exchange at a time per connection, measuring wall
latency per exchange.  Replies are read with the codec both ends of the
exchange share (:class:`~repro.transport.http11.ResponseParser`, through
:meth:`~repro.transport.pool.ClientConnection.read_response`).  A
separate prober hits ``GET /healthz`` on its own connection throughout,
so the loop-thread fast path is measured *under* the load, not beside
it.

Responses are classified strictly: a 200 counts as served; a 503 must
carry a parseable SOAP ``ServiceBusyFault`` envelope to count as a
shed (anything else is an error); every other outcome — wrong status,
truncated body, bytes after the reply, connection reset — is a lost
response.  The benchmark gates on ``lost == 0``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.transport.http11 import HttpParseError, render_request
from repro.transport.pool import ClientConnection

__all__ = ["LoadReport", "percentile", "render_post", "run_load"]

_HOST = "127.0.0.1"


def percentile(values: list[float], q: float) -> float:
    """The *q*-quantile (0..1) of *values* by nearest-rank."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(q * len(ordered)) - (0 if q < 1 else 1)))
    return ordered[rank]


def render_post(path: str, body: bytes) -> bytes:
    """One keep-alive SOAP POST as exact wire bytes."""
    return render_request(
        "POST",
        path,
        [("Host", _HOST), ("Content-Type", "text/xml; charset=utf-8")],
        body,
    )


def _exchange(
    conn: ClientConnection, request: bytes, timeout: float
) -> tuple[int, bytes]:
    """Send *request* and read its reply → ``(status, body)``."""
    conn.send(request, timeout)
    response = conn.read_response(timeout)
    if conn.stray:
        raise HttpParseError(f"{conn.stray} stray bytes after the response")
    return response.status, response.body


@dataclass
class LoadReport:
    """The outcome of one load run."""

    connections: int
    threads: int
    requests: int
    ok: int
    sheds: int
    unparseable_sheds: int
    lost: int
    elapsed: float
    latencies: list[float] = field(repr=False)
    healthz_latencies: list[float] = field(repr=False)
    errors: list[str] = field(default_factory=list, repr=False)

    @property
    def throughput(self) -> float:
        return self.requests / self.elapsed if self.elapsed > 0 else 0.0

    def latency_ms(self, q: float) -> float:
        return percentile(self.latencies, q) * 1000.0

    def healthz_ms(self, q: float) -> float:
        return percentile(self.healthz_latencies, q) * 1000.0


def _shed_parses(body: bytes) -> bool:
    from repro.core.faults import ServiceBusyFault
    from repro.soap.envelope import Envelope

    try:
        Envelope.from_bytes(body).raise_if_fault()
    except ServiceBusyFault:
        return True
    except Exception:  # noqa: BLE001 - any other shape is a bad shed
        return False
    return False  # a 503 with no fault envelope is a bad shed


def run_load(
    port: int,
    path: str,
    body: bytes,
    *,
    connections: int,
    requests_per_connection: int = 1,
    threads: int = 16,
    timeout: float = 60.0,
    healthz_interval: float = 0.005,
) -> LoadReport:
    """Open ``connections`` keep-alive sockets, drive them from
    ``threads`` driver threads, and probe ``/healthz`` throughout."""
    request = render_post(path, body)
    conns = [
        ClientConnection.open(_HOST, port, timeout) for _ in range(connections)
    ]

    lock = threading.Lock()
    latencies: list[float] = []
    errors: list[str] = []
    counts = {"ok": 0, "shed": 0, "bad_shed": 0, "lost": 0}

    def drive(partition: list[ClientConnection]) -> None:
        local_latencies = []
        local_counts = {"ok": 0, "shed": 0, "bad_shed": 0, "lost": 0}
        local_errors = []
        for _round in range(requests_per_connection):
            for conn in partition:
                started = time.monotonic()
                try:
                    status, payload = _exchange(conn, request, timeout)
                except (OSError, HttpParseError) as err:
                    local_counts["lost"] += 1
                    local_errors.append(repr(err))
                    continue
                local_latencies.append(time.monotonic() - started)
                if status == 200:
                    local_counts["ok"] += 1
                elif status == 503:
                    if _shed_parses(payload):
                        local_counts["shed"] += 1
                    else:
                        local_counts["bad_shed"] += 1
                        local_errors.append(f"unparseable 503: {payload[:120]!r}")
                else:
                    local_counts["lost"] += 1
                    local_errors.append(f"status {status}: {payload[:120]!r}")
        with lock:
            latencies.extend(local_latencies)
            errors.extend(local_errors[:20])
            for key, value in local_counts.items():
                counts[key] += value

    healthz_latencies: list[float] = []
    stop_probe = threading.Event()

    def probe() -> None:
        probe_conn = ClientConnection.open(_HOST, port, timeout)
        wire = render_request("GET", "/healthz", [("Host", _HOST)])
        try:
            while not stop_probe.is_set():
                started = time.monotonic()
                status, _payload = _exchange(probe_conn, wire, timeout)
                healthz_latencies.append(time.monotonic() - started)
                if status != 200:
                    errors.append(f"healthz status {status}")
                stop_probe.wait(healthz_interval)
        except (OSError, HttpParseError) as err:
            errors.append(f"healthz probe died: {err!r}")
        finally:
            probe_conn.close()

    thread_count = max(1, min(threads, connections))
    partitions: list[list[ClientConnection]] = [[] for _ in range(thread_count)]
    for index, conn in enumerate(conns):
        partitions[index % thread_count].append(conn)

    drivers = [
        threading.Thread(target=drive, args=(partition,))
        for partition in partitions
    ]
    prober = threading.Thread(target=probe, daemon=True)
    started = time.monotonic()
    prober.start()
    for thread in drivers:
        thread.start()
    for thread in drivers:
        thread.join()
    elapsed = time.monotonic() - started
    stop_probe.set()
    prober.join(timeout=5)
    for conn in conns:
        conn.close()

    total = connections * requests_per_connection
    return LoadReport(
        connections=connections,
        threads=thread_count,
        requests=total,
        ok=counts["ok"],
        sheds=counts["shed"],
        unparseable_sheds=counts["bad_shed"],
        lost=counts["lost"],
        elapsed=elapsed,
        latencies=latencies,
        healthz_latencies=healthz_latencies,
        errors=errors,
    )
