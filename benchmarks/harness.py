"""Clocks, tables and the load generator the figure benchmarks share.

Each benchmark prints one :class:`Table` shaped like the claim the
corresponding paper figure illustrates, so ``pytest benchmarks/
--benchmark-only -s`` regenerates the whole set.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from bench.stats import percentile
from repro.transport.http11 import HttpParseError, render_request
from repro.transport.pool import ClientConnection
from tests.obs.traces import summarize_spans

_HOST = "127.0.0.1"


def measure_wall(fn: Callable[[], Any], repeat: int = 3) -> float:
    """Best-of-*repeat* wall-clock seconds for one call of *fn*."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@dataclass
class Table:
    """A fixed-width printable results table."""

    title: str
    columns: list[str]
    rows: list[list[Any]] = field(default_factory=list)
    note: str = ""

    def add(self, *values: Any) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} values for {len(self.columns)} columns"
            )
        self.rows.append(list(values))

    def render(self) -> str:
        cells = [[str(v) for v in row] for row in self.rows]
        widths = [
            max(len(self.columns[i]), *(len(r[i]) for r in cells))
            if cells
            else len(self.columns[i])
            for i in range(len(self.columns))
        ]
        lines = [f"== {self.title} =="]
        header = "  ".join(
            name.ljust(widths[i]) for i, name in enumerate(self.columns)
        )
        lines.append(header)
        lines.append("-" * len(header))
        for row in cells:
            lines.append(
                "  ".join(value.rjust(widths[i]) for i, value in enumerate(row))
            )
        if self.note:
            lines.append(f"note: {self.note}")
        return "\n".join(lines)

    def show(self) -> None:
        print("\n" + self.render())


def span_table(title: str, spans, note: str = "") -> Table:
    """A printable per-span-name summary (count, time, counter totals)."""
    table = Table(title, ["span", "count", "total ms", "counters"], note=note)
    rollups = summarize_spans(spans)
    for name in sorted(rollups):
        rollup = rollups[name]
        counters = " ".join(
            f"{key}={int(value) if value == int(value) else round(value, 3)}"
            for key, value in sorted(rollup.totals.items())
        )
        table.add(
            name, rollup.count, f"{rollup.total_seconds * 1e3:8.2f}", counters
        )
    return table


# -- raw-socket load generator ---------------------------------------------
#
# ``make bench-load`` holds thousands of open keep-alive connections
# against one DaisHttpServer — far more than the pooled client transport
# is shaped for.  run_load opens them up front, partitions them across
# driver threads and drives one request/response exchange at a time per
# connection, reading replies with the codec both ends share.  A prober
# hits ``GET /healthz`` on its own connection throughout, so the
# loop-thread fast path is measured *under* the load.
#
# Responses are classified strictly: a 200 is served; a 503 must carry a
# parseable SOAP ServiceBusyFault envelope to count as a shed; every
# other outcome — wrong status, truncated body, bytes after the reply,
# connection reset — is a lost response.


def _exchange(
    conn: ClientConnection, request: bytes, timeout: float
) -> tuple[int, bytes]:
    """Send *request* and read its reply → ``(status, body)``."""
    conn.send(request, timeout)
    response = conn.read_response(timeout)
    if conn.stray:
        raise HttpParseError(f"{conn.stray} stray bytes after the response")
    return response.status, response.body


def _ms(values: list[float], pct: float) -> float:
    return percentile(values, pct) * 1000.0 if values else 0.0


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

    def latency_ms(self, pct: float) -> float:
        """The nearest-rank *pct*-th percentile of exchange latency."""
        return _ms(self.latencies, pct)

    def healthz_ms(self, pct: float) -> float:
        return _ms(self.healthz_latencies, pct)


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
    request = render_request(
        "POST",
        path,
        [("Host", _HOST), ("Content-Type", "text/xml; charset=utf-8")],
        body,
    )
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

    return LoadReport(
        connections=connections,
        threads=thread_count,
        requests=connections * requests_per_connection,
        ok=counts["ok"],
        sheds=counts["shed"],
        unparseable_sheds=counts["bad_shed"],
        lost=counts["lost"],
        elapsed=elapsed,
        latencies=latencies,
        healthz_latencies=healthz_latencies,
        errors=errors,
    )
