"""The untraced run: closed-loop windows against the subprocess server.

One server subprocess per workload, started and stopped around it.
``setup_s`` is the median of several spawn → ``LISTENING`` → first
correct reply times; the last spawn is the server the windows run
against.  After a warm-up, every metric is taken per window and the
median of the windows is reported, so one noisy window does not decide
a run.
"""

from __future__ import annotations

import itertools
import random
import threading
import time
from dataclasses import dataclass, field

from repro.dair import messages as dair_messages
from repro.dair.datasets import parse_rowset
from repro.soap.envelope import Envelope

from bench import stats, yardstick
from bench.ports import HttpPort, Target
from bench.rawhttp import RawConnection, WireError, render_post
from bench.serverproc import Scrape, ServerProcess
from bench.walk import encode_request
from bench.workloads import POINT_SQL, CUSTOMERS, CheckFailed, Oracle, Workload

WARMUP_SECONDS = 1.0
WINDOWS = 5
SETUP_SPAWNS = 3
#: saturate_point runs the full oracle check on every Nth reply (and
#: the substring check on every reply).
FULL_CHECK_EVERY = 50
#: ... and one yardstick burst every Nth op per thread (under 1 % of
#: the CPU the server is competing for).
YARDSTICK_EVERY = 20
#: Bursts before a spawn and after its first reply (set-up's yardstick).
SETUP_BURSTS = 50

_CLIENT_OPS = {
    "client.op.propdoc_ms": "propdoc",
    "client.op.factory_ms": "factory",
    "client.op.rowset_factory_ms": "rowset_factory",
    "client.op.get_tuples_ms": "get_tuples",
    "client.op.insert_ms": "insert",
    "client.op.ddl_ms": "ddl",
    "client.op.destroy_ms": "destroy",
}


@dataclass
class Tally:
    """Ops attempted and failed, with the first few failures kept."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def attempt(self) -> None:
        with self._lock:
            self.attempted += 1

    def fail(self, op, exc: BaseException) -> None:
        with self._lock:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(f"{op!r}: {exc!r}")


@dataclass
class Window:
    latencies_ms: list[float]
    #: Seconds the window's throughput is taken over: time inside ops
    #: for the one-client loop, wall time for the two-connection one.
    seconds: float
    #: Yardstick bursts run between the window's ops.
    yard_ms: list[float]


class ClientDriver:
    """One consumer thread on the real clients (``clients == 1``)."""

    def __init__(self, workload: Workload, target: Target, seed: int,
                 oracle: Oracle, tally: Tally) -> None:
        self._workload = workload
        self._oracle = oracle
        self._tally = tally
        self._ops = workload.ops(random.Random(seed))
        self._state: dict = {}
        self.port = HttpPort(target)

    def run(self, seconds: float) -> Window:
        port, tally = self.port, self._tally
        budget_ns = int(seconds * 1e9)
        started_busy = port.busy_ns
        latencies = []
        yard = []
        while port.busy_ns - started_busy < budget_ns:
            op = next(self._ops)
            before = port.busy_ns
            tally.attempt()
            try:
                self._workload.run(op, port, self._oracle, self._state)
            except Exception as exc:  # noqa: BLE001 - a failed op is counted, the loop goes on
                tally.fail(op, exc)
            else:
                latencies.append((port.busy_ns - before) / 1e6)
            yard.append(yardstick.burst_ms())
        return Window(latencies, (port.busy_ns - started_busy) / 1e9, yard)

    def wire_bytes(self) -> int:
        return self.port.wire_bytes()

    def connections_opened(self) -> int:
        return self.port.connections_opened()

    def call_latencies(self) -> dict[str, list[float]]:
        return self.port.latencies_ms

    def close(self) -> None:
        self.port.close()


class RawDriver:
    """``clients`` threads, each on its own raw keep-alive socket,
    sending the point query as pre-rendered bytes."""

    def __init__(self, workload: Workload, target: Target, seed: int,
                 oracle: Oracle, tally: Tally) -> None:
        self._tally = tally
        request = dair_messages.SQLExecuteRequest
        self._requests = {}
        self._expected = {}
        for customer in range(1, CUSTOMERS + 1):
            params = (str(customer),)
            body = encode_request(
                target.address,
                request(abstract_name=target.name, expression=POINT_SQL,
                        parameters=list(params)),
            )
            self._requests[customer] = (
                render_post(target.path, target.host, body, request.action()),
                len(body),
            )
            self._expected[customer] = oracle.rows(POINT_SQL, params)
        self._streams = [
            workload.ops(random.Random(seed if index == 0 else f"{seed}/{index}"))
            for index in range(workload.clients)
        ]
        self._conns = [
            RawConnection("127.0.0.1", target.port) for _ in self._streams
        ]
        self._wire_bytes = 0
        self._lock = threading.Lock()

    def _check(self, customer: int, status: int, body: bytes, full: bool) -> None:
        if status != 200:
            raise CheckFailed(f"status {status}")
        if f"customer-{customer:05d}".encode() not in body:
            raise CheckFailed(f"customer-{customer:05d} not in reply")
        if full:
            response = dair_messages.SQLExecuteResponse.from_xml(
                Envelope.from_bytes(body).raise_if_fault().payload
            )
            rowset = parse_rowset(response.dataset_format_uri, response.dataset)
            if rowset != self._expected[customer]:
                raise CheckFailed("rows differ")

    def _loop(self, conn: RawConnection, ops, deadline: float,
              out: list, yard_out: list) -> None:
        latencies = []
        yard = []
        wire_total = 0
        for count in itertools.count(1):
            if time.perf_counter() >= deadline:
                break
            if count % YARDSTICK_EVERY == 0:
                yard.append(yardstick.burst_ms())
            op = next(ops)
            self._tally.attempt()
            post, sent = self._requests[op[1]]
            started = time.perf_counter_ns()
            try:
                status, body, wire = conn.exchange(post)
                elapsed = time.perf_counter_ns() - started
                self._check(op[1], status, body, count % FULL_CHECK_EVERY == 0)
            except (OSError, WireError) as exc:
                # Framing is lost with the socket; this connection is done.
                self._tally.fail(op, exc)
                break
            except Exception as exc:  # noqa: BLE001 - a failed op is counted, the loop goes on
                self._tally.fail(op, exc)
                continue
            latencies.append(elapsed / 1e6)
            wire_total += sent + wire
        with self._lock:
            out.extend(latencies)
            yard_out.extend(yard)
            self._wire_bytes += wire_total

    def run(self, seconds: float) -> Window:
        latencies: list[float] = []
        yard: list[float] = []
        started = time.perf_counter()
        deadline = started + seconds
        threads = [
            threading.Thread(
                target=self._loop, args=(conn, ops, deadline, latencies, yard)
            )
            for conn, ops in zip(self._conns, self._streams)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return Window(latencies, time.perf_counter() - started, yard)

    def wire_bytes(self) -> int:
        return self._wire_bytes

    def connections_opened(self) -> int:
        return len(self._conns)

    def call_latencies(self) -> dict[str, list[float]]:
        return {}

    def close(self) -> None:
        for conn in self._conns:
            conn.close()


def _first_reply(workload: Workload, target: Target, seed: int, oracle: Oracle) -> None:
    """One correct reply from a fresh consumer (ends the set-up clock).

    The first op of every stream is read-only, so probing several
    servers against one oracle leaves the oracle's data untouched.
    """
    port = HttpPort(target)
    try:
        op = next(workload.ops(random.Random(seed)))
        workload.run(op, port, oracle, {})
    finally:
        port.close()


@dataclass
class UntracedResult:
    end_to_end: dict[str, float]
    raw: dict[str, float]
    #: The *gen* and *scrape* per-layer metrics (None = not crossed).
    layers: dict[str, float | None]
    windows: list[dict[str, float]]
    tally: Tally


def run_untraced(workload: Workload, seed: int, seconds: float,
                 setup_spawns: int = SETUP_SPAWNS, windows: int = WINDOWS,
                 warmup: float = WARMUP_SECONDS) -> UntracedResult:
    oracle = workload.oracle(seed)
    tally = Tally()
    setups = []
    server = None
    driver = None
    try:
        for _ in range(setup_spawns):
            if server is not None:
                previous, server = server, None
                previous.stop()
            yard = yardstick.bursts(SETUP_BURSTS)
            server = ServerProcess(workload.name, seed)
            _first_reply(workload, server.target, seed, oracle)
            elapsed = time.perf_counter() - server.spawned_at
            yard += yardstick.bursts(SETUP_BURSTS)
            setups.append(
                (
                    elapsed,
                    yardstick.slowdown(yard, yardstick.REFERENCE_BACK_TO_BACK_MS),
                )
            )

        accepted_before = server.scrape()
        driver_cls = RawDriver if workload.raw else ClientDriver
        driver = driver_cls(workload, server.target, seed, oracle, tally)
        driver.run(warmup)
        attempted_warming = tally.attempted
        before = server.scrape()

        per_window = []
        all_latencies: list[float] = []
        for _ in range(windows):
            cpu, wire = server.cpu_seconds(), driver.wire_bytes()
            window = driver.run(seconds / windows)
            ok = len(window.latencies_ms)
            if ok == 0:
                raise RuntimeError(f"{workload.name}: a window completed no op")
            slow = yardstick.slowdown(window.yard_ms)
            p50 = stats.median(window.latencies_ms)
            cpu_ms = (server.cpu_seconds() - cpu) * 1e3 / ok
            per_window.append(
                {
                    "slowdown": slow,
                    "raw_latency_p50_ms": p50,
                    "raw_server_cpu_ms_per_op": cpu_ms,
                    "latency_p50_ms": p50 / slow,
                    "throughput_ops_s": ok / window.seconds * slow,
                    "wire_bytes_per_op": (driver.wire_bytes() - wire) / ok,
                    "server_cpu_ms_per_op": cpu_ms / slow,
                }
            )
            all_latencies.extend(window.latencies_ms)
        after = server.scrape()
        server.check_alive()

        medians = {
            name: stats.median(w[name] for w in per_window)
            for name in per_window[0]
        }
        #: What the clock read, before scaling to the reference speed.
        raw = {
            name: medians.pop(name)
            for name in list(medians)
            if name == "slowdown" or name.startswith("raw_")
        }
        raw["raw_setup_s"] = stats.median(elapsed for elapsed, _ in setups)
        end_to_end = {
            "setup_s": stats.median(elapsed / slow for elapsed, slow in setups),
            **medians,
            "server_peak_rss_mb": server.peak_rss_mb(),
        }

        ops = len(all_latencies)
        tail = stats.tail_percentile(ops)
        layers: dict[str, float | None] = {
            "client.latency_tail_ms": stats.percentile(all_latencies, tail),
            "client.latency_tail_pct": tail,
            "client.samples": ops,
            "client.connections_opened": driver.connections_opened(),
        }
        calls = driver.call_latencies()
        for metric, kind in _CLIENT_OPS.items():
            layers[metric] = stats.median(calls[kind]) if calls.get(kind) else None
        layers.update(
            _scraped(workload, accepted_before, before, after,
                     tally.attempted - attempted_warming)
        )
        return UntracedResult(
            end_to_end,
            raw,
            yardstick.at_reference_speed(layers, raw["slowdown"]),
            per_window,
            tally,
        )
    finally:
        if driver is not None:
            driver.close()
        if server is not None:
            server.stop()


def _ratio(before: Scrape, after: Scrape, family: str) -> float | None:
    hits = after.total(f"{family}_hits_total") - before.total(f"{family}_hits_total")
    misses = after.total(f"{family}_misses_total") - before.total(f"{family}_misses_total")
    return hits / (hits + misses) if hits + misses else None


def _scraped(workload: Workload, first: Scrape, before: Scrape, after: Scrape,
             ops: int) -> dict[str, float | None]:
    """The *scrape* metrics: deltas of the server's own ``/metrics``
    over the windows (connections: since before the warm-up)."""

    def delta(name: str, label: str = "") -> float:
        return after.total(name, label) - before.total(name, label)

    waits = delta("http_server_queue_wait_seconds_count")
    sql = workload.realisation == "sql"
    invalidations = "_invalidations_total"
    return {
        "transport.queue_wait_ms": (
            delta("http_server_queue_wait_seconds_sum") * 1e3 / waits if waits else None
        ),
        "transport.queue_depth_max": after.total("http_server_queue_depth_max"),
        "transport.shed_count": delta("http_server_queue_shed_total"),
        "transport.chunks_per_op": delta("http_server_chunks_total") / ops,
        # Since before the warm-up, less the harness's own scrapes.
        "transport.connections_accepted": (
            after.total("http_server_connections_total", 'event="accepted"')
            - first.total("http_server_connections_total", 'event="accepted"')
            - (after.ordinal - first.ordinal)
        ),
        "core.dispatch_count": delta("dais_dispatch_count_total"),
        "core.propdoc_hit_ratio": _ratio(before, after, "cache_propdoc"),
        "core.propdoc_invalidations": delta("cache_propdoc" + invalidations),
        "dair.result_hit_ratio": _ratio(before, after, "cache_result") if sql else None,
        "dair.result_invalidations": delta("cache_result" + invalidations) if sql else None,
        "relational.plan_hit_ratio": _ratio(before, after, "cache_plan") if sql else None,
        "relational.plan_invalidations": delta("cache_plan" + invalidations) if sql else None,
    }
