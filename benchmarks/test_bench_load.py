"""``make bench-load`` — the event-loop front end under connection load.

Throughput and tail latency for one ``DaisHttpServer`` holding c=100,
c=1,000 and c=10,000 open keep-alive connections, with a ``/healthz``
prober running *during* the load.  Hard gates, not just numbers:

* zero lost responses — every request gets exactly one well-formed
  HTTP response (served or shed), at every tier;
* every shed is a parseable SOAP ``ServiceBusyFault`` envelope;
* ``/healthz`` p99 stays under 50 ms while the worker pool saturates.

The c=10,000 tier runs the server in a subprocess (``python -m repro
serve``): this host caps each process at 20,000 file descriptors, and
10k client sockets plus 10k server sockets do not fit in one.

``BENCH_LOAD_SMOKE=1`` runs only a scaled-down c=100 tier — the fast
regression gate wired into ``make test``.
"""

import os
import subprocess
import sys
import time

import pytest

from benchmarks.harness import Table, run_load
from repro.dair import messages as msg
from repro.soap.addressing import MessageHeaders
from repro.soap.envelope import Envelope
from repro.workload import RelationalWorkload, build_http_deployment

SMOKE = os.environ.get("BENCH_LOAD_SMOKE", "") == "1"
QUERY = "SELECT region FROM customers WHERE id = 7"
HEALTHZ_P99_GATE_MS = 50.0

# (connections, requests per connection, driver threads)
TIERS = [(100, 20, 16), (1_000, 4, 24)]
SUBPROCESS_TIER = (10_000, 1, 32)
SMOKE_TIER = (100, 4, 8)

SERVER_KNOBS = dict(workers=8, queue_depth=512, idle_timeout=600.0)


def _body(address: str, name: str) -> bytes:
    request = msg.SQLExecuteRequest(abstract_name=name, expression=QUERY)
    envelope = Envelope(
        headers=MessageHeaders(to=address, action=type(request).action()),
        payload=request.to_xml(),
    )
    return envelope.to_bytes()


def _gate(report) -> None:
    assert report.lost == 0, (
        f"{report.lost} lost responses at c={report.connections}: "
        f"{report.errors[:5]}"
    )
    assert report.unparseable_sheds == 0, (
        f"{report.unparseable_sheds} sheds without a parseable "
        f"ServiceBusyFault envelope: {report.errors[:5]}"
    )
    assert report.ok + report.sheds == report.requests
    if report.healthz_latencies:
        assert report.healthz_ms(99) < HEALTHZ_P99_GATE_MS, (
            f"/healthz p99 {report.healthz_ms(99):.1f}ms under load "
            f"at c={report.connections}"
        )


def _row(table: Table, report) -> None:
    table.add(
        report.connections,
        report.requests,
        f"{report.throughput:.0f}",
        f"{report.latency_ms(50):.1f}",
        f"{report.latency_ms(99):.1f}",
        report.ok,
        report.sheds,
        f"{report.healthz_ms(99):.1f}",
    )


def _table() -> Table:
    return Table(
        "Server load — event-loop front end, keep-alive connections",
        [
            "conns", "requests", "req/s", "p50 ms", "p99 ms",
            "served", "shed", "healthz p99 ms",
        ],
        note=(
            "gates: zero lost responses; sheds all parse as "
            "ServiceBusyFault; /healthz p99 < 50ms during load"
        ),
    )


def test_bench_load_in_process():
    tiers = [SMOKE_TIER] if SMOKE else TIERS
    deployment = build_http_deployment(
        RelationalWorkload(customers=50), **SERVER_KNOBS
    )
    body = _body(deployment.address, str(deployment.name))
    table = _table()
    with deployment.server:
        for connections, per_conn, threads in tiers:
            report = run_load(
                deployment.port,
                "/sql",
                body,
                connections=connections,
                requests_per_connection=per_conn,
                threads=threads,
            )
            _gate(report)
            _row(table, report)
    table.show()


@pytest.mark.skipif(SMOKE, reason="smoke tier only")
def test_bench_load_c10k_subprocess():
    connections, per_conn, threads = SUBPROCESS_TIER
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--workers", str(SERVER_KNOBS["workers"]),
            "--queue-depth", str(SERVER_KNOBS["queue_depth"]),
            "--idle-timeout", str(SERVER_KNOBS["idle_timeout"]),
            "--customers", "50",
        ],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        port = None
        name = None
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline and (port is None or name is None):
            line = proc.stdout.readline().strip()
            if line.startswith("LISTENING "):
                port = int(line.split()[1])
            elif line.startswith("RESOURCE "):
                name = line.split(None, 1)[1]
        assert port is not None and name is not None, "server never came up"

        body = _body(f"http://127.0.0.1:{port}/sql", name)
        report = run_load(
            port,
            "/sql",
            body,
            connections=connections,
            requests_per_connection=per_conn,
            threads=threads,
        )
        _gate(report)
        table = _table()
        _row(table, report)
        table.show()
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=15)
