"""``python -m repro`` — self-check, ``trace <file>`` and ``serve``.

Default invocation stands up an in-process deployment, runs one query
through the full SOAP round trip and reports the wire numbers — a quick
way to confirm an installation works.

``python -m repro trace <spans.jsonl>`` renders a trace exported by
:class:`repro.obs.FileExporter` as an indented span tree (per-span
latency, bytes and row counts).

``python -m repro serve`` binds one SQL realisation service to a real
HTTP port (event-loop front end, admission control armed) and serves
until interrupted, printing ``LISTENING <port>`` first — the deploy
path used by operators and by the out-of-process tiers of
``make bench-load``.
"""

from __future__ import annotations

import argparse
import sys
import time


def self_check() -> int:
    import repro
    from repro.workload import RelationalWorkload, build_single_service

    print(f"dais-py {repro.__version__} — GGF WS-DAI/WS-DAIR/WS-DAIX "
          f"reference implementation")
    print(
        "packages: xmlutil soap wsrf xpath relational xmldb cim core "
        "dair daix daif filestore compose jobs transport client workload "
        "resilience obs"
    )

    deployment = build_single_service(RelationalWorkload(customers=10))
    rowset = deployment.client.sql_query_rowset(
        deployment.address,
        deployment.name,
        "SELECT region, COUNT(*) FROM customers GROUP BY region ORDER BY 1",
    )
    print("\nself-check (one service, one query through the wire):")
    for region, count in rowset.rows:
        print(f"  {region}: {count}")
    stats = deployment.client.transport.stats
    print(f"  ok — {stats.call_count} exchange(s), {stats.total_bytes} bytes")
    print("\nsee examples/ for runnable scenarios and benchmarks/ for the "
          "paper-figure harness")
    return 0


def trace_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro trace",
        description="render an exported span file as a trace tree",
    )
    parser.add_argument("path", help="JSONL span file written by FileExporter")
    parser.add_argument(
        "--trace-id", help="render only this trace id", default=None
    )
    options = parser.parse_args(argv)
    from repro.obs import load_spans, render_trace_tree

    spans = load_spans(options.path)
    if not spans:
        print(f"no spans in {options.path}")
        return 1
    print(render_trace_tree(spans, trace_id=options.trace_id))
    return 0


def serve_main(argv: list[str]) -> int:
    """Stand up one WS-DAIR service on a real HTTP port and serve until
    interrupted.  The bound port is printed as the first stdout line
    (``LISTENING <port>``) so harnesses — notably the c=10k tier of
    ``make bench-load``, which needs the server's file descriptors in a
    separate process — can drive it programmatically."""
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="serve one SQL realisation service over HTTP",
    )
    parser.add_argument("--port", type=int, default=0, help="TCP port (0 = ephemeral)")
    parser.add_argument("--workers", type=int, default=8, help="handler pool size")
    parser.add_argument("--queue-depth", type=int, default=64, help="admission queue bound")
    parser.add_argument(
        "--queue-deadline", type=float, default=5.0,
        help="max queued wait seconds before a shed (<= 0 disables)",
    )
    parser.add_argument(
        "--read-deadline", type=float, default=10.0,
        help="slow-loris reap deadline for partial requests, seconds",
    )
    parser.add_argument(
        "--idle-timeout", type=float, default=60.0,
        help="idle keep-alive retention, seconds",
    )
    parser.add_argument(
        "--customers", type=int, default=100, help="synthetic workload size"
    )
    options = parser.parse_args(argv)

    from repro.workload import RelationalWorkload, build_http_deployment

    deployment = build_http_deployment(
        RelationalWorkload(customers=options.customers),
        port=options.port,
        workers=options.workers,
        queue_depth=options.queue_depth,
        queue_deadline=(
            options.queue_deadline if options.queue_deadline > 0 else None
        ),
        read_deadline=options.read_deadline,
        idle_timeout=options.idle_timeout,
    )
    with deployment.server:
        print(f"LISTENING {deployment.port}", flush=True)
        print(f"RESOURCE {deployment.name}", flush=True)
        print(f"service: {deployment.address}", flush=True)
        try:
            while True:
                time.sleep(3600)
        except KeyboardInterrupt:
            pass
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    # Only the explicit subcommand routes away from the self-check, so
    # running under foreign argv (pytest, runpy) stays harmless.
    if argv and argv[0] == "trace":
        return trace_main(argv[1:])
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])
    return self_check()


if __name__ == "__main__":
    sys.exit(main())
