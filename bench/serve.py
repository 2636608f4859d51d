"""The subprocess server: ``python -m bench.serve --workload W --seed N``.

Builds the workload's deployment (public constructors only, server
defaults), prints ``LISTENING <port> <address> <abstract-name>`` and
serves until SIGTERM/SIGINT — or until its parent goes away, so a
generator that dies never strands a server.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import threading


def main(argv: list[str] | None = None) -> int:
    from bench.deploy import build_deployment
    from bench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(prog="python -m bench.serve")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    deployment = build_deployment(
        workload.realisation, workload.extra_tables, args.seed
    )
    stop = threading.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: stop.set())
    parent = os.getppid()
    with deployment.server:
        print(
            f"LISTENING {deployment.server.port} {deployment.address} "
            f"{deployment.name}",
            flush=True,
        )
        while not stop.wait(1.0):
            if os.getppid() != parent:
                break
    return 0


if __name__ == "__main__":
    sys.exit(main())
