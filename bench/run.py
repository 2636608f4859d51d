"""One command for the whole benchmark.

    PYTHONPATH=src python -m bench.run --seed N [--workload NAME]
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Without ``--trace`` every selected workload gets both phases — the
untraced windows over real HTTP, then the in-process layer walk — and
the full report is printed and written to ``bench/out/``.  With
``--trace 0`` only the end-to-end metrics are measured; with
``--trace 1`` the per-layer metrics (a shorter untraced phase feeds the
counters the walk cannot see, then the walk runs).  Every reply is
checked against the oracle; any failed op makes the exit code 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __package__ in (None, ""):
    # Run as a script (``python3 bench/run.py``): make ``bench`` and
    # the program under ``src/`` importable, in place of bench/ itself.
    sys.path[0:1] = [str(ROOT), str(ROOT / "src")]

import argparse
import hashlib
import json
import os
import platform
import time

try:
    import repro  # noqa: F401 - the program under test
except ImportError as exc:
    sys.exit(
        f"bench.run: cannot import the program under test ({exc}); run from "
        "a checkout that has src/, or set PYTHONPATH=src"
    )

from bench.measure import run_untraced
from bench.metrics import END_TO_END_UNITS, PER_LAYER_UNITS
from bench.walk import run_walk
from bench.workloads import WORKLOADS, Workload, op_sequence_hash

OUT_DIR = Path(__file__).resolve().parent / "out"
DEFAULT_SECONDS = 10
#: ``--trace 1`` splits its seconds: untraced windows for the gen and
#: scrape counters, then the traced walk and its untraced replay.
HTTP_SHARE = 0.4
WALK_SHARE = 0.5


def _git_rev() -> str:
    """HEAD of the checkout, read from ``.git`` (no subprocess, no walk
    up the tree); ``unknown`` where the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _host() -> dict:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.partition(":")[2].strip()
                break
    except OSError:
        pass
    facts = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "cpu": model,
    }
    digest = hashlib.sha256(json.dumps(facts, sort_keys=True).encode())
    return {**facts, "fingerprint": digest.hexdigest()[:12]}


def _pin_to_one_cpu() -> int:
    """Keep the generator and the server it spawns on one CPU.

    The host's two vCPUs are time-shared with other tenants: a wake-up
    that crosses vCPUs waits for the host to schedule the other one,
    which costs milliseconds whenever the host is busy (a 2 ms point
    query then reads 7-20 ms, and CPU per op triples).  Every 1-client
    workload is a ping-pong between two processes that never need to
    run at once, so one CPU loses nothing and the numbers repeat.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def run_workload(workload: Workload, seed: int, seconds: float, trace: str) -> dict:
    """Measure one workload → its block of the result file."""
    full = trace != "1"
    untraced = run_untraced(
        workload, seed,
        seconds if full else seconds * HTTP_SHARE,
        **({} if full else {"setup_spawns": 1}),
    )
    result = {
        "why": workload.why,
        "clients": workload.clients,
        "op_sequence_hash": op_sequence_hash(workload, seed),
        "attempted": untraced.tally.attempted,
        "failed": untraced.tally.failed,
        "failures": untraced.tally.failures,
        "end_to_end": untraced.end_to_end,
        "raw": untraced.raw,
        "windows": untraced.windows,
    }
    result["end_to_end"]["failed_share"] = result["failed"] / result["attempted"]
    if trace == "0":
        return result
    OUT_DIR.mkdir(exist_ok=True)
    layers, walked = run_walk(
        workload, seed, seconds * WALK_SHARE, OUT_DIR / f"trace-{workload.name}.jsonl"
    )
    p50 = untraced.end_to_end["latency_p50_ms"]
    residual = p50 - layers["trace.walk_sum_ms"]
    per_layer = {
        **untraced.layers,
        **layers,
        "transport.residual_ms": residual,
        "trace.unattributed_share": residual / p50,
    }
    # Every per-layer metric appears, in table order; not crossed = None.
    result["per_layer"] = {name: per_layer.get(name) for name in PER_LAYER_UNITS}
    result["walked_ops"] = walked
    return result


def _print_report(name: str, block: dict, trace: str) -> None:
    print(f"\n== {name}  ({block['clients']} closed-loop client(s)) ==")
    print(f"   {block['why']}")

    def row(metric: str, value, unit: str) -> None:
        shown = "null" if value is None else f"{value:.6g}"
        print(f"   {metric:<34}{shown:>14} {unit}")

    if trace != "1":
        for metric, unit in END_TO_END_UNITS.items():
            row(metric, block["end_to_end"][metric], unit)
        for metric, value in block["raw"].items():
            row(f"  ({metric})", value, "")
    row("failed_share", block["end_to_end"]["failed_share"], "ratio")
    print(f"   ops attempted {block['attempted']}, failed {block['failed']}")
    for failure in block["failures"]:
        print(f"   FAILED {failure}")
    if "per_layer" in block:
        print(f"   -- per layer ({block['walked_ops']} ops walked) --")
        for metric, unit in PER_LAYER_UNITS.items():
            row(metric, block["per_layer"][metric], unit)


def _contract_metrics(block: dict, trace: str, prefix: str = "") -> dict:
    """The metrics object of the final line.  The contract wants a
    number for every metric, so a layer the workload does not cross
    reads 0 there; the report above and the result file say ``null``."""
    if trace == "0":
        values, units = block["end_to_end"], END_TO_END_UNITS
    else:
        values, units = block["per_layer"], PER_LAYER_UNITS
    return {
        prefix + name: {"value": values[name] or 0, "unit": unit}
        for name, unit in units.items()
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.run")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", choices=("0", "1", "both"), default="both")
    parser.add_argument("--out", type=Path, help="result file (default: bench/out/)")
    args = parser.parse_args(argv)

    names = [args.workload] if args.workload else list(WORKLOADS)
    pinned_cpu = _pin_to_one_cpu()
    result = {
        "meta": {
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "git_rev": _git_rev(),
            "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "pinned_cpu": pinned_cpu,
            **_host(),
        },
        "workloads": {},
    }
    for name in names:
        block = run_workload(WORKLOADS[name], args.seed, args.seconds, args.trace)
        result["workloads"][name] = block
        _print_report(name, block, args.trace)

    OUT_DIR.mkdir(exist_ok=True)
    out = args.out or OUT_DIR / f"result-seed{args.seed}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"\nresult file: {out}")

    blocks = result["workloads"]
    attempted = sum(block["attempted"] for block in blocks.values())
    failed = sum(block["failed"] for block in blocks.values())
    metrics: dict = {}
    for name, block in blocks.items():
        prefix = "" if args.workload else f"{name}."
        for trace in ("0", "1") if args.trace == "both" else (args.trace,):
            metrics.update(_contract_metrics(block, trace, prefix))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
