"""Compare two sets of benchmark results.

    python -m bench.compare A B

``A`` and ``B`` are result files written by ``bench.run`` (or
directories of them — one file per invocation).  One row is printed
per (workload, end-to-end metric): both medians, how far B is worse
than A, the bound from ``BENCHMARK.json`` and a verdict:

* ``worse``      — B's median is worse than A's by more than the bound;
* ``unresolved`` — within the bound, but a side's own spread (between
  its invocations, or between the windows of its one invocation) is
  wider than the bound, so "unchanged" cannot be claimed;
* ``ok``         — within the bound and both sides repeat within it.

Exits 1 when any row is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from bench import stats

ROOT = Path(__file__).resolve().parent.parent


def load_side(path: Path) -> list[dict]:
    """The result files of one side (a file, or every ``*.json`` in a
    directory)."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    if not files:
        raise SystemExit(f"bench.compare: no result files in {path}")
    return [json.loads(file.read_text()) for file in files]


def _values(side: list[dict], workload: str, metric: str) -> tuple[float, float]:
    """(median, own spread) of *metric* on *workload* for one side."""
    blocks = [
        result["workloads"][workload]
        for result in side
        if workload in result["workloads"]
    ]
    per_run = [block["end_to_end"][metric] for block in blocks]
    if len(per_run) > 1:
        return stats.median(per_run), stats.spread(per_run)
    windows = [w[metric] for w in blocks[0]["windows"] if metric in w]
    return per_run[0], stats.spread(windows)


def compare(side_a: list[dict], side_b: list[dict], contract: dict) -> list[dict]:
    rows = []
    shared = [
        name
        for name in side_a[0]["workloads"]
        if any(name in result["workloads"] for result in side_b)
    ]
    for workload in shared:
        for spec in contract["end_to_end"]:
            metric, bound = spec["name"], spec["bound"]
            a, spread_a = _values(side_a, workload, metric)
            b, spread_b = _values(side_b, workload, metric)
            worsening = (b - a) / a if spec["better"] == "lower" else (a - b) / a
            if worsening > bound:
                verdict = "worse"
            elif max(spread_a, spread_b) > bound:
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append(
                {
                    "workload": workload,
                    "metric": metric,
                    "unit": spec["unit"],
                    "a": a,
                    "b": b,
                    "worsening": worsening,
                    "spread": max(spread_a, spread_b),
                    "bound": bound,
                    "verdict": verdict,
                }
            )
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.compare")
    parser.add_argument("a", type=Path, help="baseline result file or directory")
    parser.add_argument("b", type=Path, help="candidate result file or directory")
    parser.add_argument(
        "--contract", type=Path, default=ROOT / "BENCHMARK.json",
        help="where the bounds come from (default: the repository's BENCHMARK.json)",
    )
    args = parser.parse_args(argv)

    contract = json.loads(args.contract.read_text())
    rows = compare(load_side(args.a), load_side(args.b), contract)
    print(
        f"{'workload':<16}{'metric':<22}{'A':>12}{'B':>12}"
        f"{'worse by':>10}{'spread':>9}{'bound':>8}  verdict"
    )
    for row in rows:
        print(
            f"{row['workload']:<16}{row['metric']:<22}{row['a']:>12.5g}"
            f"{row['b']:>12.5g}{row['worsening']:>+10.1%}{row['spread']:>9.1%}"
            f"{row['bound']:>8.0%}  {row['verdict']}"
        )
    worse = [row for row in rows if row["verdict"] == "worse"]
    unresolved = sum(row["verdict"] == "unresolved" for row in rows)
    print(f"\n{len(rows)} rows: {len(worse)} worse, {unresolved} unresolved")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
