"""A yardstick for the speed the CPU is running at right now.

The host's CPUs are shared: between quiet and busy phases of the host
the same run reads 1.2 ms or 1.8 ms per point query, a drift no median
removes because every sample in a phase is slowed alike.  One burst of
this fixed, stdlib-only mix (JSON decode/encode, a dict fill, a zlib
pass — interpreter loops and C calls, like the program under test) runs
beside the measured work; ``slowdown`` says how much slower than the
reference the bursts ran, and every reported time is divided by the
slowdown measured beside it.  Reported times therefore read "at the
reference speed": they repeat across host phases (the ratio of latency
to yardstick moved 1–2 % where latency alone moved 3–5 %) and are
roughly comparable across machines.  Raw times are kept in the result
file beside the scaled ones.
"""

from __future__ import annotations

import json
import time
import zlib

from bench import stats

#: One burst on this host in a quiet phase (CPython 3.11), run between
#: ops — after other code has had the caches ...
REFERENCE_MS = 0.160
#: ... and run back to back, caches warm (set-up brackets each spawn
#: with such a run).
REFERENCE_BACK_TO_BACK_MS = 0.115

_DOCUMENT = json.dumps(
    {
        "rows": [
            {"id": index, "name": f"customer-{index:05d}", "tags": ["a", "b", str(index)]}
            for index in range(40)
        ]
    }
)


def burst_ms() -> float:
    """Run the fixed mix once → how long it took."""
    started = time.perf_counter_ns()
    decoded = json.loads(_DOCUMENT)
    total = 0
    for row in decoded["rows"]:
        total += len(row["name"]) + row["id"]
    zlib.compress(json.dumps(decoded).encode("utf-8"), 6)
    table = {}
    for index in range(300):
        table[str(index)] = index * 2
    return (time.perf_counter_ns() - started) / 1e6


def bursts(count: int) -> list[float]:
    return [burst_ms() for _ in range(count)]


def slowdown(samples: list[float], reference_ms: float = REFERENCE_MS) -> float:
    """How many times slower than the reference the bursts ran."""
    return stats.median(samples) / reference_ms


def at_reference_speed(layers: dict, slowdown: float) -> dict:
    """Scale every time in *layers* (names ending ``_ms``, and the one
    ``_mb_s`` rate) by the slowdown measured beside it."""
    scaled = {}
    for name, value in layers.items():
        if value is not None and name.endswith("_ms"):
            value = value / slowdown
        elif value is not None and name.endswith("_mb_s"):
            value = value * slowdown
        scaled[name] = value
    return scaled
