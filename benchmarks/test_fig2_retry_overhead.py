"""Figure 2 — resilience layer overhead on the direct message pattern.

The acceptance bar for the retry/breaker layer: on a healthy service
(no faults, attempt 1 succeeds every time) routing ``send`` through
:class:`~repro.resilience.Resilience` must cost under 5% versus the
bare transport.  The no-fault fast path is one breaker ``allow()``, one
``record_success()`` and a clock read — no sleeping, no retry spans.
"""

from benchmarks.harness import Table, measure_wall
from repro.client.sql import SQLClient
from repro.resilience import Resilience, RetryPolicy
from repro.transport import LoopbackTransport

QUERY = "SELECT * FROM lineitems LIMIT 100"


def test_fig2_retry_overhead(benchmark, single):
    plain = SQLClient(LoopbackTransport(single.registry))
    resilient = SQLClient(
        LoopbackTransport(single.registry),
        resilience=Resilience(policy=RetryPolicy(max_attempts=4)),
    )

    def run_plain():
        plain.sql_execute(single.address, single.name, QUERY)

    def run_resilient():
        resilient.sql_execute(single.address, single.name, QUERY)

    run_plain()  # warm parser/plan caches before timing
    run_resilient()
    # Interleave the two measurements so clock drift and cache warming
    # hit both sides equally; best-of over all rounds.
    baseline = min(measure_wall(run_plain, repeat=10) for _ in range(4))
    layered = min(measure_wall(run_resilient, repeat=10) for _ in range(4))
    for _ in range(3):
        baseline = min(baseline, measure_wall(run_plain, repeat=10))
        layered = min(layered, measure_wall(run_resilient, repeat=10))
    overhead = layered / baseline - 1

    benchmark.pedantic(run_resilient, rounds=3, iterations=1)

    table = Table(
        "Figure 2 — resilience layer overhead (SQLExecute, 100 rows, no faults)",
        ["transport", "best-of-70 ms", "overhead"],
        note="retry policy 4 attempts + per-service breaker, zero faults",
    )
    table.add("bare loopback", f"{baseline * 1e3:8.3f}", "—")
    table.add("with resilience", f"{layered * 1e3:8.3f}", f"{overhead * 100:+5.1f}%")
    table.show()
    assert overhead < 0.05
