"""Seeded chaos runs against resilient clients, in virtual time.

``python -m tests.faultinject.chaos`` (from the repo root, ``src`` on
``PYTHONPATH``) runs seeded fault plans over the direct-access scenario
and tallies the outcomes — every run must end in either a correct answer
or a typed DAIS fault — then renders one retried call as a trace with
its ``rpc.retry`` attempts visible.
"""

from repro.client.sql import SQLClient
from repro.obs import get_tracer, render_trace_tree, use_exporter
from repro.resilience import Resilience, RetryPolicy, VirtualClock
from repro.soap.fault import SoapFault
from repro.transport import LoopbackTransport
from repro.workload import RelationalWorkload, build_single_service
from tests.faultinject.faults import FaultPlan, FaultyTransport

SEED = 7
ITERATIONS = 40
RATE = 0.3
QUERY = "SELECT COUNT(*) FROM customers"


def main() -> None:
    deployment = build_single_service(RelationalWorkload(customers=4))
    expected = deployment.client.sql_query_rowset(
        deployment.address, deployment.name, QUERY
    ).rows

    outcomes: dict[str, int] = {}
    total_retries = total_injected = 0
    virtual_seconds = 0.0
    sample_tree = None
    for seed in range(SEED, SEED + ITERATIONS):
        clock = VirtualClock()
        resilience = Resilience(
            policy=RetryPolicy(max_attempts=4, budget_seconds=30.0),
            clock=clock,
            seed=seed,
        )
        transport = FaultyTransport(
            LoopbackTransport(deployment.registry),
            FaultPlan.chaos(seed=seed, rate=RATE),
            clock=clock,
            resilience=resilience,
        )
        client = SQLClient(transport)
        with use_exporter() as exporter:
            with get_tracer().span("consumer.request", seed=seed):
                try:
                    rows = client.sql_query_rowset(
                        deployment.address, deployment.name, QUERY
                    ).rows
                    assert rows == expected, f"wrong answer under seed {seed}"
                    outcome = "ok"
                except SoapFault as fault:
                    outcome = type(fault).__name__
            if exporter.spans("rpc.retry") and sample_tree is None and outcome == "ok":
                sample_tree = render_trace_tree(exporter.spans())
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
        total_retries += int(resilience.metrics.counter("resilience.retries").total())
        total_injected += int(
            transport.metrics.counter("faultinject.injected").total()
        )
        virtual_seconds += clock.now()

    print(
        f"chaos — {ITERATIONS} seeded runs "
        f"(base seed {SEED}, fault rate {RATE:.0%}):\n"
    )
    for outcome in sorted(outcomes):
        print(f"  {outcome:<28} {outcomes[outcome]:>4}")
    print(
        f"\n  faults injected: {total_injected}, retries taken: "
        f"{total_retries}, virtual backoff time: {virtual_seconds:.2f}s "
        f"(wall time: none — virtual clock)"
    )
    if sample_tree:
        print("\none retried call, as a single connected trace:\n")
        print(sample_tree)


if __name__ == "__main__":
    main()
