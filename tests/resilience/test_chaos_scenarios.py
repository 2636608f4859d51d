"""Chaos suite: seeded random fault plans over the paper's scenarios.

Every iteration drives a real consumer/service exchange (fig-1 direct
access, fig-3 factory/indirect access) through a randomly faulty fabric.
The contract under test is the paper's fault model end to end: whatever
the fabric does, the consumer either gets the correct answer or a typed
DAIS/SOAP fault — never a hang (virtual time, bounded attempts) and
never a stack-trace-shaped crash.

Seeds derive from one base seed so failures replay exactly; set
``CHAOS_SEED`` to explore a different slice of the fault space, e.g.::

    CHAOS_SEED=123456 pytest tests/resilience/test_chaos_scenarios.py

(``make test-resilience`` runs the suite once with the fixed default and
once with a random seed.)
"""

import os
import time

import pytest

from repro.client.sql import SQLClient
from repro.resilience import BreakerConfig, Resilience, RetryPolicy, VirtualClock
from repro.soap.fault import SoapFault
from repro.transport import LoopbackTransport
from repro.workload import RelationalWorkload, build_single_service
from tests.faultinject.faults import FaultPlan, FaultyTransport

BASE_SEED = int(os.environ.get("CHAOS_SEED", "20060806"))
ITERATIONS = 120  # per scenario; two scenarios -> >= 200 total
RATE = 0.3
QUERY = "SELECT COUNT(*) FROM customers"
EXPECTED = [("4",)]


@pytest.fixture(scope="module")
def deployment():
    return build_single_service(RelationalWorkload(customers=4))


def chaos_client(deployment, seed):
    clock = VirtualClock()
    plan = FaultPlan.chaos(seed=seed, rate=RATE)
    resilience = Resilience(
        policy=RetryPolicy(max_attempts=4, budget_seconds=30.0),
        breaker=BreakerConfig(failure_threshold=8, reset_timeout=1.0),
        clock=clock,
        seed=seed,
    )
    transport = FaultyTransport(
        LoopbackTransport(deployment.registry),
        plan,
        clock=clock,
        resilience=resilience,
    )
    return SQLClient(transport), resilience, clock


def run_direct(client, deployment):
    rowset = None
    try:
        rowset = client.sql_query_rowset(deployment.address, deployment.name, QUERY)
    except SoapFault as fault:
        return type(fault).__name__
    assert rowset.rows == EXPECTED
    return "ok"


def run_factory(client, deployment):
    factory = None
    try:
        factory = client.sql_execute_factory(
            deployment.address, deployment.name, QUERY
        )
        rowset = client.get_sql_rowset(factory.address, factory.abstract_name)
    except SoapFault as fault:
        return type(fault).__name__
    finally:
        if factory is not None:
            try:
                client.destroy(deployment.address, factory.abstract_name)
            except SoapFault:
                pass  # cleanup rides the same faulty fabric
    assert rowset.rows == EXPECTED
    return "ok"


class TestChaos:
    def run_scenario(self, deployment, scenario, seed_offset):
        outcomes = {}
        retries = 0
        virtual_time = 0.0
        started = time.monotonic()
        for i in range(ITERATIONS):
            seed = BASE_SEED + seed_offset + i
            client, resilience, clock = chaos_client(deployment, seed)
            try:
                outcome = scenario(client)
            except SoapFault:
                raise  # scenario() already classifies these
            except Exception as exc:  # noqa: BLE001 - the property under test
                pytest.fail(
                    f"seed {seed}: untyped crash "
                    f"{type(exc).__name__}: {exc}"
                )
            outcomes[outcome] = outcomes.get(outcome, 0) + 1
            retries += resilience.metrics.counter("resilience.retries").total()
            virtual_time += clock.now()
        wall = time.monotonic() - started
        return outcomes, retries, virtual_time, wall

    def test_direct_access_under_chaos(self, deployment):
        outcomes, retries, virtual_time, wall = self.run_scenario(
            deployment,
            lambda client: run_direct(client, deployment),
            seed_offset=0,
        )
        # The resilience layer must have absorbed real faults ...
        assert retries > 0
        assert outcomes.get("ok", 0) > ITERATIONS // 2
        # ... and every non-ok outcome is a *typed* fault name.
        assert all(
            k == "ok" or k.endswith("Fault") for k in outcomes
        ), outcomes
        # Backoff waited in virtual time only: the wall stays flat even
        # though the simulated timeline slept for real seconds.
        assert wall < 5.0, f"chaos run too slow: {wall:.2f}s ({outcomes})"

    def test_factory_access_under_chaos(self, deployment):
        outcomes, retries, _, wall = self.run_scenario(
            deployment,
            lambda client: run_factory(client, deployment),
            seed_offset=10_000,
        )
        assert retries > 0
        assert outcomes.get("ok", 0) > ITERATIONS // 2
        assert all(
            k == "ok" or k.endswith("Fault") for k in outcomes
        ), outcomes
        assert wall < 5.0, f"chaos run too slow: {wall:.2f}s ({outcomes})"

    def test_chaos_timeline_is_replayable(self, deployment):
        """Same seed, same faults, same sleeps — byte-for-byte."""

        def timeline(seed):
            client, resilience, clock = chaos_client(deployment, seed)
            outcome = run_direct(client, deployment)
            return outcome, list(clock.sleeps)

        seed = BASE_SEED + 31
        assert timeline(seed) == timeline(seed)
