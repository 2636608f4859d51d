"""Property tests for the backoff math and the retry loop's budgets.

No hypothesis in the toolchain — the properties are driven by seeded
:mod:`random` sweeps, so failures reproduce from the printed seed.
"""

import random

import pytest

from repro.client.sql import SQLClient
from repro.core import ServiceBusyFault
from repro.resilience import Resilience, RetryPolicy, VirtualClock
from repro.transport import LoopbackTransport
from repro.workload import RelationalWorkload, build_single_service
from tests.faultinject.faults import Busy, FaultPlan, FaultyTransport

QUERY = "SELECT COUNT(*) FROM customers"


def random_policy(rng, **overrides):
    params = dict(
        max_attempts=rng.randint(1, 8),
        base_delay=rng.uniform(0.001, 0.5),
        multiplier=rng.uniform(1.0, 3.0),
        max_delay=rng.uniform(0.5, 5.0),
        jitter=rng.choice(["full", "none"]),
        budget_seconds=rng.choice([None, rng.uniform(0.5, 20.0)]),
    )
    params.update(overrides)
    return RetryPolicy(**params)


class TestBackoffMath:
    def test_caps_are_monotone_and_bounded(self):
        rng = random.Random(101)
        for _ in range(200):
            policy = random_policy(rng)
            caps = [policy.backoff_cap(n) for n in range(1, 12)]
            assert all(c <= policy.max_delay + 1e-12 for c in caps)
            assert all(b >= a - 1e-12 for a, b in zip(caps, caps[1:]))

    def test_jitter_stays_within_the_cap(self):
        rng = random.Random(202)
        for _ in range(200):
            policy = random_policy(rng, jitter="full")
            draw = random.Random(rng.randrange(2**30))
            for n in range(1, 9):
                delay = policy.delay(n, draw)
                assert 0.0 <= delay <= policy.backoff_cap(n)

    def test_no_jitter_is_exactly_the_cap(self):
        policy = RetryPolicy(jitter="none", base_delay=0.1, multiplier=2.0, max_delay=1.0)
        draw = random.Random(0)
        assert [policy.delay(n, draw) for n in (1, 2, 3, 4, 5)] == [
            0.1, 0.2, 0.4, 0.8, 1.0,
        ]

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter="bananas")


class TestRetryLoopProperties:
    """Drive the real loop against an always-busy service in virtual time."""

    @pytest.fixture(scope="class")
    def deployment(self):
        return build_single_service(RelationalWorkload(customers=2))

    def run_always_busy(self, deployment, policy, seed):
        clock = VirtualClock()
        plan = FaultPlan()
        plan.always(Busy())
        # Breaker generous enough to never interfere with the property.
        from repro.resilience import BreakerConfig

        resilience = Resilience(
            policy=policy,
            clock=clock,
            seed=seed,
            breaker=BreakerConfig(failure_threshold=1000),
        )
        transport = FaultyTransport(
            LoopbackTransport(deployment.registry),
            plan,
            clock=clock,
            resilience=resilience,
        )
        client = SQLClient(transport)
        with pytest.raises(ServiceBusyFault):
            client.sql_query_rowset(deployment.address, deployment.name, QUERY)
        return clock, plan

    def test_attempts_never_exceed_max(self, deployment):
        rng = random.Random(303)
        for i in range(30):
            policy = random_policy(rng, budget_seconds=None)
            clock, plan = self.run_always_busy(deployment, policy, seed=i)
            # Each attempt consults the plan exactly once.
            assert plan.calls_seen <= policy.max_attempts
            assert plan.calls_seen >= 1
            # Sleeps happen strictly between attempts.
            assert len(clock.sleeps) == plan.calls_seen - 1

    def test_total_budget_never_exceeded(self, deployment):
        rng = random.Random(404)
        for i in range(30):
            policy = random_policy(
                rng,
                max_attempts=8,
                budget_seconds=rng.uniform(0.01, 2.0),
            )
            clock, _ = self.run_always_busy(deployment, policy, seed=i)
            # Attempts cost zero virtual time, so elapsed == backoff slept;
            # the loop must never sleep past its budget.
            assert clock.now() <= policy.budget_seconds + 1e-9

    def test_unbudgeted_policy_takes_all_attempts(self, deployment):
        policy = RetryPolicy(max_attempts=6, budget_seconds=None)
        _, plan = self.run_always_busy(deployment, policy, seed=5)
        assert plan.calls_seen == 6
