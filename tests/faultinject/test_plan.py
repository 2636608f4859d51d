"""FaultPlan: rule matching, bounded firings, seeded determinism."""

from tests.faultinject.faults import (
    Busy,
    CHAOS_MENU,
    ConnectionRefused,
    ExpireResource,
    FaultPlan,
    Latency,
    LatencySpread,
    latency_percentiles,
)


class TestRules:
    def test_at_fires_on_exactly_one_call(self):
        plan = FaultPlan()
        plan.at(2, Busy())
        decisions = [plan.decide("a", "act") for _ in range(4)]
        assert [type(d).__name__ if d else None for d in decisions] == [
            None, "Busy", None, None,
        ]

    def test_after_fires_limited_times_from_index(self):
        plan = FaultPlan()
        plan.after(3, ExpireResource(), times=2)
        decisions = [plan.decide("a", "act") for _ in range(6)]
        fired = [i + 1 for i, d in enumerate(decisions) if d is not None]
        assert fired == [3, 4]

    def test_always_fires_every_matching_call(self):
        plan = FaultPlan()
        plan.always(Busy(), address="dais://b")
        assert plan.decide("dais://a", "act") is None
        assert isinstance(plan.decide("dais://b", "act"), Busy)
        assert isinstance(plan.decide("dais://b", "act"), Busy)

    def test_action_uri_match(self):
        plan = FaultPlan()
        plan.always(ConnectionRefused(), action_uri="urn:only-this")
        assert plan.decide("a", "urn:other") is None
        assert isinstance(plan.decide("a", "urn:only-this"), ConnectionRefused)

    def test_first_matching_rule_wins(self):
        plan = FaultPlan()
        plan.at(1, Busy())
        plan.always(ConnectionRefused())
        assert isinstance(plan.decide("a", "act"), Busy)
        assert isinstance(plan.decide("a", "act"), ConnectionRefused)

    def test_log_records_every_decision(self):
        plan = FaultPlan()
        plan.at(2, Busy())
        plan.decide("a", "act1")
        plan.decide("a", "act2")
        assert [(i, a) for i, _, a, _ in plan.log] == [(1, "act1"), (2, "act2")]
        assert plan.log[0][3] is None
        assert isinstance(plan.log[1][3], Busy)


class TestSeededRandomness:
    def test_same_seed_same_decisions(self):
        def run(seed):
            plan = FaultPlan.chaos(seed=seed, rate=0.5)
            out = []
            for _ in range(50):
                decision = plan.decide("a", "act")
                out.append(repr(decision))
            return out

        assert run(42) == run(42)
        assert run(42) != run(43)

    def test_probability_zero_and_one(self):
        silent = FaultPlan(seed=1)
        silent.with_probability(0.0, Busy())
        assert all(silent.decide("a", "x") is None for _ in range(20))
        loud = FaultPlan(seed=1)
        loud.with_probability(1.0, Busy())
        assert all(loud.decide("a", "x") is not None for _ in range(20))

    def test_chaos_rate_roughly_respected(self):
        plan = FaultPlan.chaos(seed=9, rate=0.25)
        fired = sum(
            1 for _ in range(400) if plan.decide("a", "x") is not None
        )
        assert 60 <= fired <= 140  # 100 expected; wide deterministic band

    def test_latency_spread_samples_within_bounds(self):
        spread = latency_percentiles(p50=0.02, p99=0.5)
        assert isinstance(spread, LatencySpread)
        plan = FaultPlan(seed=3)
        plan.always(spread)
        for _ in range(50):
            action = plan.decide("a", "x")
            assert isinstance(action, Latency)
            assert spread.low <= action.seconds <= spread.high

    def test_chaos_menu_covers_every_failure_mode(self):
        kinds = {type(a).__name__ for a in CHAOS_MENU}
        assert {
            "ConnectionRefused",
            "DropResponse",
            "Latency",
            "LatencySpread",
            "HttpStatus",
            "Busy",
            "ExpireResource",
        } <= kinds
