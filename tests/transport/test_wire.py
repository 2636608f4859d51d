"""Wire accounting and network-model tests."""

import pytest

from repro.transport import CallRecord, NetworkModel, WireStats
from repro.transport.wire import LAN, WAN


class TestNetworkModel:
    def test_zero_model_is_free(self):
        assert NetworkModel().transfer_time(10_000) == 0.0

    def test_latency_only(self):
        model = NetworkModel(latency_seconds=0.01)
        assert model.transfer_time(0) == 0.01
        assert model.transfer_time(10**6) == 0.01

    def test_bandwidth_term(self):
        model = NetworkModel(latency_seconds=0.0, bandwidth_bytes_per_second=1000)
        assert model.transfer_time(500) == 0.5

    def test_combined(self):
        model = NetworkModel(0.1, 100.0)
        assert model.transfer_time(50) == pytest.approx(0.6)

    def test_wan_slower_than_lan(self):
        assert WAN.transfer_time(10_000) > LAN.transfer_time(10_000)


class TestWireStats:
    def _record(self, action="urn:a", req=100, resp=200):
        return CallRecord("dais://svc", action, req, resp, 0.001)

    def test_accumulates(self):
        stats = WireStats()
        stats.record(self._record())
        stats.record(self._record(resp=300))
        assert stats.call_count == 2
        assert stats.bytes_sent == 200
        assert stats.bytes_received == 500
        assert stats.total_bytes == 700

    def test_modeled_seconds_sum(self):
        stats = WireStats()
        stats.record(self._record())
        stats.record(self._record())
        assert stats.modeled_seconds == pytest.approx(0.002)

    def test_by_action(self):
        stats = WireStats()
        stats.record(self._record(action="urn:a"))
        stats.record(self._record(action="urn:b", req=10, resp=10))
        stats.record(self._record(action="urn:a"))
        assert stats.by_action() == {"urn:a": 600, "urn:b": 20}

    def test_reset(self):
        stats = WireStats()
        stats.record(self._record())
        stats.reset()
        assert stats.call_count == 0
        assert stats.total_bytes == 0

    def test_records_are_bounded_and_totals_exact(self):
        """A long-lived transport keeps the recent calls only, while
        every total still counts each call ever made."""
        stats = WireStats()
        bound = WireStats.RECENT_CALLS
        for index in range(bound + 10):
            stats.record(
                self._record(action=f"urn:{index % 2}", req=index, resp=1)
            )
        assert len(stats.calls) == bound
        assert stats.calls[0].request_bytes == 10
        assert stats.calls[-1].request_bytes == bound + 9
        assert stats.call_count == bound + 10
        assert stats.bytes_sent == sum(range(bound + 10))
        assert stats.bytes_received == bound + 10
        assert stats.modeled_seconds == pytest.approx(0.001 * (bound + 10))
        assert stats.by_action() == {
            "urn:0": sum(i + 1 for i in range(0, bound + 10, 2)),
            "urn:1": sum(i + 1 for i in range(1, bound + 10, 2)),
        }
        stats.reset()
        assert list(stats.calls) == [] and stats.by_action() == {}
        stats.record(self._record())
        assert stats.calls[-1] == self._record() and stats.call_count == 1
