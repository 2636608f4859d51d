import pytest

from bench import stats
from bench.spans import NullRecorder, SpanRecorder


def test_tail_rule_picks_p90_at_100_and_p99_at_1000():
    assert stats.tail_percentile(100) == 90.0
    assert stats.tail_percentile(1000) == 99.0
    assert stats.tail_percentile(999) == 90.0
    assert stats.tail_percentile(10_000) == 99.9
    assert stats.tail_percentile(20) == 50.0
    assert stats.tail_percentile(3) == 50.0


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 90) == 90
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_spread_is_interquartile_share_of_median():
    assert stats.spread([10.0] * 10) == 0.0
    assert stats.spread([5.0]) == 0.0
    values = [90, 95, 100, 100, 100, 100, 100, 105, 110, 200]
    assert 0.05 < stats.spread(values) < 0.15  # the outlier does not decide it


def test_self_time_is_span_minus_children():
    recorder = SpanRecorder()
    trace = recorder.start_trace()
    with recorder.span("op"):
        with recorder.span("call"):
            with recorder.span("step"):
                pass
        with recorder.span("call"):
            pass
    spans = {record[0]: record for record in recorder.spans}
    assert [record[3] for record in recorder.spans] == ["op", "call", "step", "call"]
    assert {record[1] for record in recorder.spans} == {trace}
    assert [record[2] for record in recorder.spans] == [None, 1, 2, 1]
    own = recorder.self_times_ns()

    def duration(span_id):
        return spans[span_id][5] - spans[span_id][4]

    assert own[1] == duration(1) - duration(2) - duration(4)
    assert own[2] == duration(2) - duration(3)
    assert own[3] == duration(3)
    assert all(value >= 0 for value in own.values())


def test_totals_group_by_trace_and_name(tmp_path):
    recorder = SpanRecorder()
    for _ in range(2):
        recorder.start_trace()
        with recorder.span("op"):
            with recorder.span("step"):
                pass
            with recorder.span("step"):
                pass
    totals = recorder.totals_by_trace_ms()
    assert sorted(totals) == [1, 2]
    assert set(totals[1]) == {"op", "step"}
    path = tmp_path / "trace.jsonl"
    recorder.write_jsonl(path)
    lines = path.read_text().splitlines()
    assert len(lines) == 6
    assert '"self_ns"' in lines[0]


def test_null_recorder_records_nothing():
    recorder = NullRecorder()
    recorder.start_trace()
    with recorder.span("op"):
        with recorder.span("step"):
            pass
    assert recorder.spans == []
