"""The benchmark's own span recorder.

No span is added inside ``src/``: the layer walk wraps each call it
makes into a layer's public function in one of these spans.  A span is
``(span_id, trace_id, parent_id, name, start_ns, end_ns)``; spans of
one op share a trace id; everything stays in memory until
:meth:`SpanRecorder.write_jsonl`.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class _Span:
    __slots__ = ("recorder", "record")

    def __init__(self, recorder: "SpanRecorder", record: list) -> None:
        self.recorder = recorder
        self.record = record

    def __enter__(self) -> "_Span":
        self.recorder._stack.append(self.record[0])
        self.record[4] = time.perf_counter_ns()
        return self

    def __exit__(self, *exc_info) -> None:
        self.record[5] = time.perf_counter_ns()
        self.recorder._stack.pop()


class SpanRecorder:
    """Records nested spans; one trace id per op."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._trace_id = 0

    def start_trace(self) -> int:
        """Begin the next op: its spans share the returned trace id."""
        self._trace_id += 1
        return self._trace_id

    def span(self, name: str) -> _Span:
        parent = self._stack[-1] if self._stack else None
        record = [len(self.spans) + 1, self._trace_id, parent, name, 0, 0]
        self.spans.append(record)
        return _Span(self, record)

    # -- rollups ---------------------------------------------------------------

    def self_times_ns(self) -> dict[int, int]:
        """Span id → its duration minus the interval its children cover
        (children of one parent never overlap here: the walk is
        single-threaded)."""
        own = {record[0]: record[5] - record[4] for record in self.spans}
        for record in self.spans:
            if record[2] is not None:
                own[record[2]] -= record[5] - record[4]
        return own

    def totals_by_trace_ms(self) -> dict[int, dict[str, float]]:
        """Trace id → span name → summed duration in ms."""
        totals: dict[int, dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        for _, trace_id, _, name, start, end in self.spans:
            totals[trace_id][name] += (end - start) / 1e6
        return totals

    def write_jsonl(self, path) -> None:
        own = self.self_times_ns()
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, trace_id, parent, name, start, end in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "span": span_id,
                            "trace": trace_id,
                            "parent": parent,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "self_ns": own[span_id],
                        }
                    )
                    + "\n"
                )


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


class NullRecorder:
    """Same surface, records nothing — the untraced replay that
    ``trace.overhead_share`` compares the traced walk against."""

    spans: list = []
    _NULL = _NullSpan()

    def start_trace(self) -> int:
        return 0

    def span(self, name: str) -> _NullSpan:
        return self._NULL
