"""Span-list helpers for tests and benchmarks: per-name rollups and the
"one connected trace" assertion."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class SpanRollup:
    """Per-span-name totals across one traced run."""

    name: str
    count: int = 0
    total_seconds: float = 0.0
    #: Sums of every numeric counter attribute seen on these spans
    #: (``rows_scanned``, ``request_bytes``, …).
    totals: dict[str, float] = field(default_factory=dict)

    def total(self, key: str) -> float:
        return self.totals.get(key, 0)


def summarize_spans(spans) -> dict[str, SpanRollup]:
    """Roll a list of :class:`repro.obs.Span` up by span name, summing
    numeric attributes: total bytes moved per transport leg, total rows
    scanned per operator tree — measured from the trace."""
    rollups: dict[str, SpanRollup] = {}
    for span in spans:
        rollup = rollups.get(span.name)
        if rollup is None:
            rollup = rollups[span.name] = SpanRollup(span.name)
        rollup.count += 1
        rollup.total_seconds += span.duration_seconds
        for key, value in span.attributes.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            rollup.totals[key] = rollup.totals.get(key, 0) + value
    return rollups


def trace_forest(spans) -> dict[str, list]:
    """Group spans by trace id (insertion order preserved per trace)."""
    forest: dict[str, list] = {}
    for span in spans:
        forest.setdefault(span.trace_id, []).append(span)
    return forest


def assert_single_connected_trace(spans, root_name: str | None = None):
    """Assert *spans* form ONE trace whose parent links all resolve.

    Every span must share a single trace id; exactly one span may be the
    root (no parent), and every other span's ``parent_id`` must name a
    span in the same set — a connected tree, not a forest of fragments.
    When *root_name* is given the root must carry it.  Returns the root.
    """
    spans = list(spans)
    if not spans:
        raise AssertionError("no spans recorded")
    forest = trace_forest(spans)
    if len(forest) != 1:
        fragments = {
            trace_id: sorted({span.name for span in members})
            for trace_id, members in forest.items()
        }
        raise AssertionError(
            f"expected one connected trace, got {len(forest)}: {fragments}"
        )
    ids = {span.span_id for span in spans}
    roots = [span for span in spans if span.parent_id is None]
    orphans = [
        span
        for span in spans
        if span.parent_id is not None and span.parent_id not in ids
    ]
    if len(roots) != 1 or orphans:
        raise AssertionError(
            f"trace is not a connected tree: roots="
            f"{[span.name for span in roots]} orphans="
            f"{[span.name for span in orphans]}"
        )
    root = roots[0]
    if root_name is not None and root.name != root_name:
        raise AssertionError(
            f"expected root span {root_name!r}, got {root.name!r}"
        )
    return root
