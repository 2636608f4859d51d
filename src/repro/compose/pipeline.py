"""The pipeline engine: typed, sequential activity composition."""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any

from repro.obs import MetricsRegistry, current_span

#: Engine-wide metrics: pipelines are built ad hoc (no long-lived
#: service object to hang a registry off), so failures land here.
METRICS = MetricsRegistry()

#: Activity failures by ``where=<activity label>`` — every exception the
#: engine converts into an :class:`ActivityError` is counted and
#: recorded on the active span before it propagates.
ERRORS = METRICS.counter(
    "compose.errors", "activity failures per activity label"
)


class ActivityError(Exception):
    """An activity failed; carries which one and why."""

    def __init__(self, activity: "Activity", cause: Exception) -> None:
        super().__init__(f"{type(activity).__name__} failed: {cause}")
        self.activity = activity
        self.cause = cause


class Activity(ABC):
    """One pipeline stage: consumes its predecessor's output."""

    #: Human-readable type tags for pre-execution compatibility checks.
    CONSUMES: str = "any"
    PRODUCES: str = "any"

    @abstractmethod
    def run(self, value: Any) -> Any:
        """Transform *value* into this activity's output."""

    @property
    def label(self) -> str:
        return type(self).__name__


@dataclass
class ActivityTrace:
    """What one activity did during a run."""

    label: str
    seconds: float
    output_summary: str


@dataclass
class PipelineResult:
    """Final output plus the per-activity execution trace."""

    output: Any
    trace: list[ActivityTrace] = field(default_factory=list)


class Pipeline:
    """A linear composition of activities.

    Type tags are checked at construction: an activity consuming
    ``"rowset"`` cannot follow one producing ``"xml"`` (``"any"``
    matches everything) — catching mis-wired requests before any data
    service is contacted.
    """

    def __init__(self, activities: list[Activity]) -> None:
        if not activities:
            raise ValueError("a pipeline needs at least one activity")
        for first, second in zip(activities, activities[1:]):
            if (
                first.PRODUCES != "any"
                and second.CONSUMES != "any"
                and first.PRODUCES != second.CONSUMES
            ):
                raise ValueError(
                    f"{second.label} consumes {second.CONSUMES!r} but "
                    f"{first.label} produces {first.PRODUCES!r}"
                )
        self._activities = list(activities)

    def execute(self, initial: Any = None) -> PipelineResult:
        """Run all activities in order; raises :class:`ActivityError` on
        the first failure (no partial-result recovery — callers that
        want retry wrap the pipeline)."""
        value = initial
        trace: list[ActivityTrace] = []
        for activity in self._activities:
            start = time.perf_counter()
            try:
                value = activity.run(value)
            except ActivityError as err:
                _record_failure(activity, err)
                raise
            except Exception as exc:
                _record_failure(activity, exc)
                raise ActivityError(activity, exc) from exc
            trace.append(
                ActivityTrace(
                    label=activity.label,
                    seconds=time.perf_counter() - start,
                    output_summary=_summarize(value),
                )
            )
        return PipelineResult(output=value, trace=trace)


def _record_failure(activity: Activity, exc: Exception) -> None:
    """Make an activity failure observable before it propagates."""
    span = current_span()
    if span.recording:
        span.record_exception(exc)
    ERRORS.inc(where=activity.label)


def _summarize(value: Any) -> str:
    if value is None:
        return "none"
    if isinstance(value, (list, tuple)):
        return f"{type(value).__name__}[{len(value)}]"
    if isinstance(value, bytes):
        return f"bytes[{len(value)}]"
    return type(value).__name__
