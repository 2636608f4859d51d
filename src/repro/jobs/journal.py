"""The crash-safe job journal: append-only, fsync'd JSONL.

Durability model: every phase-changing decision the
:class:`~repro.jobs.manager.JobManager` makes is appended here as one
JSON line and fsync'd *before* the decision takes effect for callers.
On restart, :func:`replay` folds the records back into the job table —
whatever the process was doing when it died, the journal holds a prefix
of the decision sequence, and replaying any prefix yields a legal state
machine (the crash-recovery suite kills the journal at every byte
offset and asserts exactly that).

A crash mid-append can leave one torn (partial) final line; replay
drops it — the decision it recorded never became visible, so dropping
it is the correct outcome.  A corrupt line *before* the final one means
real damage, not a crash, and raises :class:`JournalCorruptError`.

Record schema (one JSON object per line)::

    {"seq": 3, "event": "claimed", "job": "urn:dais:job:…",
     "at": 12.5, ...event fields}

Events: ``submitted`` (kind, payload), ``claimed`` (worker, attempts,
lease_expires), ``lease-expired`` (worker), ``completed`` (result),
``failed`` (fault_type, fault_message), ``cancelled``,
``cancel-requested``, ``recovered``, ``forgotten``.
"""

from __future__ import annotations

import io
import json
import os
from typing import Optional

__all__ = ["JobJournal", "JournalCorruptError", "replay_records"]


class JournalCorruptError(RuntimeError):
    """A non-final journal line failed to parse — the file is damaged."""


class JobJournal:
    """Appends job records to a JSONL file, fsync per record.

    ``path=None`` builds an in-memory journal (no durability — unit
    tests and the synchronous-only deployments that never read it
    back).  ``fsync=False`` keeps the write+flush but skips the
    ``os.fsync`` — the crash suite uses it because it simulates crashes
    by truncating bytes, not by killing the process.
    """

    def __init__(self, path: Optional[str] = None, fsync: bool = True) -> None:
        self.path = path
        self._fsync = fsync and path is not None
        if path is None:
            self._file = io.StringIO()
        else:
            _trim_torn_tail(path)
            self._file = open(path, "a", encoding="utf-8")
        self._seq = 0

    def append(self, event: str, job_id: str, at: float, **fields) -> dict:
        """Write one record and make it durable; returns the record."""
        self._seq += 1
        record = {"seq": self._seq, "event": event, "job": job_id, "at": at}
        for key in sorted(fields):
            if fields[key] is not None:
                record[key] = fields[key]
        self._file.write(json.dumps(record, sort_keys=True) + "\n")
        self._file.flush()
        if self._fsync:
            os.fsync(self._file.fileno())
        return record

    def close(self) -> None:
        if not self._file.closed and not isinstance(self._file, io.StringIO):
            self._file.close()

    # -- replay ------------------------------------------------------------

    def records(self) -> list[dict]:
        """Parse this journal's own backing store (memory or file)."""
        if isinstance(self._file, io.StringIO):
            return parse_journal_text(self._file.getvalue())
        self._file.flush()
        return read_journal(self.path)


def _trim_torn_tail(path: str) -> None:
    """Drop a torn (unterminated) final line before appending.

    A crash mid-append leaves the file without a trailing newline; the
    torn record never became durable, so it must be removed *before*
    new appends — otherwise the next record would concatenate onto the
    partial line and turn a survivable crash into mid-file corruption.
    """
    try:
        with open(path, "rb+") as handle:
            data = handle.read()
            if data and not data.endswith(b"\n"):
                handle.truncate(data.rfind(b"\n") + 1)
    except FileNotFoundError:
        pass


def read_journal(path: str) -> list[dict]:
    """Read and parse a journal file; missing file = empty journal."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except FileNotFoundError:
        return []
    return parse_journal_text(text)


def parse_journal_text(text: str) -> list[dict]:
    """Parse JSONL journal *text*, tolerating one torn final line."""
    records: list[dict] = []
    lines = text.split("\n")
    # A well-formed journal ends with "\n", so the final split element is
    # "".  Anything else in the last position is a torn tail to drop —
    # even when it happens to parse: a record is durable only once its
    # newline is on disk, and :func:`_trim_torn_tail` removes the same
    # bytes before the journal is appended to again.
    if lines and lines[-1]:
        lines = lines[:-1]
    for index, line in enumerate(lines):
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            # Every surviving line was newline-terminated, i.e. written
            # whole — a parse failure here is damage, not a crash.
            raise JournalCorruptError(
                f"journal line {index + 1} is corrupt: {line[:80]!r}"
            ) from None
        if not isinstance(record, dict):
            raise JournalCorruptError(
                f"journal line {index + 1} is not an object"
            )
        records.append(record)
    return records


def replay_records(records: list[dict]) -> dict[str, "Job"]:
    """Fold journal *records* into a job table.

    Pure function of the record list: replaying any prefix of a journal
    yields the job table as of that decision, with one adjustment — a
    job the journal leaves EXECUTING has no live worker in this process,
    so it is *not* touched here; the manager's
    :meth:`~repro.jobs.manager.JobManager.recover` hands such jobs back
    to PENDING (journalling the ``recovered`` edge so the decision is
    itself durable).
    """
    from repro.jobs.model import (
        CANCELLED,
        COMPLETED,
        ERROR,
        EXECUTING,
        PENDING,
        Job,
    )

    jobs: dict[str, Job] = {}
    for record in records:
        event = record.get("event", "")
        job_id = record.get("job", "")
        at = float(record.get("at", 0.0))
        if event == "submitted":
            jobs[job_id] = Job(
                job_id=job_id,
                kind=record.get("kind", ""),
                payload=dict(record.get("payload") or {}),
                phase=PENDING,
                created_at=at,
            )
            continue
        job = jobs.get(job_id)
        if event == "forgotten" and job is not None and job.terminal:
            # Only a terminal job is forgotten: its one legal successor.
            del jobs[job_id]
            continue
        if job is None or job.terminal:
            # A record for an unknown job can only follow mid-file damage
            # (replay of a *prefix* always sees submissions first); a
            # record after a terminal one means the writer lost a race it
            # had already journalled — neither occurs in a valid journal.
            raise JournalCorruptError(
                f"journal event {event!r} for "
                + ("unknown" if job is None else "terminal")
                + f" job {job_id!r}"
            )
        if event == "claimed":
            job.transition(EXECUTING)
            job.worker = record.get("worker")
            job.attempts = int(record.get("attempts", job.attempts + 1))
            job.lease_expires = record.get("lease_expires")
        elif event == "lease-expired":
            job.transition(PENDING)
            job.worker = None
            job.lease_expires = None
        elif event == "completed":
            job.transition(COMPLETED)
            job.result = dict(record.get("result") or {})
            job.worker = None
            job.lease_expires = None
        elif event == "failed":
            job.transition(ERROR)
            job.fault_type = record.get("fault_type", "")
            job.fault_message = record.get("fault_message", "")
            job.worker = None
            job.lease_expires = None
        elif event == "cancelled":
            job.transition(CANCELLED)
            job.worker = None
            job.lease_expires = None
        elif event == "cancel-requested":
            job.cancel_requested = True
        elif event == "recovered":
            job.transition(PENDING)
            job.worker = None
            job.lease_expires = None
        else:
            raise JournalCorruptError(f"unknown journal event {event!r}")
    return jobs
