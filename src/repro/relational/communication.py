"""The SQL communication area.

WS-DAIR responses carry a *SQL communication area* alongside any rowset
(paper §4.1, Figure 2: "the SQL realisation extends the message pattern to
also include information from the SQL communication area").  This mirrors
the classic SQLCA: an SQLCODE, a five-character SQLSTATE, a message and
the processed-row count.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SqlCommunicationArea:
    """Outcome summary of one SQL statement."""

    sqlcode: int            # 0 success, +100 no data, negative = error class
    sqlstate: str           # SQL standard 5-char state
    message: str
    rows_processed: int

    SUCCESS_STATE = "00000"
    NO_DATA_STATE = "02000"

    @classmethod
    def success(cls, rows_processed: int, message: str = "") -> "SqlCommunicationArea":
        """A normal completion; SQLCODE 100 when no rows were touched."""
        if rows_processed == 0:
            return cls(100, cls.NO_DATA_STATE, message or "no data", 0)
        return cls(0, cls.SUCCESS_STATE, message or "ok", rows_processed)

    @property
    def succeeded(self) -> bool:
        return self.sqlcode >= 0
