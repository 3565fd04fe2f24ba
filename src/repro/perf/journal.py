"""JSONL run journal for campaign streams (tables included).

Every finished job of a :func:`repro.perf.campaign.stream_campaign` run
is appended as one JSON line the moment it completes, so a crashed,
interrupted or killed run loses at most the jobs that were in flight.
``--resume <journal>`` replays the journal: jobs recorded as ``ok``
under the *same job key* are reconstructed without re-running, failed
or missing jobs run again, and the merged result is identical to an
uninterrupted run because row payloads round-trip through JSON exactly
(Python serialises floats via ``repr``, which is lossless).

The job key (:meth:`repro.perf.campaign.CampaignJob.key`) is the
canonical JSON of every job field except the scheduling-only
``weight``, so a row is never replayed for a job that differs in mode,
target, source or any other field that can change it.

Record shapes (schema ``repro-run-journal/3``)::

    {"schema": ..., "event": "start", "names": [...], "jobs": N,
     "cell_timeout": ..., "retries": ..., "resumed_cells": N}
    {"event": "cell", "status": "ok", "name": ..., "job": {...},
     "attempts": N, "wall_s": ..., "row": {...row fields...}}
    {"event": "cell", "status": "failed", ..., "failure": {...}}
    {"event": "end", "stats": {...RunStats fields...}}

Older schemas are refused with ``R004``.  ``repro-run-journal/1``
keyed jobs by library, kind, label and three flags only, so a resume
could replay a row of another mode or target.  ``repro-run-journal/2``
keys carry the removed ``engine`` job field, so none of them can match
a current job.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.errors import JournalError

if TYPE_CHECKING:
    from repro.perf.parallel import RunPolicy

__all__ = [
    "JOURNAL_SCHEMA",
    "CellKey",
    "JournalState",
    "JournalWriter",
    "load_journal",
]

JOURNAL_SCHEMA = "repro-run-journal/3"

#: A job key: the canonical (sorted-keys) JSON of the job's identity
#: fields, as built by :meth:`repro.perf.campaign.CampaignJob.key`.
CellKey = str


@dataclass
class JournalState:
    """Everything :func:`load_journal` recovered from a journal file."""

    path: str
    #: job key -> row payload of the *last* ok record for that key.
    completed: Dict[CellKey, Dict[str, object]] = field(default_factory=dict)
    #: every parsed record, in file order (for reporting/tests).
    records: List[Dict[str, object]] = field(default_factory=list)

    def completed_row(self, key: CellKey) -> Optional[object]:
        """The reconstructed row for ``key``, or None."""
        entry = self.completed.get(key)
        if entry is None:
            return None
        from repro.perf.campaign import row_from_payload

        return row_from_payload(json.loads(key)["mode"], entry)


def load_journal(path: str) -> JournalState:
    """Parse a journal; raises :class:`JournalError` (``R004``) when broken.

    A truncated *final* line (the run died mid-write) is tolerated and
    ignored; malformed earlier lines or a wrong schema are errors.
    """
    if not os.path.exists(path):
        raise JournalError(f"[R004] run journal {path!r} does not exist")
    state = JournalState(path=path)
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError:
            if lineno == len(lines):
                break  # torn tail write from a killed run
            raise JournalError(
                f"[R004] run journal {path}:{lineno}: malformed JSON record"
            )
        if not isinstance(record, dict):
            raise JournalError(
                f"[R004] run journal {path}:{lineno}: record is not an object"
            )
        schema = record.get("schema")
        if schema is not None and schema != JOURNAL_SCHEMA:
            raise JournalError(
                f"[R004] run journal {path}:{lineno}: schema {schema!r} "
                f"is not {JOURNAL_SCHEMA!r}; older journals keyed jobs "
                "by other fields and cannot be resumed safely, so re-run "
                "without --resume"
            )
        state.records.append(record)
        if record.get("event") != "cell":
            continue
        job = record.get("job")
        if not isinstance(job, dict):
            raise JournalError(
                f"[R004] run journal {path}:{lineno}: cell record is "
                "missing the 'job' field"
            )
        if record.get("status") != "ok":
            continue  # failed jobs run again on resume
        row = record.get("row")
        if not isinstance(row, dict):
            raise JournalError(
                f"[R004] run journal {path}:{lineno}: ok record "
                "carries no row payload"
            )
        state.completed[json.dumps(job, sort_keys=True)] = row
    return state


class JournalWriter:
    """Append-only journal emitter; one ``open``+``fsync`` per record.

    Opening per record (instead of holding the handle) keeps every line
    durable against the supervisor itself being killed, which is the
    exact scenario the journal exists for.
    """

    def __init__(self, path: str):
        self.path = path

    def _append(self, record: Dict[str, object]) -> None:
        line = json.dumps(record, sort_keys=True)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def start(
        self, names: List[str], policy: "RunPolicy", resumed_cells: int
    ) -> None:
        self._append(
            {
                "schema": JOURNAL_SCHEMA,
                "event": "start",
                "names": list(names),
                "jobs": policy.workers,
                "cell_timeout": policy.cell_timeout,
                "retries": policy.retries,
                "resumed_cells": resumed_cells,
            }
        )

    def cell(self, key: CellKey, row: Any, attempts: int, wall_s: float) -> None:
        """Record one finished job: a result row or a ``CellFailure``."""
        job = json.loads(key)
        failed = getattr(row, "failed", False)
        self._append(
            {
                "event": "cell",
                "status": "failed" if failed else "ok",
                "name": job["label"],
                "job": job,
                "attempts": attempts,
                "wall_s": round(wall_s, 6),
                "failure" if failed else "row": (
                    row.as_dict() if failed else dataclasses.asdict(row)
                ),
            }
        )

    def end(self, stats: Dict[str, object]) -> None:
        self._append({"event": "end", "stats": stats})
