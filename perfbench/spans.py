"""In-memory span recorder for the benchmark's traced run.

A span is recorded around each call the benchmark makes into one layer
of the mapper: name, start, end, parent span and job id.  Spans stay in
memory and are written out once the run ends.  A layer's *self time* is
its span's duration minus the time its child spans cover; since the
benchmark is single-threaded, children never overlap, so that is the
duration minus the sum of the children's durations.

With tracing off, :meth:`Tracer.span` hands back one shared no-op
context manager, so the untraced run pays a method call per layer call
and nothing else.
"""

from __future__ import annotations

import contextlib
import json
import time
from typing import Dict, Iterator, List, Optional

__all__ = ["Span", "Tracer"]

_OFF = contextlib.nullcontext()


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "job")

    def __init__(self, span_id: int, name: str, start: float,
                 parent: Optional[int], job: Optional[int]):
        self.id = span_id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.job = job

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> Dict[str, object]:
        return {name: getattr(self, name) for name in self.__slots__}


class Tracer:
    """Records nested spans when ``enabled``; otherwise does nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[Span] = []
        self._stack: List[Span] = []

    def span(self, name: str, job: Optional[int] = None):
        """Context manager timing one layer call (a no-op when disabled).

        ``job`` defaults to the enclosing span's job id.
        """
        if not self.enabled:
            return _OFF
        return self._record(name, job)

    @contextlib.contextmanager
    def _record(self, name: str, job: Optional[int]) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        if job is None and parent is not None:
            job = parent.job
        span = Span(len(self.spans), name,
                    time.perf_counter(), parent.id if parent else None, job)
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the time its children cover."""
        covered: Dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] = covered.get(span.parent, 0.0) + span.duration
        return {s.id: s.duration - covered.get(s.id, 0.0) for s in self.spans}

    def self_time_by_name(self) -> Dict[str, float]:
        """Layer name -> summed self time over all of its spans."""
        own = self.self_times()
        out: Dict[str, float] = {}
        for span in self.spans:
            out[span.name] = out.get(span.name, 0.0) + own[span.id]
        return out

    def job_coverage(self, jobs: set) -> float:
        """Lowest share of a ``job`` span's duration its children cover.

        Over the ``job`` spans whose job id is in ``jobs``; 1.0 when
        there are none.
        """
        own = self.self_times()
        shares = [
            1.0 - own[s.id] / s.duration
            for s in self.spans
            if s.name == "job" and s.job in jobs and s.duration > 0
        ]
        return min(shares) if shares else 1.0

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.as_dict()) + "\n")
