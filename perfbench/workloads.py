"""The benchmark's job runners: set-up, one job, and the checks on its output.

Everything here calls the mapper through its public functions and reads
counters from the objects they return; nothing under ``src/`` changes.

Matcher counters are taken as per-call deltas.  ``MappingResult.counters``
is documented as per-run, but it is ``matcher.stats.as_dict()`` of the
matcher that ran, and a shared :class:`~repro.core.match.Matcher` keeps
adding to the same stats for its whole life (remapping C880s three
times on lib2 reports ``signature_hits`` 238, 568, 898).  So the
benchmark snapshots the stats before and after every mapping call and
keeps the difference.
"""

from __future__ import annotations

import math
import os
import statistics
import tempfile
import time
import tracemalloc
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.check.certificate import certify_mapping
from repro.core.cover import build_cover
from repro.core.dag_mapper import map_dag
from repro.core.labeling import compute_labels
from repro.core.match import Matcher, MatchKind
from repro.core.result import MappingResult
from repro.core.tree_mapper import map_tree
from repro.errors import NetworkError
from repro.library.patterns import PatternSet
from repro.network.blif import loads_blif
from repro.network.decompose import decompose_network
from repro.network.simulate import check_equivalent
from repro.perf.campaign import stream_campaign
from repro.perf.counters import RunStats
from repro.perf.parallel import resolve_library
from repro.timing.sta import analyze

from inputs import CAMPAIGN_LIBRARIES, LIBRARIES, BlifJob
from spans import Tracer

__all__ = [
    "CheckFailed", "JobOutcome", "InProcess", "Campaign", "COUNTER_NAMES",
]

#: Matcher counters summed over every mapping call of a run.
COUNTER_NAMES = (
    "signature_hits", "signature_misses", "feasibility_hits",
    "feasibility_misses", "bindings_enumerated", "groups_enumerated",
    "matches_replayed",
)

#: Tolerance for "delay equals the STA delay" (sums of the same pin
#: delays taken in a different order).
_DELAY_TOL = 1e-9


class CheckFailed(Exception):
    """A job's output failed one of the benchmark's checks."""


@dataclass
class JobOutcome:
    """What one job produced, or why it failed.

    ``error`` is ``None`` for a job that mapped and passed every check.
    ``wrong`` marks a failed check (a wrong output), as opposed to an
    error the program raised.
    """

    wall_s: float
    error: Optional[str] = None
    wrong: bool = False
    gates: int = 0
    delay: float = 0.0
    area: float = 0.0
    tree_delay: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None


class InProcess:
    """``tables``, ``random`` and ``wide_sop``: one shared Matcher per library.

    Each job runs ``loads_blif`` -> ``decompose_network`` -> ``map_dag``
    (-> ``map_tree`` when ``tree``) -> the checks.  With tracing on, the
    ``map_dag`` call is replaced by its three steps, ``compute_labels``
    -> ``build_cover`` -> ``analyze``, each in its own span.
    """

    def __init__(self, libraries: Sequence[str], tree: bool, tracer: Tracer):
        self.libraries = list(libraries)
        self.tree = tree
        self.tracer = tracer
        self.patterns: Dict[str, object] = {}
        self.matchers: Dict[str, Tuple[object, Optional[object]]] = {}
        self.counters: Dict[str, float] = dict.fromkeys(COUNTER_NAMES, 0)
        self.n_matches = 0
        self.cover_gates = 0

    # -- set-up ------------------------------------------------------
    def setup(self) -> Tuple[float, float]:
        """Build the pattern sets and matchers; return (build_s, init_s)."""
        build = init = 0.0
        for spec in self.libraries:
            start = time.perf_counter()
            patterns = PatternSet(resolve_library(spec), max_variants=LIBRARIES[spec])
            mid = time.perf_counter()
            dag = Matcher(patterns, MatchKind.STANDARD)
            tree = Matcher(patterns, MatchKind.EXACT) if self.tree else None
            end = time.perf_counter()
            build += mid - start
            init += end - mid
            self.patterns[spec] = patterns
            self.matchers[spec] = (dag, tree)
        return build, init

    def pattern_count(self) -> int:
        return sum(len(p.patterns) for p in self.patterns.values())

    # -- one job -----------------------------------------------------
    def run(self, index: int, job: BlifJob) -> JobOutcome:
        span = self.tracer.span
        start = time.perf_counter()
        outcome = JobOutcome(0.0)
        with span("job", job=index):
            try:
                self._run(job, outcome)
            except CheckFailed as exc:
                outcome.error, outcome.wrong = f"check: {exc}", True
            except Exception as exc:  # the program raised: a failed job
                outcome.error = f"{type(exc).__name__}: {exc}"
        outcome.wall_s = time.perf_counter() - start
        return outcome

    def _run(self, job: BlifJob, outcome: JobOutcome) -> None:
        span = self.tracer.span
        patterns = self.patterns[job.library]
        dag_matcher, tree_matcher = self.matchers[job.library]
        with span("network.blif"):
            net = loads_blif(job.blif, name_hint=job.name)
        with span("network.decompose"):
            subject = decompose_network(net)
        result = self._map_dag(subject, patterns, dag_matcher)
        tree = None
        if tree_matcher is not None:
            before = tree_matcher.stats.as_dict()
            with span("core.tree_mapper"):
                tree = map_tree(subject, patterns, matcher=tree_matcher)
            self._add_counters(before, tree_matcher.stats.as_dict())
        self._check(net, result, tree)
        outcome.gates = subject.n_gates
        outcome.delay = result.delay
        outcome.area = result.area
        outcome.tree_delay = tree.delay if tree is not None else 0.0
        self.n_matches += result.n_matches
        self.cover_gates += result.netlist.gate_count()

    def _map_dag(self, subject, patterns, matcher):
        before = matcher.stats.as_dict()
        if self.tracer.enabled:
            result = self._map_dag_traced(subject, patterns, matcher)
        else:
            result = map_dag(subject, patterns, matcher=matcher)
        self._add_counters(before, matcher.stats.as_dict())
        return result

    def _map_dag_traced(self, subject, patterns, matcher):
        """``map_dag`` step by step, one span per layer (same result)."""
        span = self.tracer.span
        start = time.perf_counter()
        with span("core.labeling"):
            labels = compute_labels(subject, patterns, matcher=matcher)
        with span("core.cover"):
            netlist = build_cover(labels, name=f"{subject.name}_dag")
        elapsed = time.perf_counter() - start
        with span("timing.sta"):
            analyze(netlist)
        return MappingResult(
            netlist=netlist, labels=labels, delay=labels.max_arrival,
            area=netlist.area(), cpu_seconds=elapsed, mode="dag",
            match_kind=matcher.kind.value, library=patterns.library.name,
            n_matches=labels.n_matches, counters=labels.match_stats,
            engine=matcher.engine,
        )

    def alloc_probe(self, job: BlifJob) -> Tuple[int, int]:
        """Peak bytes ``tracemalloc`` sees while labeling ``job`` afresh.

        Labels the job's subject with a new Matcher, so the peak holds
        the per-node caches a first sight of the circuit builds.  Runs
        outside the timed loop and its spans: ``tracemalloc`` slows the
        labeling several times over.  Returns (peak bytes, subject gates).
        """
        patterns = self.patterns[job.library]
        subject = decompose_network(loads_blif(job.blif, name_hint=job.name))
        matcher = Matcher(patterns, MatchKind.STANDARD)
        tracemalloc.start()
        try:
            compute_labels(subject, patterns, matcher=matcher)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak, subject.n_gates

    def _add_counters(self, before: Dict[str, float], after: Dict[str, float]) -> None:
        for name in COUNTER_NAMES:
            self.counters[name] += after[name] - before[name]

    def _check(self, net, result, tree) -> None:
        span = self.tracer.span
        with span("timing.sta"):
            sta = analyze(result.netlist).delay
        if not math.isclose(result.delay, sta, rel_tol=_DELAY_TOL, abs_tol=_DELAY_TOL):
            raise CheckFailed(f"delay {result.delay!r} != STA delay {sta!r}")
        with span("check.certificate"):
            report = certify_mapping(result)
        if report.errors():
            raise CheckFailed("certificate: " + "; ".join(
                d.format() for d in report.errors()[:3]))
        with span("network.simulate"):
            try:
                check_equivalent(net, result.netlist)
            except NetworkError as exc:
                raise CheckFailed(f"not equivalent to the source: {exc}") from None
        if tree is not None and result.delay > tree.delay + _DELAY_TOL:
            raise CheckFailed(
                f"dag delay {result.delay!r} > tree delay {tree.delay!r}")


class Campaign:
    """``campaign``: ``stream_campaign`` with one warm worker.

    One client, one job in flight (``max_inflight=1``): the next job is
    sent when the previous row comes back.  Set-up is the worker spawn
    plus its three cache bundles, closed by one tiny warm-up job per
    library, all timed before the first measured job.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.stats = None
        self.rows: List[object] = []
        self._stream = None
        self._tmp = None

    def setup(self, warmup: Sequence[object], jobs: Sequence[object]) -> float:
        """Start a stream and run it up to its first job after ``warmup``.

        Returns the elapsed time.  A set-up repeat passes no ``jobs``
        and calls :meth:`close` after it; shutting the pool down is not
        part of set-up.
        """
        self._tmp = tempfile.TemporaryDirectory(prefix=".perfbench-", dir=os.getcwd())
        self.stats = RunStats()
        start = time.perf_counter()
        self._stream = stream_campaign(
            list(warmup) + list(jobs), workers=1, max_inflight=1,
            journal_path=os.path.join(self._tmp.name, "journal.jsonl"),
            stats=self.stats,
        )
        rows = [next(self._stream).row for _ in warmup]
        elapsed = time.perf_counter() - start
        _require_ok(rows)
        return elapsed

    def run(self, index: int) -> JobOutcome:
        start = time.perf_counter()
        with self.tracer.span("job", job=index):
            result = next(self._stream)
        outcome = JobOutcome(time.perf_counter() - start)
        row = result.row
        self.rows.append(row)
        if result.failed:
            outcome.error = f"{row.error_type}: {row.error}"
            outcome.wrong = row.error_type in ("CertificateError", "NetworkError")
        elif not row.verified:
            outcome.error, outcome.wrong = "check: row not verified", True
        else:
            outcome.gates = row.subject_gates
            outcome.delay = row.delay
            outcome.area = row.area
        return outcome

    def close(self) -> None:
        """Stop the stream: its workers exit and the journal is closed."""
        if self._stream is not None:
            self._stream.close()
            self._stream = None
        if self._tmp is not None:
            self._tmp.cleanup()
            self._tmp = None

    def init_costs(self) -> Tuple[float, int, Dict[str, float]]:
        """PatternSet build time, pattern count, per-library Matcher init.

        Measured in this process.  Each campaign job builds a fresh
        Matcher in the worker (``_run_campaign_job`` passes none), so
        the per-library init time is the per-job cost it pays.
        """
        build = 0.0
        count = 0
        init: Dict[str, float] = {}
        for spec in CAMPAIGN_LIBRARIES:
            start = time.perf_counter()
            patterns = PatternSet(resolve_library(spec), max_variants=LIBRARIES[spec])
            mid = time.perf_counter()
            samples = []
            for _ in range(3):
                t0 = time.perf_counter()
                Matcher(patterns, MatchKind.STANDARD)
                samples.append(time.perf_counter() - t0)
            build += mid - start
            count += len(patterns.patterns)
            init[spec] = statistics.median(samples)
        return build, count, init


def _require_ok(rows: Sequence[object]) -> None:
    bad = [row for row in rows if getattr(row, "failed", False)]
    if bad:
        raise RuntimeError(f"campaign warm-up job failed: {bad[0]}")
