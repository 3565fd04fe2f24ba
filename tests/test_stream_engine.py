"""The streaming worker-pool engine (repro.perf.stream).

Exercises the engine through the generic task-bundle factory with
cheap picklable payloads: completion-order emission, bounded in-flight
backpressure against an instrumented lazy iterator, first-in first-out
dispatch, worker recycling (the cold-dispatch baseline), warm
cache-bundle counters and per-task error isolation.
"""

import pytest

from repro.errors import RunnerConfigError
from repro.perf.counters import RunStats
from repro.perf.parallel import CellFailure, RunPolicy, _task_bundle_factory
from repro.perf.stream import StreamJob, stream_jobs


def _scaled_setup(scale):
    """Module-level worker setup (must be picklable by reference)."""

    def runner(payload):
        if payload == "boom":
            raise ValueError("injected task error")
        return payload * scale

    return runner


def _run_stream(jobs, **kwargs):
    kwargs.setdefault("policy", RunPolicy(workers=2))
    kwargs.setdefault("eager_bundles", (("task",),))
    stats = kwargs.setdefault("stats", RunStats())
    engine = stream_jobs(
        iter(jobs), _task_bundle_factory, (_scaled_setup, (10,)), **kwargs
    )
    results = list(engine)
    return results, stats


class TestValidation:
    def test_zero_workers_rejected(self):
        with pytest.raises(RunnerConfigError, match=r"\[R002\]"):
            list(stream_jobs(iter([]), _task_bundle_factory,
                             (_scaled_setup, (1,)),
                             policy=RunPolicy(workers=0)))

    def test_max_inflight_below_workers_rejected(self):
        with pytest.raises(RunnerConfigError, match=r"\[R002\]"):
            list(stream_jobs(iter([]), _task_bundle_factory,
                             (_scaled_setup, (1,)),
                             policy=RunPolicy(workers=4), max_inflight=2))

    def test_recycle_after_below_one_rejected(self):
        with pytest.raises(RunnerConfigError, match=r"\[R002\]"):
            list(stream_jobs(iter([]), _task_bundle_factory,
                             (_scaled_setup, (1,)),
                             policy=RunPolicy(workers=1), recycle_after=0))

    def test_empty_iterator_completes_without_results(self):
        results, stats = _run_stream([])
        assert results == []
        assert stats.workers_spawned == 0


class TestStreaming:
    def test_every_job_yields_once_with_original_index(self):
        jobs = [StreamJob(label=f"t{i}", payload=i) for i in range(20)]
        results, stats = _run_stream(jobs)
        assert sorted(r.index for r in results) == list(range(20))
        for r in results:
            assert r.row == r.index * 10
            assert not r.failed
        assert stats.workers_spawned == 2

    def test_one_worker_runs_jobs_in_input_order(self):
        # One ready queue: an idle worker always takes the oldest job.
        jobs = [StreamJob(label=f"t{i}", payload=i) for i in range(12)]
        results, _ = _run_stream(jobs, policy=RunPolicy(workers=1))
        assert [r.index for r in results] == list(range(12))

    def test_backpressure_bounds_iterator_pull(self):
        pulled = []
        max_inflight = 4

        def feed():
            for i in range(30):
                pulled.append(i)
                yield StreamJob(label=f"t{i}", payload=i)

        consumed = 0
        engine = stream_jobs(
            feed(), _task_bundle_factory, (_scaled_setup, (1,)),
            policy=RunPolicy(workers=2), eager_bundles=(("task",),),
            max_inflight=max_inflight,
        )
        for _ in engine:
            consumed += 1
            # Engine invariant: in-flight (pulled minus completed) never
            # exceeds max_inflight, and completed >= consumed here.
            assert len(pulled) <= consumed + max_inflight + 1
        assert consumed == 30

    def test_eager_bundles_make_every_job_warm(self):
        jobs = [StreamJob(label=f"t{i}", payload=i) for i in range(16)]
        results, stats = _run_stream(jobs, policy=RunPolicy(workers=2))
        assert stats.warm_misses == 0
        assert stats.warm_hits == 16
        assert all(r.warm for r in results)

    def test_lazy_bundles_miss_once_per_worker(self):
        jobs = [StreamJob(label=f"t{i}", payload=i) for i in range(16)]
        results, stats = _run_stream(jobs, policy=RunPolicy(workers=2),
                                     eager_bundles=())
        assert stats.warm_misses == 2
        assert stats.warm_hits == 14
        assert sum(1 for r in results if not r.warm) == 2

    def test_task_error_becomes_failure_result(self):
        jobs = [
            StreamJob(label="ok", payload=3),
            StreamJob(label="bad", payload="boom"),
        ]
        results, stats = _run_stream(
            jobs, policy=RunPolicy(workers=2, retries=1, backoff=0.0)
        )
        by_label = {r.label: r for r in results}
        assert by_label["ok"].row == 30
        failure = by_label["bad"]
        assert failure.failed
        assert isinstance(failure.row, CellFailure)
        assert failure.row.error_type == "ValueError"
        assert failure.row.attempts == 2
        assert stats.retries == 1


class TestRecycling:
    def test_recycle_after_one_is_cold_dispatch(self):
        jobs = [StreamJob(label=f"t{i}", payload=i) for i in range(8)]
        results, stats = _run_stream(jobs, policy=RunPolicy(workers=2),
                                     recycle_after=1, eager_bundles=())
        assert len(results) == 8
        assert stats.warm_hits == 0
        assert stats.warm_misses == 8
        assert stats.workers_recycled == 8
        assert stats.workers_spawned >= 8

    def test_recycled_results_match_warm_results(self):
        jobs = [StreamJob(label=f"t{i}", payload=i) for i in range(10)]
        warm_results, _ = _run_stream(jobs)
        cold_results, _ = _run_stream(jobs, recycle_after=1)
        warm_rows = {r.index: r.row for r in warm_results}
        cold_rows = {r.index: r.row for r in cold_results}
        assert warm_rows == cold_rows

    def test_latency_percentiles_populated(self):
        jobs = [StreamJob(label=f"t{i}", payload=i) for i in range(10)]
        _, stats = _run_stream(jobs)
        assert stats.jobs_per_s > 0
        assert 0 < stats.p50_s <= stats.p95_s <= stats.p99_s
