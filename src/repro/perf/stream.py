"""Streaming warm-worker engine: the one batch driver of the package.

Every batch — the paper's table cells, mapping campaigns, fuzz
seeds — runs here, over the worker protocol of
:mod:`repro.perf.parallel`: private result pipes, crash isolation,
per-task timeouts with worker replacement, bounded exponential-backoff
retries and graceful ``KeyboardInterrupt``, in a *streaming* form:

* jobs arrive from an **unbounded iterator** and results are yielded in
  **completion order** the moment they finish, so an arbitrarily long
  campaign runs in constant memory;
* pulling from the iterator is throttled by **bounded in-flight
  backpressure** (``max_inflight``), so a fast producer cannot flood the
  supervisor;
* every job names a **cache bundle** key (library, variants,
  kind...).  A worker builds each distinct bundle exactly once —
  eagerly at init for the keys in ``eager_bundles``, lazily on first
  use otherwise — and reuses it for every later job with the same key.
  Whether a job was served warm is reported per result and counted in
  :class:`~repro.perf.counters.RunStats` (``warm_hits``/``warm_misses``);
* ready jobs wait in **one FIFO queue**; an idle worker takes the
  oldest, and a retried job rejoins the back of the queue once its
  backoff has passed;
* ``recycle_after=N`` retires a worker after N jobs and spawns a fresh
  replacement.  ``recycle_after=1`` is the *cold* baseline — every job
  pays a fresh process + bundle build — which is exactly what
  ``benchmarks/bench_throughput.py`` compares the warm pool against;
* jobs carrying a :data:`~repro.perf.journal.CellKey` are journalled
  through the run-journal writer, so campaigns resume from it.

The engine does not resolve env defaults, build libraries, or decide
orderings: it takes a resolved :class:`~repro.perf.parallel.RunPolicy`.
Drivers (:mod:`repro.perf.campaign`, :mod:`repro.fuzz.run`) own those
choices, and :func:`collect_rows` turns a stream back into one row per
job in input order.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import time
from collections import deque
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import RunnerConfigError, WorkerInitError
from repro.perf.counters import RunStats
from repro.perf.journal import CellKey, JournalWriter
from repro.perf.parallel import (
    _TICK,
    CellFailure,
    RunPolicy,
    _worker_main,
)

__all__ = ["StreamJob", "StreamResult", "collect_rows", "stream_jobs"]

#: A bundle key: any hashable, picklable tuple understood by the
#: driver's bundle factory (e.g. ``(library, variants, kind)``).
BundleKey = Tuple[object, ...]

#: ``factory(*factory_args)`` runs once per worker process and returns
#: ``build(bundle_key) -> runner``; ``runner(payload)`` runs one job.
BundleFactory = Callable[..., Callable[[BundleKey], Callable[[Any], Any]]]


@dataclass
class StreamJob:
    """One unit of streamed work.

    Attributes:
        label: display name; also the target of ``REPRO_FAULT_INJECT``.
        payload: picklable argument handed to the bundle's runner.
        bundle: cache-bundle key this job needs (see module docstring).
        key: optional journal identity; when set (and the engine has a
            writer) the finished job is appended to the run journal.
    """

    label: str
    payload: object
    bundle: BundleKey = ("task",)
    key: Optional[CellKey] = None


@dataclass
class StreamResult:
    """One finished job, yielded in completion order.

    Attributes:
        index: 0-based position of the job in the input stream.
        label: the job's label.
        row: the runner's return value, or a
            :class:`~repro.perf.parallel.CellFailure` when ``failed``.
        failed: True when ``row`` is a failure row.
        warm: the worker already held the job's cache bundle.
        worker_id: id of the worker that produced the result (-1 for
            failures that never got a healthy worker verdict).
        attempts: attempts consumed.
        wall_s: wall-clock across all attempts of this job.
    """

    index: int
    label: str
    row: object
    failed: bool
    warm: bool
    worker_id: int
    attempts: int
    wall_s: float


@dataclass
class _StreamWorker:
    """Supervisor-side worker handle with recycle bookkeeping."""

    proc: multiprocessing.process.BaseProcess
    inbox: Any
    conn: Any
    task: Optional[Tuple[int, str, int]] = None  # (index, label, attempt)
    assigned_at: float = 0.0
    jobs_done: int = 0


def stream_jobs(
    jobs: Iterable[StreamJob],
    factory: BundleFactory,
    factory_args: Tuple[object, ...] = (),
    *,
    policy: RunPolicy,
    eager_bundles: Sequence[BundleKey] = (),
    max_inflight: Optional[int] = None,
    recycle_after: Optional[int] = None,
    writer: Optional[JournalWriter] = None,
    stats: Optional[RunStats] = None,
) -> Iterator[StreamResult]:
    """Stream ``jobs`` through a supervised warm-worker pool.

    Yields one :class:`StreamResult` per job **in completion order**;
    consume lazily for constant-memory campaigns.  ``policy`` is the
    resolved :class:`~repro.perf.parallel.RunPolicy` (drivers build it
    with :meth:`RunPolicy.resolve`, tests construct it directly) — the
    engine itself never reads the environment.
    ``stats`` — when given — accumulates throughput counters
    (retries/timeouts/crashes, warm hits/misses, latency percentiles,
    jobs/s); totals (``cells_total``/``ok``/``failed``) stay with the
    driver, which knows about resumed cells.

    Raises:
        RunnerConfigError: bad knob values (``R002``).
        WorkerInitError: a worker's bundle factory failed (``R003``).
    """
    workers = policy.workers
    cell_timeout = policy.cell_timeout
    if recycle_after is not None and recycle_after < 1:
        raise RunnerConfigError(
            f"[R002] recycle_after must be >= 1, got {recycle_after!r}"
        )
    if max_inflight is None:
        max_inflight = workers * 4
    if max_inflight < workers:
        raise RunnerConfigError(
            f"[R002] max_inflight ({max_inflight}) must be >= workers "
            f"({workers}) or the pool can never fill"
        )
    run_stats = stats if stats is not None else RunStats()

    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
    initargs = (factory, factory_args, tuple(eager_bundles))

    source = iter(jobs)
    exhausted = False
    seen: List[StreamJob] = []
    completed_n = 0
    done: set = set()
    ready: Deque[Tuple[int, int]] = deque()  # (index, attempt)
    delayed: List[Tuple[float, int, int]] = []  # (eligible_at, index, attempt)
    cell_wall: Dict[int, float] = {}
    latencies: List[float] = []
    pool: Dict[int, _StreamWorker] = {}
    retiring: List[_StreamWorker] = []
    next_wid = 0
    emit: Deque[StreamResult] = deque()
    started = time.perf_counter()

    def refill() -> None:
        nonlocal exhausted
        while not exhausted and len(seen) - completed_n < max_inflight:
            try:
                job = next(source)
            except StopIteration:
                exhausted = True
                return
            index = len(seen)
            seen.append(job)
            cell_wall[index] = 0.0
            ready.append((index, 0))

    def work_remains() -> bool:
        return bool(ready or delayed) or not exhausted

    def spawn() -> None:
        nonlocal next_wid
        inbox = ctx.SimpleQueue()
        recv_conn, send_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_worker_main,
            args=(next_wid, inbox, send_conn, initargs),
            daemon=True,
            name=f"repro-stream-worker-{next_wid}",
        )
        proc.start()
        send_conn.close()  # child keeps its copy; parent only reads
        pool[next_wid] = _StreamWorker(proc=proc, inbox=inbox, conn=recv_conn)
        next_wid += 1
        run_stats.workers_spawned += 1

    def drain(conn: multiprocessing.connection.Connection) -> List[tuple]:
        messages: List[tuple] = []
        try:
            while conn.poll():
                messages.append(conn.recv())
        except (EOFError, OSError):
            pass  # sender died; the liveness sweep owns its task
        return messages

    def finish(index: int, result: StreamResult) -> None:
        nonlocal completed_n
        completed_n += 1
        done.add(index)
        latencies.append(result.wall_s)
        emit.append(result)

    def finish_ok(
        index: int, worker_id: int, warm: bool, row: object,
        attempt: int, wall: float,
    ) -> None:
        cell_wall[index] += wall
        if warm:
            run_stats.warm_hits += 1
        else:
            run_stats.warm_misses += 1
        job = seen[index]
        if writer is not None and job.key is not None:
            writer.cell(job.key, row, attempt + 1, cell_wall[index])
        finish(
            index,
            StreamResult(
                index=index,
                label=job.label,
                row=row,
                failed=False,
                warm=warm,
                worker_id=worker_id,
                attempts=attempt + 1,
                wall_s=cell_wall[index],
            ),
        )

    def attempt_failed(
        index: int,
        attempt: int,
        fail_kind: str,
        error_type: str,
        error: str,
        wall: float,
        retryable: bool,
    ) -> None:
        cell_wall[index] += wall
        if retryable and attempt < policy.retries:
            run_stats.retries += 1
            eligible = time.perf_counter() + policy.backoff * (2 ** attempt)
            delayed.append((eligible, index, attempt + 1))
            return
        job = seen[index]
        failure = CellFailure(
            circuit=job.label,
            iscas="",
            kind=fail_kind,
            error=error,
            error_type=error_type,
            attempts=attempt + 1,
            wall_s=cell_wall[index],
        )
        if writer is not None and job.key is not None:
            writer.cell(job.key, failure, failure.attempts, failure.wall_s)
        finish(index, _failed(index, failure))

    def maybe_recycle(worker_id: int) -> None:
        if recycle_after is None:
            return
        worker = pool.get(worker_id)
        if worker is None or worker.jobs_done < recycle_after:
            return
        pool.pop(worker_id)
        try:
            worker.inbox.put(None)
        except (OSError, ValueError):  # pragma: no cover - inbox closed
            pass
        retiring.append(worker)
        run_stats.workers_recycled += 1
        if work_remains():
            spawn()

    def handle(message: tuple) -> None:
        tag = message[0]
        if tag == "init_failed":
            _, _worker_id, text = message
            raise WorkerInitError(
                f"[R003] stream worker failed to initialise: {text}"
            )
        _, worker_id, index, attempt, *rest = message
        worker = pool.get(worker_id)
        if (
            worker is None
            or worker.task is None
            or worker.task[0] != index
            or worker.task[2] != attempt
            or index in done
        ):
            return  # stale message from a worker we already killed
        worker.task = None
        worker.jobs_done += 1
        if tag == "done":
            envelope, wall = rest
            warm, row = envelope
            finish_ok(index, worker_id, bool(warm), row, attempt, wall)
        else:  # "fail"
            error_type, error, wall = rest
            attempt_failed(
                index, attempt, "error", error_type, error, wall,
                retryable=True,
            )
        maybe_recycle(worker_id)

    def reap_worker(worker_id: int, kill: bool) -> None:
        worker = pool.pop(worker_id)
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover
            pass
        if kill and worker.proc.is_alive():
            worker.proc.terminate()
            worker.proc.join(1.0)
            if worker.proc.is_alive():  # pragma: no cover - stubborn child
                worker.proc.kill()
                worker.proc.join(1.0)
        else:
            worker.proc.join(0.1)
        if work_remains() and len(pool) < workers:
            run_stats.workers_replaced += 1
            spawn()

    refill()
    if exhausted and not seen:
        _finalize(run_stats, started, latencies, completed_n)
        return
    to_spawn = workers if not exhausted else max(1, min(workers, len(seen)))
    try:
        try:
            for _ in range(to_spawn):
                spawn()
            while True:
                refill()
                if exhausted and completed_n >= len(seen):
                    break
                now = time.perf_counter()
                for entry in sorted(delayed):
                    if entry[0] <= now:
                        delayed.remove(entry)
                        ready.append((entry[1], entry[2]))
                for worker in pool.values():
                    if not ready:
                        break
                    if worker.task is not None:
                        continue
                    index, attempt = ready.popleft()
                    job = seen[index]
                    worker.task = (index, job.label, attempt)
                    worker.assigned_at = now
                    worker.inbox.put(
                        (index, job.label, (job.bundle, job.payload), attempt)
                    )
                conns = [worker.conn for worker in pool.values()]
                if conns:
                    try:
                        readable = multiprocessing.connection.wait(
                            conns, timeout=_TICK
                        )
                    except OSError:  # pragma: no cover - closed under us
                        readable = []
                else:  # pragma: no cover - pool between reap and spawn
                    time.sleep(_TICK)
                    readable = []
                for conn in readable:
                    for message in drain(conn):
                        handle(message)
                now = time.perf_counter()
                for worker_id in list(pool):
                    worker = pool[worker_id]
                    if not worker.proc.is_alive():
                        # A result sent before death wins over the crash
                        # verdict: drain the private pipe first.
                        for message in drain(worker.conn):
                            handle(message)
                        if worker_id not in pool:
                            continue  # recycled while draining
                        task = worker.task
                        if task is not None:
                            run_stats.crashes += 1
                            index, _, attempt = task
                            attempt_failed(
                                index,
                                attempt,
                                "crash",
                                "WorkerCrash",
                                "worker process died with exit code "
                                f"{worker.proc.exitcode}",
                                now - worker.assigned_at,
                                retryable=True,
                            )
                        reap_worker(worker_id, kill=False)
                    elif (
                        worker.task is not None
                        and cell_timeout is not None
                        and now - worker.assigned_at > cell_timeout
                    ):
                        run_stats.timeouts += 1
                        index, _, attempt = worker.task
                        attempt_failed(
                            index,
                            attempt,
                            "timeout",
                            "CellTimeout",
                            f"cell exceeded the {cell_timeout:g}s per-cell "
                            "timeout; worker killed and replaced",
                            now - worker.assigned_at,
                            retryable=False,
                        )
                        reap_worker(worker_id, kill=True)
                for retired in list(retiring):
                    if not retired.proc.is_alive():
                        retired.proc.join(0.1)
                        try:
                            retired.conn.close()
                        except OSError:  # pragma: no cover
                            pass
                        retiring.remove(retired)
                while emit:
                    yield emit.popleft()
        except KeyboardInterrupt:
            run_stats.interrupted = True
            for index in range(len(seen)):
                if index not in done:
                    finish(index, _interrupted(
                        index, seen[index].label, cell_wall.get(index, 0.0)
                    ))
    finally:
        for worker in list(pool.values()) + retiring:
            if worker.proc.is_alive() and worker.task is None:
                try:
                    worker.inbox.put(None)
                except (OSError, ValueError):  # pragma: no cover
                    pass
        deadline = time.perf_counter() + 1.0
        for worker in list(pool.values()) + retiring:
            worker.proc.join(max(0.0, deadline - time.perf_counter()))
            if worker.proc.is_alive():
                worker.proc.terminate()
                worker.proc.join(1.0)
                if worker.proc.is_alive():  # pragma: no cover
                    worker.proc.kill()
            try:
                worker.conn.close()
            except OSError:  # pragma: no cover
                pass
    _finalize(run_stats, started, latencies, completed_n)
    while emit:
        yield emit.popleft()


def _finalize(
    stats: RunStats, started: float, latencies: List[float], completed: int
) -> None:
    """Fill the throughput counters once the stream is drained."""
    wall = time.perf_counter() - started
    stats.jobs_per_s = completed / wall if wall > 0 else 0.0
    stats.observe_latencies(latencies)


def _failed(index: int, failure: CellFailure) -> StreamResult:
    return StreamResult(
        index=index,
        label=failure.circuit,
        row=failure,
        failed=True,
        warm=False,
        worker_id=-1,
        attempts=failure.attempts,
        wall_s=failure.wall_s,
    )


def _interrupted(index: int, label: str, wall_s: float) -> StreamResult:
    """The placeholder for a job the run stopped before it finished.

    The only place an ``interrupted`` :class:`CellFailure` is built:
    the engine emits it for jobs in flight at ``KeyboardInterrupt``,
    and :func:`collect_rows` for jobs the stream never pulled.
    """
    return _failed(index, CellFailure(
        circuit=label,
        iscas="",
        kind="interrupted",
        error="run interrupted before this job finished",
        error_type="RunInterrupted",
        attempts=0,
        wall_s=wall_s,
    ))


def collect_rows(
    results: Iterator[StreamResult], labels: Sequence[str]
) -> List[object]:
    """Drain a result stream into one row per job, in job order.

    ``labels`` names the jobs by input position and is read only after
    the stream ends, so a feed that decides lazily how many jobs to
    yield may append to it as it goes.  A ``KeyboardInterrupt`` stops
    the drain; every position without a result — a job the engine
    never pulled — gets an ``interrupted`` :class:`CellFailure`, so the
    list always has ``len(labels)`` entries.  The stream is closed on
    every exit, which shuts its workers down.
    """
    by_index: Dict[int, object] = {}
    try:
        for result in results:
            by_index[result.index] = result.row
    except KeyboardInterrupt:
        pass
    finally:
        close = getattr(results, "close", None)
        if close is not None:
            close()
    return [
        by_index[i] if i in by_index else _interrupted(i, label, 0.0).row
        for i, label in enumerate(labels)
    ]
