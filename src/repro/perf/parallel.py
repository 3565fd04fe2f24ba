"""Worker protocol and run policy of the fault-tolerant batch layer.

Every batch in the package — the paper's table cells, mapping
campaigns, the fuzzing campaign — runs through the supervised
warm-worker engine of :mod:`repro.perf.stream`.  This module holds what that engine and its drivers share:

* :class:`RunPolicy`, the one frozen description of *how* a batch runs
  (pool size, per-job timeout, retry budget, retry backoff), resolved
  once — argument, then the :mod:`repro.env` registry, then defaults —
  and validated once with the coded ``R002`` error;
* the worker side of the protocol (:func:`_worker_main`,
  :func:`_init_worker`, :func:`_run_task`): a worker process installs a
  *bundle factory* once, builds one runner per distinct cache-bundle
  key, and answers single tasks over a private result pipe;
* :class:`CellFailure`, the structured row standing in for any job
  that could not produce one — an in-job exception (stringified in the
  worker, so unpicklable exceptions cannot poison the result channel),
  a dead worker process, a job over the per-job timeout, or a run
  stopped by ``KeyboardInterrupt``;
* :func:`resolve_library` (respawnable library specs) and
  :func:`default_jobs`.

Deterministic fault injection for tests and CI::

    REPRO_FAULT_INJECT="crash:C432s,hang:C880s,flaky:C1908s"

``crash`` hard-exits the worker (``os._exit``), ``hang`` sleeps forever
(pair it with a cell timeout), ``flaky`` raises on the first attempt
only — exercising crash isolation, timeout replacement and bounded
retry respectively.  Targets are job labels.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import time
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

from repro import env
from repro.errors import (
    EnvVarError,
    RunnerConfigError,
    UnknownLibrarySpecError,
)

if TYPE_CHECKING:
    from repro.library.gate import GateLibrary

__all__ = [
    "BUILTIN_SPECS",
    "CellFailure",
    "RunPolicy",
    "default_jobs",
    "resolve_library",
]

#: Builtin library specs accepted by :func:`resolve_library` (anything
#: else must be a readable genlib file).
BUILTIN_SPECS: Tuple[str, ...] = ("lib2", "44-1", "44-3", "mini")

#: Default bounded-retry budget for transient (error/crash) failures.
DEFAULT_RETRIES = 2

#: Default base delay (seconds) of the exponential retry backoff.
DEFAULT_BACKOFF = 0.05

#: Supervisor poll tick (seconds): the granularity of timeout
#: enforcement and dead-worker detection.
_TICK = 0.05

#: Per-worker state installed by the worker initializer.
_STATE: dict = {}


@dataclass
class CellFailure:
    """A structured failure row standing in for one job's result.

    Attributes:
        circuit: the label of the failed job (the circuit name for a
            table cell).
        iscas: the ISCAS tag of a table cell's circuit (for table
            rendering; empty for other jobs).
        kind: ``"error"`` (in-job exception), ``"crash"`` (worker
            process died), ``"timeout"`` (per-job timeout exceeded) or
            ``"interrupted"`` (run stopped by ``KeyboardInterrupt``).
        error: human-readable failure text (exception text, exit code,
            or timeout description).
        error_type: exception class name or a synthetic tag
            (``WorkerCrash``/``CellTimeout``/``RunInterrupted``).
        attempts: attempts consumed before giving up.
        wall_s: wall-clock spent across all attempts of this cell.
    """

    circuit: str
    iscas: str
    kind: str
    error: str
    error_type: str
    attempts: int
    wall_s: float

    #: Duck-typing marker: ``getattr(row, "failed", False)`` separates
    #: failure rows from ComparisonRow without importing this module.
    failed = True

    def as_dict(self) -> Dict[str, object]:
        return {**asdict(self), "wall_s": round(self.wall_s, 6)}


def resolve_library(spec: str) -> "GateLibrary":
    """Build a library from a respawnable spec (builtin name or genlib path).

    Raises:
        UnknownLibrarySpecError: (code ``R001``) when ``spec`` is neither
            a builtin name nor an existing genlib file — naming the spec
            and listing the valid builtins so CLI users can self-correct.
    """
    from repro.library.builtin import lib2_like, lib44_1, lib44_3, mini_library

    builders = dict(zip(BUILTIN_SPECS, (lib2_like, lib44_1, lib44_3, mini_library)))
    if spec in builders:
        return builders[spec]()
    if not os.path.isfile(spec):
        raise UnknownLibrarySpecError(spec, BUILTIN_SPECS)
    from repro.library.genlib import read_genlib

    return read_genlib(spec)


def default_jobs() -> int:
    """A sensible ``--jobs`` default: the CPUs *this process may use*.

    ``os.sched_getaffinity`` respects cgroup/container CPU restrictions
    and ``taskset``; the bare ``os.cpu_count()`` (the seed behaviour)
    over-subscribes restricted containers.  Falls back to ``cpu_count``
    (then 1) where the affinity API does not exist (macOS, Windows) or
    exists but fails at runtime (some BSDs raise ``OSError``).
    """
    getter = getattr(os, "sched_getaffinity", None)
    if getter is None:
        return os.cpu_count() or 1
    try:
        affinity = len(getter(0))
    except OSError:
        affinity = 0
    return affinity or os.cpu_count() or 1


@dataclass(frozen=True)
class RunPolicy:
    """How a batch runs: the one place its supervision knobs live.

    Attributes:
        workers: worker processes in the pool (drivers cap this at the
            number of jobs they actually dispatch).
        cell_timeout: per-attempt wall-clock budget in seconds; a job
            over budget has its worker killed and replaced and fails as
            ``timeout`` (never retried — a hang is assumed
            deterministic).  ``None`` means no timeout.
        retries: bounded retry budget for transient failures (in-job
            exceptions and worker crashes).
        backoff: base delay of the exponential retry backoff
            (``backoff * 2**attempt`` seconds).

    Construction validates every field, so a policy that exists is a
    valid one.

    Raises:
        RunnerConfigError: (code ``R002``) a field is out of range.
    """

    workers: int = 1
    cell_timeout: Optional[float] = None
    retries: int = DEFAULT_RETRIES
    backoff: float = DEFAULT_BACKOFF

    def __post_init__(self) -> None:
        problems = {
            "workers must be >= 1": self.workers < 1,
            "cell timeout must be positive": (
                self.cell_timeout is not None and not self.cell_timeout > 0
            ),
            "retries must be >= 0": self.retries < 0,
            "backoff must be >= 0": not self.backoff >= 0,
        }
        for problem, bad in problems.items():
            if bad:
                raise RunnerConfigError(f"[R002] {problem}, got {self!r}")

    @classmethod
    def resolve(
        cls,
        workers: Optional[int] = None,
        cell_timeout: Optional[float] = None,
        retries: Optional[int] = None,
        backoff: Optional[float] = None,
    ) -> "RunPolicy":
        """Resolve each knob: the argument, else the env registry, else
        the default.

        ``workers`` defaults to :func:`default_jobs`; ``cell_timeout``,
        ``retries`` and ``backoff`` fall back to ``REPRO_CELL_TIMEOUT``
        (unset = no timeout), ``REPRO_CELL_RETRIES`` (2) and
        ``REPRO_CELL_BACKOFF`` (0.05 s).  This is the only reader of
        those variables.

        Raises:
            RunnerConfigError: (``R002``) a malformed variable or an
                out-of-range value.
        """
        try:
            if cell_timeout is None:
                cell_timeout = env.read_float("REPRO_CELL_TIMEOUT")
            if retries is None:
                retries = env.read_int("REPRO_CELL_RETRIES", DEFAULT_RETRIES)
            if backoff is None:
                backoff = env.read_float("REPRO_CELL_BACKOFF", DEFAULT_BACKOFF)
        except EnvVarError as exc:
            raise RunnerConfigError(f"[R002] {exc}") from None
        return cls(
            workers=default_jobs() if workers is None else int(workers),
            cell_timeout=None if cell_timeout is None else float(cell_timeout),
            retries=int(DEFAULT_RETRIES if retries is None else retries),
            backoff=float(DEFAULT_BACKOFF if backoff is None else backoff),
        )


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------


def _task_bundle_factory(
    setup: Callable, setup_args: tuple
) -> Callable[[tuple], Callable[[object], object]]:
    """Bundle factory for batches of one kind of task.

    Every job shares the single ``("task",)`` bundle, whose runner is
    whatever ``setup(*setup_args)`` returns: ``setup`` runs once per
    worker, so heavy shared state (pattern sets, libraries) belongs
    there.  ``setup`` must be a picklable module-level callable.
    """

    def build(bundle_key: tuple) -> Callable[[object], object]:
        runner: Callable[[object], object] = setup(*setup_args)
        return runner

    return build


def _init_worker(initargs: tuple) -> None:
    """Worker initializer: install the bundle factory and eager bundles.

    ``initargs`` is ``(factory, factory_args, eager_bundles)``:
    ``factory`` must be a picklable (module-level) callable;
    ``factory(*factory_args)`` runs once per worker process and returns
    ``build(bundle_key) -> runner``.  Each bundle key in
    ``eager_bundles`` is built immediately — so a broken configuration
    fails at init (the coded ``R003`` error) rather than per-job — and
    any other key a job later names is built lazily on first use and
    cached for the worker's lifetime.  Built bundles never cross the
    process boundary, so they may hold arbitrarily heavy state
    (pattern sets, matcher memos, ...).
    """
    factory, factory_args, eager = initargs
    build = factory(*factory_args)
    bundles = {}
    for bundle_key in eager:
        bundles[bundle_key] = build(bundle_key)
    _STATE.clear()  # repro: allow[S202] per-worker state
    _STATE["build"] = build  # repro: allow[S202] per-worker state
    _STATE["bundles"] = bundles  # repro: allow[S202] per-worker state


def _run_task(payload: object) -> object:
    """Run one job: ``payload`` is ``(bundle_key, inner_payload)``.

    Returns a ``(warm, row)`` envelope: ``warm`` is True when the
    worker already held the job's cache bundle (the supervisor turns
    this into the ``warm_hits``/``warm_misses`` counters).
    """
    bundle_key, inner = payload  # type: ignore[misc]
    bundles = _STATE["bundles"]
    runner = bundles.get(bundle_key)
    warm = runner is not None
    if runner is None:
        runner = _STATE["build"](bundle_key)
        bundles[bundle_key] = runner
    return (warm, runner(inner))


def _inject_fault(name: str, attempt: int) -> None:
    """Deterministic test hook: honour ``REPRO_FAULT_INJECT``.

    The variable is a comma-separated list of ``mode:circuit`` items;
    modes are ``crash`` (hard ``os._exit``, every attempt), ``hang``
    (sleep forever, every attempt) and ``flaky`` (raise on the first
    attempt only, succeed on retry).
    """
    spec = env.read_str("REPRO_FAULT_INJECT", "") or ""
    for item in spec.split(","):
        mode, sep, target = item.strip().partition(":")
        if not sep or target != name:
            continue
        if mode == "crash":
            os._exit(13)
        elif mode == "hang":
            while True:  # pragma: no cover - killed by the supervisor
                time.sleep(3600)
        elif mode == "flaky" and attempt == 0:
            raise RuntimeError(
                f"injected flaky failure for {name!r} (attempt {attempt})"
            )


def _worker_main(
    worker_id: int,
    inbox: multiprocessing.Queue,
    results: multiprocessing.connection.Connection,
    initargs: tuple,
) -> None:
    """One worker process: init once, then run single tasks.

    ``results`` is this worker's private end of a one-way pipe — each
    worker is the sole producer on its own channel, so a worker that
    dies mid-send (a real crash, the injected ``os._exit``, a timeout
    kill) can never leave a lock held that would deadlock its siblings,
    which a shared ``multiprocessing.Queue`` feeder thread can.
    """
    try:
        _init_worker(initargs)
    except KeyboardInterrupt:  # pragma: no cover - parent shuts us down
        return
    except BaseException as exc:
        try:
            results.send(("init_failed", worker_id, _describe(exc)))
        finally:
            return
    while True:
        try:
            task = inbox.get()
        except (KeyboardInterrupt, EOFError, OSError):  # pragma: no cover
            return
        if task is None:
            return
        task_id, label, payload, attempt = task
        started = time.perf_counter()
        try:
            _inject_fault(label, attempt)
            row = _run_task(payload)
            wall = time.perf_counter() - started
            results.send(("done", worker_id, task_id, attempt, row, wall))
        except KeyboardInterrupt:  # pragma: no cover
            return
        except BaseException as exc:
            wall = time.perf_counter() - started
            message = ("fail", worker_id, task_id, attempt,
                       type(exc).__name__, _describe(exc), wall)
            try:
                results.send(message)
            except BaseException:  # pragma: no cover - result channel broken
                os._exit(17)


def _describe(exc: BaseException) -> str:
    """Stringify an exception so it always crosses the process boundary."""
    try:
        text = str(exc)
    except Exception:  # pragma: no cover - pathological __str__
        text = "<unprintable exception>"
    name = type(exc).__name__
    return f"{name}: {text}" if text else name
