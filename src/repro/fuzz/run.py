"""Fuzzing campaign driver: seeds in, minimized coded failures out.

One *campaign* runs the oracle battery (:mod:`repro.fuzz.oracles`) over
a seed range of generated networks (:mod:`repro.fuzz.generator`) under a
wall-clock budget, optionally delta-debugs every failure down to a
minimal reproducer (:mod:`repro.fuzz.shrink`) and persists reproducers
into a replayable corpus (:mod:`repro.fuzz.corpus`).  With ``jobs > 1``
seeds stream through the fault-tolerant warm worker pool
(:func:`repro.perf.stream.stream_jobs`) — the oracle's pattern set is
built once per worker — so a mapper crash or a hung seed costs one
task, not the campaign.

Everything a worker returns is a plain dict of JSON-able values —
minimized networks travel as BLIF text — so results cross the process
boundary cheaply and the driver alone touches the corpus directory.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.fuzz.corpus import save_entry
from repro.fuzz.generator import FuzzConfig, config_from_dict, random_dag
from repro.fuzz.oracles import OracleConfig, run_battery
from repro.library.patterns import PatternSet
from repro.network.bnet import BooleanNetwork
from repro.fuzz.shrink import shrink
from repro.network.blif import dumps_blif, loads_blif

__all__ = [
    "SeedOutcome",
    "CampaignResult",
    "parse_seed_spec",
    "run_campaign",
]

#: Error messages kept per failing seed (full reports can be replayed).
_MAX_MESSAGES = 6


def parse_seed_spec(spec: str) -> List[int]:
    """Parse a seed spec: ``"7"``, ``"0:200"``, ``"0:200:5"``, ``"1,4,9"``.

    Ranges are half-open like Python's ``range``; comma-separated items
    concatenate.  Duplicates are dropped, order is preserved.
    """
    seeds: List[int] = []
    seen = set()
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        parts = item.split(":")
        try:
            if len(parts) == 1:
                chunk = [int(parts[0])]
            elif len(parts) == 2:
                chunk = list(range(int(parts[0]), int(parts[1])))
            elif len(parts) == 3:
                chunk = list(range(int(parts[0]), int(parts[1]), int(parts[2])))
            else:
                raise ValueError
        except ValueError:
            raise ValueError(
                f"bad seed spec item {item!r} (want N, A:B or A:B:STEP)"
            ) from None
        for seed in chunk:
            if seed not in seen:
                seen.add(seed)
                seeds.append(seed)
    if not seeds:
        raise ValueError(f"seed spec {spec!r} selects no seeds")
    return seeds


@dataclass
class SeedOutcome:
    """The battery verdict for one failing seed.

    Attributes:
        seed: the generator seed.
        name: the generated network's (knob-encoding) name.
        codes: sorted distinct ``F###`` codes the battery reported.
        messages: the first few rendered diagnostics.
        meta: the battery report's metadata (delays, sizes, injection).
        minimized_blif: BLIF text of the minimized reproducer, when
            minimization ran and preserved the failure.
        shrink_stats: evaluation/size counters from the shrinker.
        shrink_error: why minimization was abandoned (the ``F008``
            condition), or ``None``.
        corpus_stem: file stem the reproducer was saved under, when a
            corpus directory was given.
    """

    seed: int
    name: str
    codes: List[str]
    messages: List[str] = field(default_factory=list)
    meta: Dict[str, object] = field(default_factory=dict)
    minimized_blif: Optional[str] = None
    shrink_stats: Optional[Dict[str, object]] = None
    shrink_error: Optional[str] = None
    corpus_stem: Optional[str] = None


@dataclass
class CampaignResult:
    """Aggregate outcome of one fuzzing campaign.

    Attributes:
        seeds_run: seeds whose battery actually ran.
        clean: how many of them reported no errors.
        failures: one :class:`SeedOutcome` per failing seed.
        skipped: seeds not started because the budget ran out.
        worker_failures: infrastructure failures from the parallel pool
            (:class:`repro.perf.parallel.CellFailure` rows) — a crashed
            worker, not a mapping bug.
        wall_s: campaign wall-clock in seconds.
    """

    seeds_run: List[int] = field(default_factory=list)
    clean: int = 0
    failures: List[SeedOutcome] = field(default_factory=list)
    skipped: List[int] = field(default_factory=list)
    worker_failures: List[object] = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def ok(self) -> bool:
        """True when nothing failed — neither oracles nor workers."""
        return not self.failures and not self.worker_failures


# ----------------------------------------------------------------------
# Per-seed work (runs in the driver or in a pool worker)
# ----------------------------------------------------------------------


def _run_seed(
    seed: int,
    base: FuzzConfig,
    oracle: OracleConfig,
    patterns: Optional[PatternSet],
    minimize: bool,
    shrink_evals: int,
) -> Dict[str, object]:
    """Generate, check and (on failure) minimize one seed; all-dict out."""
    config = base.with_seed(seed)
    net = random_dag(config)
    report = run_battery(net, oracle, patterns=patterns)
    errors = report.errors()
    codes = sorted({diag.code for diag in errors})
    out: Dict[str, object] = {
        "seed": seed,
        "name": net.name,
        "codes": codes,
        "messages": [
            f"{diag.code} {diag.message}" for diag in errors[:_MAX_MESSAGES]
        ],
        "meta": dict(report.meta),
    }
    if not errors or not minimize:
        return out
    target = set(codes)

    def predicate(candidate: BooleanNetwork) -> bool:
        rep = run_battery(candidate, oracle, patterns=patterns)
        return bool(target & {diag.code for diag in rep.errors()})

    try:
        result = shrink(net, predicate, max_evaluations=shrink_evals)
    except ValueError as exc:
        # F008: the failure did not reproduce on the unmodified network —
        # the finding is flaky and the original must be kept verbatim.
        out["shrink_error"] = str(exc)
        return out
    out["minimized_blif"] = dumps_blif(result.network)
    out["shrink"] = {
        "evaluations": result.evaluations,
        "rounds": result.rounds,
        "original_size": list(result.original_size),
        "final_size": list(result.final_size),
        "exhausted": result.exhausted,
    }
    return out


def _campaign_setup(
    gen_dict: Dict[str, object],
    oracle_kwargs: Dict[str, object],
    minimize: bool,
    shrink_evals: int,
) -> Callable[[int], Dict[str, object]]:
    """Pool-worker initializer: build the pattern set once per process."""
    base = config_from_dict(gen_dict)
    oracle = OracleConfig(**oracle_kwargs)  # type: ignore[arg-type]
    patterns = oracle.build_patterns()

    def runner(seed: int) -> Dict[str, object]:
        return _run_seed(seed, base, oracle, patterns, minimize, shrink_evals)

    return runner


# ----------------------------------------------------------------------
# The driver
# ----------------------------------------------------------------------


def _absorb(
    raw: Dict[str, object],
    base: FuzzConfig,
    oracle: OracleConfig,
    corpus_dir: Optional[str],
    result: CampaignResult,
) -> None:
    """Fold one seed's raw dict into the campaign result (+ corpus)."""
    seed = int(raw["seed"])  # type: ignore[arg-type]
    result.seeds_run.append(seed)
    codes = list(raw["codes"])  # type: ignore[arg-type]
    if not codes:
        result.clean += 1
        return
    outcome = SeedOutcome(
        seed=seed,
        name=str(raw["name"]),
        codes=codes,
        messages=list(raw.get("messages", [])),  # type: ignore[arg-type]
        meta=dict(raw.get("meta", {})),  # type: ignore[arg-type]
        minimized_blif=raw.get("minimized_blif"),  # type: ignore[assignment]
        shrink_stats=raw.get("shrink"),  # type: ignore[assignment]
        shrink_error=raw.get("shrink_error"),  # type: ignore[assignment]
    )
    if corpus_dir is not None:
        config = base.with_seed(seed)
        if outcome.minimized_blif is not None:
            net = loads_blif(outcome.minimized_blif)
        else:
            net = random_dag(config)
        stem = f"fail_s{seed}_{'-'.join(outcome.codes)}".lower()
        extra: Dict[str, object] = {}
        if outcome.shrink_stats is not None:
            extra["shrink"] = outcome.shrink_stats
        entry = save_entry(
            corpus_dir,
            net,
            oracle=oracle,
            expect=outcome.codes,
            stem=stem,
            generator=config,
            description=(outcome.messages[0] if outcome.messages else ""),
            extra=extra,
        )
        outcome.corpus_stem = entry.stem
    result.failures.append(outcome)


def run_campaign(
    seeds: Sequence[int],
    generator: FuzzConfig = FuzzConfig(),
    oracle: OracleConfig = OracleConfig(),
    minimize: bool = False,
    corpus_dir: Optional[str] = None,
    budget: Optional[float] = None,
    jobs: int = 1,
    shrink_evals: int = 400,
    task_timeout: Optional[float] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> CampaignResult:
    """Run the oracle battery over ``seeds``; never raises per-seed.

    Args:
        seeds: generator seeds to run, in order.
        generator: shape knobs; each seed runs ``generator.with_seed``.
        oracle: library/mapper configuration and probe budgets.  The
            injection mode is resolved once up front so pool workers
            cannot diverge from the driver's environment.
        minimize: delta-debug every failing network to a minimal
            reproducer before reporting it.
        corpus_dir: when given, persist every failure (minimized when
            available) as a replayable corpus entry.
        budget: campaign wall-clock budget in seconds; seeds not started
            when it expires are reported as skipped, never half-run.
        jobs: 1 runs in-process; above 1 fans seeds out over the
            fault-tolerant worker pool.
        shrink_evals: predicate-evaluation budget per minimization.
        task_timeout: per-seed wall-clock limit in the parallel pool;
            with the pool's retry budget and backoff it resolves into
            one :class:`~repro.perf.parallel.RunPolicy` (argument, then
            ``REPRO_CELL_*``, then defaults).
        progress: optional line sink for human-readable progress.

    Raises:
        RunnerConfigError: (``R002``) with ``jobs > 1``, a non-positive
            ``task_timeout`` or a malformed ``REPRO_CELL_*`` variable.
    """
    say = progress or (lambda line: None)
    oracle = replace(oracle, inject=oracle.resolved_inject())
    result = CampaignResult()
    started = time.perf_counter()
    remaining = list(seeds)

    def pull() -> Iterator[int]:
        # The budget gate runs per *pulled* seed: once it expires no new
        # seed starts, while seeds already started still finish whole.
        while remaining and not (
            budget is not None and time.perf_counter() - started >= budget
        ):
            yield remaining.pop(0)

    outcomes: Iterable[Tuple[int, object]]
    if jobs <= 1:
        patterns = oracle.build_patterns()
        outcomes = (
            (seed, _run_seed(
                seed, generator, oracle, patterns, minimize, shrink_evals
            ))
            for seed in pull()
        )
    else:
        from repro.perf.parallel import RunPolicy, _task_bundle_factory
        from repro.perf.stream import StreamJob, collect_rows, stream_jobs

        policy = RunPolicy.resolve(
            workers=max(1, min(jobs, len(remaining))),
            cell_timeout=task_timeout,
        )
        # Stream seeds through the warm worker pool: the oracle's
        # pattern set is built once per worker.
        setup_args = (generator.as_dict(), asdict(oracle), minimize, shrink_evals)
        pulled: List[int] = []
        labels: List[str] = []

        def feed() -> Iterator[StreamJob]:
            for seed in pull():
                pulled.append(seed)
                labels.append(f"seed{seed}")
                yield StreamJob(label=labels[-1], payload=seed)

        rows = collect_rows(
            stream_jobs(
                feed(),
                _task_bundle_factory,
                (_campaign_setup, setup_args),
                policy=policy,
                eager_bundles=(("task",),),
            ),
            labels,
        )
        outcomes = zip(pulled, rows)
    # Absorb in seed order so failures and corpus entries are
    # byte-identical between the serial and the pooled path.
    for seed, row in outcomes:
        if isinstance(row, dict):
            _absorb(row, generator, oracle, corpus_dir, result)
            if row["codes"]:
                say(f"seed {seed}: {','.join(row['codes'])}")
        else:
            result.worker_failures.append(row)
            say(f"seed {seed}: worker {row.kind}: {row.error}")  # type: ignore[attr-defined]

    result.skipped = remaining
    result.wall_s = time.perf_counter() - started
    return result
