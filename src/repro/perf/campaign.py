"""Mapping campaigns: heterogeneous job streams over warm workers.

A *campaign job* is one mapping run — a circuit (suite name, BLIF file
or generated seed), a library spec, a mapper mode and the matcher
options — and a campaign is an arbitrarily long stream of such jobs
fanned over the streaming engine of :mod:`repro.perf.stream`.  Jobs
sharing a cache bundle key (``library``, ``max_variants``, ``kind``)
reuse the worker's pattern set instead of rebuilding it per process;
that amortisation is the whole point (``benchmarks/bench_throughput.py``
gates it).

Results are :class:`CampaignRow` dataclasses whose :meth:`~CampaignRow.stable`
view (everything except the timing field) is **byte-identical** however
the jobs are scheduled — warm pool, cold per-job processes, replacement
workers after a crash — which the equivalence tests assert.  The mapped
netlist itself travels as a short content digest (``cover``), so a row
stays cheap to pickle while still certifying *which* cover was chosen.

The paper's Tables 1-3 are campaigns too: a ``compare`` job maps one
suite circuit with both the tree and the DAG mapper and returns the
table's :class:`~repro.harness.experiment.ComparisonRow`.  Each mode is
one entry of a mode -> function table run inside the worker.

Every finished job is journalled under :meth:`CampaignJob.key` (all job
fields), so a partially journalled campaign resumes without re-running
finished jobs — and never replays a row for a job that differs in any
field that can change it.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, fields, replace
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import RunnerConfigError
from repro.perf.counters import RunStats
from repro.perf.journal import CellKey, JournalWriter, load_journal
from repro.perf.parallel import CellFailure, RunPolicy, resolve_library
from repro.perf.stream import StreamJob, StreamResult, collect_rows, stream_jobs

if TYPE_CHECKING:
    from repro.network.bnet import BooleanNetwork

__all__ = [
    "CampaignJob",
    "CampaignRow",
    "CampaignOutcome",
    "load_manifest",
    "row_from_payload",
    "seed_ensemble",
    "stream_campaign",
    "run_mapping_campaign",
]

@dataclass(frozen=True)
class CampaignJob:
    """One mapping job of a campaign stream (picklable, hashable).

    Attributes:
        label: unique display/journal name of the job.
        source: where the circuit comes from — ``("suite", name)``,
            ``("blif", path)`` or ``("seed", seed, generator_json)``
            (the generator knobs as canonical JSON, so the job is
            self-contained and reproducible in any worker).
        library: respawnable library spec (builtin name or genlib path).
        mode: ``"dag"``, ``"tree"``, ``"recover"`` (area recovery under
            a delay budget), ``"multi"`` (multi-decomposition stitch),
            ``"eco"`` (derive a seeded edit pair from the circuit,
            remap incrementally, and fail unless the result is
            byte-identical to a from-scratch remap of the edited net)
            or ``"compare"`` (one Table 1-3 cell: tree and DAG mapper
            on a suite circuit, returning a ``ComparisonRow``).
        kind: match kind for the DAG mapper.
        max_variants: pattern variants per gate.
        verify: simulate the mapped netlist against its source.
        check: run the mapping certificate inside the worker (for
            ``recover`` this is the target-aware recovered-cover
            certificate; for ``multi`` every per-style run is certified).
        decompose: subject decomposition style (ignored by ``multi``,
            which maps every style, and by ``compare``, which maps the
            balanced decomposition like the paper's tables).
        target: ``recover``-mode delay budget as a slack multiplier on
            the optimal delay (``1.0`` = recover area at zero delay
            cost); ignored by the other modes.
        cache: run the matcher's caches (results are identical either
            way; the uncached path is the reference oracle).
    """

    label: str
    source: Tuple[str, ...]
    library: str = "lib2"
    mode: str = "dag"
    kind: str = "standard"
    max_variants: int = 8
    verify: bool = False
    check: bool = False
    decompose: str = "balanced"
    target: float = 1.0
    cache: bool = True

    def bundle(self) -> Tuple[object, ...]:
        """The cache-bundle key this job needs in its worker."""
        return (self.library, int(self.max_variants), self.kind)

    def key(self) -> CellKey:
        """The journal identity: every field, as canonical JSON."""
        return json.dumps(
            {f.name: getattr(self, f.name) for f in fields(self)},
            sort_keys=True,
        )


@dataclass
class CampaignRow:
    """One finished campaign job (scheduling-independent except cpu_s).

    Attributes:
        label: the job label.
        circuit: the source network's name.
        mode / kind / library: echo of the job options.
        subject_gates: NAND2/INV nodes of the decomposed subject.
        delay: mapped delay (load-independent model).
        area: total cell area.
        gates: gate count of the mapped netlist.
        n_matches: matches enumerated during labeling.
        cover: 16-hex-digit SHA-256 digest of the mapped netlist's BLIF
            text — a content certificate for the chosen cover.
        verified: the mapped netlist was simulation-checked against the
            source network.
        cpu_s: worker-side wall-clock of the mapping run (the only
            field excluded from :meth:`stable`).
        target: absolute delay budget a ``recover`` job resolved its
            slack multiplier to (``0.0`` for the other modes; defaulted
            so pre-existing journals replay).
    """

    label: str
    circuit: str
    mode: str
    kind: str
    library: str
    subject_gates: int
    delay: float
    area: float
    gates: int
    n_matches: int
    cover: str
    verified: bool
    cpu_s: float
    target: float = 0.0

    #: Duck-typing marker matching ComparisonRow/CellFailure handling.
    failed = False

    def stable(self) -> Dict[str, object]:
        """Every scheduling-independent field (drops ``cpu_s``)."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        del out["cpu_s"]
        return out


def row_from_payload(mode: str, payload: Dict[str, object]) -> object:
    """Rebuild a journalled row of a ``mode`` job from its JSON payload.

    ``compare`` jobs produce a
    :class:`~repro.harness.experiment.ComparisonRow`, every other mode
    a :class:`CampaignRow`.  Unknown keys (from a newer version) are
    dropped rather than rejected, so old code can still resume.
    """
    row_type: Any = CampaignRow
    if mode == "compare":
        from repro.harness.experiment import ComparisonRow

        row_type = ComparisonRow
    names = {f.name for f in fields(row_type)}
    return row_type(**{k: v for k, v in payload.items() if k in names})


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------


def _build_network(job: CampaignJob) -> "BooleanNetwork":
    src = job.source
    if src[0] == "suite":
        from repro.bench.suite import SUITE

        return SUITE[src[1]].build()
    if src[0] == "blif":
        from repro.network.blif import read_blif

        return read_blif(src[1])
    if src[0] == "seed":
        from repro.fuzz.generator import config_from_dict, random_dag

        config = config_from_dict(json.loads(src[2])).with_seed(int(src[1]))
        return random_dag(config)
    raise RunnerConfigError(f"[R002] unknown campaign source {src!r}")


def _campaign_row(
    job: CampaignJob,
    net: Any,
    netlist: Any,
    delay: float,
    area: float,
    cpu_s: float,
    subject_gates: int,
    n_matches: int,
    target: float = 0.0,
) -> CampaignRow:
    """Verify (when asked), digest the cover and assemble the row."""
    from repro.network.mapped_io import dumps_mapped_blif

    verified = False
    if job.verify:
        from repro.network.simulate import check_equivalent

        check_equivalent(net, netlist)
        verified = True
    cover = hashlib.sha256(
        dumps_mapped_blif(netlist).encode("utf-8")
    ).hexdigest()[:16]
    return CampaignRow(
        label=job.label,
        circuit=getattr(net, "name", job.label),
        mode=job.mode,
        kind=job.kind,
        library=job.library,
        subject_gates=subject_gates,
        delay=delay,
        area=area,
        gates=netlist.gate_count(),
        n_matches=n_matches,
        cover=cover,
        verified=verified,
        cpu_s=cpu_s,
        target=target,
    )


def _dag_map(job: CampaignJob, patterns: Any, net: Any, check: bool = False) -> Any:
    """DAG-map ``net`` under the job's decomposition and matcher options."""
    from repro.core.dag_mapper import map_dag
    from repro.core.match import MatchKind
    from repro.network.decompose import decompose_network

    subject = decompose_network(net, style=job.decompose)
    return map_dag(
        subject, patterns, kind=MatchKind(job.kind), cache=job.cache,
        check=check,
    )


def _map_dag(job: CampaignJob, patterns: Any) -> CampaignRow:
    net = _build_network(job)
    result = _dag_map(job, patterns, net, check=job.check)
    return _campaign_row(
        job, net, result.netlist, result.delay, result.area,
        result.cpu_seconds, result.labels.subject.n_gates, result.n_matches,
    )


def _map_tree(job: CampaignJob, patterns: Any) -> CampaignRow:
    from repro.core.tree_mapper import map_tree
    from repro.network.decompose import decompose_network

    net = _build_network(job)
    subject = decompose_network(net, style=job.decompose)
    result = map_tree(subject, patterns, cache=job.cache, check=job.check)
    return _campaign_row(
        job, net, result.netlist, result.delay, result.area,
        result.cpu_seconds, subject.n_gates, result.n_matches,
    )


def _map_recover(job: CampaignJob, patterns: Any) -> CampaignRow:
    from dataclasses import replace as dc_replace

    from repro.core.area_recovery import recover_area_result
    from repro.core.match import MatchKind

    net = _build_network(job)
    result = _dag_map(job, patterns, net)
    target = result.delay * max(1.0, float(job.target))
    recovery = recover_area_result(
        result.labels, patterns, kind=MatchKind(job.kind), target=target,
    )
    if job.check:
        from repro.check.certificate import attach_certificate

        attach_certificate(
            dc_replace(
                result, netlist=recovery.netlist, delay=recovery.delay,
                area=recovery.area,
            ),
            selection=recovery.selection,
            target=target,
        )
    return _campaign_row(
        job, net, recovery.netlist, recovery.delay, recovery.area,
        result.cpu_seconds + recovery.cpu_seconds,
        result.labels.subject.n_gates, result.n_matches, target=target,
    )


def _map_multi(job: CampaignJob, patterns: Any) -> CampaignRow:
    from repro.core.match import MatchKind
    from repro.core.multimap import map_multi_decomposition

    net = _build_network(job)
    multi = map_multi_decomposition(net, patterns, kind=MatchKind(job.kind))
    if job.check:
        from repro.check.certificate import attach_certificate

        for style_result in multi.per_style.values():
            attach_certificate(style_result)
    return _campaign_row(
        job, net, multi.netlist, multi.delay, multi.area, multi.cpu_seconds,
        max(r.labels.subject.n_gates for r in multi.per_style.values()),
        sum(r.n_matches for r in multi.per_style.values()),
    )


def _map_eco(job: CampaignJob, patterns: Any) -> CampaignRow:
    from repro.eco import eco_remap
    from repro.errors import MappingError
    from repro.fuzz.generator import derive_edit_seed, random_edit_script
    from repro.network.mapped_io import dumps_mapped_blif

    net = _build_network(job)
    base = _dag_map(job, patterns, net)
    script = random_edit_script(net, seed=derive_edit_seed(net), n_edits=2)
    edited = script.apply(net)
    eco = eco_remap(
        base, edited, patterns, decompose=job.decompose, check=job.check,
    )
    scratch = _dag_map(job, patterns, edited)
    if (
        eco.result.delay != scratch.delay
        or eco.result.area != scratch.area
        or dumps_mapped_blif(eco.result.netlist)
        != dumps_mapped_blif(scratch.netlist)
    ):
        raise MappingError(
            f"[M007] eco campaign divergence on {edited.name!r}: "
            f"incremental (delay {eco.result.delay!r}, area "
            f"{eco.result.area!r}) != from-scratch (delay "
            f"{scratch.delay!r}, area {scratch.area!r}), or covers "
            f"differ"
        )
    # The row (and verify) describe the edited circuit.
    return _campaign_row(
        job, edited, eco.result.netlist, eco.result.delay, eco.result.area,
        eco.cpu_seconds, eco.result.labels.subject.n_gates,
        eco.result.n_matches,
    )


def _map_compare(job: CampaignJob, patterns: Any) -> object:
    from repro.core.match import MatchKind
    from repro.harness.experiment import tree_vs_dag_cell

    if job.source[0] != "suite":
        raise RunnerConfigError(
            f"[R002] compare job {job.label!r} needs a suite circuit "
            f"source, got {job.source[0]!r}"
        )
    return tree_vs_dag_cell(
        job.source[1], patterns, kind=MatchKind(job.kind),
        verify=job.verify, cache=job.cache, check=job.check,
    )


#: Mode -> worker-side runner; the keys are the modes a job may name.
_MODE_RUNNERS: Dict[str, Callable[[CampaignJob, Any], object]] = {
    "dag": _map_dag,
    "tree": _map_tree,
    "recover": _map_recover,
    "multi": _map_multi,
    "eco": _map_eco,
    "compare": _map_compare,
}

#: Mapper modes a job may name.
MODES: Tuple[str, ...] = tuple(_MODE_RUNNERS)


def _run_campaign_job(job: CampaignJob, patterns: Any) -> object:
    return _MODE_RUNNERS[job.mode](job, patterns)


def _mapping_bundle_factory() -> Callable[[tuple], Callable[[object], object]]:
    """Per-worker bundle factory for mapping campaigns.

    One bundle per distinct ``(library, max_variants, kind)``: the
    pattern set.  Jobs only carry the key; the heavy state never
    crosses the process boundary.
    """

    def build(bundle_key: tuple) -> Callable[[object], object]:
        from repro.library.patterns import PatternSet

        library_spec, max_variants, _kind = bundle_key
        patterns = PatternSet(
            resolve_library(library_spec), max_variants=max_variants
        )

        def runner(job: object) -> object:
            return _run_campaign_job(job, patterns)  # type: ignore[arg-type]

        return runner

    return build


# ----------------------------------------------------------------------
# Job construction
# ----------------------------------------------------------------------

def _generator_json(**knobs: object) -> str:
    from repro.fuzz.generator import FuzzConfig

    config = FuzzConfig(**{k: v for k, v in knobs.items() if v is not None})  # type: ignore[arg-type]
    return json.dumps(config.as_dict(), sort_keys=True)


def _entry_number(
    entry: Dict[str, Any],
    name: str,
    default: Any,
    convert: Callable[[Any], Any],
    where: str,
) -> Any:
    """``convert(entry[name])``, or ``default`` when the entry has no
    ``name``; a value ``convert`` rejects is a located R002."""
    if name not in entry:
        return default
    value = entry[name]
    try:
        return convert(value)
    except (TypeError, ValueError):
        raise RunnerConfigError(
            f"[R002] campaign manifest {where}: {name} must be "
            f"{'an integer' if convert is int else 'a number'}, "
            f"got {value!r}"
        ) from None


#: Manifest fields older versions accepted, with why each is gone.
_RETIRED_FIELDS: Dict[str, str] = {
    "engine": "there is one matching engine",
    "weight": "the stream engine keeps one job queue",
}


def load_manifest(
    path: str,
    library: str = "lib2",
    mode: str = "dag",
    kind: str = "standard",
    max_variants: int = 8,
    verify: bool = False,
    check: bool = False,
) -> List[CampaignJob]:
    """Parse a JSONL job manifest into :class:`CampaignJob` entries.

    Each line is one JSON object naming exactly one circuit source —
    ``{"circuit": "C432s"}`` (suite name), ``{"blif": "path"}`` or
    ``{"seed": 7}`` (optionally with generator knobs ``inputs``/
    ``nodes``/``outputs``/``reconvergence``/``fanout_skew``/
    ``depth_bias``) — plus optional per-job overrides (``label``,
    ``library``, ``mode``, ``kind``, ``max_variants``, ``verify``,
    ``check``, ``decompose``, ``target``).  The keyword arguments are
    the defaults a line inherits.  ``seed`` and ``max_variants`` must
    convert with ``int()``, ``target`` with ``float()``, and the
    generator knobs must satisfy
    :class:`~repro.fuzz.generator.FuzzConfig`.  A field that older
    versions accepted (see :data:`_RETIRED_FIELDS`) is rejected rather
    than silently ignored.

    Raises:
        RunnerConfigError: unreadable file or malformed entry (``R002``,
            located as ``<path>:<line>``).
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        raise RunnerConfigError(
            f"[R002] cannot read campaign manifest {path!r}: {exc}"
        ) from None
    jobs: List[CampaignJob] = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        try:
            entry = json.loads(line)
        except ValueError:
            raise RunnerConfigError(
                f"[R002] campaign manifest {path}:{lineno}: malformed JSON"
            ) from None
        if not isinstance(entry, dict):
            raise RunnerConfigError(
                f"[R002] campaign manifest {path}:{lineno}: entry is not "
                "an object"
            )
        sources = [k for k in ("circuit", "blif", "seed") if k in entry]
        if len(sources) != 1:
            raise RunnerConfigError(
                f"[R002] campaign manifest {path}:{lineno}: need exactly "
                f"one of circuit/blif/seed, got {sources or 'none'}"
            )
        where = f"{path}:{lineno}"
        for name, reason in _RETIRED_FIELDS.items():
            if name in entry:
                raise RunnerConfigError(
                    f"[R002] campaign manifest {where}: the {name!r} "
                    f"field no longer exists ({reason}); remove it"
                )
        if "circuit" in entry:
            source: Tuple[str, ...] = ("suite", str(entry["circuit"]))
            stem = str(entry["circuit"])
        elif "blif" in entry:
            source = ("blif", str(entry["blif"]))
            stem = os.path.splitext(os.path.basename(str(entry["blif"])))[0]
        else:
            try:
                gen_json = _generator_json(
                    n_inputs=entry.get("inputs"),
                    n_nodes=entry.get("nodes"),
                    n_outputs=entry.get("outputs"),
                    reconvergence=entry.get("reconvergence"),
                    fanout_skew=entry.get("fanout_skew"),
                    depth_bias=entry.get("depth_bias"),
                )
            except (TypeError, ValueError) as exc:
                raise RunnerConfigError(
                    f"[R002] campaign manifest {where}: bad circuit "
                    f"generator knobs: {exc}"
                ) from None
            seed = _entry_number(entry, "seed", None, int, where)
            source = ("seed", str(seed), gen_json)
            stem = f"s{seed}"
        jobs.append(CampaignJob(
            label=str(entry.get("label", f"j{lineno}-{stem}")),
            source=source,
            library=str(entry.get("library", library)),
            mode=str(entry.get("mode", mode)),
            kind=str(entry.get("kind", kind)),
            max_variants=_entry_number(
                entry, "max_variants", max_variants, int, where
            ),
            verify=bool(entry.get("verify", verify)),
            check=bool(entry.get("check", check)),
            decompose=str(entry.get("decompose", "balanced")),
            target=_entry_number(entry, "target", 1.0, float, where),
        ))
    if not jobs:
        raise RunnerConfigError(
            f"[R002] campaign manifest {path!r} contains no jobs"
        )
    return jobs


def seed_ensemble(
    seeds: Sequence[int],
    libraries: Sequence[str],
    nodes: int = 16,
    inputs: int = 6,
    mode: str = "dag",
    kind: str = "standard",
    max_variants: int = 8,
    verify: bool = False,
    check: bool = False,
    large_nodes: Optional[int] = None,
    large_every: int = 0,
) -> List[CampaignJob]:
    """A seeded fuzz-circuit ensemble rotating over ``libraries``.

    Each seed becomes one job labelled ``s<seed>-<library>``; libraries
    rotate round-robin so consecutive jobs hit *different* cache
    bundles — the worst case for per-process cache rebuilds and exactly
    what the warm pool amortises.  With ``large_every > 0``, every
    ``large_every``-th job generates a ``large_nodes``-node circuit
    instead (default ``8 * nodes``), mixing circuit sizes in one stream.
    """
    if not seeds or not libraries:
        raise RunnerConfigError(
            "[R002] seed ensemble needs at least one seed and one library"
        )
    small_json = _generator_json(n_inputs=inputs, n_nodes=nodes)
    big = large_nodes if large_nodes is not None else nodes * 8
    large_json = _generator_json(n_inputs=inputs, n_nodes=big)
    jobs: List[CampaignJob] = []
    for i, seed in enumerate(seeds):
        library = libraries[i % len(libraries)]
        is_large = large_every > 0 and i % large_every == large_every - 1
        jobs.append(CampaignJob(
            label=f"s{seed}-{library}",
            source=(
                "seed", str(seed), large_json if is_large else small_json
            ),
            library=library,
            mode=mode,
            kind=kind,
            max_variants=max_variants,
            verify=verify,
            check=check,
        ))
    return jobs


# ----------------------------------------------------------------------
# Drivers
# ----------------------------------------------------------------------


@dataclass
class CampaignOutcome:
    """Materialised campaign result: rows in job order, plus counters."""

    rows: List[object]
    stats: RunStats

    @property
    def ok(self) -> bool:
        return not any(getattr(row, "failed", False) for row in self.rows)


def stream_campaign(
    jobs: Sequence[CampaignJob],
    workers: Optional[int] = None,
    warm: bool = True,
    journal_path: Optional[str] = None,
    resume_path: Optional[str] = None,
    cell_timeout: Optional[float] = None,
    retries: Optional[int] = None,
    backoff: Optional[float] = None,
    max_inflight: Optional[int] = None,
    stats: Optional[RunStats] = None,
) -> Iterator[StreamResult]:
    """Stream ``jobs`` through warm workers, yielding completion order.

    ``warm=False`` is the cold baseline: every job runs in a fresh
    worker process (``recycle_after=1``) and rebuilds its cache bundle
    — per-job process dispatch, the thing the warm pool is benchmarked
    against.  ``resume_path`` replays jobs journalled ``ok`` under the
    same :meth:`CampaignJob.key` without re-running them (``resumed``
    results carry ``attempts=0``, ``worker_id=-1``); new records append
    to the resumed journal unless ``journal_path`` names another file.

    Result ``index`` values refer to positions in ``jobs``.
    ``workers``, ``cell_timeout``, ``retries`` and ``backoff`` resolve
    into one :class:`~repro.perf.parallel.RunPolicy` (argument, then the
    ``REPRO_CELL_*`` variables, then defaults); the pool never exceeds
    the job count.

    Raises:
        UnknownLibrarySpecError: a job names a bad library (``R001``),
            before any worker is spawned.
        RunnerConfigError: bad policy values, or a job mode, match kind
            or decomposition style that does not exist (``R002``).
        WorkerInitError: a worker failed to initialise (``R003``).
        JournalError: unreadable or pre-``/2`` ``resume_path``
            (``R004``).
    """
    jobs = list(jobs)
    run_stats = stats if stats is not None else RunStats()
    policy = RunPolicy.resolve(workers, cell_timeout, retries, backoff)
    policy = replace(policy, workers=min(policy.workers, len(jobs) or 1))
    from repro.core.match import MatchKind
    from repro.network.decompose import STYLES

    for field_name, allowed in (
        ("mode", MODES),
        ("kind", tuple(kind.value for kind in MatchKind)),
        ("decompose", STYLES),
    ):
        for value in sorted({getattr(job, field_name) for job in jobs}):
            if value not in allowed:
                raise RunnerConfigError(
                    f"[R002] campaign job {field_name} must be one of "
                    f"{allowed}, got {value!r}"
                )
    for spec in sorted({job.library for job in jobs}):
        resolve_library(spec)  # fail fast (R001) before any fork

    started = time.perf_counter()
    run_stats.cells_total += len(jobs)
    state = load_journal(resume_path) if resume_path is not None else None
    if resume_path is not None and journal_path is None:
        journal_path = resume_path
    writer = JournalWriter(journal_path) if journal_path else None

    resumed: List[StreamResult] = []
    pending: List[int] = []
    for i, job in enumerate(jobs):
        payload = state.completed.get(job.key()) if state is not None else None
        if payload is None:
            pending.append(i)
            continue
        resumed.append(StreamResult(
            index=i,
            label=job.label,
            row=row_from_payload(job.mode, payload),
            failed=False,
            warm=True,
            worker_id=-1,
            attempts=0,
            wall_s=0.0,
        ))
    run_stats.cells_resumed += len(resumed)
    if writer is not None:
        writer.start([job.label for job in jobs], policy, len(resumed))

    engine = stream_jobs(
        (
            StreamJob(
                label=jobs[i].label,
                payload=jobs[i],
                bundle=jobs[i].bundle(),
                key=jobs[i].key(),
            )
            for i in pending
        ),
        _mapping_bundle_factory,
        (),
        policy=policy,
        max_inflight=max_inflight,
        recycle_after=None if warm else 1,
        writer=writer,
        stats=run_stats,
    )
    try:
        yield from resumed
        for result in engine:
            if result.failed:
                run_stats.cells_failed += 1
            else:
                run_stats.cells_ok += 1
            yield replace(result, index=pending[result.index])
    finally:
        engine.close()
        run_stats.wall_s = time.perf_counter() - started
        if writer is not None:
            writer.end(run_stats.as_dict())


def run_mapping_campaign(
    jobs: Sequence[CampaignJob],
    workers: Optional[int] = None,
    warm: bool = True,
    journal_path: Optional[str] = None,
    resume_path: Optional[str] = None,
    cell_timeout: Optional[float] = None,
    retries: Optional[int] = None,
    backoff: Optional[float] = None,
    max_inflight: Optional[int] = None,
    stats: Optional[RunStats] = None,
) -> CampaignOutcome:
    """Run a campaign to completion; rows come back in job order.

    A convenience wrapper over :func:`stream_campaign` for finite job
    lists: every job yields exactly one row at its input position — a
    :class:`CampaignRow` (a ``ComparisonRow`` for ``compare`` jobs) or
    a :class:`~repro.perf.parallel.CellFailure` (carrying the circuit's
    ISCAS tag for ``compare`` jobs), including an ``interrupted`` one
    for every job a ``KeyboardInterrupt`` stopped before it finished.
    ``stats`` accumulates the run counters (a fresh :class:`RunStats`
    by default); the outcome carries them.
    """
    jobs = list(jobs)
    run_stats = stats if stats is not None else RunStats()
    stream = stream_campaign(
        jobs,
        workers=workers,
        warm=warm,
        journal_path=journal_path,
        resume_path=resume_path,
        cell_timeout=cell_timeout,
        retries=retries,
        backoff=backoff,
        max_inflight=max_inflight,
        stats=run_stats,
    )
    rows = collect_rows(stream, [job.label for job in jobs])
    for job, row in zip(jobs, rows):
        if job.mode == "compare" and isinstance(row, CellFailure):
            from repro.bench.suite import ALL_CIRCUITS

            entry = ALL_CIRCUITS.get(job.source[1])
            row.iscas = entry.iscas if entry is not None else ""
    return CampaignOutcome(rows=rows, stats=run_stats)
