"""Matcher/labeling performance layer.

Three cooperating pieces, all correctness-preserving by construction and
enforced byte-identical to the seed path by the test suite:

* :mod:`repro.perf.signature` — structural cone signatures.  A per-node
  canonical encoding of the local NAND2/INV cone up to the pattern set's
  maximum depth.  Subject nodes with equal signatures have isomorphic
  match sets, so :meth:`Matcher.matches_at` results are computed once per
  distinct signature and *replayed* onto every other root by rebinding
  leaves through the canonical cone ordering.
* :mod:`repro.perf.trie` — a pattern prefix trie.  Patterns whose
  decompositions share a structural prefix (very common across the
  variants of one gate and across gates of a rich library) are grouped so
  the binding enumeration runs once per group per subject node; subtrees
  are interned as shapes whose ids index per-subject-node feasibility
  bitsets, so only the groups whose root shape fits are enumerated.
* :mod:`repro.perf.parallel` — the worker protocol of the
  fault-tolerant batch layer and its one :class:`RunPolicy` (workers,
  per-job timeout, retries, backoff).  Worker crashes, per-job
  timeouts and transient failures become structured
  :class:`~repro.perf.parallel.CellFailure` rows instead of aborting the
  run.
* :mod:`repro.perf.stream` — the one batch engine: a long-lived warm
  worker pool consuming an unbounded job iterator with per-worker cache
  bundles, one first-in first-out job queue, bounded in-flight
  backpressure and completion-order result emission, plus
  :func:`collect_rows` for job-order results.
* :mod:`repro.perf.campaign` — mapping campaigns over the stream
  engine: heterogeneous (circuit, library, mode, kind) jobs from a
  JSONL manifest, a seeded ensemble or the paper's tables (``compare``
  jobs), journalled (:mod:`repro.perf.journal`) so ``--resume`` re-runs
  only what is missing; exposed as ``repro-map campaign`` and
  ``repro-map table --jobs N``.

:mod:`repro.perf.counters` carries the instrumentation counters that
surface in :class:`repro.core.result.MappingResult` and in
``BENCH_mapper.json``.
"""

from repro.perf.benchjson import write_bench_json
from repro.perf.campaign import (
    CampaignJob,
    CampaignOutcome,
    CampaignRow,
    load_manifest,
    run_mapping_campaign,
    seed_ensemble,
    stream_campaign,
)
from repro.perf.counters import MatchStats, RunStats
from repro.perf.journal import load_journal
from repro.perf.parallel import CellFailure, RunPolicy
from repro.perf.signature import cone_signature
from repro.perf.stream import StreamJob, StreamResult, collect_rows, stream_jobs
from repro.perf.trie import PatternTrie

__all__ = [
    "CampaignJob",
    "CampaignOutcome",
    "CampaignRow",
    "CellFailure",
    "MatchStats",
    "RunPolicy",
    "RunStats",
    "StreamJob",
    "StreamResult",
    "collect_rows",
    "cone_signature",
    "load_journal",
    "load_manifest",
    "PatternTrie",
    "run_mapping_campaign",
    "seed_ensemble",
    "stream_campaign",
    "stream_jobs",
    "write_bench_json",
]
