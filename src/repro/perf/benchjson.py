"""Machine-readable benchmark report (``BENCH_mapper.json``).

One schema shared by the bench smoke script
(``benchmarks/bench_matcher_cache.py``) and ``repro-map table
--bench-json``: top-level run metadata (library, match kind, jobs,
wall time, speedup over the uncached path when measured) plus one
record per circuit carrying wall times and the :mod:`repro.perf`
instrumentation counters.
"""

from __future__ import annotations

import json
import platform
import time
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Union

if TYPE_CHECKING:
    from repro.core.result import MappingResult
    from repro.harness.experiment import ComparisonRow
    from repro.perf.parallel import CellFailure

__all__ = ["SCHEMA", "result_record", "rows_to_records", "write_bench_json"]

SCHEMA = "repro-bench-mapper/1"


def result_record(
    name: str,
    subject_gates: int,
    result: "MappingResult",
    wall_s: Optional[float] = None,
) -> Dict[str, object]:
    """Flatten one :class:`~repro.core.result.MappingResult` per circuit."""
    if wall_s is None:
        wall_s = result.cpu_seconds
    return {
        "circuit": name,
        "subject_gates": subject_gates,
        "mode": result.mode,
        "wall_s": round(wall_s, 4),
        "us_per_node": round(wall_s * 1e6 / max(subject_gates, 1), 1),
        "delay": result.delay,
        "area": result.area,
        "n_matches": result.n_matches,
        "counters": result.counters,
    }


def rows_to_records(
    rows: Sequence[Union["CellFailure", "ComparisonRow"]],
) -> List[Dict[str, object]]:
    """Flatten :class:`~repro.harness.experiment.ComparisonRow` objects.

    :class:`~repro.perf.parallel.CellFailure` rows from the
    fault-tolerant runner become ``{"failed": true, ...}`` records so a
    bench report of a degraded run still accounts for every cell.
    """
    records: List[Dict[str, object]] = []
    for row in rows:
        if getattr(row, "failed", False):
            record = dict(row.as_dict())
            record["failed"] = True
            records.append(record)
            continue
        records.append(
            {
                "circuit": row.circuit,
                "subject_gates": row.subject_gates,
                "tree_wall_s": round(row.tree_cpu, 4),
                "dag_wall_s": round(row.dag_cpu, 4),
                "wall_s": round(row.tree_cpu + row.dag_cpu, 4),
                "tree_delay": row.tree_delay,
                "dag_delay": row.dag_delay,
                "tree_area": row.tree_area,
                "dag_area": row.dag_area,
                "verified": row.verified,
                "tree_counters": row.tree_counters,
                "dag_counters": row.dag_counters,
                "sim_counters": getattr(row, "sim_counters", None),
            }
        )
    return records


def write_bench_json(
    path: str,
    library: str,
    circuits: List[Dict[str, object]],
    kind: str = "standard",
    jobs: int = 1,
    max_variants: int = 8,
    total_wall_s: Optional[float] = None,
    speedup: Optional[float] = None,
    extra: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Write the report; returns the payload that was written."""
    payload: Dict[str, object] = {
        "schema": SCHEMA,
        # Run metadata, never byte-compared against other runs.
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),  # repro: allow[S102]
        "python": platform.python_version(),
        "machine": platform.machine(),
        "library": library,
        "match_kind": kind,
        "jobs": jobs,
        "max_variants": max_variants,
    }
    if total_wall_s is not None:
        payload["total_wall_s"] = round(total_wall_s, 4)
    if speedup is not None:
        payload["speedup_vs_uncached"] = round(speedup, 3)
    if extra:
        payload.update(extra)
    payload["circuits"] = circuits
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    return payload
