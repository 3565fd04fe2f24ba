#!/usr/bin/env python3
"""The repository's benchmark: four seeded closed-loop workloads.

One run maps a fixed, seeded job list in a fresh process and prints, as
its last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` a separate traced run records spans around every layer
call and reports the per-layer ones.  Times are reported in reference
seconds: wall time scaled by the machine speed probed during the run
(``perfbench/speed.py``).  Metric names, units and why each workload
exists are listed in ``BENCHMARK.json`` and ``perfbench/README.md``.

Usage, from the repository root::

    python3 perfbench/run.py --workload tables --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --all --seed 1      # every workload, both runs
    python3 perfbench/selftest.py                # quick smoke at tiny sizes
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from speed import Speed

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

WORKLOADS = ("tables", "random", "wide_sop", "campaign")

#: Jobs per second of ``--seconds``: the job list is fixed by the seed
#: and ``--seconds``, not by a clock, so a run's counts and peak memory
#: compare across commits.  Calibrated so a run measures about
#: ``--seconds`` on a 2-CPU x86-64 container (Python 3.11).
JOBS_PER_SECOND = {"tables": 3.0, "random": 1.0, "wide_sop": 1.2, "campaign": 8.0}

#: Set-up runs at least ``SETUP_REPEATS`` times in a run; an in-process
#: set-up repeats further, up to ``SETUP_MAX_REPEATS`` times, until the
#: repeats have taken ``SETUP_SECONDS``.  ``setup_s`` is their median, so
#: a 10-ms set-up is not left to three samples.
SETUP_REPEATS = 3
SETUP_MAX_REPEATS = 30
SETUP_SECONDS = 1.0

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "nodes_per_s": "nodes/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "peak_rss_mb": "MB",
    "delay_sum": "delay",
    "area_sum": "area",
}

PER_LAYER = {
    "machine.probe_ms": "ms",
    "wall.jobs_per_s": "1/s",
    "fail_rate": "ratio",
    "dag_tree_gain_pct": "%",
    "job_tail.pct": "%",
    "job_tail.samples": "count",
    "network.blif.parse_s": "s",
    "network.decompose.s": "s",
    "network.decompose.subject_nodes": "count",
    "library.patterns.build_s": "s",
    "library.patterns.count": "count",
    "core.match.init_s": "s",
    "core.labeling.s": "s",
    "core.labeling.us_per_node": "us/node",
    "core.labeling.n_matches": "count",
    "core.labeling.alloc_peak_kb_per_node": "kB/node",
    "perf.signature.hits": "count",
    "perf.signature.misses": "count",
    "perf.signature.hit_rate": "ratio",
    "perf.trie.feasibility_hits": "count",
    "perf.trie.feasibility_misses": "count",
    "perf.trie.feasibility_hit_rate": "ratio",
    "core.match.bindings_enumerated": "count",
    "core.match.groups_enumerated": "count",
    "core.match.matches_replayed": "count",
    "core.tree_mapper.s": "s",
    "core.cover.s": "s",
    "core.cover.gates": "count",
    "timing.sta.s": "s",
    "check.certificate.s": "s",
    "network.simulate.equiv_s": "s",
    "perf.campaign.worker_busy_s": "s",
    "perf.campaign.overhead_s": "s",
    "perf.stream.warm_hits": "count",
    "perf.stream.warm_misses": "count",
    "perf.stream.workers_spawned": "count",
    "perf.stream.retries": "count",
    "perf.stream.crashes": "count",
    "trace.nodes_per_s": "nodes/s",
    "trace.delay_sum": "delay",
    "trace.area_sum": "area",
    "trace.self_time_coverage": "ratio",
}

#: Span name -> per-layer self-time metric.
SPAN_METRICS = {
    "network.blif": "network.blif.parse_s",
    "network.decompose": "network.decompose.s",
    "core.labeling": "core.labeling.s",
    "core.cover": "core.cover.s",
    "timing.sta": "timing.sta.s",
    "core.tree_mapper": "core.tree_mapper.s",
    "check.certificate": "check.certificate.s",
    "network.simulate": "network.simulate.equiv_s",
}


#: Per-layer times measured outside spans, scaled like every time.
LAYER_TIMES = {
    "library.patterns.build_s", "core.match.init_s",
    "perf.campaign.worker_busy_s", "perf.campaign.overhead_s",
}

#: Matcher counter -> per-layer metric.
_COUNTER_METRICS = {
    "signature_hits": "perf.signature.hits",
    "signature_misses": "perf.signature.misses",
    "feasibility_hits": "perf.trie.feasibility_hits",
    "feasibility_misses": "perf.trie.feasibility_misses",
    "bindings_enumerated": "core.match.bindings_enumerated",
    "groups_enumerated": "core.match.groups_enumerated",
    "matches_replayed": "core.match.matches_replayed",
}


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path and import ``repro``.

    Exits with a non-zero status, printing no result, when the package
    is not there (a directory that holds only the benchmark).
    """
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"perfbench: no mapper package at {SRC}/repro")
    sys.path.insert(0, SRC)
    import repro

    if os.path.dirname(os.path.abspath(repro.__file__)) != os.path.join(SRC, "repro"):
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def nearest_rank(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sample (``q`` in [0, 100])."""
    rank = max(1, math.ceil(len(ordered) * q / 100))
    return ordered[min(rank, len(ordered)) - 1]


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten samples beyond it.

    With nearest rank, ``n - ceil(n * p / 100) >= 10`` holds up to
    ``p = floor(100 * (n - 10) / n)``; below 20 samples this falls back
    to the median.
    """
    return max(50, 100 * (n - 10) // n) if n else 50


def job_count(workload: str, seconds: int) -> int:
    """Jobs in a run; ``tables`` rounds to whole passes once it has one,
    so its delay and area sums are the same on every seed."""
    import inputs

    count = max(2, round(seconds * JOBS_PER_SECOND[workload]))
    cells = len(inputs.TABLE_CELLS)
    if workload == "tables" and count >= cells:
        count = cells * round(count / cells)
    return count


@dataclass
class _Run:
    """What one workload's closed loop left behind, before any metric.

    Times here are wall seconds; ``speed`` turns them into reference
    seconds (``perfbench/speed.py``).
    """

    outcomes: list
    setups: List[float]
    wall: float
    rss_kb: int
    layer: Dict[str, float]
    speed: Speed


def _in_process(workload: str, seed: int, count: int, tracer) -> _Run:
    import inputs
    from workloads import InProcess

    make = {"tables": inputs.tables_jobs, "random": inputs.random_jobs,
            "wide_sop": inputs.wide_sop_jobs}[workload]
    jobs = make(seed, count)
    libraries = [lib for lib in inputs.LIBRARIES if any(j.library == lib for j in jobs)]
    speed = Speed()
    setups, builds, inits = [], [], []
    while len(setups) < SETUP_REPEATS or (
            sum(setups) < SETUP_SECONDS and len(setups) < SETUP_MAX_REPEATS):
        runner = None
        gc.collect()  # free the previous repeat, so each starts alike
        speed.tick()
        runner = InProcess(libraries, tree=workload == "tables", tracer=tracer)
        start = time.perf_counter()
        build, init = runner.setup()
        setups.append(time.perf_counter() - start)
        builds.append(build)
        inits.append(init)
    gc.collect()
    outcomes = []
    for i, job in enumerate(jobs):
        speed.tick()
        outcomes.append(runner.run(i, job))
    speed.sample()
    wall = sum(o.wall_s for o in outcomes)
    layer: Dict[str, float] = {}
    if tracer.enabled:
        layer.update({
            "library.patterns.build_s": statistics.median(builds),
            "library.patterns.count": runner.pattern_count(),
            "core.match.init_s": statistics.median(inits),
            "core.labeling.n_matches": runner.n_matches,
            "core.cover.gates": runner.cover_gates,
        })
        for name, value in runner.counters.items():
            layer[_COUNTER_METRICS[name]] = value
        passing = [(o.gates, i) for i, o in enumerate(outcomes) if o.ok]
        if passing:
            peak, gates = runner.alloc_probe(jobs[min(passing)[1]])
            layer["core.labeling.alloc_peak_kb_per_node"] = peak / 1024 / gates
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return _Run(outcomes, setups, wall, rss_kb, layer, speed)


def _campaign(seed: int, count: int, tracer) -> _Run:
    import inputs
    from workloads import Campaign

    warmup, jobs = inputs.campaign_jobs(seed, count)
    # One CPU for this process and its forked worker: with one job in
    # flight they never run at once, and the speed probed here is then
    # the speed of the CPU the worker maps on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    runner = Campaign(tracer)
    speed = Speed()
    setups = []
    try:
        for _ in range(SETUP_REPEATS - 1):
            speed.tick()
            setups.append(runner.setup(warmup, []))
            runner.close()
        speed.tick()
        setups.append(runner.setup(warmup, jobs))
        gc.collect()
        outcomes = []
        for i in range(len(jobs)):
            speed.tick()
            outcomes.append(runner.run(i))
        speed.sample()
        wall = sum(o.wall_s for o in outcomes)
    finally:
        runner.close()
    layer: Dict[str, float] = {}
    if tracer.enabled:
        build, n_patterns, init = runner.init_costs()
        busy = sum(row.cpu_s for row in runner.rows if not getattr(row, "failed", False))
        stats = runner.stats
        layer.update({
            "library.patterns.build_s": build,
            "library.patterns.count": n_patterns,
            "core.match.init_s": sum(init[job.library] for job in jobs),
            "perf.campaign.worker_busy_s": busy,
            "perf.campaign.overhead_s": wall - busy,
            "perf.stream.warm_hits": stats.warm_hits,
            "perf.stream.warm_misses": stats.warm_misses,
            "perf.stream.workers_spawned": stats.workers_spawned,
            "perf.stream.retries": stats.retries,
            "perf.stream.crashes": stats.crashes,
        })
    rss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return _Run(outcomes, setups, wall, rss_kb, layer, speed)


def _rate(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> Dict[str, object]:
    """One run: inputs, set-up (repeated), the closed job loop, metrics.

    Returns the result object the benchmark prints.
    """
    from spans import Tracer

    tracer = Tracer(trace)
    count = job_count(workload, seconds)
    if workload == "campaign":
        run = _campaign(seed, count, tracer)
    else:
        run = _in_process(workload, seed, count, tracer)

    # Every reported time is in reference seconds: wall times times
    # the run's speed factor (see perfbench/speed.py).
    factor = run.speed.factor
    outcomes, wall = run.outcomes, run.wall * factor
    ok = [o for o in outcomes if o.ok]
    failed = len(outcomes) - len(ok)
    latencies = sorted(o.wall_s * factor for o in ok) or [0.0]
    gates = sum(o.gates for o in ok)
    pct = tail_percentile(len(ok))
    end_to_end = {
        "setup_s": statistics.median(run.setups) * factor,
        "jobs_per_s": len(ok) / wall,
        "nodes_per_s": gates / wall,
        "job_p50_s": statistics.median(latencies),
        "job_tail_s": nearest_rank(latencies, pct),
        "peak_rss_mb": run.rss_kb / 1024,
        "delay_sum": sum(o.delay for o in ok),
        "area_sum": sum(o.area for o in ok),
    }
    gains = [(o.tree_delay - o.delay) / o.tree_delay for o in ok if o.tree_delay > 0]
    layer = {name: value * factor if name in LAYER_TIMES else value
             for name, value in run.layer.items()}
    layer.update({
        "machine.probe_ms": 1000 * run.speed.probe_s,
        "wall.jobs_per_s": len(ok) / run.wall,
        "fail_rate": failed / len(outcomes),
        "dag_tree_gain_pct": 100 * statistics.fmean(gains) if gains else 0.0,
        "job_tail.pct": pct,
        "job_tail.samples": len(ok),
    })
    _report(workload, seed, count, outcomes, run, layer)

    if trace:
        own = tracer.self_time_by_name()
        for span_name, metric in SPAN_METRICS.items():
            layer[metric] = own.get(span_name, 0.0) * factor
        layer.update({
            "network.decompose.subject_nodes": gates,
            "core.labeling.us_per_node": 1e6 * layer["core.labeling.s"] / gates if gates else 0.0,
            "perf.signature.hit_rate": _rate(layer.get("perf.signature.hits", 0),
                                             layer.get("perf.signature.misses", 0)),
            "perf.trie.feasibility_hit_rate": _rate(layer.get("perf.trie.feasibility_hits", 0),
                                                    layer.get("perf.trie.feasibility_misses", 0)),
            "trace.nodes_per_s": end_to_end["nodes_per_s"],
            "trace.delay_sum": end_to_end["delay_sum"],
            "trace.area_sum": end_to_end["area_sum"],
            "trace.self_time_coverage": tracer.job_coverage(
                {i for i, o in enumerate(outcomes) if o.ok}),
        })
        os.makedirs(".perfbench-traces", exist_ok=True)
        tracer.write(os.path.join(".perfbench-traces", f"{workload}-s{seed}.jsonl"))
        values, units = layer, PER_LAYER
    else:
        values, units = end_to_end, END_TO_END
    # A metric of a layer the workload never reaches reads 0.
    return {
        "correct": not any(o.wrong for o in outcomes),
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {
            name: {"value": values.get(name, 0), "unit": unit}
            for name, unit in units.items()
        },
    }


def _report(workload: str, seed: int, count: int, outcomes, run: _Run,
            layer: Dict[str, float]) -> None:
    """Human-readable summary and failures by error, on stderr."""
    err = sys.stderr
    print(f"perfbench {workload} seed={seed}: {count} jobs in {run.wall:.2f}s "
          f"(speed factor {run.speed.factor:.3f} from {len(run.speed.samples)} "
          f"probes), tail = p{layer['job_tail.pct']} of {layer['job_tail.samples']} "
          f"passing jobs, {len(run.setups)} set-ups of {min(run.setups):.3f}"
          f"-{max(run.setups):.3f}s",
          file=err)
    by_error: Dict[str, List[int]] = {}
    for i, outcome in enumerate(outcomes):
        if outcome.error is not None:
            by_error.setdefault(outcome.error, []).append(i)
    for error, idx in sorted(by_error.items()):
        print(f"  FAILED x{len(idx)} (jobs {idx}): {error}", file=err)


def _run_all(seed: int, seconds: int) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    status = 0
    for workload in WORKLOADS:
        results = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, check=False,
            )
            if proc.returncode != 0:
                print(f"{workload} trace={trace}: exit {proc.returncode}")
                return 1
            results[trace] = json.loads(proc.stdout.strip().splitlines()[-1])
        plain, traced = results[0], results[1]
        print(f"\n== {workload} (seed {seed}): correct={plain['correct']} "
              f"attempted={plain['attempted']} failed={plain['failed']}")
        for source in (plain, traced):
            for name, metric in source["metrics"].items():
                print(f"  {name:40s} {metric['value']:>16.6g} {metric['unit']}")
        p, t = plain["metrics"], traced["metrics"]
        overhead = 1 - t["trace.nodes_per_s"]["value"] / p["nodes_per_s"]["value"]
        same = (t["trace.delay_sum"]["value"] == p["delay_sum"]["value"]
                and t["trace.area_sum"]["value"] == p["area_sum"]["value"])
        times = {name: t[name]["value"] for name in SPAN_METRICS.values()}
        if workload == "campaign":
            init = t["core.match.init_s"]["value"]
            times = {
                "perf.campaign.overhead_s": t["perf.campaign.overhead_s"]["value"],
                "core.match.init_s": init,
                "worker mapping excl. matcher init":
                    t["perf.campaign.worker_busy_s"]["value"] - init,
            }
        top = max(times, key=times.get)
        print(f"  tracing overhead (nodes_per_s): {100 * overhead:.1f}%")
        print(f"  traced delay/area sums equal untraced: {same}")
        print(f"  dominant layer: {top} ({times[top]:.3f}s of "
              f"{sum(times.values()):.3f}s)")
        if not (plain["correct"] and traced["correct"] and same):
            status = 1
    return status


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced and traced, and print a summary")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    if args.all:
        return _run_all(args.seed, args.seconds)
    if args.workload is None:
        parser.error("--workload or --all is required")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
