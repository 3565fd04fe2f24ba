#!/usr/bin/env python3
"""Quick smoke of the benchmark at tiny sizes (about two minutes).

Checks that:

* every workload, untraced and traced, prints a last line with exactly
  ``correct``/``attempted``/``failed``/``metrics`` and every metric
  ``BENCHMARK.json`` names, with its unit;
* a deliberately wrong netlist is caught: it raises ``fail_rate`` and
  clears ``correct``;
* in a directory holding only ``BENCHMARK.json`` and ``perfbench/``,
  the benchmark exits non-zero without printing a result.

Run from the repository root: ``python3 perfbench/selftest.py``.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _expect(condition, detail) -> None:
    """``assert`` that also holds under ``python -O``."""
    if not condition:
        raise AssertionError(detail)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300, check=False,
    )


def check_metrics(spec) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(ROOT, "--workload", workload, "--seed", "3",
                        "--seconds", "1", "--trace", str(trace))
            _expect(proc.returncode == 0, (workload, trace, proc.stderr))
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            _expect(set(result) == {"correct", "attempted", "failed", "metrics"}, result)
            _expect(result["correct"] is True, (workload, proc.stderr))
            _expect(1 <= result["attempted"] and
                    0 <= result["failed"] <= result["attempted"], result)
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            _expect(got == want, (workload, trace, set(got) ^ set(want)))
            for name, metric in result["metrics"].items():
                _expect(isinstance(metric["value"], (int, float)), (name, metric))
            print(f"ok  {workload} trace={trace}: {len(got)} metrics, "
                  f"{result['attempted']} jobs, {result['failed']} failed")


def _swap_first_outputs(netlist) -> None:
    """Make a wrong netlist: two primary outputs swap their signals."""
    (a, sa), (b, sb) = netlist.pos[0], netlist.pos[1]
    netlist.pos[0], netlist.pos[1] = (a, sb), (b, sa)


def check_wrong_netlist() -> None:
    """Every traced ``random`` job gets a wrong cover; all must fail."""
    sys.path.insert(0, HERE)
    import run

    run._import_program()
    import workloads

    clean = run.run_workload("random", 5, 2, True)
    real = workloads.build_cover

    def wrong_cover(*args, **kwargs):
        netlist = real(*args, **kwargs)
        _swap_first_outputs(netlist)
        return netlist

    workloads.build_cover = wrong_cover
    try:
        wrong = run.run_workload("random", 5, 2, True)
    finally:
        workloads.build_cover = real
    before = clean["metrics"]["fail_rate"]["value"]
    after = wrong["metrics"]["fail_rate"]["value"]
    _expect(clean["correct"] and before == 0, clean)
    _expect(after > before and not wrong["correct"] and wrong["failed"] > 0, wrong)
    print(f"ok  wrong netlist: fail_rate {before} -> {after}, correct=False")


def check_bare_directory() -> None:
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, "--workload", "tables", "--seed", "1",
                    "--seconds", "1", "--trace", "0")
    _expect(proc.returncode != 0, proc.stdout)
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    _expect(not last.startswith("{"), last)
    print(f"ok  bare directory: exit {proc.returncode}")


def main() -> int:
    spec = _spec()
    check_bare_directory()
    check_wrong_netlist()
    check_metrics(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
