"""The machine's speed, probed during a run, for reference-speed times.

The benchmark shares a few cores of a host with other work, and the
speed those cores give one Python process drifts by up to a factor of
two, over seconds to minutes: identical work has taken anywhere from
16 to 25 s.  CPU time drifts with wall time, so it is no remedy.  So,
between jobs and set-ups, at most every ``INTERVAL_S``, a run times a
fixed probe that calls nothing from the mapper, and the benchmark
multiplies every time it reports by::

    factor = REFERENCE_S / median(probe times of the run)

Such a time reads in *reference seconds*: what the work takes while the
probe takes ``REFERENCE_S``, about its median on an unloaded 2-CPU
x86-64 container (Python 3.11).  A change to the mapper moves it just
as it moves wall time; the machine's share of the drift divides out.

The probe is interpreter work of the kind the mapper does: tuple-keyed
dict memos over a small DAG, sets, sorting and object allocation.  It
runs with the garbage collector off, so its time does not depend on how
large the mapper's heap is, and it keeps nothing once it returns.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from typing import List

__all__ = ["Speed", "probe", "REFERENCE_S", "INTERVAL_S"]

#: Median probe time on the reference machine.
REFERENCE_S = 0.008
#: Least time between two probes of a run.
INTERVAL_S = 0.25


class _Node:
    __slots__ = ("fanins", "key", "label")

    def __init__(self, fanins):
        self.fanins = fanins
        self.key = None
        self.label = 0.0


def _dag_memo(rng: random.Random) -> float:
    """A labeling-like pass: a 600-node random DAG, structural keys,
    a dict memo of best labels and small leaf sets."""
    nodes: List[_Node] = []
    memo = {}
    for i in range(600):
        if i < 8:
            node = _Node(())
            node.key = ("pi",)
            nodes.append(node)
            continue
        node = _Node((rng.randrange(i), rng.randrange(i)))
        a, b = nodes[node.fanins[0]], nodes[node.fanins[1]]
        if len(a.key) < 3:
            node.key = ("nand", min(a.key, b.key), max(a.key, b.key))
        else:
            node.key = ("nand", len(a.key), i & 7)
        best = memo.get(node.key)
        if best is None:
            best = min({a.label + 1.0, b.label + 1.25, max(a.label, b.label) + 0.5})
            memo[node.key] = best
        leaves = set(a.fanins) | set(b.fanins)
        node.label = best + (i & 3) * 0.01 + len(leaves) * 0.001
        nodes.append(node)
    return sum(sorted(memo.values())[:5])


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def _tables(rng: random.Random) -> int:
    """Dict counting, a keyed sort, objects with string fields."""
    counts = {}
    for i in range(5000):
        key = (i * 2654435761) & 0xFFFF
        counts[key] = counts.get(key, 0) + i
    ordered = sorted(counts.items(), key=lambda kv: (kv[1], kv[0]))
    pairs = [_Pair(i, str(i)) for i in range(2500)]
    total = sum(p.a for p in pairs if p.b.endswith("3"))
    floats = [rng.random() for _ in range(1200)]
    floats.sort()
    return total + len(ordered)


def probe() -> float:
    """Seconds the fixed probe work takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        rng = random.Random(11)
        start = time.perf_counter()
        _dag_memo(rng)
        _tables(rng)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Speed:
    """Probe times of one run and the factor they give.

    :meth:`tick` goes between units of work (jobs, set-ups) and probes
    when ``INTERVAL_S`` has passed since the last probe; :meth:`sample`
    probes unconditionally.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._last = float("-inf")

    def sample(self) -> None:
        self.samples.append(probe())
        self._last = time.perf_counter()

    def tick(self) -> None:
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    @property
    def probe_s(self) -> float:
        return statistics.median(self.samples)

    @property
    def factor(self) -> float:
        """Reference seconds per wall second over this run."""
        return REFERENCE_S / self.probe_s
