"""Seeded inputs for the four workloads.

Every generator takes the workload seed and a job count and returns the
job list; the same ``(seed, count)`` always gives the same jobs.  The
mapper only ever sees what is generated here: BLIF text for the
in-process workloads, :class:`~repro.perf.campaign.CampaignJob` entries
for ``campaign``.  Sizes follow a fixed schedule and only structure
comes from the seed, so runs on different seeds do comparable work.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.bench.suite import SUITE, TABLE1_NAMES, TABLE23_NAMES
from repro.fuzz.generator import FuzzConfig, random_dag
from repro.network.blif import dumps_blif
from repro.perf.campaign import seed_ensemble

__all__ = [
    "BlifJob", "TABLE_CELLS", "LIBRARIES", "CAMPAIGN_LIBRARIES",
    "tables_jobs", "random_jobs", "wide_sop_jobs", "campaign_jobs",
    "wide_sop_text",
]

#: Library spec -> pattern variants per gate, as the paper's tables use
#: them (``repro.harness.experiment.table1``/``table2``/``table3``).
LIBRARIES = {"lib2": 8, "44-1": 8, "44-3": 4}

#: ``campaign`` rotates its jobs over these bundles.
CAMPAIGN_LIBRARIES = ("lib2", "44-1", "44-3")


@dataclass(frozen=True)
class BlifJob:
    """One in-process job: a circuit as BLIF text and its library."""

    name: str
    library: str
    blif: str


#: Table 1 on lib2, Tables 2 and 3 on 44-1 and 44-3: 20 cells.
TABLE_CELLS: List[Tuple[str, str]] = (
    [(name, "lib2") for name in TABLE1_NAMES]
    + [(name, "44-1") for name in TABLE23_NAMES]
    + [(name, "44-3") for name in TABLE23_NAMES]
)


def tables_jobs(seed: int, count: int) -> List[BlifJob]:
    """``count`` cells of the paper's tables, whole passes in seeded order.

    Each pass visits all 20 cells once, shuffled by the seed, so the
    outputs (and their sums) are the same on every seed and only the
    order the caches warm up in changes.
    """
    rng = random.Random(seed)
    texts = {name: dumps_blif(SUITE[name].build()) for name, _ in TABLE_CELLS}
    cells: List[Tuple[str, str]] = []
    while len(cells) < count:
        order = list(TABLE_CELLS)
        rng.shuffle(order)
        cells.extend(order)
    return [BlifJob(name, lib, texts[name]) for name, lib in cells[:count]]


#: Internal 2-input nodes of every ``random`` job (about 450 NAND2/INV
#: subject nodes after decomposition).  One size for all jobs keeps the
#: median job comparable from seed to seed.
RANDOM_NODES = 150


def random_jobs(seed: int, count: int) -> List[BlifJob]:
    """Fresh ``repro.fuzz.generator`` DAGs (64 inputs) for 44-3."""
    rng = random.Random(seed)
    jobs = []
    for i in range(count):
        config = FuzzConfig(
            n_inputs=64,
            n_nodes=RANDOM_NODES,
            seed=rng.randrange(2**31),
        )
        net = random_dag(config)
        jobs.append(BlifJob(net.name, "44-3", dumps_blif(net)))
    return jobs


#: ``wide_sop`` shape: primary inputs, wide nodes per job, and the
#: fanin / cube-count schedules those nodes cycle through.
WIDE_PIS = 32
WIDE_NODES = 6
WIDE_FANINS = (12, 13, 14, 15, 16)
WIDE_CUBES = (4, 9, 14, 19, 24)
#: One job in this many carries an extra single-cube node of 21 to 24
#: inputs, past the 20-input truth-table cap of ``repro.network``.
WIDE_DEFECT_EVERY = 8


def wide_sop_text(rng: random.Random, name: str,
                  defect_width: Optional[int] = None) -> str:
    """BLIF of ``WIDE_NODES`` multi-cube ``.names`` nodes over 32 PIs.

    Node ``j`` reads ``WIDE_FANINS[j % 5]`` primary inputs and has
    ``WIDE_CUBES[j % 5]`` distinct cubes, each literal ``0``, ``1`` or
    ``-`` (don't care, twice as likely).  Nodes read no other node, so a
    job's depth, and its delay, vary little from seed to seed.  Every
    node is a primary output.  With ``defect_width`` one more node is
    appended: a single AND cube over that many primary inputs.
    """
    pis = [f"x{i}" for i in range(WIDE_PIS)]
    body: List[str] = []
    outputs: List[str] = []
    for j in range(WIDE_NODES):
        k = WIDE_FANINS[j % len(WIDE_FANINS)]
        fanins = rng.sample(pis, k)
        rows = set()
        while len(rows) < WIDE_CUBES[j % len(WIDE_CUBES)]:
            rows.add("".join(rng.choice("01--") for _ in range(k)))
        out = f"n{j}"
        body.append(".names " + " ".join(fanins) + " " + out)
        body.extend(row + " 1" for row in sorted(rows))
        outputs.append(out)
    if defect_width is not None:
        body.append(".names " + " ".join(rng.sample(pis, defect_width)) + " wide")
        body.append("1" * defect_width + " 1")
        outputs.append("wide")
    header = [f".model {name}", ".inputs " + " ".join(pis),
              ".outputs " + " ".join(outputs)]
    return "\n".join(header + body + [".end"]) + "\n"


def wide_sop_jobs(seed: int, count: int) -> List[BlifJob]:
    """Wide multi-cube SOP circuits for lib2.

    ``ceil(count / 8)`` of them, at seeded positions, carry the 21-24
    input node that ``read_blif`` rejects today; they are kept so the
    defect shows in the failure count.
    """
    rng = random.Random(seed)
    defects = set(rng.sample(range(count), math.ceil(count / WIDE_DEFECT_EVERY)))
    jobs = []
    for i in range(count):
        width = rng.randint(21, 24) if i in defects else None
        name = f"wide_s{seed}_{i}"
        jobs.append(BlifJob(name, "lib2", wide_sop_text(rng, name, width)))
    return jobs


def campaign_jobs(seed: int, count: int) -> Tuple[list, list]:
    """``seed_ensemble`` jobs: 16-node/6-input circuits, libraries rotating.

    Verification and the in-worker certificate are on for every job.
    Returns ``(warmup, jobs)``: one tiny job per library, which the
    benchmark runs before timing starts so the worker holds every cache
    bundle, then the ``count`` measured jobs (all seeds distinct).
    """
    rng = random.Random(seed)
    base = rng.randrange(2**30)
    n_warm = len(CAMPAIGN_LIBRARIES)
    jobs = seed_ensemble(
        list(range(base, base + n_warm + count)), CAMPAIGN_LIBRARIES,
        nodes=16, inputs=6, verify=True, check=True,
    )
    return jobs[:n_warm], jobs[n_warm:]
