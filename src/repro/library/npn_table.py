"""Library preprocessing for the cut-enumeration matching engine.

The structural matcher tries every library pattern at every subject
node; the cut engine (``Matcher(engine="cuts")``) first asks a cheap
functional question — *could this pattern's function possibly live
here?* — and only runs the binding enumerator for patterns that survive.
This module builds everything that question needs, **once per library**:

* a *truncation chain* per pattern: for each height ``t`` up to
  ``depth_cap``, truncate the pattern at its nodes of min-distance
  ``>= t`` from the root; whenever that frontier has at most ``k``
  members, record ``(t, n, npn_canonical(frontier function))``.  Any
  injective structural match of the pattern maps the height-``t``
  frontier onto a subject cut of size ``<= k`` whose cone function is
  NPN-equal and whose minimum derivation depth is ``<= t`` — so a
  subject node lacking such a cut can skip the pattern entirely.  (The
  argument needs fanin-multiset-preserving matches, which holds for
  STANDARD/EXACT; the engine refuses EXTENDED.)
* an *NPN-class -> cells* hash table: every library cell function with
  at most ``cell_limit`` inputs, canonised with
  :func:`repro.network.npn.npn_canonical`, keyed by class with the
  input transform kept alongside — :meth:`NPNTable.lookup` maps a cut
  function straight to the cells (and pin transforms) realising it.
* a *truncated shape* per pattern: the pattern tree cut off at depth
  ``depth_cap``, leaves and deeper structure collapsed to a wildcard.
  Any injective match embeds this shape into the subject cone's
  depth-bounded unfolding (matches preserve edges and kinds), so the
  matcher can also skip patterns whose NAND2/INV *bracketing* cannot
  possibly align — a structural complement to the functional chains,
  which cannot see bracketing at all.

Building the table costs one NPN canonicalisation per pattern level and
per cell, so the result is persisted to a JSON side-cache keyed by a
sha256 over the gate functions, the pattern keys and the build
parameters (``REPRO_NPN_CACHE_DIR``, default ``~/.cache/repro/npn``) —
rebuilt from scratch whenever the key or schema changes, and optionally
built in parallel over the fault-tolerant worker pool.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import env
from repro.errors import LibraryError
from repro.library.patterns import PatternGraph, PatternNode, PatternSet
from repro.network.functions import TruthTable, variable_bits
from repro.network.npn import NPNTransform, npn_canonical
from repro.network.subject import NodeType

__all__ = [
    "CellEntry",
    "NPNTable",
    "build_npn_table",
    "pattern_chain",
    "pattern_shape",
    "table_for",
]

#: Persistent-cache schema; bump on any change to the stored layout or
#: to the semantics of chains/classes (forces a rebuild).
SCHEMA = "repro-npn-table/2"

#: Frontier-size bound for chain entries.  Cuts wider than this are
#: never consulted, so the subject-side enumeration stays k-feasible
#: with small k even for 6-input libraries.
DEFAULT_K = 4

#: Truncation-height bound.  Pattern levels beyond this contribute no
#: chain entry (subject cut enumeration is depth-bounded to match).
DEFAULT_DEPTH_CAP = 6

#: One chain entry: (truncation height, frontier size, canonical bits).
ChainEntry = Tuple[int, int, int]

#: A pattern's truncation chain, ascending in height.
Chain = Tuple[ChainEntry, ...]

#: One class member: the cell name and the transform mapping the cell
#: function onto the class representative
#: (``apply_transform(transform, gate.tt) == canonical``).
CellEntry = Tuple[str, NPNTransform]

#: A depth-truncated pattern shape: ``("?",)`` wildcard (leaf or beyond
#: the depth cap), ``("I", child)`` inverter, ``("N", a, b)`` NAND with
#: children in sorted order (canonical under NAND symmetry).
Shape = Tuple[object, ...]

_WILDCARD: Shape = ("?",)

_CACHE_ENV = "REPRO_NPN_CACHE_DIR"


def pattern_chain(
    pattern: PatternGraph,
    k: int = DEFAULT_K,
    depth_cap: int = DEFAULT_DEPTH_CAP,
) -> Chain:
    """The truncation chain of one pattern (see the module docstring).

    Height ``t`` truncates the pattern at the nodes whose *minimum*
    distance from the root is ``>= t`` (leaves always terminate); the
    entry is emitted only when that frontier has ``<= k`` members.  The
    frontier function is evaluated as a packed word over the frontier
    ordered by node uid and NPN-canonised.
    """
    dist: Dict[int, int] = {pattern.root.uid: 0}
    frontier: List[PatternNode] = [pattern.root]
    while frontier:
        nxt: List[PatternNode] = []
        for node in frontier:
            if node.is_leaf:
                continue
            for fanin in node.fanins:
                if fanin.uid not in dist:
                    dist[fanin.uid] = dist[node.uid] + 1
                    nxt.append(fanin)
        frontier = nxt
    chain: List[ChainEntry] = []
    for t in range(1, min(pattern.depth, depth_cap) + 1):
        leaves: List[PatternNode] = []
        seen: set = set()
        stack: List[PatternNode] = [pattern.root]
        while stack:
            node = stack.pop()
            if node.uid in seen:
                continue
            seen.add(node.uid)
            if node.is_leaf or dist[node.uid] >= t:
                leaves.append(node)
            else:
                stack.extend(node.fanins)
        if len(leaves) > k:
            continue
        order = sorted(leaves, key=lambda n: n.uid)
        n = len(order)
        canonical, _ = npn_canonical(
            TruthTable(n, _cone_bits(pattern.root, order))
        )
        chain.append((t, n, canonical.bits))
    return tuple(chain)


def pattern_shape(
    pattern: PatternGraph, depth_cap: int = DEFAULT_DEPTH_CAP
) -> Shape:
    """The pattern tree truncated at ``depth_cap``, leaves collapsed.

    Leaves (and anything deeper than the cap) become the ``("?",)``
    wildcard; NAND children are sorted so symmetric bracketings share
    one canonical shape.  An injective STANDARD/EXACT match maps every
    inner pattern node onto a subject node of the same kind preserving
    edges, so this shape always embeds into the subject cone's
    depth-``depth_cap`` unfolding — the matcher uses that as a
    structural pre-filter.
    """

    def walk(node: PatternNode, budget: int) -> Shape:
        if node.is_leaf or budget == 0:
            return _WILDCARD
        if node.kind is NodeType.INV:
            return ("I", walk(node.fanins[0], budget - 1))
        a = walk(node.fanins[0], budget - 1)
        b = walk(node.fanins[1], budget - 1)
        return ("N", a, b) if a <= b else ("N", b, a)  # type: ignore[operator]

    return walk(pattern.root, depth_cap)


def _cone_bits(root: PatternNode, leaves: Sequence[PatternNode]) -> int:
    """Packed cone function of a pattern root over ordered frontier nodes."""
    n = len(leaves)
    mask = (1 << (1 << n)) - 1
    words: Dict[int, int] = {
        leaf.uid: variable_bits(i, n) for i, leaf in enumerate(leaves)
    }
    stack: List[PatternNode] = [root]
    while stack:
        node = stack[-1]
        if node.uid in words:
            stack.pop()
            continue
        pending = [f for f in node.fanins if f.uid not in words]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        if node.kind is NodeType.INV:
            words[node.uid] = ~words[node.fanins[0].uid] & mask
        else:
            a, b = node.fanins
            words[node.uid] = ~(words[a.uid] & words[b.uid]) & mask
    return words[root.uid]


@dataclass
class NPNTable:
    """Precomputed NPN data of one pattern set (see the module docstring).

    Attributes:
        k: frontier/cut-size bound the chains were built with.
        depth_cap: truncation-height bound.
        cell_limit: max cell input count admitted to ``cell_classes``.
        key: the persistent-cache key (sha256 hex digest).
        chains: one chain per pattern, aligned with
            ``PatternSet.patterns`` order.
        shapes: one depth-truncated shape per pattern, same alignment
            (see :func:`pattern_shape`).
        cell_classes: ``(n, canonical bits) -> cells`` in that class,
            each with the transform mapping the *cell function onto the
            representative*.
        from_cache: the table was loaded from the side-cache rather
            than built.
    """

    k: int
    depth_cap: int
    cell_limit: int
    key: str
    chains: Tuple[Chain, ...]
    shapes: Tuple[Shape, ...]
    cell_classes: Dict[Tuple[int, int], Tuple[CellEntry, ...]]
    from_cache: bool = False

    def lookup(self, tt: TruthTable) -> List[Tuple[str, NPNTransform]]:
        """Cells realising ``tt``, with the cut -> cell input transform.

        For each returned ``(name, transform)``,
        ``apply_transform(transform, tt) == gate.tt`` — i.e. the
        transform carries the cut function onto the cell function, so
        its permutation/negations say which cut leaf (and phase) drives
        which cell pin.  Empty when no cell of ``<= cell_limit`` inputs
        matches.
        """
        from repro.network.npn import compose_transforms, invert_transform

        canonical, to_canon = npn_canonical(tt)
        out: List[Tuple[str, NPNTransform]] = []
        for name, cell_to_canon in self.cell_classes.get(
            (tt.n_vars, canonical.bits), ()
        ):
            out.append(
                (name, compose_transforms(invert_transform(cell_to_canon),
                                          to_canon))
            )
        return out

    def chain_of(self, index: int) -> Chain:
        """The chain of the pattern at ``index`` in pattern-set order."""
        return self.chains[index]

    def shape_of(self, index: int) -> Shape:
        """The shape of the pattern at ``index`` in pattern-set order."""
        return self.shapes[index]


def _cache_key(
    patterns: PatternSet, k: int, depth_cap: int, cell_limit: int
) -> str:
    """sha256 over everything the table contents depend on."""
    payload = {
        "schema": SCHEMA,
        "k": k,
        "depth_cap": depth_cap,
        "cell_limit": cell_limit,
        "gates": [
            # hex: wide gate functions overflow the decimal int-to-str limit
            [gate.name, gate.n_inputs, f"{gate.tt.bits:x}"]
            for gate in patterns.library
        ],
        "patterns": [
            [p.gate.name, repr(p.key)] for p in patterns.patterns
        ],
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _cache_dir(cache_dir: Optional[Path]) -> Path:
    if cache_dir is not None:
        return Path(cache_dir)
    configured = env.read_str(_CACHE_ENV)
    if configured:
        return Path(configured)
    return Path.home() / ".cache" / "repro" / "npn"


def _cache_path(directory: Path, key: str) -> Path:
    return directory / f"npn_{key[:24]}.json"


def _serialize(table: NPNTable) -> Dict[str, object]:
    return {
        "schema": SCHEMA,
        "key": table.key,
        "k": table.k,
        "depth_cap": table.depth_cap,
        "cell_limit": table.cell_limit,
        "chains": [
            [[t, n, bits] for (t, n, bits) in chain]
            for chain in table.chains
        ],
        "shapes": [_shape_to_json(shape) for shape in table.shapes],
        "cell_classes": [
            [
                n,
                bits,
                [
                    [name, list(tr.perm), tr.input_negations,
                     bool(tr.output_negate)]
                    for name, tr in entries
                ],
            ]
            for (n, bits), entries in sorted(table.cell_classes.items())
        ],
    }


def _shape_to_json(shape: Shape) -> object:
    return [
        part if isinstance(part, str) else _shape_to_json(part)  # type: ignore[arg-type]
        for part in shape
    ]


def _shape_from_json(data: object) -> Shape:
    if not isinstance(data, list) or not data:
        raise ValueError(f"malformed shape entry: {data!r}")
    return tuple(
        part if isinstance(part, str) else _shape_from_json(part)
        for part in data
    )


def _deserialize(data: Dict[str, object], key: str) -> Optional[NPNTable]:
    """The cached table, or ``None`` when stale/corrupt (-> rebuild)."""
    try:
        if data["schema"] != SCHEMA or data["key"] != key:
            return None
        chains = tuple(
            tuple((int(t), int(n), int(bits)) for t, n, bits in chain)
            for chain in data["chains"]  # type: ignore[union-attr]
        )
        shapes = tuple(
            _shape_from_json(shape)
            for shape in data["shapes"]  # type: ignore[union-attr]
        )
        if len(shapes) != len(chains):
            return None
        classes: Dict[Tuple[int, int], Tuple[CellEntry, ...]] = {}
        for n, bits, entries in data["cell_classes"]:  # type: ignore[union-attr]
            classes[(int(n), int(bits))] = tuple(
                (
                    str(name),
                    NPNTransform(tuple(int(x) for x in perm), int(neg),
                                 bool(out)),
                )
                for name, perm, neg, out in entries
            )
        return NPNTable(
            k=int(data["k"]),  # type: ignore[call-overload]
            depth_cap=int(data["depth_cap"]),  # type: ignore[call-overload]
            cell_limit=int(data["cell_limit"]),  # type: ignore[call-overload]
            key=key,
            chains=chains,
            shapes=shapes,
            cell_classes=classes,
            from_cache=True,
        )
    except (KeyError, TypeError, ValueError):
        return None


def _load(path: Path, key: str) -> Optional[NPNTable]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None
    if not isinstance(data, dict):
        return None
    return _deserialize(data, key)


def _store(path: Path, table: NPNTable) -> None:
    """Atomic best-effort write (a failed cache write never fails a build)."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + f".tmp{os.getpid()}")
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(_serialize(table), handle, separators=(",", ":"))
        os.replace(tmp, path)
    except OSError:
        pass


def _chain_setup(k: int, depth_cap: int) -> Callable[[PatternGraph], Chain]:
    """Worker-side setup for the parallel chain build (picklable)."""

    def run(pattern: PatternGraph) -> Chain:
        return pattern_chain(pattern, k=k, depth_cap=depth_cap)

    return run


def _build_chains(
    patterns: PatternSet, k: int, depth_cap: int, jobs: int
) -> Tuple[Chain, ...]:
    if jobs <= 1 or len(patterns.patterns) < 2:
        return tuple(
            pattern_chain(p, k=k, depth_cap=depth_cap)
            for p in patterns.patterns
        )
    from repro.perf.parallel import RunPolicy, _task_bundle_factory
    from repro.perf.stream import StreamJob, collect_rows, stream_jobs

    labels = [
        f"chain:{p.gate.name}:{i}" for i, p in enumerate(patterns.patterns)
    ]
    rows = collect_rows(
        stream_jobs(
            (
                StreamJob(label=label, payload=pattern)
                for label, pattern in zip(labels, patterns.patterns)
            ),
            _task_bundle_factory,
            (_chain_setup, (k, depth_cap)),
            policy=RunPolicy.resolve(workers=min(jobs, len(labels))),
            eager_bundles=(("task",),),
        ),
        labels,
    )
    chains: List[Chain] = []
    for row in rows:  # in pattern order: one row per pattern
        if not isinstance(row, tuple):
            raise LibraryError(f"parallel NPN-table build failed: {row!r}")
        chains.append(row)
    return tuple(chains)


def _build_cell_classes(
    patterns: PatternSet, cell_limit: int
) -> Dict[Tuple[int, int], Tuple[CellEntry, ...]]:
    classes: Dict[Tuple[int, int], List[CellEntry]] = {}
    for gate in patterns.library:
        if gate.n_inputs < 1 or gate.n_inputs > cell_limit:
            continue
        canonical, transform = npn_canonical(gate.tt)
        classes.setdefault((gate.n_inputs, canonical.bits), []).append(
            (gate.name, transform)
        )
    return {key: tuple(entries) for key, entries in classes.items()}


def build_npn_table(
    patterns: PatternSet,
    k: int = DEFAULT_K,
    depth_cap: int = DEFAULT_DEPTH_CAP,
    cell_limit: Optional[int] = None,
    jobs: int = 0,
    cache_dir: Optional[Path] = None,
    use_cache: bool = True,
) -> NPNTable:
    """Build (or load) the NPN table of one pattern set.

    Args:
        patterns: the pattern set (the table aligns with its order).
        k: frontier/cut-size bound for chains (<= 6; the subject-side
            cut enumeration must use the same k).
        depth_cap: truncation-height bound for chains.
        cell_limit: admit cells with at most this many inputs into the
            class table (default ``k``; n = 5/6 canonicalisation costs
            tens of ms to half a second per *new* class, so widening
            beyond 4 is an explicit, persistently-cached choice).
        jobs: > 1 fans the per-pattern chain build over the
            fault-tolerant worker pool.
        cache_dir: side-cache directory (default ``$REPRO_NPN_CACHE_DIR``
            or ``~/.cache/repro/npn``).
        use_cache: consult/refresh the persistent side-cache.

    Raises:
        LibraryError: ``k`` out of range, or a parallel build failure.
    """
    if not 1 <= k <= 6:
        raise LibraryError(f"NPN table k must be in 1..6, got {k}")
    if depth_cap < 1:
        raise LibraryError(f"NPN table depth_cap must be >= 1, got {depth_cap}")
    limit = k if cell_limit is None else cell_limit
    key = _cache_key(patterns, k, depth_cap, limit)
    path = _cache_path(_cache_dir(cache_dir), key)
    if use_cache:
        cached = _load(path, key)
        if cached is not None:
            return cached
    table = NPNTable(
        k=k,
        depth_cap=depth_cap,
        cell_limit=limit,
        key=key,
        chains=_build_chains(patterns, k, depth_cap, jobs),
        shapes=tuple(
            pattern_shape(p, depth_cap) for p in patterns.patterns
        ),
        cell_classes=_build_cell_classes(patterns, limit),
    )
    if use_cache:
        _store(path, table)
    return table


def table_for(
    patterns: PatternSet,
    k: int = DEFAULT_K,
    depth_cap: int = DEFAULT_DEPTH_CAP,
    cell_limit: Optional[int] = None,
    cache_dir: Optional[Path] = None,
    use_cache: bool = True,
) -> NPNTable:
    """The NPN table of ``patterns``, memoized on the pattern set.

    Repeated mapping runs over one in-process :class:`PatternSet` (the
    suite harness, the benchmarks) share one table build; distinct
    parameter combinations get distinct entries.
    """
    memo: Dict[Tuple[int, int, Optional[int]], NPNTable]
    memo = getattr(patterns, "_npn_tables", None)  # type: ignore[assignment]
    if memo is None:
        memo = {}
        setattr(patterns, "_npn_tables", memo)
    memo_key = (k, depth_cap, cell_limit)
    table = memo.get(memo_key)
    if table is None:
        table = build_npn_table(
            patterns, k=k, depth_cap=depth_cap, cell_limit=cell_limit,
            cache_dir=cache_dir, use_cache=use_cache,
        )
        memo[memo_key] = table
    return table
