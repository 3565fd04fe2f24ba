"""The perf layer is invisible to results: cached == uncached == parallel.

The :mod:`repro.perf` caches (cone signatures, pattern-trie grouping,
shape-feasibility bitsets) and the multiprocessing suite runner must
change *nothing* observable: per-node arrival times, the identity of the
selected best match (pattern and exact binding), delay and area all have
to be byte-identical to the seed's direct matching path, because the
best-match tie-breaking in labeling is order-sensitive.
"""

import pytest

from repro.bench.suite import TABLE1_NAMES, TABLE23_NAMES, build_subject
from repro.core.dag_mapper import map_dag
from repro.core.labeling import compute_labels
from repro.core.match import Matcher, MatchKind
from repro.core.tree_mapper import map_tree
from repro.fuzz.generator import FuzzConfig, random_dag
from repro.harness.experiment import run_tree_vs_dag
from repro.library.builtin import lib2_like, lib44_1, lib44_3
from repro.library.patterns import PatternSet
from repro.network.decompose import decompose_network
from repro.network.subject import SubjectGraph


@pytest.fixture(scope="module")
def patterns():
    return PatternSet(lib44_1(), max_variants=8)


def _best_identity(labels):
    """(pattern identity, exact binding) of every best match."""
    out = []
    for match in labels.best:
        if match is None:
            out.append(None)
        else:
            out.append(
                (
                    id(match.pattern),
                    tuple(sorted(
                        (uid, node.uid) for uid, node in match.binding.items()
                    )),
                )
            )
    return out


@pytest.mark.parametrize("name", TABLE1_NAMES)
def test_cached_labeling_identical_to_seed(name, patterns):
    _, subject = build_subject(name)
    for kind in (MatchKind.STANDARD, MatchKind.EXACT):
        seed = compute_labels(subject, patterns, kind=kind, cache=False)
        fast = compute_labels(subject, patterns, kind=kind, cache=True)
        # Byte-identical arrivals: same matches in the same order feed
        # the same float arithmetic, so == (not approx) is the contract.
        assert fast.arrival == seed.arrival
        assert fast.po_arrival == seed.po_arrival
        assert fast.n_matches == seed.n_matches
        assert _best_identity(fast) == _best_identity(seed)
        assert fast.match_stats["signature_hits"] > 0


@pytest.mark.parametrize("name", ["C432s", "C6288s"])
def test_cached_mapping_identical_results(name, patterns):
    _, subject = build_subject(name)
    dag_seed = map_dag(subject, patterns, cache=False)
    dag_fast = map_dag(subject, patterns, cache=True)
    assert dag_fast.delay == dag_seed.delay
    assert dag_fast.area == dag_seed.area
    tree_seed = map_tree(subject, patterns, cache=False)
    tree_fast = map_tree(subject, patterns, cache=True)
    assert tree_fast.delay == tree_seed.delay
    assert tree_fast.area == tree_seed.area


def test_shared_matcher_across_circuits(patterns):
    """One matcher reused over the suite replays, never diverges."""
    shared = Matcher(patterns, MatchKind.STANDARD, cache=True)
    for name in ("C432s", "C880s"):
        _, subject = build_subject(name)
        seed = compute_labels(subject, patterns, cache=False)
        fast = compute_labels(subject, patterns, matcher=shared)
        assert fast.arrival == seed.arrival
        assert _best_identity(fast) == _best_identity(seed)
    # The cache is subject-independent, so the second circuit must have
    # reused signatures learned on the first.
    assert shared.stats.signature_hits > 0


def test_parallel_rows_equal_serial(patterns):
    names = TABLE23_NAMES[:3]
    serial = run_tree_vs_dag(patterns, names=names)
    parallel = run_tree_vs_dag(
        patterns, names=names, jobs=len(names), library_spec="44-1"
    )
    assert len(parallel) == len(serial)
    for a, b in zip(serial, parallel):
        assert b.circuit == a.circuit
        assert b.tree_delay == a.tree_delay
        assert b.dag_delay == a.dag_delay
        assert b.tree_area == a.tree_area
        assert b.dag_area == a.dag_area
        assert b.verified
        assert b.dag_counters["signature_misses"] > 0


def test_uncached_path_reports_no_cache_traffic(patterns):
    _, subject = build_subject("C432s")
    result = map_dag(subject, patterns, cache=False)
    assert result.counters["signature_hits"] == 0
    assert result.counters["signature_misses"] == 0


# ---------------------------------------------------------------------
# Shape-feasibility bitsets (the cached path) against the recursive
# feasibility memo of the reference path.

_LIBRARIES = {"lib2": (lib2_like, 8), "44-1": (lib44_1, 8), "44-3": (lib44_3, 4)}


@pytest.fixture(scope="module")
def pattern_sets():
    return {
        name: PatternSet(factory(), max_variants=variants)
        for name, (factory, variants) in _LIBRARIES.items()
    }


def _fuzz_subject(seed, n_nodes=60):
    config = FuzzConfig(n_inputs=12, n_nodes=n_nodes, seed=seed)
    return decompose_network(random_dag(config))


def _match_list(matches):
    """Pattern identity, root and exact binding of every match, in order."""
    return [
        (
            id(m.pattern),
            m.root.uid,
            tuple(sorted((uid, node.uid) for uid, node in m.binding.items())),
        )
        for m in matches
    ]


def _assert_bits_equal_reference(patterns, subject):
    cached = Matcher(patterns, MatchKind.STANDARD)
    reference = Matcher(patterns, MatchKind.STANDARD, cache=False)
    cached.attach(subject)
    reference.attach(subject)
    shape_of = cached._trie.shape_of
    # One pattern node per interned shape stands for the shape.
    representative = {}
    for pattern in patterns.patterns:
        for pnode in pattern.nodes:
            representative.setdefault(shape_of[id(pnode)], pnode)
    assert len(representative) == cached._trie.n_shapes
    for snode in subject.topological():
        bits = cached._shape_bits_at(snode)
        for sid, pnode in representative.items():
            expected = reference._feasible(pnode, snode)
            assert bool(bits >> sid & 1) == expected, (sid, pnode, snode)


_BIT_CASES = (
    [("lib2", name) for name in TABLE1_NAMES]
    + [("44-1", name) for name in TABLE23_NAMES]
    + [("44-3", "C2670s")]
)


@pytest.mark.parametrize("library,name", _BIT_CASES)
def test_shape_bits_equal_recursive_feasibility(pattern_sets, library, name):
    _, subject = build_subject(name)
    _assert_bits_equal_reference(pattern_sets[library], subject)


@pytest.mark.parametrize("library", sorted(_LIBRARIES))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_shape_bits_equal_recursive_feasibility_fuzz(pattern_sets, library, seed):
    _assert_bits_equal_reference(pattern_sets[library], _fuzz_subject(seed))


@pytest.mark.parametrize("kind", list(MatchKind))
@pytest.mark.parametrize("seed", [3, 4])
def test_cached_match_lists_equal_reference_on_random_dags(pattern_sets, kind, seed):
    """Full ``matches_at`` lists, not just best matches, on non-repetitive
    input where most nodes miss the signature cache."""
    patterns = pattern_sets["44-3"]
    subject = _fuzz_subject(seed, n_nodes=40)
    cached = Matcher(patterns, kind)
    reference = Matcher(patterns, kind, cache=False)
    cached.attach(subject)
    reference.attach(subject)
    total = 0
    for snode in subject.topological():
        fast = _match_list(cached.matches_at(snode))
        assert fast == _match_list(reference.matches_at(snode)), snode
        total += len(fast)
    assert total > 0
    assert cached.stats.signature_misses > 0
    assert cached.stats.feasibility_hits > 0


def test_deep_chain_labels_without_recursion_error(pattern_sets):
    """Bitsets are computed by an iterative post-order: subject depth is
    not bounded by Python's recursion limit."""
    g = SubjectGraph("chain")
    a, b = g.add_pi("a"), g.add_pi("b")
    node = a
    for level in range(5000):
        if level % 3 == 2:
            node = g.add_inv(node, share=False)
        else:
            node = g.add_nand2(node, b, share=False)
    g.set_po("o", node)
    patterns = pattern_sets["lib2"]
    matcher = Matcher(patterns, MatchKind.STANDARD)
    matcher.attach(g)
    # Demand the deepest node first: its bitset pulls in the whole chain.
    assert matcher.matches_at(node)
    assert matcher.stats.feasibility_misses == len(g.nodes)
    labels = compute_labels(g, patterns, matcher=matcher)
    assert labels.max_arrival > 0


def test_per_call_counters_with_shared_matcher(pattern_sets):
    """Each call reports its own counters, not the matcher's lifetime totals."""
    patterns = pattern_sets["44-1"]
    shared = Matcher(patterns, MatchKind.STANDARD)
    _, subject = build_subject("C880s")
    for _ in range(2):
        result = map_dag(subject, patterns, matcher=shared)
        counters = result.counters
        assert (
            counters["signature_hits"] + counters["signature_misses"]
            == subject.n_gates
        )
    assert shared.stats.signature_hits + shared.stats.signature_misses == (
        2 * subject.n_gates
    )


def test_warm_remap_computes_no_bitsets(pattern_sets):
    patterns = pattern_sets["44-3"]
    shared = Matcher(patterns, MatchKind.STANDARD)
    subject = _fuzz_subject(5)
    cold = compute_labels(subject, patterns, matcher=shared)
    assert cold.match_stats["feasibility_misses"] > 0
    warm = compute_labels(subject, patterns, matcher=shared)
    assert warm.match_stats["signature_misses"] == 0
    assert warm.match_stats["feasibility_misses"] == 0
    assert warm.match_stats["groups_enumerated"] == 0
    assert warm.arrival == cold.arrival


def test_matcher_sweep_leaves_no_cyclic_garbage(pattern_sets):
    """A Matcher build and a full match sweep are freed by reference
    counting alone: no helper leaves a reference cycle behind."""
    import gc

    patterns = pattern_sets["44-3"]
    _, subject = build_subject("C432s")
    gc.collect()
    gc.disable()
    try:
        matcher = Matcher(patterns, MatchKind.STANDARD)
        matcher.attach(subject)
        for node in subject.topological():
            if not node.is_pi:
                matcher.matches_at(node)
        del matcher
        assert gc.collect() == 0
    finally:
        gc.enable()
