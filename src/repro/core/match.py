"""Graph matching between pattern graphs and subject graphs.

Implements Rudell's *graph match* algorithm with the three match classes
of the paper's Section 3.2:

* **standard match** (Definition 1): a one-to-one mapping of pattern nodes
  into subject nodes preserving edges and the in-degree of internal nodes.
  Interior subject nodes *may* have fanout escaping the match.
* **exact match** (Definition 2): a standard match whose interior nodes
  additionally have their full fanout inside the match (out-degree
  equality).  This is the class conventional tree covering is restricted
  to.
* **extended match** (Definition 3): a standard match without the
  one-to-one requirement, which lets the matcher *unfold* the subject DAG
  by duplicating subject nodes (paper Figure 1).  Unfolding implies one
  condition Definition 3's text leaves implicit: at every pattern node
  the children map bijectively onto the subject node's fanins (two
  pattern children may share a subject node only when the subject node
  itself appears twice in the fanin list) — otherwise a "match" could
  implement the wrong function.

Input permutations of a pattern are explored here (both orders of every
NAND2 node), which is what expands the pattern set in the sense of the
paper's footnote 2.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.errors import MappingError
from repro.library.gate import Gate
from repro.library.patterns import PatternGraph, PatternNode, PatternSet
from repro.network.bitsim import cone_words
from repro.network.functions import variable_bits
from repro.network.subject import NodeType, SubjectGraph, SubjectNode
from repro.perf.counters import MatchStats
from repro.perf.signature import cone_signature
from repro.perf.trie import PatternTrie

__all__ = [
    "MatchKind",
    "Match",
    "Matcher",
    "MatchViolation",
    "MatchVerification",
    "verify_match",
]


class MatchKind(enum.Enum):
    """The three match classes of Definitions 1-3."""

    STANDARD = "standard"
    EXACT = "exact"
    EXTENDED = "extended"


#: One replayable match template: (pattern, ((pattern uid, cone position), ...)).
_SigTemplate = Tuple["PatternGraph", Tuple[Tuple[int, int], ...]]


class Match:
    """A successful match of a pattern graph rooted at a subject node.

    Attributes:
        pattern: the matched :class:`PatternGraph`.
        root: the subject node implementing the gate output.
        binding: pattern node uid -> subject node, for every pattern node.
    """

    __slots__ = ("pattern", "root", "binding")

    def __init__(
        self,
        pattern: PatternGraph,
        root: SubjectNode,
        binding: Dict[int, SubjectNode],
    ):
        self.pattern = pattern
        self.root = root
        self.binding = binding

    @property
    def gate(self) -> Gate:
        return self.pattern.gate

    def leaves(self) -> List[Tuple[str, SubjectNode]]:
        """(pin name, subject node) for every pattern leaf."""
        return [
            (leaf.pin, self.binding[leaf.uid]) for leaf in self.pattern.leaves
        ]

    def leaf_nodes(self) -> List[SubjectNode]:
        return [self.binding[leaf.uid] for leaf in self.pattern.leaves]

    def internal_nodes(self) -> List[SubjectNode]:
        """Subject nodes covered by internal pattern nodes (root included)."""
        out = []
        seen = set()
        for pnode in self.pattern.nodes:
            if pnode.is_leaf:
                continue
            snode = self.binding[pnode.uid]
            if snode.uid not in seen:
                seen.add(snode.uid)
                out.append(snode)
        return out

    def identity(self) -> Tuple[object, ...]:
        """Key identifying functionally identical matches for dedup.

        Pins are reduced to their interchangeability classes: two matches
        that differ only by swapping symmetric, timing-identical pins
        implement the same gate instance with the same cost.
        """
        classes = self.pattern.pin_classes
        return (
            self.pattern.gate.name,
            self.root.uid,
            frozenset(
                (classes.get(pin, pin), node.uid) for pin, node in self.leaves()
            ),
        )

    def __repr__(self) -> str:
        pins = ", ".join(f"{pin}->{node.uid}" for pin, node in self.leaves())
        return f"Match({self.gate.name} @ {self.root.uid}; {pins})"


class Matcher:
    """Enumerates matches of a pattern set on a subject graph.

    With ``cache=True`` (the default) the matcher runs the performance
    layer of :mod:`repro.perf`: structural cone signatures memoize whole
    ``matches_at`` results across structurally identical subject nodes,
    the pattern trie shares binding enumeration across patterns, and
    per-subject-node shape bitsets answer structural feasibility with a
    bit test, so a pattern whose root shape does not embed is never
    enumerated.  All are exact — the produced match lists are
    byte-identical, in content and order, to the uncached path
    (``cache=False``), which is preserved as the reference implementation
    and tries every pattern with the subject node's root kind, exactly
    as the paper describes.
    """

    def __init__(
        self,
        patterns: PatternSet,
        kind: MatchKind = MatchKind.STANDARD,
        cache: bool = True,
        stats: Optional[MatchStats] = None,
        crosscheck: bool = False,
    ):
        self.patterns = patterns
        self.kind = kind
        self.cache = cache
        self.crosscheck = crosscheck
        self.stats = stats if stats is not None else MatchStats()
        # Pattern-side fanout counts, needed for the exact-match condition.
        self._pattern_fanout: Dict[int, Dict[int, int]] = {}
        for pattern in patterns.patterns:
            counts: Dict[int, int] = {}
            for node in pattern.nodes:
                for fanin in node.fanins:
                    counts[fanin.uid] = counts.get(fanin.uid, 0) + 1
            self._pattern_fanout[id(pattern)] = counts
        if cache:
            trie = PatternTrie(patterns)
            self._trie: Optional[PatternTrie] = trie
            self._shape_of: Optional[Dict[int, int]] = trie.shape_of
            # Root-shape index: shape id -> positions (in for_root order)
            # of the patterns rooted at that shape, plus the number of
            # binding groups per root shape and per root kind, so a
            # signature miss visits only the patterns whose root shape
            # fits and counts the groups it skipped.
            self._root_positions: Dict[int, List[int]] = {}
            self._root_groups: Dict[int, int] = {}
            self._kind_groups: Dict[NodeType, int] = {}
            for root_kind in (NodeType.INV, NodeType.NAND2):
                groups: Dict[int, Set[int]] = {}
                for pos, pattern in enumerate(patterns.for_root(root_kind)):
                    sid = trie.shape_of[id(pattern.root)]
                    self._root_positions.setdefault(sid, []).append(pos)
                    groups.setdefault(sid, set()).add(id(trie.group_of[id(pattern)]))
                self._root_groups.update((sid, len(g)) for sid, g in groups.items())
                self._kind_groups[root_kind] = sum(len(g) for g in groups.values())
            self._root_mask = sum(1 << sid for sid in self._root_positions)
            # Exact-kind signatures record min(uses, cap): any use count
            # above every pattern-side fanout fails out-degree equality
            # the same way, so larger counts need not be distinguished.
            self._use_cap = 1 + max(
                (
                    max(counts.values(), default=0)
                    for counts in self._pattern_fanout.values()
                ),
                default=0,
            )
            # signature key -> list of (pattern, ((pattern uid, cone index), ...))
            # templates; subject-independent, so it survives attach().
            self._sig_cache: Optional[Dict[Tuple[int, ...], List[_SigTemplate]]] = {}
        else:
            self._trie = None
            self._shape_of = None
            self._use_cap = 0
            self._sig_cache = None

    @property
    def engine(self) -> str:
        """Always ``"structural"``: the one matching engine, kept for
        callers that record it in a :class:`MappingResult`."""
        return "structural"

    # ------------------------------------------------------------------
    def attach(self, subject: SubjectGraph) -> None:
        """Precompute subject-side data (fanout-use counts) and reset the
        per-subject feasibility state."""
        self._uses: List[int] = [0] * len(subject.nodes)
        for node in subject.nodes:
            for fanin in node.fanins:
                self._uses[fanin.uid] += 1
        for _, driver in subject.pos:
            self._uses[driver.uid] += 1
        # Clamped-to-1 view for area-flow denominators: hoisted here so
        # the labeling pass reads one list instead of calling
        # subject_uses() per node (PIs included).
        self._uses_floor: List[int] = [u if u > 1 else 1 for u in self._uses]
        if self.cache:
            # Shape bitsets by subject uid, filled on first demand by
            # _shape_bits_at (0 = not computed yet: a computed bitset
            # always holds the leaf bit).  A warm pass that replays every
            # node from the signature cache computes none.
            self._bits: List[int] = [0] * len(subject.nodes)
        else:
            # Reference path: pattern depths prune by subject depth, and
            # feasibility is a recursive memo keyed by (pattern node,
            # subject uid).
            self._depth: List[int] = [0] * len(subject.nodes)
            for node in subject.nodes:
                if node.fanins:
                    self._depth[node.uid] = 1 + max(
                        self._depth[f.uid] for f in node.fanins
                    )
            self._feasible_cache: Dict[Tuple[int, int], bool] = {}

    def _shape_bits_at(self, snode: SubjectNode) -> int:
        """Feasibility bitset of ``snode``: bit *k* is set iff interned
        pattern shape *k* embeds at ``snode`` (cached path).

        Computed bottom-up from the fanins' bitsets with an iterative
        post-order over the not-yet-computed transitive fanin, so every
        node below ``snode`` has its bitset afterwards and subject depth
        is not limited by Python recursion.
        """
        bits = self._bits
        done = bits[snode.uid]
        if done:
            return done
        assert self._trie is not None  # cache=True invariant
        compose = self._trie.compose
        stack = [snode]
        while stack:
            node = stack[-1]
            if bits[node.uid]:
                stack.pop()
                continue
            pending = [f for f in node.fanins if not bits[f.uid]]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            bits[node.uid] = compose(node.kind, *[bits[f.uid] for f in node.fanins])
            self.stats.feasibility_misses += 1
        return bits[snode.uid]

    def _feasible(self, pnode: PatternNode, snode: SubjectNode) -> bool:
        """Binding-independent embeddability of a pattern subtree
        (reference path; the cached path tests shape bitsets instead)."""
        if pnode.kind is NodeType.PI:
            return True
        key = (id(pnode), snode.uid)
        cached = self._feasible_cache.get(key)
        if cached is not None:
            self.stats.feasibility_hits += 1
            return cached
        self.stats.feasibility_misses += 1
        if pnode.kind is not snode.kind:
            result = False
        elif pnode.kind is NodeType.INV:
            result = self._feasible(pnode.fanins[0], snode.fanins[0])
        else:
            p0, p1 = pnode.fanins
            s0, s1 = snode.fanins
            result = (
                self._feasible(p0, s0) and self._feasible(p1, s1)
            ) or (
                s0 is not s1
                and self._feasible(p0, s1)
                and self._feasible(p1, s0)
            )
        self._feasible_cache[key] = result
        return result

    def matches_at(self, snode: SubjectNode) -> List[Match]:
        """All (deduplicated) matches of the pattern set rooted at ``snode``.

        :meth:`attach` must have been called with the subject graph first.
        """
        if snode.is_pi:
            return []
        if not self.cache:
            return self._crosschecked(self._matches_at_direct(snode))
        assert self._sig_cache is not None  # cache=True invariant
        stats = self.stats
        sig, cone = cone_signature(
            snode,
            self.patterns.max_depth,
            uses=self._uses if self.kind is MatchKind.EXACT else None,
            use_cap=self._use_cap,
        )
        templates = self._sig_cache.get(sig)
        if templates is not None:
            # Replay: rebind every cached match onto this root through the
            # canonical cone ordering.  Never recomputed.
            stats.signature_hits += 1
            stats.matches_replayed += len(templates)
            return self._crosschecked(
                [
                    Match(
                        pattern, snode, {puid: cone[pos] for puid, pos in items}
                    )
                    for pattern, items in templates
                ]
            )
        stats.signature_misses += 1
        results = self._matches_at_grouped(snode)
        index = {id(node): pos for pos, node in enumerate(cone)}
        templates = []  # type: List[_SigTemplate]
        for match in results:
            try:
                items = tuple(
                    (puid, index[id(node)])
                    for puid, node in match.binding.items()
                )
            except KeyError:
                # A bound node escaped the signature cone — impossible by
                # the depth argument in repro.perf.signature; refuse to
                # cache rather than risk an unsound replay.
                return self._crosschecked(results)
            templates.append((match.pattern, items))
        self._sig_cache[sig] = templates
        return self._crosschecked(results)

    def _matches_at_direct(self, snode: SubjectNode) -> List[Match]:
        """The seed path: every pattern enumerated independently."""
        results: List[Match] = []
        seen: Set[Tuple[object, ...]] = set()
        depth = self._depth[snode.uid]
        for pattern in self.patterns.for_root(snode.kind):
            if pattern.depth > depth:
                continue  # the pattern cannot fit above the PIs
            for binding in self._enumerate(pattern, snode):
                match = Match(pattern, snode, binding)
                key = match.identity()
                if key not in seen:
                    seen.add(key)
                    results.append(match)
        return results

    def _matches_at_grouped(self, snode: SubjectNode) -> List[Match]:
        """Trie path: one enumeration per pattern group, bindings translated.

        Only patterns whose root shape bit is set in ``snode``'s bitset
        are visited; a clear bit means no binding exists, so skipping the
        pattern drops nothing.  The survivors are visited in pattern-set
        order and each group's binding list is in enumeration order, so
        the match stream — and therefore the identity dedup — is exactly
        the direct path's.
        """
        results: List[Match] = []
        seen: Set[Tuple[object, ...]] = set()
        stats = self.stats
        assert self._trie is not None  # cache=True invariant
        group_of = self._trie.group_of
        fit = self._shape_bits_at(snode) & self._root_mask
        positions: List[int] = []
        groups_fit = 0
        while fit:
            low = fit & -fit
            fit ^= low
            sid = low.bit_length() - 1
            positions += self._root_positions[sid]
            groups_fit += self._root_groups[sid]
        stats.feasibility_hits += self._kind_groups[snode.kind] - groups_fit
        positions.sort()
        candidates = self.patterns.for_root(snode.kind)
        group_bindings: Dict[int, List[Dict[int, SubjectNode]]] = {}
        for pos in positions:
            pattern = candidates[pos]
            group = group_of[id(pattern)]
            bindings = group_bindings.get(id(group))
            if bindings is None:
                bindings = list(self._enumerate(group.rep, snode))
                group_bindings[id(group)] = bindings
                stats.groups_enumerated += 1
                stats.bindings_enumerated += len(bindings)
            translation = group.translations[id(pattern)]
            for b in bindings:
                if translation is None:
                    binding = b
                else:
                    binding = {
                        translation[puid]: node for puid, node in b.items()
                    }
                match = Match(pattern, snode, binding)
                key = match.identity()
                if key not in seen:
                    seen.add(key)
                    results.append(match)
        return results

    # ------------------------------------------------------------------
    def _enumerate(
        self, pattern: PatternGraph, root: SubjectNode
    ) -> Iterator[Dict[int, SubjectNode]]:
        """Yield complete bindings of ``pattern`` rooted at ``root``.

        Obligations live on one shared stack (top = end of list): each
        frame pops its obligation, pushes child obligations before
        recursing and restores the stack on the way out, so a step costs
        O(1) instead of the former O(n) list slice per recursion level.
        """
        injective = self.kind is not MatchKind.EXTENDED
        exact = self.kind is MatchKind.EXACT
        pattern_fanout = self._pattern_fanout[id(pattern)]
        swap_safe = pattern.swap_safe
        # Cached path: feasibility is a bit test on the shape bitsets,
        # all computed below the root by _matches_at_grouped.
        shape_bits: Optional[List[int]] = None
        shape_of: Dict[int, int] = {}
        if self._shape_of is not None:
            shape_bits, shape_of = self._bits, self._shape_of
        binding: Dict[int, SubjectNode] = {}
        images: Dict[int, int] = {}  # subject uid -> pattern uid
        stack: List[Tuple[PatternNode, SubjectNode]] = [(pattern.root, root)]

        def assign() -> Iterator[None]:
            if not stack:
                yield None
                return
            pnode, snode = stack.pop()
            try:
                prior = binding.get(pnode.uid)
                if prior is not None:
                    if prior is snode:
                        yield from assign()
                    return
                if injective and snode.uid in images:
                    return
                if pnode.kind is NodeType.PI:
                    binding[pnode.uid] = snode
                    images[snode.uid] = pnode.uid
                    try:
                        yield from assign()
                    finally:
                        del binding[pnode.uid]
                        if images.get(snode.uid) == pnode.uid:
                            del images[snode.uid]
                    return
                if shape_bits is not None:
                    if not shape_bits[snode.uid] >> shape_of[id(pnode)] & 1:
                        return
                elif not self._feasible(pnode, snode):
                    return
                if exact and pattern_fanout.get(pnode.uid, 0) > 0:
                    # Interior node: all subject fanout must stay inside the
                    # match, i.e. out-degree equality (Definition 2, cond. 3).
                    if self._uses[snode.uid] != pattern_fanout[pnode.uid]:
                        return
                binding[pnode.uid] = snode
                images[snode.uid] = pnode.uid
                try:
                    if pnode.kind is NodeType.INV:
                        stack.append((pnode.fanins[0], snode.fanins[0]))
                        yield from assign()
                        stack.pop()
                    else:
                        p0, p1 = pnode.fanins
                        s0, s1 = snode.fanins
                        stack.append((p1, s1))
                        stack.append((p0, s0))
                        yield from assign()
                        stack.pop()
                        stack.pop()
                        if s0 is not s1 and pnode.uid not in swap_safe:
                            # swap_safe: disjoint isomorphic tree children
                            # make the swapped order redundant (it can only
                            # reproduce cost-identical matches).
                            stack.append((p1, s0))
                            stack.append((p0, s1))
                            yield from assign()
                            stack.pop()
                            stack.pop()
                finally:
                    del binding[pnode.uid]
                    if images.get(snode.uid) == pnode.uid:
                        del images[snode.uid]
            finally:
                stack.append((pnode, snode))

        try:
            for _ in assign():
                yield dict(binding)
        finally:
            # assign() refers to itself through its closure; dropping the
            # name breaks that cycle, so the closure (which holds self and
            # the bindings) is freed by reference counting instead of
            # waiting for the cyclic garbage collector.
            del assign

    def subject_uses(self, snode: SubjectNode) -> int:
        """Fanout-use count of a subject node (edges plus PO references)."""
        return self._uses[snode.uid]

    @property
    def uses_floor(self) -> List[int]:
        """Per-uid use counts clamped to at least 1 (area-flow denominators).

        Computed once in :meth:`attach`; treat as read-only.
        """
        return self._uses_floor

    # ------------------------------------------------------------------
    # Packed-cone functional cross-check (EXTENDED matches)
    # ------------------------------------------------------------------
    def _crosschecked(self, matches: List[Match]) -> List[Match]:
        """Optionally cross-check EXTENDED matches before returning them."""
        if self.crosscheck and self.kind is MatchKind.EXTENDED:
            for match in matches:
                self._crosscheck_cone(match)
        return matches

    def _crosscheck_cone(self, match: Match) -> None:
        """Verify the matched subject cone computes the gate's function.

        EXTENDED matches drop injectivity, so structural replay is the
        one match class where an unsound binding could silently change
        functionality.  The check evaluates the subject cone between the
        match root and its leaf nodes over packed truth-table words and
        compares against the gate's truth table with its pins bound to
        the same words.  Free variables are assigned only to *pure*
        leaves: a subject node bound both as a leaf and as an interior
        node (an unfolding artefact) is constrained — its value always
        equals its own cone function of the deeper leaves — so both
        sides evaluate it that way, making the comparison exact under
        exactly the correlations the subject graph enforces.  Shared
        leaves likewise tie the corresponding gate inputs together on
        both sides.
        """
        leaves = match.leaves()
        interior = {snode.uid for snode in match.internal_nodes()}
        order: List[SubjectNode] = []
        seen: Set[int] = set()
        for _, node in leaves:
            if node.uid not in seen and node.uid not in interior:
                seen.add(node.uid)
                order.append(node)
        n_leaves = len(order)
        mask = (1 << (1 << n_leaves)) - 1
        leaf_words = {
            node.uid: variable_bits(k, n_leaves) for k, node in enumerate(order)
        }
        cone = cone_words(match.root, leaf_words, mask)
        gate = match.gate
        # Dual-role leaves get their computed cone word, not a variable.
        pin_word = {
            pin: cone_words(node, leaf_words, mask) for pin, node in leaves
        }
        expected = gate.tt.eval_words(
            [pin_word.get(pin, 0) for pin in gate.inputs], mask
        )
        self.stats.cone_crosschecks += 1
        if cone != expected:
            raise MappingError(
                f"extended match of {gate.name!r} at subject node "
                f"{match.root.uid} fails the packed-cone functional "
                f"cross-check: the covered cone does not compute the "
                f"gate's function"
            )


class MatchViolation:
    """One violation of a match-class definition, with a stable code.

    The codes are the ``C1##`` series of the :mod:`repro.check` catalog:

    ========  =====================================================
    ``C101``  pattern node unbound
    ``C102``  pattern edge not preserved in the subject
    ``C103``  fanin multiset / in-degree mismatch at a pattern node
    ``C104``  mapping not one-to-one (standard/exact matches)
    ``C105``  out-degree mismatch at an interior node (exact matches)
    ``C106``  root binding mismatch
    ========  =====================================================
    """

    __slots__ = ("code", "message")

    def __init__(self, code: str, message: str):
        self.code = code
        self.message = message

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MatchViolation):
            return NotImplemented
        return self.code == other.code and self.message == other.message

    def __hash__(self) -> int:
        return hash((self.code, self.message))

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"

    def __repr__(self) -> str:
        return f"MatchViolation({self.code!r}, {self.message!r})"


class MatchVerification:
    """Structured result of :func:`verify_match`.

    Behaves like the violation collection it wraps: it is *falsy when the
    match is valid*, iterable, and sized — so ``assert not
    verify_match(...)`` still reads "the match is valid".  ``ok`` is the
    explicit spelling, ``codes()``/``messages()`` project the violation
    fields, and the :mod:`repro.check` certificate checker consumes the
    records directly as C-series diagnostics.
    """

    __slots__ = ("violations",)

    def __init__(self, violations: Optional[List[MatchViolation]] = None):
        self.violations: List[MatchViolation] = list(violations or [])

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, code: str, message: str) -> None:
        self.violations.append(MatchViolation(code, message))

    def codes(self) -> List[str]:
        return [v.code for v in self.violations]

    def messages(self) -> List[str]:
        return [v.message for v in self.violations]

    def __bool__(self) -> bool:
        return bool(self.violations)

    def __len__(self) -> int:
        return len(self.violations)

    def __iter__(self) -> Iterator[MatchViolation]:
        return iter(self.violations)

    def __repr__(self) -> str:
        if self.ok:
            return "MatchVerification(ok)"
        return f"MatchVerification({self.codes()})"


def subject_uses(subject: SubjectGraph) -> Dict[int, int]:
    """Per-uid fanout-use counts (fanin edges plus PO references).

    The out-degree side of Definition 3 (exact matches).  Callers that
    verify many matches against one subject should compute this once and
    pass it to :func:`verify_match` via ``uses=`` — recomputing it per
    match makes every verification O(|subject|).
    """
    uses: Dict[int, int] = {}
    for snode in subject.nodes:
        for fanin in snode.fanins:
            uses[fanin.uid] = uses.get(fanin.uid, 0) + 1
    for _, driver in subject.pos:
        uses[driver.uid] = uses.get(driver.uid, 0) + 1
    return uses


def verify_match(
    match: Match,
    subject: SubjectGraph,
    kind: MatchKind,
    uses: Optional[Dict[int, int]] = None,
) -> MatchVerification:
    """Independently check a match against Definitions 1-3.

    Returns a :class:`MatchVerification` — falsy when the match is valid,
    otherwise a collection of coded :class:`MatchViolation` records.
    Used by the test suite as an oracle for the matcher and by
    :mod:`repro.check` as the certificate primitive for cover legality.
    ``uses`` optionally supplies :func:`subject_uses` precomputed (only
    consulted for exact matches).
    """
    problems = MatchVerification()
    pattern = match.pattern
    binding = match.binding

    for pnode in pattern.nodes:
        if pnode.uid not in binding:
            problems.add("C101", f"pattern node {pnode.uid} unbound")
    if problems:
        return problems

    # Condition 1: edge preservation.  Subject fanins are NAND2/INV
    # (at most two), so each pattern edge is checked directly against
    # the bound parent's fanin list — materialising the subject's whole
    # edge set here made every verification O(|subject|).
    for pnode in pattern.nodes:
        for fanin in pnode.fanins:
            child_uid = binding[fanin.uid].uid
            parent = binding[pnode.uid]
            if all(f.uid != child_uid for f in parent.fanins):
                problems.add(
                    "C102",
                    f"pattern edge {fanin.uid}->{pnode.uid} not preserved",
                )

    # Condition 2: in-degree equality for internal pattern nodes, plus
    # the per-node fanin bijection that DAG unfolding implies: the
    # multiset of a pattern node's child images must equal the subject
    # node's fanin multiset.  (Definition 3's literal text would admit
    # two pattern children following the *same* subject edge — e.g.
    # matching NAND2(m, m') onto NAND2(a, b) with both m, m' on a —
    # which does not correspond to any unfolding of the subject DAG and
    # implements the wrong function.  Standard/exact matches satisfy the
    # bijection automatically through injectivity.)
    for pnode in pattern.nodes:
        if pnode.is_leaf:
            continue
        snode = binding[pnode.uid]
        if len(pnode.fanins) != len(snode.fanins):
            problems.add(
                "C103", f"in-degree mismatch at pattern node {pnode.uid}"
            )
            continue
        child_images = sorted(binding[c.uid].uid for c in pnode.fanins)
        subject_fanins = sorted(f.uid for f in snode.fanins)
        if child_images != subject_fanins:
            problems.add(
                "C103",
                f"fanin multiset mismatch at pattern node {pnode.uid}: "
                f"children map to {child_images}, subject has {subject_fanins}",
            )

    # One-to-one for standard/exact.
    if kind is not MatchKind.EXTENDED:
        images = [binding[p.uid].uid for p in pattern.nodes]
        if len(set(images)) != len(images):
            problems.add("C104", "mapping is not one-to-one")

    # Out-degree equality for exact matches (interior nodes only).
    if kind is MatchKind.EXACT:
        pattern_fanout: Dict[int, int] = {}
        for pnode in pattern.nodes:
            for fanin in pnode.fanins:
                pattern_fanout[fanin.uid] = pattern_fanout.get(fanin.uid, 0) + 1
        if uses is None:
            uses = subject_uses(subject)
        for pnode in pattern.nodes:
            if pnode.is_leaf or pattern_fanout.get(pnode.uid, 0) == 0:
                continue
            if uses.get(binding[pnode.uid].uid, 0) != pattern_fanout[pnode.uid]:
                problems.add(
                    "C105", f"out-degree mismatch at pattern node {pnode.uid}"
                )

    # The root must implement the gate output at the designated node.
    if binding[pattern.root.uid] is not match.root:
        problems.add("C106", "root binding mismatch")
    return problems
