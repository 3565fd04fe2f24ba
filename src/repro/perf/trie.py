"""Pattern prefix trie: share matching work across a pattern set.

Rich libraries produce hundreds of patterns whose NAND2/INV
decompositions overlap heavily — the variants of one gate share whole
subtrees, and different gates (AND4 vs NAND4 vs their duals) reduce to
the same shapes.  The seed matcher enumerated every pattern independently
at every subject node; this module merges that work on two levels:

* **Binding groups** — patterns whose *ordered* structural serialization
  (kinds, fanin order, leaf sharing, swap-safe marks) is identical are
  matched by enumerating one representative; every member's bindings are
  recovered through the first-visit correspondence.  The enumeration is
  purely structure-driven, so the translated binding stream is exactly —
  element for element, in order — what enumerating the member itself
  would produce.  Grouping keys include the swap-safe marks so the
  symmetry pruning applied for the representative is the one every
  member would apply.
* **Shape interning** — every pattern subtree gets the id of its
  interned *unordered* shape (kind plus the shapes of its children,
  pins and sharing erased).  Structural feasibility depends on nothing
  else, so shape ids index the per-subject-node feasibility bitsets of
  :class:`repro.core.match.Matcher`: bit *k* of a node's bitset is set
  iff shape *k* embeds there.  :meth:`PatternTrie.compose` builds a
  node's bitset from its fanins' bitsets, so one bottom-up pass answers
  every (shape, node) feasibility question with a bit test.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.library.patterns import PatternGraph, PatternNode, PatternSet
from repro.network.subject import NodeType

__all__ = ["PatternGroup", "PatternTrie"]


class PatternGroup:
    """Patterns sharing one ordered structural serialization.

    Attributes:
        rep: the representative pattern (first member in set order); all
            binding enumeration runs against its nodes.
        members: every pattern in the group, in pattern-set order.
        translations: ``id(pattern) -> (rep uid -> member uid)`` map, with
            ``None`` for the representative itself (identity).
    """

    __slots__ = ("rep", "members", "translations")

    def __init__(self, rep: PatternGraph):
        self.rep = rep
        self.members: List[PatternGraph] = [rep]
        self.translations: Dict[int, Optional[Dict[int, int]]] = {id(rep): None}

    def add(self, pattern: PatternGraph, rep_order: List[PatternNode],
            order: List[PatternNode]) -> None:
        self.members.append(pattern)
        self.translations[id(pattern)] = {
            rep_node.uid: node.uid for rep_node, node in zip(rep_order, order)
        }


def _ordered_serial(
    pattern: PatternGraph,
) -> Tuple[Tuple[Tuple, ...], List[PatternNode]]:
    """(token tuple, first-visit node order) of a pattern's exact structure.

    The serialization is a prefix code (INV: one child, NAND2: two,
    leaves and back-references terminal), so equal token tuples imply the
    first-visit orders are aligned by a structure-preserving isomorphism
    — the correspondence used to translate bindings between group
    members.
    """
    tokens: List[Tuple] = []
    order: List[PatternNode] = []
    index: Dict[int, int] = {}
    swap_safe = pattern.swap_safe

    def visit(node: PatternNode) -> None:
        key = id(node)
        local = index.get(key)
        if local is not None:
            tokens.append(("ref", local))
            return
        index[key] = len(order)
        order.append(node)
        kind = node.kind
        if kind is NodeType.PI:
            tokens.append(("L",))
        elif kind is NodeType.INV:
            tokens.append(("I",))
            visit(node.fanins[0])
        else:
            tokens.append(("N", node.uid in swap_safe))
            visit(node.fanins[0])
            visit(node.fanins[1])

    visit(pattern.root)
    del visit  # the closure refers to itself: break the cycle
    return tuple(tokens), order


def _intern_shape(
    node: PatternNode, intern: Dict[Tuple[object, ...], int], memo: Dict[int, int]
) -> int:
    """Interned id of the canonical *unordered* shape of a pattern subtree.

    The key is the node kind plus its children's shape ids (sorted for
    NAND2), so pins, leaf identity and sharing are erased.  This is
    exactly the information structural feasibility depends on: the check
    recurses over kinds trying both child orders and terminates at
    leaves unconditionally.
    """
    sid = memo.get(id(node))
    if sid is not None:
        return sid
    kind = node.kind
    key: Tuple[object, ...]
    if kind is NodeType.PI:
        key = ("L",)
    elif kind is NodeType.INV:
        key = ("I", _intern_shape(node.fanins[0], intern, memo))
    else:
        a = _intern_shape(node.fanins[0], intern, memo)
        b = _intern_shape(node.fanins[1], intern, memo)
        key = ("N", min(a, b), max(a, b))
    sid = intern.get(key)
    if sid is None:
        sid = len(intern)
        intern[key] = sid
    memo[id(node)] = sid
    return sid


class PatternTrie:
    """Binding groups plus interned feasibility shapes for a pattern set.

    Attributes:
        groups: every :class:`PatternGroup`, in first-appearance order.
        group_of: ``id(pattern) -> PatternGroup``.
        shape_of: ``id(pattern node) -> interned shape id`` for every node
            of every pattern; nodes with equal unordered shape share one id.
        n_shapes: number of distinct shapes interned.
        leaf_bit: the bit of the leaf shape, which embeds at every node.

    The composition tables behind :meth:`compose` are built here once:
    ``_inv_of[c]`` is the bit of the INV shape whose child is shape
    ``c``; ``_nand_partners[c]`` holds the shapes ``p`` for which some
    NAND2 shape has children ``{c, p}``, and ``_nand_of[c, p]`` is that
    shape's bit.
    """

    __slots__ = (
        "groups", "group_of", "shape_of", "n_shapes", "leaf_bit",
        "_inv_of", "_inv_children", "_nand_partners", "_nand_children",
        "_nand_of",
    )

    def __init__(self, patterns: PatternSet):
        self.groups: List[PatternGroup] = []
        self.group_of: Dict[int, PatternGroup] = {}
        by_serial: Dict[Tuple, Tuple[PatternGroup, List[PatternNode]]] = {}
        for pattern in patterns.patterns:
            serial, order = _ordered_serial(pattern)
            if len(order) != len(pattern.nodes):
                # A node unreachable from the root (cannot happen with the
                # current builder) would leave bindings incomplete after
                # translation; keep such a pattern in a singleton group.
                serial = ("solo", id(pattern))
            entry = by_serial.get(serial)
            if entry is None:
                group = PatternGroup(pattern)
                by_serial[serial] = (group, order)
                self.groups.append(group)
            else:
                group, rep_order = entry
                group.add(pattern, rep_order, order)
            self.group_of[id(pattern)] = group

        intern: Dict[Tuple[object, ...], int] = {}
        memo: Dict[int, int] = {}
        self.shape_of: Dict[int, int] = {
            id(node): _intern_shape(node, intern, memo)
            for pattern in patterns.patterns
            for node in pattern.nodes
        }
        self.n_shapes = len(intern)
        self.leaf_bit = 0
        self._inv_of: List[int] = [0] * self.n_shapes
        self._nand_partners: List[int] = [0] * self.n_shapes
        self._nand_of: Dict[Tuple[int, int], int] = {}
        for key, sid in intern.items():
            bit = 1 << sid
            if key[0] == "L":
                self.leaf_bit = bit
            elif key[0] == "I":
                self._inv_of[key[1]] = bit
            else:
                a, b = key[1], key[2]
                self._nand_partners[a] |= 1 << b
                self._nand_partners[b] |= 1 << a
                self._nand_of[a, b] = self._nand_of[b, a] = bit
        self._inv_children = sum(1 << c for c, bit in enumerate(self._inv_of) if bit)
        self._nand_children = sum(
            1 << c for c, mask in enumerate(self._nand_partners) if mask
        )

    def compose(self, kind: NodeType, bits0: int = 0, bits1: int = 0) -> int:
        """Feasibility bitset of a subject node from its fanins' bitsets.

        ``kind`` is the subject node's kind; ``bits0``/``bits1`` are the
        bitsets of its fanins (unused for a PI).  The leaf shape fits
        everywhere; an INV shape fits an INV node whose fanin fits its
        child; a NAND2 shape with children ``{a, b}`` fits a NAND2 node
        when ``a`` fits one fanin and ``b`` the other, in either order.
        When both fanins are the same node, ``bits0 == bits1`` and the
        two orders coincide, exactly as the swapped-order recursion of
        ``Matcher._feasible`` skips when ``s0 is s1``.
        """
        bits = self.leaf_bit
        if kind is NodeType.INV:
            inv_of = self._inv_of
            todo = bits0 & self._inv_children
            while todo:
                low = todo & -todo
                todo ^= low
                bits |= inv_of[low.bit_length() - 1]
        elif kind is NodeType.NAND2:
            partners = self._nand_partners
            nand_of = self._nand_of
            todo = bits0 & self._nand_children
            while todo:
                low = todo & -todo
                todo ^= low
                c = low.bit_length() - 1
                fits = partners[c] & bits1
                while fits:
                    low = fits & -fits
                    fits ^= low
                    bits |= nand_of[c, low.bit_length() - 1]
        return bits

    def __repr__(self) -> str:
        n_patterns = sum(len(g.members) for g in self.groups)
        return (
            f"PatternTrie({n_patterns} patterns in {len(self.groups)} groups, "
            f"{self.n_shapes} shapes)"
        )
