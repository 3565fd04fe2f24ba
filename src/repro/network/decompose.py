"""Technology decomposition: Boolean network -> NAND2-INV subject graph.

This is the SIS ``tech_decomp -a 2 -o 2`` equivalent that produces the
*subject graph* of Keutzer's formulation.  Every node function is first
converted to an irredundant sum-of-products (ISOP) and then realised in
NAND2-INV form with balanced trees::

    P1 + P2 + ... + Pk  =  NAND(!P1-half, !P2-half, ...)   (NAND-NAND form)
    literal products    =  balanced NAND2/INV trees

Structural hashing (double-inverter elimination, commutative NAND sharing)
keeps the graph compact.  Constants are legalised with the standard
``NAND(x, !x) == 1`` trick off the first primary input.

The paper claims delay optimality *with respect to the subject graph*, so
any deterministic decomposition is a faithful substrate; this one mirrors
the balanced decomposition SIS uses before mapping.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Sequence, Union

from repro.errors import NetworkError
from repro.network.bnet import BooleanNetwork
from repro.network.subject import NodeType, SubjectGraph, SubjectNode

if TYPE_CHECKING:
    from repro.network.functions import Cube, TruthTable

__all__ = [
    "decompose_network",
    "nand_tree",
    "and_tree",
    "or_tree",
]

#: Sentinel values used while propagating constants through decomposition.
_CONST0 = "const0"
_CONST1 = "const1"

Value = Union[SubjectNode, str]


#: Decomposition styles for multi-input operators.  ``balanced`` gives
#: logarithmic-depth trees (SIS's default and what the tables use);
#: ``linear`` gives left-linear chains.  Mapping the same circuit under
#: both quantifies the subject-graph sensitivity the paper's Section 4
#: discusses (Lehman et al.'s motivation).
STYLES = ("balanced", "linear")


def _check_style(style: str) -> None:
    if style not in STYLES:
        raise ValueError(f"unknown decomposition style {style!r}; use {STYLES}")


def nand_tree(
    graph: SubjectGraph,
    operands: Sequence[SubjectNode],
    style: str = "balanced",
) -> SubjectNode:
    """NAND of one or more operands (one operand -> inverter)."""
    _check_style(style)
    if not operands:
        raise NetworkError("nand_tree needs at least one operand")
    if len(operands) == 1:
        return _invert(graph, operands[0])
    if len(operands) == 2:
        return graph.add_nand2(operands[0], operands[1])
    if style == "linear":
        acc = and_tree(graph, operands[:-1], style)
        return graph.add_nand2(acc, operands[-1])
    mid = len(operands) // 2
    left = and_tree(graph, operands[:mid], style)
    right = and_tree(graph, operands[mid:], style)
    return graph.add_nand2(left, right)


def and_tree(
    graph: SubjectGraph,
    operands: Sequence[SubjectNode],
    style: str = "balanced",
) -> SubjectNode:
    """AND of one or more operands."""
    _check_style(style)
    if not operands:
        raise NetworkError("and_tree needs at least one operand")
    if len(operands) == 1:
        return operands[0]
    if style == "linear":
        acc = operands[0]
        for op in operands[1:]:
            acc = _invert(graph, graph.add_nand2(acc, op))
        return acc
    return _invert(graph, nand_tree(graph, operands, style))


def or_tree(
    graph: SubjectGraph,
    operands: Sequence[SubjectNode],
    style: str = "balanced",
) -> SubjectNode:
    """OR of one or more operands: NAND of complemented inputs."""
    _check_style(style)
    if not operands:
        raise NetworkError("or_tree needs at least one operand")
    if len(operands) == 1:
        return operands[0]
    inverted = [_invert(graph, op) for op in operands]
    return nand_tree(graph, inverted, style)


def _invert(graph: SubjectGraph, node: SubjectNode) -> SubjectNode:
    """Inverter with double-inverter elimination."""
    if node.kind is NodeType.INV:
        return node.fanins[0]
    return graph.add_inv(node)


def _make_const(graph: SubjectGraph, value: int) -> SubjectNode:
    """Materialise a constant using NAND(x, !x) == 1 off the first PI."""
    if not graph.pis:
        raise NetworkError("cannot materialise a constant: network has no PIs")
    pi = graph.pis[0]
    one = graph.add_nand2(pi, graph.add_inv(pi))
    return one if value else graph.add_inv(one)


def _substitute_var(tt: "TruthTable", j: int, i: int, negate: bool) -> "TruthTable":
    """Replace input ``j`` by input ``i`` (or its complement) in ``tt``.

    The result no longer depends on input ``j``.  Used when two fanins
    turn out to carry structurally identical (or complementary) subject
    values after hashing, which would otherwise let SOP literals collide
    into degenerate NAND2(x, x) nodes.
    """
    from repro.network.functions import TruthTable, variable_bits

    # Lanes where x_i is 1 read the cofactor at x_j = 1 (x_j = 0 when
    # negated); the other lanes read the opposite cofactor.
    on, off = tt.cofactor(j, 1).bits, tt.cofactor(j, 0).bits
    if negate:
        on, off = off, on
    xi = variable_bits(i, tt.n_vars)
    return TruthTable(tt.n_vars, (on & xi) | (off & ~xi))


def _is_complement(a: SubjectNode, b: SubjectNode) -> bool:
    """True when one node is structurally the inverter of the other."""
    if a.kind is NodeType.INV and a.fanins[0] is b:
        return True
    return b.kind is NodeType.INV and b.fanins[0] is a


def _decompose_node_tt(
    graph: SubjectGraph,
    tt: "TruthTable",
    fanin_values: List[Value],
    style: str = "balanced",
) -> Value:
    """Decompose one node function given subject values for its fanins."""
    # Substitute known constants by cofactoring.
    work = tt
    for idx, value in enumerate(fanin_values):
        if value == _CONST0:
            work = work.cofactor(idx, 0)
        elif value == _CONST1:
            work = work.cofactor(idx, 1)
    # Merge fanins whose subject values are structurally equal or
    # complementary, so every remaining literal is structurally unique.
    n = len(fanin_values)
    for i in range(n):
        vi = fanin_values[i]
        if isinstance(vi, str) or not work.depends_on(i):
            continue
        for j in range(i + 1, n):
            vj = fanin_values[j]
            if isinstance(vj, str) or not work.depends_on(j):
                continue
            if vj is vi:
                work = _substitute_var(work, j, i, negate=False)
            elif _is_complement(vi, vj):
                work = _substitute_var(work, j, i, negate=True)
    if work.is_const0():
        return _CONST0
    if work.is_const1():
        return _CONST1

    shrunk, keep = work.shrunk()
    operands: List[SubjectNode] = [fanin_values[old] for old in keep]  # type: ignore[misc]

    if shrunk.n_vars == 1:
        # Identity or inverter.
        return operands[0] if shrunk.bits == 0b10 else _invert(graph, operands[0])

    # Decompose whichever phase has the cheaper two-level form (SIS-style):
    # e.g. !(a*b) is one NAND2 via its complement rather than NAND of two
    # double inverters via its own ISOP.
    cubes_pos = shrunk.isop()
    cubes_neg = (~shrunk).isop()

    def cost(cubes: List["Cube"]) -> tuple:
        return (len(cubes), sum(len(c) for c in cubes))

    if cost(cubes_neg) < cost(cubes_pos):
        return _invert(graph, _build_sop(graph, cubes_neg, operands, style))
    return _build_sop(graph, cubes_pos, operands, style)


def _build_sop(
    graph: SubjectGraph,
    cubes: List["Cube"],
    operands: List[SubjectNode],
    style: str,
) -> SubjectNode:
    """Realise a sum of cubes as a NAND-NAND network over ``operands``."""
    cube_nands: List[SubjectNode] = []
    for cube in cubes:
        literals = [
            operands[var] if phase else _invert(graph, operands[var])
            for var, phase in cube
        ]
        # !P_i as a single NAND tree over the cube's literals.
        cube_nands.append(nand_tree(graph, literals, style))
    if len(cube_nands) == 1:
        # Single cube: f = P = !(NAND of literals).
        return _invert(graph, cube_nands[0])
    # f = P1 + ... + Pk = NAND(!P1, ..., !Pk).
    return nand_tree(graph, cube_nands, style)


def decompose_network(
    net: BooleanNetwork,
    name: str | None = None,
    style: str = "balanced",
) -> SubjectGraph:
    """Decompose the combinational core of ``net`` into a subject graph.

    Primary inputs and latch outputs become subject-graph PIs; primary
    outputs and latch inputs become subject-graph POs.  Constant outputs
    are legalised via ``NAND(x, !x)``.  ``style`` selects the multi-input
    operator decomposition (``balanced`` or ``linear``) — the paper's
    optimality claim is relative to this choice, and the harness's
    decomposition-sensitivity experiment sweeps it.
    """
    _check_style(style)
    graph = SubjectGraph(name or net.name)
    values: Dict[str, Value] = {}
    for signal in net.combinational_inputs():
        values[signal] = graph.add_pi(signal)

    for node in net.topological_order():
        fanin_values = [values[f] for f in node.fanins]
        values[node.name] = _decompose_node_tt(graph, node.tt, fanin_values, style)

    for signal in net.combinational_outputs():
        if signal not in values:
            raise NetworkError(f"output {signal!r} is undefined")
        value = values[signal]
        if value == _CONST0:
            value = _make_const(graph, 0)
        elif value == _CONST1:
            value = _make_const(graph, 1)
        graph.set_po(signal, value)
    return graph
