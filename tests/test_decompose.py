"""Tests for technology decomposition (repro.network.decompose)."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bench import circuits
from repro.core.dag_mapper import map_dag
from repro.errors import NetworkError
from repro.library.builtin import lib2_like
from repro.network.blif import loads_blif
from repro.network.bnet import BooleanNetwork
from repro.network.decompose import (
    _substitute_var,
    and_tree,
    decompose_network,
    nand_tree,
    or_tree,
)
from repro.network.functions import TruthTable
from repro.network.simulate import check_equivalent
from repro.network.subject import NodeType, SubjectGraph


class TestTrees:
    def test_nand_tree_sizes(self):
        g = SubjectGraph()
        pis = [g.add_pi(f"p{i}") for i in range(5)]
        root = nand_tree(g, pis)
        for m in range(32):
            bits = {f"p{i}": (m >> i) & 1 for i in range(5)}
            g2 = g
            g2.pos = [("o", root)]
            expected = 1 - int(all(bits.values()))
            assert g2.simulate(bits, 1)["o"] == expected
            g2.pos = []

    def test_single_operand(self):
        g = SubjectGraph()
        a = g.add_pi("a")
        assert nand_tree(g, [a]).kind is NodeType.INV
        assert and_tree(g, [a]) is a
        assert or_tree(g, [a]) is a

    def test_empty_operands(self):
        g = SubjectGraph()
        with pytest.raises(NetworkError):
            nand_tree(g, [])
        with pytest.raises(NetworkError):
            and_tree(g, [])
        with pytest.raises(NetworkError):
            or_tree(g, [])

    def test_or_tree_function(self):
        g = SubjectGraph()
        pis = [g.add_pi(f"p{i}") for i in range(3)]
        root = or_tree(g, pis)
        g.set_po("o", root)
        for m in range(8):
            bits = {f"p{i}": (m >> i) & 1 for i in range(3)}
            assert g.simulate(bits, 1)["o"] == int(any(bits.values()))


class TestDecompose:
    def test_identity_and_inverter(self):
        net = BooleanNetwork("wire")
        net.add_pi("a")
        net.add_node("x", "a", ["a"])
        net.add_node("y", "!x")
        net.add_po("x")
        net.add_po("y")
        subject = decompose_network(net)
        check_equivalent(net, subject)
        # The identity node becomes an alias: only one INV total.
        assert subject.stats()["inv"] == 1
        assert subject.stats()["nand2"] == 0

    def test_constant_output(self):
        net = BooleanNetwork("const")
        net.add_pi("a")
        net.add_node("k1", "CONST1")
        net.add_node("k0", "CONST0")
        net.add_po("k1")
        net.add_po("k0")
        subject = decompose_network(net)
        check_equivalent(net, subject)

    def test_constant_without_pi_fails(self):
        net = BooleanNetwork("bad")
        net.add_node("k", "CONST1")
        net.add_po("k")
        with pytest.raises(NetworkError):
            decompose_network(net)

    def test_constant_propagation(self):
        net = BooleanNetwork("prop")
        net.add_pi("a")
        net.add_node("k", "CONST0")
        net.add_node("f", TruthTable(2, 0b0110), ["a", "k"])  # a ^ 0 = a
        net.add_po("f")
        subject = decompose_network(net)
        check_equivalent(net, subject)
        assert subject.n_gates == 0  # reduces to a wire

    def test_xor_node(self):
        net = BooleanNetwork("x")
        net.add_pi("a")
        net.add_pi("b")
        net.add_node("f", "a^b")
        net.add_po("f")
        subject = decompose_network(net)
        check_equivalent(net, subject)
        assert subject.n_gates > 0

    def test_wide_and(self):
        net = BooleanNetwork("wide")
        for i in range(8):
            net.add_pi(f"p{i}")
        net.add_node("f", "*".join(f"p{i}" for i in range(8)))
        net.add_po("f")
        subject = decompose_network(net)
        check_equivalent(net, subject)
        # Balanced decomposition: depth close to log2.
        assert subject.depth() <= 7

    def test_latch_boundary(self):
        net = circuits.accumulator(4)
        subject = decompose_network(net)
        assert [pi.name for pi in subject.pis] == net.combinational_inputs()
        assert [name for name, _ in subject.pos] == net.combinational_outputs()

    def test_strash_shares_common_logic(self):
        net = BooleanNetwork("shared")
        net.add_pi("a")
        net.add_pi("b")
        net.add_node("f", "a*b")
        net.add_node("g", "a*b")  # identical function
        net.add_po("f")
        net.add_po("g")
        subject = decompose_network(net)
        # Structural hashing merges the two products.
        assert subject.stats()["nand2"] == 1

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: circuits.c17(),
            lambda: circuits.ripple_adder(4),
            lambda: circuits.alu(3),
            lambda: circuits.comparator(4),
            lambda: circuits.mux_tree(2),
            lambda: circuits.sec_corrector(4),
        ],
    )
    def test_benchmarks_equivalent(self, factory):
        net = factory()
        subject = decompose_network(net)
        check_equivalent(net, subject)


@given(st.integers(min_value=0, max_value=255), st.integers(min_value=0, max_value=255))
def test_random_two_node_networks(bits1, bits2):
    net = BooleanNetwork("rand")
    for name in ("a", "b", "c"):
        net.add_pi(name)
    net.add_node("f", TruthTable(3, bits1), ["a", "b", "c"])
    net.add_node("g", TruthTable(3, bits2), ["a", "b", "f"])
    net.add_po("g")
    net.add_po("f")
    subject = decompose_network(net)
    check_equivalent(net, subject)


@given(st.integers(min_value=0, max_value=2**16 - 1))
def test_random_four_input_functions(bits):
    net = BooleanNetwork("rand4")
    for name in ("a", "b", "c", "d"):
        net.add_pi(name)
    net.add_node("f", TruthTable(4, bits), ["a", "b", "c", "d"])
    net.add_po("f")
    subject = decompose_network(net)
    check_equivalent(net, subject)


def _substitute_reference(tt: TruthTable, j: int, i: int, negate: bool) -> TruthTable:
    """The per-assignment loop ``_substitute_var`` replaced."""
    bits = 0
    for a in range(1 << tt.n_vars):
        forced = ((a >> i) & 1) ^ int(negate)
        if tt.evaluate((a & ~(1 << j)) | (forced << j)):
            bits |= 1 << a
    return TruthTable(tt.n_vars, bits)


@st.composite
def substitution_cases(draw):
    """A table of 2..10 inputs, some vacuous, and two distinct inputs."""
    n_vars = draw(st.integers(2, 10))
    bits = draw(st.integers(0, (1 << (1 << n_vars)) - 1))
    tt = TruthTable(n_vars, bits)
    for var in draw(st.sets(st.integers(0, n_vars - 1), max_size=n_vars - 2)):
        tt = tt.cofactor(var, draw(st.integers(0, 1)))
    i, j = draw(st.permutations(range(n_vars)))[:2]
    return tt, j, i


@given(substitution_cases(), st.booleans())
def test_substitute_var_matches_per_assignment_loop(case, negate):
    tt, j, i = case
    out = _substitute_var(tt, j, i, negate)
    assert out == _substitute_reference(tt, j, i, negate)
    assert not out.depends_on(j)


def _wide_node_blif(n_inputs: int, rows) -> str:
    pis = " ".join(f"p{i}" for i in range(n_inputs))
    body = "\n".join(f"{row} 1" for row in rows)
    return f".model wide\n.inputs {pis}\n.outputs f\n.names {pis} f\n{body}\n.end\n"


def _random_cover(n_inputs: int, n_cubes: int, seed: int):
    rng = random.Random(seed)
    rows = set()
    while len(rows) < n_cubes:
        rows.add("".join(rng.choice("01--") for _ in range(n_inputs)))
    return sorted(rows)


class TestWideNodes:
    """Wide ``.names`` nodes through decompose, lib2 mapping and equivalence.

    Each case runs well under a second with the packed truth-table
    kernels; a regression to per-minterm loops shows as a slow test.
    """

    @pytest.mark.parametrize(
        "n_inputs, rows, subject_gates, mapped_gates",
        [
            (20, ["1" * 20], 38, 19),
            (16, _random_cover(16, 24, seed=24), 341, 150),
        ],
        ids=["and20", "sop16x24"],
    )
    def test_decompose_map_and_check(self, n_inputs, rows, subject_gates, mapped_gates):
        net = loads_blif(_wide_node_blif(n_inputs, rows))
        subject = decompose_network(net)
        assert subject.n_gates == subject_gates
        check_equivalent(net, subject)
        result = map_dag(subject, lib2_like(), max_variants=8)
        assert result.netlist.gate_count() == mapped_gates
        check_equivalent(net, result.netlist)
