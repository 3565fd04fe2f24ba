"""Tests for NPN canonicalisation (repro.network.npn)."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.network.functions import TruthTable
from repro.network.npn import (
    NPNTransform,
    _apply,
    npn_canonical,
    npn_classes,
    npn_equivalent,
)


def _apply_scalar(tt, perm, neg, out_neg):
    """Per-minterm reference for the packed ``_apply`` (the oracle)."""
    n = tt.n_vars
    bits = 0
    for assignment in range(1 << n):
        original = 0
        for i in range(n):
            bit = (assignment >> perm[i]) & 1
            bit ^= (neg >> i) & 1
            original |= bit << i
        value = tt.evaluate(original) ^ int(out_neg)
        bits |= value << assignment
    return bits


class TestCanonical:
    def test_transform_achieves_canonical(self):
        tt = TruthTable(3, 0b10010110)  # parity-ish
        canonical, transform = npn_canonical(tt)
        assert _apply(tt, transform.perm, transform.input_negations,
                      transform.output_negate) == canonical.bits

    def test_and_class(self):
        a = TruthTable.variable(0, 2)
        b = TruthTable.variable(1, 2)
        members = [a & b, ~(a & b), a | b, ~a & b, ~(a | ~b)]
        canons = {npn_canonical(m)[0] for m in members}
        assert len(canons) == 1  # all NPN-equivalent to AND2

    def test_xor_not_equivalent_to_and(self):
        a = TruthTable.variable(0, 2)
        b = TruthTable.variable(1, 2)
        assert not npn_equivalent(a & b, a ^ b)
        assert npn_equivalent(a ^ b, ~(a ^ b))

    def test_different_arity_never_equivalent(self):
        assert not npn_equivalent(
            TruthTable.variable(0, 2), TruthTable.variable(0, 3)
        )

    def test_too_many_inputs(self):
        with pytest.raises(ValueError):
            npn_canonical(TruthTable(7, 0))

    def test_constant_classes(self):
        zero = TruthTable.const0(2)
        one = TruthTable.const1(2)
        assert npn_equivalent(zero, one)  # output negation


class TestClasses:
    def test_two_input_function_count(self):
        """The 16 two-input functions fall into exactly 4 NPN classes:
        constants, projections, AND-like, XOR-like."""
        tables = [TruthTable(2, bits) for bits in range(16)]
        classes = npn_classes(tables)
        assert len(classes) == 4

    def test_library_redundancy(self):
        """AOI/OAI duals collapse: the 44-1 library's NPN class count is
        well below its gate count."""
        from repro.library.builtin import lib44_1

        lib = lib44_1()
        tables = [g.tt for g in lib if g.n_inputs <= 6]
        classes = npn_classes(tables)
        assert len(classes) < len(tables)


@given(
    st.integers(min_value=0, max_value=255),
    st.permutations([0, 1, 2]),
    st.integers(min_value=0, max_value=7),
    st.booleans(),
)
def test_canonical_invariant_under_transforms(bits, perm, neg, out_neg):
    """Canonical form is a true invariant of the NPN orbit."""
    tt = TruthTable(3, bits)
    transformed = TruthTable(3, _apply(tt, tuple(perm), neg, out_neg))
    assert npn_canonical(tt)[0] == npn_canonical(transformed)[0]


class TestPackedApply:
    """The packed word-permutation _apply == per-minterm _apply_scalar."""

    def test_all_transforms_small(self):
        from itertools import permutations

        rng = random.Random(5)
        for n in (1, 2, 3):
            for _ in range(4):
                tt = TruthTable(n, rng.getrandbits(1 << n))
                for perm in permutations(range(n)):
                    for neg in range(1 << n):
                        for out_neg in (False, True):
                            assert _apply(tt, perm, neg, out_neg) == _apply_scalar(
                                tt, perm, neg, out_neg
                            )

    @given(st.integers(min_value=0, max_value=(1 << 32) - 1), st.integers(0, 10**6))
    def test_random_transforms_n5(self, bits, pick):
        from itertools import permutations

        n = 5
        tt = TruthTable(n, bits)
        perms = list(permutations(range(n)))
        perm = perms[pick % len(perms)]
        neg = (pick // len(perms)) % (1 << n)
        out_neg = bool(pick & 1)
        assert _apply(tt, perm, neg, out_neg) == _apply_scalar(tt, perm, neg, out_neg)
