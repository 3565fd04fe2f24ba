"""Unit and property tests for truth tables (repro.network.functions)."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.network.functions import (
    TruthTable,
    _eval_words_rec,
    cube_to_tt,
    sop_to_tt,
)


class TestConstruction:
    def test_const0_const1(self):
        assert TruthTable.const0(3).bits == 0
        assert TruthTable.const1(3).bits == 0xFF
        assert TruthTable.const1(0).bits == 1

    def test_variable_patterns(self):
        assert TruthTable.variable(0, 2).bits == 0b1010
        assert TruthTable.variable(1, 2).bits == 0b1100
        assert TruthTable.variable(2, 3).bits == 0xF0

    def test_variable_out_of_range(self):
        with pytest.raises(ValueError):
            TruthTable.variable(2, 2)

    def test_bits_out_of_range(self):
        with pytest.raises(ValueError):
            TruthTable(1, 5)

    def test_from_function(self):
        maj = TruthTable.from_function(lambda a, b, c: (a + b + c) >= 2, 3)
        assert maj.evaluate(0b011) == 1
        assert maj.evaluate(0b001) == 0
        assert maj.count_ones() == 4

    def test_from_minterms(self):
        tt = TruthTable.from_minterms([0, 3], 2)
        assert tt.bits == 0b1001
        with pytest.raises(ValueError):
            TruthTable.from_minterms([4], 2)

    def test_too_many_vars(self):
        with pytest.raises(ValueError):
            TruthTable(25, 0)


class TestOperators:
    def test_and_or_xor_invert(self):
        a = TruthTable.variable(0, 2)
        b = TruthTable.variable(1, 2)
        assert (a & b).bits == 0b1000
        assert (a | b).bits == 0b1110
        assert (a ^ b).bits == 0b0110
        assert (~a).bits == 0b0101

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            TruthTable.variable(0, 2) & TruthTable.variable(0, 3)

    def test_equality_and_hash(self):
        a = TruthTable.variable(0, 2)
        assert a == TruthTable.variable(0, 2)
        assert hash(a) == hash(TruthTable.variable(0, 2))
        assert a != TruthTable.variable(1, 2)
        assert a != "not a table"


class TestQueries:
    def test_evaluate(self):
        a = TruthTable.variable(1, 3)
        assert a.evaluate(0b010) == 1
        assert a.evaluate(0b101) == 0
        with pytest.raises(ValueError):
            a.evaluate(8)

    def test_support_and_depends(self):
        a = TruthTable.variable(0, 3)
        c = TruthTable.variable(2, 3)
        f = a & c
        assert f.support() == [0, 2]
        assert f.depends_on(0)
        assert not f.depends_on(1)

    def test_minterms(self):
        tt = TruthTable.from_minterms([1, 4, 6], 3)
        assert list(tt.minterms()) == [1, 4, 6]

    def test_is_constant(self):
        assert TruthTable.const0(2).is_constant()
        assert TruthTable.const1(2).is_constant()
        assert not TruthTable.variable(0, 2).is_constant()


class TestStructural:
    def test_cofactor(self):
        a = TruthTable.variable(0, 2)
        b = TruthTable.variable(1, 2)
        f = a & b
        assert f.cofactor(0, 1) == b
        assert f.cofactor(0, 0) == TruthTable.const0(2)
        with pytest.raises(ValueError):
            f.cofactor(2, 0)

    def test_permuted(self):
        a = TruthTable.variable(0, 3)
        assert a.permuted([1, 0, 2]) == TruthTable.variable(1, 3)
        with pytest.raises(ValueError):
            a.permuted([0, 0, 1])

    def test_extended(self):
        a = TruthTable.variable(0, 1)
        ext = a.extended(3)
        assert ext == TruthTable.variable(0, 3)
        with pytest.raises(ValueError):
            ext.shrunk()[0].extended(0)

    def test_shrunk(self):
        a = TruthTable.variable(0, 3)
        c = TruthTable.variable(2, 3)
        f = a ^ c
        small, keep = f.shrunk()
        assert keep == [0, 2]
        assert small == TruthTable.variable(0, 2) ^ TruthTable.variable(1, 2)


class TestIsop:
    def test_constants(self):
        assert TruthTable.const0(2).isop() == []
        assert TruthTable.const1(2).isop() == [()]

    def test_single_cube(self):
        a = TruthTable.variable(0, 2)
        b = TruthTable.variable(1, 2)
        cubes = (a & ~b).isop()
        assert len(cubes) == 1
        assert sorted(cubes[0]) == [(0, True), (1, False)]

    def test_xor_needs_two_cubes(self):
        a = TruthTable.variable(0, 2)
        b = TruthTable.variable(1, 2)
        assert len((a ^ b).isop()) == 2

    def test_to_sop_string(self):
        a = TruthTable.variable(0, 2)
        b = TruthTable.variable(1, 2)
        assert TruthTable.const0(2).to_sop_string() == "0"
        assert TruthTable.const1(2).to_sop_string() == "1"
        text = (a & b).to_sop_string(["a", "b"])
        assert set(text.split("*")) == {"a", "b"}


class TestEvalWords:
    def test_nand(self):
        nand = TruthTable(2, 0b0111)
        mask = 0xFF
        assert nand.eval_words([0b1100, 0b1010], mask) == (~(0b1100 & 0b1010)) & mask

    def test_wrong_word_count(self):
        with pytest.raises(ValueError):
            TruthTable(2, 0b0111).eval_words([1], 1)

    def test_constants(self):
        assert TruthTable.const1(2).eval_words([0, 0], 0b11) == 0b11
        assert TruthTable.const0(2).eval_words([1, 1], 0b11) == 0


# ----------------------------------------------------------------------
# Property tests
# ----------------------------------------------------------------------

tables3 = st.integers(min_value=0, max_value=255).map(lambda b: TruthTable(3, b))


@given(tables3)
def test_isop_covers_exactly_the_onset(tt):
    assert sop_to_tt(tt.isop(), 3) == tt


@given(tables3)
def test_double_negation(tt):
    assert ~~tt == tt


@given(tables3, tables3)
def test_de_morgan(f, g):
    assert ~(f & g) == (~f | ~g)
    assert ~(f | g) == (~f & ~g)


@given(tables3, st.integers(min_value=0, max_value=7))
def test_eval_words_matches_evaluate(tt, assignment):
    words = [(assignment >> j) & 1 for j in range(3)]
    assert tt.eval_words(words, 1) == tt.evaluate(assignment)


@given(tables3, st.permutations([0, 1, 2]))
def test_permute_roundtrip(tt, perm):
    inverse = [0, 0, 0]
    for new, old in enumerate(perm):
        inverse[old] = new
    assert tt.permuted(perm).permuted(inverse) == tt


@given(tables3, st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=1))
def test_cofactor_is_independent(tt, var, val):
    cof = tt.cofactor(var, val)
    assert not cof.depends_on(var)


@given(tables3)
def test_shrunk_preserves_function(tt):
    small, keep = tt.shrunk()
    for assignment in range(8):
        small_assignment = 0
        for new_idx, old_idx in enumerate(keep):
            small_assignment |= ((assignment >> old_idx) & 1) << new_idx
        assert small.evaluate(small_assignment) == tt.evaluate(assignment)


@given(st.lists(st.tuples(st.integers(0, 2), st.booleans()), max_size=3))
def test_cube_to_tt_matches_manual(cube_lits):
    # Deduplicate variables to keep the cube well-formed.
    seen = {}
    for var, phase in cube_lits:
        seen[var] = phase
    cube = tuple(seen.items())
    tt = cube_to_tt(cube, 3)
    for assignment in range(8):
        expected = all(
            ((assignment >> var) & 1) == int(phase) for var, phase in cube
        )
        assert tt.evaluate(assignment) == int(expected)


# ----------------------------------------------------------------------
# Packed kernels against their per-minterm / per-leaf references
# ----------------------------------------------------------------------


def _spread(small: TruthTable, support, n_vars: int) -> TruthTable:
    """``small`` over ``n_vars`` inputs, its input ``q`` read from ``support[q]``.

    Built one minterm at a time, independently of the packed kernels.
    """
    return TruthTable.from_function(
        lambda *args: small.evaluate(sum(args[s] << q for q, s in enumerate(support))),
        n_vars,
    )


@st.composite
def sparse_tables(draw, max_vars=10):
    """Tables of 0..``max_vars`` inputs, a random subset of them vacuous."""
    n_vars = draw(st.integers(0, max_vars))
    support = draw(st.lists(st.integers(0, max(n_vars - 1, 0)), unique=True,
                            max_size=n_vars))
    small = TruthTable(len(support), draw(st.integers(0, (1 << (1 << len(support))) - 1)))
    return _spread(small, support, n_vars)


def _shrunk_reference(tt: TruthTable):
    """The per-minterm formulation ``shrunk()`` replaced."""
    keep = tt.support()
    table = TruthTable.from_function(
        lambda *args: tt.evaluate(sum(args[k] << keep[k] for k in range(len(keep)))),
        len(keep),
    )
    return table, keep


@given(sparse_tables())
def test_shrunk_matches_per_minterm_reference(tt):
    assert tt.shrunk() == _shrunk_reference(tt)


def _random_words(rng, n_vars, lanes):
    return [rng.getrandbits(lanes) for _ in range(n_vars)], (1 << lanes) - 1


def _lane_reference(tt: TruthTable, words, lanes: int) -> int:
    """Evaluate lane by lane with ``evaluate`` (no Shannon recursion at all)."""
    out = 0
    for lane in range(lanes):
        assignment = sum(((w >> lane) & 1) << j for j, w in enumerate(words))
        out |= tt.evaluate(assignment) << lane
    return out


def _eval_words_plain(bits: int, n_vars: int, words, mask: int) -> int:
    """Plain Shannon recursion, one call per non-constant cofactor path."""
    size = 1 << n_vars
    if bits == 0:
        return 0
    if bits == (1 << size) - 1:
        return mask
    half = size >> 1
    low = bits & ((1 << half) - 1)
    high = bits >> half
    word = words[n_vars - 1]
    return (
        (~word & _eval_words_plain(low, n_vars - 1, words, mask))
        | (word & _eval_words_plain(high, n_vars - 1, words, mask))
    ) & mask


@given(sparse_tables(), st.integers(0, 2**32 - 1))
def test_shared_cofactor_eval_matches_plain_recursion(tt, seed):
    words, mask = _random_words(random.Random(seed), tt.n_vars, 64)
    plain = _eval_words_plain(tt.bits, tt.n_vars, words, mask)
    assert _eval_words_rec(tt.bits, tt.n_vars, words, mask, {}) == plain
    assert tt.eval_words(words, mask) == plain


class TestSharedCofactorEval:
    @pytest.mark.parametrize("n_vars", [0, 1, 5, 6, 7, 12])
    def test_constants(self, n_vars):
        words, mask = _random_words(random.Random(n_vars), n_vars, 40)
        assert TruthTable.const0(n_vars).eval_words(words, mask) == 0
        assert TruthTable.const1(n_vars).eval_words(words, mask) == mask
        assert _eval_words_rec(0, n_vars, words, mask, {}) == 0

    def test_one_variable(self):
        word, mask = 0b1011_0010, 0xFF
        assert _eval_words_rec(0b10, 1, [word], mask, {}) == word
        assert _eval_words_rec(0b01, 1, [word], mask, {}) == ~word & mask

    @pytest.mark.parametrize("n_vars", [0, 1, 2, 3])
    def test_every_gate_sized_table(self, n_vars):
        """Gate tables take the memoized recursion too: check all of them."""
        words, mask = _random_words(random.Random(n_vars), n_vars, 16)
        for bits in range(1 << (1 << n_vars)):
            tt = TruthTable(n_vars, bits)
            assert tt.eval_words(words, mask) == _lane_reference(tt, words, 16)

    def test_equal_bits_at_different_levels(self):
        """Sub-table 0b10 is x0 at level 1 but a single minterm at level 6."""
        n_vars, lanes = 7, 64
        bits = 0b10 | (TruthTable.variable(0, 6).bits << 64)
        tt = TruthTable(n_vars, bits)
        words, mask = _random_words(random.Random(7), n_vars, lanes)
        assert tt.eval_words(words, mask) == _lane_reference(tt, words, lanes)

    def test_xor20_is_word_parity(self):
        n_vars, lanes = 20, 96
        xor = TruthTable.const0(n_vars)
        for i in range(n_vars):
            xor = xor ^ TruthTable.variable(i, n_vars)
        rng = random.Random(20)
        words, mask = _random_words(rng, n_vars, lanes)
        parity = 0
        for word in words:
            parity ^= word
        assert xor.eval_words(words, mask) == parity & mask
        assert xor.eval_words(words, mask) == _lane_reference(xor, words, lanes)

    def test_random_16_variable_table(self):
        rng = random.Random(16)
        tt = TruthTable(16, rng.getrandbits(1 << 16))
        words, mask = _random_words(rng, 16, 64)
        plain = _eval_words_plain(tt.bits, 16, words, mask)
        assert tt.eval_words(words, mask) == plain
        assert plain == _lane_reference(tt, words, 64)

    @pytest.mark.parametrize("n_vars", [6, 9, 12])
    def test_scalar_mask_one(self, n_vars):
        """The scalar engine's case: one lane, words of 0 or 1."""
        rng = random.Random(n_vars)
        tt = TruthTable(n_vars, rng.getrandbits(1 << n_vars))
        for assignment in rng.sample(range(1 << n_vars), 32):
            words = [(assignment >> j) & 1 for j in range(n_vars)]
            assert tt.eval_words(words, 1) == tt.evaluate(assignment)
            assert _eval_words_plain(tt.bits, n_vars, words, 1) == tt.evaluate(assignment)
