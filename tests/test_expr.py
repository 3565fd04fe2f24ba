"""Tests for the genlib/eqn expression language (repro.network.expr)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ParseError
from repro.network.expr import And, Const, Not, Or, Var, Xor, parse_expr
from repro.network.functions import TruthTable


class TestParsing:
    def test_variable(self):
        expr = parse_expr("foo")
        assert isinstance(expr, Var)
        assert expr.name == "foo"

    def test_constants(self):
        assert parse_expr("0") == Const(0)
        assert parse_expr("1") == Const(1)
        assert parse_expr("CONST0") == Const(0)
        assert parse_expr("CONST1") == Const(1)

    def test_operators(self):
        assert parse_expr("a*b") == And([Var("a"), Var("b")])
        assert parse_expr("a+b") == Or([Var("a"), Var("b")])
        assert parse_expr("a^b") == Xor([Var("a"), Var("b")])
        assert parse_expr("!a") == Not(Var("a"))
        assert parse_expr("a'") == Not(Var("a"))

    def test_adjacency_is_and(self):
        assert parse_expr("a b") == parse_expr("a*b")
        assert parse_expr("a b + c d") == parse_expr("a*b + c*d")

    def test_precedence(self):
        # ' > ! > * > ^ > +
        assert parse_expr("a*b+c") == Or([And([Var("a"), Var("b")]), Var("c")])
        assert parse_expr("a+b*c") == Or([Var("a"), And([Var("b"), Var("c")])])
        assert parse_expr("a^b+c") == Or([Xor([Var("a"), Var("b")]), Var("c")])
        assert parse_expr("a*b^c") == Xor([And([Var("a"), Var("b")]), Var("c")])
        assert parse_expr("!a*b") == And([Not(Var("a")), Var("b")])
        assert parse_expr("!(a*b)") == Not(And([Var("a"), Var("b")]))

    def test_postfix_after_parens(self):
        assert parse_expr("(a+b)'") == Not(Or([Var("a"), Var("b")]))
        assert parse_expr("a''") == Not(Not(Var("a")))

    def test_nary_flattening(self):
        expr = parse_expr("a*b*c*d")
        assert isinstance(expr, And)
        assert len(expr.args) == 4

    def test_parse_errors(self):
        for bad in ("", "a +", "(a", "a)", "a ~ b", "*a", "a !"):
            with pytest.raises(ParseError):
                parse_expr(bad)

    @pytest.mark.parametrize(
        "text, char, column", [("a + $b", "$", 5), ("$", "$", 1), ("a\t#", "#", 3)]
    )
    def test_bad_character_located(self, text, char, column):
        with pytest.raises(ParseError) as info:
            parse_expr(text)
        assert f"unexpected character {char!r} at column {column}" in str(info.value)

    def test_identifier_characters(self):
        expr = parse_expr("sig[3]*bus<1>")
        assert expr.support() == ["bus<1>", "sig[3]"]


class TestEvaluation:
    def test_to_tt(self):
        tt = parse_expr("a*b + !c").to_tt(["a", "b", "c"])
        assert tt.evaluate(0b011) == 1  # a=1, b=1, c=0
        assert tt.evaluate(0b000) == 1  # !c
        assert tt.evaluate(0b100) == 0

    def test_to_tt_default_order(self):
        tt = parse_expr("b*a").to_tt()
        assert tt == TruthTable.variable(0, 2) & TruthTable.variable(1, 2)

    def test_to_tt_missing_var(self):
        with pytest.raises(ValueError):
            parse_expr("a*b").to_tt(["a"])

    def test_xor_nary(self):
        tt = parse_expr("a^b^c").to_tt(["a", "b", "c"])
        for m in range(8):
            assert tt.evaluate(m) == bin(m).count("1") % 2

    def test_eval_words(self):
        expr = parse_expr("a*!b + c")
        env = {"a": 0b1100, "b": 0b1010, "c": 0b0001}
        mask = 0xF
        expected = (0b1100 & ~0b1010 | 0b0001) & mask
        assert expr.eval_words(env, mask) == expected

    def test_const_eval(self):
        assert Const(1).eval_words({}, 0b111) == 0b111
        assert Const(0).eval_words({}, 0b111) == 0


class TestStructure:
    def test_support_sorted_unique(self):
        assert parse_expr("b*a + a*c").support() == ["a", "b", "c"]

    def test_nary_requires_two(self):
        with pytest.raises(ValueError):
            And([Var("a")])

    def test_const_validation(self):
        with pytest.raises(ValueError):
            Const(2)

    def test_hash_equality(self):
        assert hash(parse_expr("a*b")) == hash(parse_expr("a*b"))
        assert parse_expr("a*b") != parse_expr("a+b")

    def test_repr(self):
        assert "a*b" in repr(parse_expr("a*b"))


class TestToString:
    @pytest.mark.parametrize(
        "text",
        [
            "a",
            "!a",
            "a*b",
            "a+b",
            "a^b",
            "!(a+b)",
            "a*b+c",
            "(a+b)*(c+d)",
            "a*b^c+d",
            "!(a*!b+c)",
            "CONST1",
            "a*CONST0+b",
        ],
    )
    def test_roundtrip(self, text):
        expr = parse_expr(text)
        again = parse_expr(expr.to_string())
        order = sorted(set(expr.support()) | set(again.support()))
        assert expr.to_tt(order) == again.to_tt(order)


# ----------------------------------------------------------------------
# Property: random expressions round-trip through to_string
# ----------------------------------------------------------------------

_names = st.sampled_from(["a", "b", "c", "d"])


def _exprs():
    return st.recursive(
        _names.map(Var) | st.sampled_from([Const(0), Const(1)]),
        lambda children: st.one_of(
            children.map(Not),
            st.lists(children, min_size=2, max_size=3).map(And),
            st.lists(children, min_size=2, max_size=3).map(Or),
            st.lists(children, min_size=2, max_size=3).map(Xor),
        ),
        max_leaves=8,
    )


@given(_exprs())
def test_to_string_roundtrip_property(expr):
    printed = expr.to_string()
    reparsed = parse_expr(printed)
    order = ["a", "b", "c", "d"]
    assert expr.to_tt(order) == reparsed.to_tt(order)


@given(_exprs(), st.integers(min_value=0, max_value=15))
def test_eval_words_agrees_with_tt(expr, assignment):
    order = ["a", "b", "c", "d"]
    tt = expr.to_tt(order)
    env = {name: (assignment >> i) & 1 for i, name in enumerate(order)}
    assert expr.eval_words(env, 1) == tt.evaluate(assignment)
