"""Boolean expression AST and parser (genlib / eqn style syntax).

The grammar accepted matches what SIS's genlib reader understands, plus a
few conveniences::

    expr    := term  ( '+' term )*
    term    := xfact ( '^' xfact )*            # xor binds tighter than or
    xfact   := factor ( ('*' | adjacency) factor )*
    factor  := '!' factor | primary "'"*
    primary := IDENT | '0' | '1' | 'CONST0' | 'CONST1' | '(' expr ')'

Adjacency (two primaries separated by whitespace) denotes AND, as in
``a b + c d``.  ``!`` is prefix complement, ``'`` postfix complement.

Expression objects are immutable and hashable.  ``And``/``Or``/``Xor`` are
n-ary.  :func:`parse_expr` produces the AST; :meth:`Expr.to_tt` tabulates
it over an explicit variable order.
"""

from __future__ import annotations

import re
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.errors import ParseError
from repro.network.functions import TruthTable

__all__ = [
    "Expr",
    "Var",
    "Const",
    "Not",
    "And",
    "Or",
    "Xor",
    "parse_expr",
]


class Expr:
    """Base class for Boolean expression nodes (immutable)."""

    def support(self) -> List[str]:
        """Sorted list of distinct variable names appearing in the tree."""
        names: set = set()
        self._collect_support(names)
        return sorted(names)

    def _collect_support(self, acc: set) -> None:
        raise NotImplementedError

    def to_tt(self, var_order: Sequence[str] | None = None) -> TruthTable:
        """Tabulate over ``var_order`` (defaults to sorted support)."""
        if var_order is None:
            var_order = self.support()
        index = {name: i for i, name in enumerate(var_order)}
        missing = [n for n in self.support() if n not in index]
        if missing:
            raise ValueError(f"variables missing from var_order: {missing}")
        env = {
            name: TruthTable.variable(i, len(var_order))
            for name, i in index.items()
        }
        return self._eval_tt(env, len(var_order))

    def _eval_tt(self, env: Dict[str, TruthTable], n: int) -> TruthTable:
        raise NotImplementedError

    def eval_words(self, env: Dict[str, int], mask: int) -> int:
        """Bit-parallel evaluation with packed words per variable."""
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self._key() == other._key()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._key()))

    def _key(self) -> object:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.to_string()})"

    def to_string(self) -> str:
        """Render in genlib syntax (fully parenthesised where needed)."""
        raise NotImplementedError


class Var(Expr):
    """A named input variable."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def _collect_support(self, acc: set) -> None:
        acc.add(self.name)

    def _eval_tt(self, env: Dict[str, TruthTable], n: int) -> TruthTable:
        return env[self.name]

    def eval_words(self, env: Dict[str, int], mask: int) -> int:
        return env[self.name] & mask

    def _key(self) -> object:
        return self.name

    def to_string(self) -> str:
        return self.name


class Const(Expr):
    """Constant 0 or 1."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        if value not in (0, 1):
            raise ValueError("constant must be 0 or 1")
        self.value = value

    def _collect_support(self, acc: set) -> None:
        pass

    def _eval_tt(self, env: Dict[str, TruthTable], n: int) -> TruthTable:
        return TruthTable.const1(n) if self.value else TruthTable.const0(n)

    def eval_words(self, env: Dict[str, int], mask: int) -> int:
        return mask if self.value else 0

    def _key(self) -> object:
        return self.value

    def to_string(self) -> str:
        return "CONST1" if self.value else "CONST0"


class Not(Expr):
    """Complement of a subexpression."""

    __slots__ = ("child",)

    def __init__(self, child: Expr):
        self.child = child

    def _collect_support(self, acc: set) -> None:
        self.child._collect_support(acc)

    def _eval_tt(self, env: Dict[str, TruthTable], n: int) -> TruthTable:
        return ~self.child._eval_tt(env, n)

    def eval_words(self, env: Dict[str, int], mask: int) -> int:
        return ~self.child.eval_words(env, mask) & mask

    def _key(self) -> object:
        return self.child

    def to_string(self) -> str:
        inner = self.child.to_string()
        if isinstance(self.child, (Var, Const, Not)):
            return f"!{inner}"
        return f"!({inner})"


class _Nary(Expr):
    """Shared implementation for n-ary associative operators."""

    __slots__ = ("args",)
    _symbol = "?"

    def __init__(self, args: Sequence[Expr]):
        flat: List[Expr] = []
        for arg in args:
            if type(arg) is type(self):
                flat.extend(arg.args)  # type: ignore[attr-defined]
            else:
                flat.append(arg)
        if len(flat) < 2:
            raise ValueError(f"{type(self).__name__} needs at least 2 operands")
        self.args = tuple(flat)

    def _collect_support(self, acc: set) -> None:
        for arg in self.args:
            arg._collect_support(acc)

    def _key(self) -> object:
        return self.args

    def to_string(self) -> str:
        parts = []
        for arg in self.args:
            text = arg.to_string()
            if isinstance(arg, _Nary) and _precedence(arg) < _precedence(self):
                text = f"({text})"
            parts.append(text)
        return self._symbol.join(parts)


class And(_Nary):
    """N-ary conjunction."""

    _symbol = "*"

    def _eval_tt(self, env: Dict[str, TruthTable], n: int) -> TruthTable:
        out = TruthTable.const1(n)
        for arg in self.args:
            out = out & arg._eval_tt(env, n)
        return out

    def eval_words(self, env: Dict[str, int], mask: int) -> int:
        out = mask
        for arg in self.args:
            out &= arg.eval_words(env, mask)
            if not out:
                break
        return out


class Or(_Nary):
    """N-ary disjunction."""

    _symbol = "+"

    def _eval_tt(self, env: Dict[str, TruthTable], n: int) -> TruthTable:
        out = TruthTable.const0(n)
        for arg in self.args:
            out = out | arg._eval_tt(env, n)
        return out

    def eval_words(self, env: Dict[str, int], mask: int) -> int:
        out = 0
        for arg in self.args:
            out |= arg.eval_words(env, mask)
            if out == mask:
                break
        return out


class Xor(_Nary):
    """N-ary exclusive or."""

    _symbol = "^"

    def _eval_tt(self, env: Dict[str, TruthTable], n: int) -> TruthTable:
        out = TruthTable.const0(n)
        for arg in self.args:
            out = out ^ arg._eval_tt(env, n)
        return out

    def eval_words(self, env: Dict[str, int], mask: int) -> int:
        out = 0
        for arg in self.args:
            out ^= arg.eval_words(env, mask)
        return out & mask


def _precedence(node: Expr) -> int:
    if isinstance(node, Or):
        return 1
    if isinstance(node, Xor):
        return 2
    if isinstance(node, And):
        return 3
    return 4


# ----------------------------------------------------------------------
# Tokenizer / parser
# ----------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<ident>[A-Za-z_][A-Za-z0-9_\.\[\]<>]*)"
    r"|(?P<const>[01])"
    r"|(?P<op>[!'*+^()]))"
)

_Token = Tuple[str, str]


def _tokenize(text: str) -> Iterator[_Token]:
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            rest = text[pos:].lstrip()
            if not rest:
                return
            column = len(text) - len(rest) + 1
            raise ParseError(
                f"unexpected character {rest[0]!r} at column {column} in expression"
            )
        pos = match.end()
        if match.lastgroup == "ident":
            name = match.group("ident")
            if name == "CONST0":
                yield ("const", "0")
            elif name == "CONST1":
                yield ("const", "1")
            else:
                yield ("ident", name)
        elif match.lastgroup == "const":
            yield ("const", match.group("const"))
        else:
            yield ("op", match.group("op"))


class _Parser:
    def __init__(self, text: str):
        self.tokens = list(_tokenize(text))
        self.pos = 0
        self.text = text

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> _Token:
        token = self.peek()
        if token is None:
            raise ParseError(f"unexpected end of expression: {self.text!r}")
        self.pos += 1
        return token

    def parse(self) -> Expr:
        expr = self.parse_or()
        if self.peek() is not None:
            raise ParseError(
                f"trailing tokens after expression: {self.text!r}"
            )
        return expr

    def parse_or(self) -> Expr:
        terms = [self.parse_xor()]
        while self.peek() == ("op", "+"):
            self.next()
            terms.append(self.parse_xor())
        return terms[0] if len(terms) == 1 else Or(terms)

    def parse_xor(self) -> Expr:
        terms = [self.parse_and()]
        while self.peek() == ("op", "^"):
            self.next()
            terms.append(self.parse_and())
        return terms[0] if len(terms) == 1 else Xor(terms)

    def parse_and(self) -> Expr:
        terms = [self.parse_factor()]
        while True:
            token = self.peek()
            if token == ("op", "*"):
                self.next()
                terms.append(self.parse_factor())
            elif token is not None and (
                token[0] in ("ident", "const")
                or token == ("op", "(")
                or token == ("op", "!")
            ):
                # Adjacency denotes AND: "a b" == "a*b".
                terms.append(self.parse_factor())
            else:
                break
        return terms[0] if len(terms) == 1 else And(terms)

    def parse_factor(self) -> Expr:
        token = self.peek()
        if token == ("op", "!"):
            self.next()
            return Not(self.parse_factor())
        expr = self.parse_primary()
        while self.peek() == ("op", "'"):
            self.next()
            expr = Not(expr)
        return expr

    def parse_primary(self) -> Expr:
        kind, value = self.next()
        if kind == "ident":
            return Var(value)
        if kind == "const":
            return Const(int(value))
        if (kind, value) == ("op", "("):
            expr = self.parse_or()
            if self.next() != ("op", ")"):
                raise ParseError(f"missing ')' in expression: {self.text!r}")
            return expr
        raise ParseError(f"unexpected token {value!r} in expression: {self.text!r}")


def parse_expr(text: str) -> Expr:
    """Parse a genlib/eqn-style Boolean expression into an :class:`Expr`."""
    return _Parser(text).parse()
