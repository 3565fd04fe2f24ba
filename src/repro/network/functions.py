"""Truth-table representation of small Boolean functions.

A :class:`TruthTable` stores a function of ``n_vars`` inputs as a Python
integer bit vector with ``2**n_vars`` bits: bit ``i`` holds the function
value on the input assignment whose variable ``j`` equals bit ``j`` of
``i``.  Python's arbitrary-precision integers make this representation
exact and fast for the node-local functions technology mapping deals with
(gate functions of up to 16 inputs, LUT functions of up to ~8 inputs).

Wide node functions (up to :data:`MAX_VARS` inputs, from BLIF ``.names``)
never loop over their ``2**n_vars`` minterms in Python:

* :meth:`TruthTable.shrunk` moves the support to the low inputs with
  O(n_vars) packed delta swaps (:meth:`TruthTable.permuted`) and keeps
  the low ``2**len(support)`` lanes;
* :meth:`TruthTable.eval_words` Shannon-expands the table over packed
  input words, evaluating each distinct cofactor once through a memo
  local to the call, so its cost is the number of distinct cofactors
  (the BDD size) rather than the number of leaves.

The module also provides irredundant sum-of-products extraction
(Minato-Morreale ISOP), which the technology decomposer uses to turn node
functions into two-level forms before NAND2-INV decomposition.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

#: A cube is a tuple of (variable index, phase) literals; phase True means
#: the positive literal.  The empty cube is the constant-1 cube.
Cube = Tuple[Tuple[int, bool], ...]

#: Widest function a truth table holds (2**20 bits = 128 KiB per table).
MAX_VARS = 20


def _full_mask(n_vars: int) -> int:
    return (1 << (1 << n_vars)) - 1


# ----------------------------------------------------------------------
# Packed-word primitives (the bit-parallel kernel's integer layer)
#
# A *word* is a Python int holding one function value per bit lane; over
# 2**n_vars lanes in minterm order a word IS a truth table.  These
# helpers are pure integer->integer operations so the bit-parallel
# simulation kernel (repro.network.bitsim), the NPN canonicalizer and
# the TruthTable methods below can share them.
# ----------------------------------------------------------------------


@lru_cache(maxsize=None)
def variable_bits(index: int, n_vars: int) -> int:
    """Packed word of the projection function ``x_index`` over ``2**n_vars`` lanes.

    Built by doubling (O(n_vars) big-int ops) instead of one Python-loop
    iteration per period, and cached: the tiling words are shared by every
    exhaustive simulation, pattern evaluation and pin-class computation.
    """
    if not 0 <= index < n_vars:
        raise ValueError(f"variable index {index} out of range for {n_vars} vars")
    period = 1 << index
    word = ((1 << period) - 1) << period
    width = period * 2
    total = 1 << n_vars
    while width < total:
        word |= word << width
        width *= 2
    return word


def swap_vars_bits(bits: int, i: int, j: int, n_vars: int) -> int:
    """Exchange variables ``i`` and ``j``: result[a] = bits[a with bits i,j swapped].

    The classic delta-swap: lanes where the two variable bits differ are
    exchanged with their partner ``(1 << j) - (1 << i)`` positions away,
    in O(1) big-int operations.
    """
    if not (0 <= i < n_vars and 0 <= j < n_vars):
        raise ValueError("swap index out of range")
    if i == j:
        return bits
    if i > j:
        i, j = j, i
    delta = (1 << j) - (1 << i)
    pairs = variable_bits(i, n_vars) & ~variable_bits(j, n_vars)
    t = ((bits >> delta) ^ bits) & pairs
    return bits ^ t ^ (t << delta)


def permute_bits(bits: int, perm: Sequence[int], n_vars: int) -> int:
    """Apply an input permutation: result[a] = bits[b] where b_i = a_{perm[i]}.

    This is the transform the NPN enumeration uses (variable ``i`` of the
    result reads variable ``perm[i]`` of the assignment).  Decomposed into
    delta swaps: each step right-multiplies the residual permutation by a
    transposition, fixing one more position, so at most ``n_vars - 1``
    swaps run.
    """
    residual = list(perm)
    if sorted(residual) != list(range(n_vars)):
        raise ValueError("perm must be a permutation of the input indices")
    for i in range(n_vars):
        while residual[i] != i:
            j = residual[i]
            bits = swap_vars_bits(bits, i, j, n_vars)
            residual[i], residual[j] = residual[j], residual[i]
    return bits


def negate_inputs_bits(bits: int, negations: int, n_vars: int) -> int:
    """Complement a subset of inputs: result[a] = bits[a ^ negations].

    Bit ``i`` of ``negations`` flips variable ``i`` by exchanging the two
    Shannon halves along that variable — one shift pair per set bit.
    """
    full = _full_mask(n_vars)
    for i in range(n_vars):
        if (negations >> i) & 1:
            period = 1 << i
            vmask = variable_bits(i, n_vars)
            bits = ((bits & vmask) >> period) | ((bits & ~vmask & full) << period)
    return bits


def invert_permutation(perm: Sequence[int]) -> List[int]:
    """The inverse permutation: ``out[perm[i]] = i``."""
    out = [0] * len(perm)
    for i, p in enumerate(perm):
        out[p] = i
    return out


class TruthTable:
    """An immutable Boolean function of ``n_vars`` ordered inputs.

    Bit ``i`` of :attr:`bits` is the value of the function on the
    assignment where input ``j`` takes bit ``j`` of ``i``.
    """

    __slots__ = ("n_vars", "bits")

    def __init__(self, n_vars: int, bits: int):
        if not 0 <= n_vars <= MAX_VARS:
            raise ValueError(f"n_vars must be in [0, {MAX_VARS}], got {n_vars}")
        mask = _full_mask(n_vars)
        if not 0 <= bits <= mask:
            raise ValueError("bits out of range for the declared variable count")
        self.n_vars = n_vars
        self.bits = bits

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def const0(cls, n_vars: int = 0) -> "TruthTable":
        """The constant-0 function of ``n_vars`` inputs."""
        return cls(n_vars, 0)

    @classmethod
    def const1(cls, n_vars: int = 0) -> "TruthTable":
        """The constant-1 function of ``n_vars`` inputs."""
        return cls(n_vars, _full_mask(n_vars))

    @classmethod
    def variable(cls, index: int, n_vars: int) -> "TruthTable":
        """The projection function returning input ``index``."""
        return cls(n_vars, variable_bits(index, n_vars))

    @classmethod
    def from_function(cls, fn: Callable[..., int], n_vars: int) -> "TruthTable":
        """Tabulate ``fn`` (taking ``n_vars`` 0/1 arguments) into a table."""
        bits = 0
        for i in range(1 << n_vars):
            args = [(i >> j) & 1 for j in range(n_vars)]
            if fn(*args):
                bits |= 1 << i
        return cls(n_vars, bits)

    @classmethod
    def from_minterms(cls, minterms: Sequence[int], n_vars: int) -> "TruthTable":
        """Build a table from the list of on-set minterm indices."""
        bits = 0
        for m in minterms:
            if not 0 <= m < (1 << n_vars):
                raise ValueError(f"minterm {m} out of range")
            bits |= 1 << m
        return cls(n_vars, bits)

    # ------------------------------------------------------------------
    # Logical operators (operands must agree on n_vars)
    # ------------------------------------------------------------------
    def _check_arity(self, other: "TruthTable") -> None:
        if self.n_vars != other.n_vars:
            raise ValueError("truth tables have different variable counts")

    def __and__(self, other: "TruthTable") -> "TruthTable":
        self._check_arity(other)
        return TruthTable(self.n_vars, self.bits & other.bits)

    def __or__(self, other: "TruthTable") -> "TruthTable":
        self._check_arity(other)
        return TruthTable(self.n_vars, self.bits | other.bits)

    def __xor__(self, other: "TruthTable") -> "TruthTable":
        self._check_arity(other)
        return TruthTable(self.n_vars, self.bits ^ other.bits)

    def __invert__(self) -> "TruthTable":
        return TruthTable(self.n_vars, self.bits ^ _full_mask(self.n_vars))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruthTable):
            return NotImplemented
        return self.n_vars == other.n_vars and self.bits == other.bits

    def __hash__(self) -> int:
        return hash((self.n_vars, self.bits))

    def __repr__(self) -> str:
        width = (1 << self.n_vars) // 4 or 1
        return f"TruthTable({self.n_vars}, 0x{self.bits:0{width}x})"

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def evaluate(self, assignment: int) -> int:
        """Value of the function on an assignment encoded as an integer."""
        if not 0 <= assignment < (1 << self.n_vars):
            raise ValueError("assignment out of range")
        return (self.bits >> assignment) & 1

    def eval_words(self, words: Sequence[int], mask: int) -> int:
        """Bit-parallel evaluation over packed input words.

        ``words[j]`` carries one bit per simulation vector for input ``j``;
        ``mask`` selects the active bit positions.  Returns the packed
        output word.  Uses Shannon expansion on the highest variable,
        evaluating each distinct cofactor once.
        """
        if len(words) != self.n_vars:
            raise ValueError("wrong number of input words")
        return _eval_words_rec(self.bits, self.n_vars, words, mask, {})

    def is_const0(self) -> bool:
        return self.bits == 0

    def is_const1(self) -> bool:
        return self.bits == _full_mask(self.n_vars)

    def is_constant(self) -> bool:
        return self.is_const0() or self.is_const1()

    def depends_on(self, index: int) -> bool:
        """True if the function actually depends on input ``index``."""
        return self.cofactor(index, 0) != self.cofactor(index, 1)

    def support(self) -> List[int]:
        """Indices of inputs the function actually depends on."""
        return [i for i in range(self.n_vars) if self.depends_on(i)]

    def count_ones(self) -> int:
        """Number of on-set minterms."""
        return bin(self.bits).count("1")

    def minterms(self) -> Iterator[int]:
        """Iterate over on-set minterm indices in increasing order."""
        bits = self.bits
        i = 0
        while bits:
            if bits & 1:
                yield i
            bits >>= 1
            i += 1

    # ------------------------------------------------------------------
    # Structural operations
    # ------------------------------------------------------------------
    def cofactor(self, index: int, value: int) -> "TruthTable":
        """Shannon cofactor with input ``index`` fixed to ``value``.

        The result keeps the same variable count (the fixed variable
        becomes vacuous), which keeps index bookkeeping simple.
        """
        if not 0 <= index < self.n_vars:
            raise ValueError("cofactor index out of range")
        period = 1 << index
        vmask = variable_bits(index, self.n_vars)
        if value:
            keep = self.bits & vmask
            out = keep | (keep >> period)
        else:
            keep = self.bits & ~vmask & _full_mask(self.n_vars)
            out = keep | (keep << period)
        return TruthTable(self.n_vars, out)

    def permuted(self, perm: Sequence[int]) -> "TruthTable":
        """Reorder inputs: new input ``i`` is old input ``perm[i]``."""
        if sorted(perm) != list(range(self.n_vars)):
            raise ValueError("perm must be a permutation of the input indices")
        # permuted(): new input i is old input perm[i], i.e. result[a] =
        # bits[b] with b_{perm[j]} = a_j — permute_bits with the inverse.
        return TruthTable(
            self.n_vars,
            permute_bits(self.bits, invert_permutation(perm), self.n_vars),
        )

    def extended(self, n_vars: int) -> "TruthTable":
        """Pad with vacuous high-order inputs up to ``n_vars`` total."""
        if n_vars < self.n_vars:
            raise ValueError("cannot shrink a truth table; use shrunk()")
        bits = self.bits
        size = 1 << self.n_vars
        for _ in range(n_vars - self.n_vars):
            bits |= bits << size
            size *= 2
        return TruthTable(n_vars, bits)

    def shrunk(self) -> Tuple["TruthTable", List[int]]:
        """Drop vacuous inputs.

        Returns the compacted table and the list mapping new input index to
        old input index.
        """
        keep = self.support()
        rest = [i for i in range(self.n_vars) if i not in keep]
        # Move the support to the low inputs; the vacuous high inputs then
        # only repeat the low 2**len(keep) lanes, which are the result.
        moved = self.permuted(keep + rest)
        return TruthTable(len(keep), moved.bits & _full_mask(len(keep))), keep

    # ------------------------------------------------------------------
    # Two-level forms
    # ------------------------------------------------------------------
    def isop(self) -> List[Cube]:
        """Irredundant sum-of-products cover (Minato-Morreale ISOP).

        Returns a list of cubes covering exactly the on-set.  The constant-1
        function yields ``[()]`` (one empty cube); constant 0 yields ``[]``.
        """
        cover, _ = _isop(self.bits, self.bits, self.n_vars, self.n_vars)
        return cover

    def to_sop_string(self, names: Sequence[str] | None = None) -> str:
        """Human-readable SOP using ``names`` (defaults to x0, x1, ...)."""
        if names is None:
            names = [f"x{i}" for i in range(self.n_vars)]
        cubes = self.isop()
        if not cubes:
            return "0"
        terms = []
        for cube in cubes:
            if not cube:
                return "1"
            lits = [names[v] if phase else f"!{names[v]}" for v, phase in cube]
            terms.append("*".join(lits))
        return " + ".join(terms)


def _eval_words_rec(
    bits: int,
    n_vars: int,
    words: Sequence[int],
    mask: int,
    memo: Dict[Tuple[int, int], int],
) -> int:
    """Shannon-expand ``bits`` (a 2**n_vars table) over packed input words.

    ``memo`` is keyed by (sub-table, level) and lives for one evaluation,
    so each distinct cofactor is evaluated once: the cost is the number
    of distinct cofactors (the BDD size), not the 2**n_vars leaves.
    """
    size = 1 << n_vars
    full = (1 << size) - 1
    if bits == 0:
        return 0
    if bits == full:
        return mask
    key = (bits, n_vars)
    out = memo.get(key)
    if out is None:
        half = size >> 1
        low = bits & ((1 << half) - 1)
        high = bits >> half
        word = words[n_vars - 1]
        out = (
            (~word & _eval_words_rec(low, n_vars - 1, words, mask, memo))
            | (word & _eval_words_rec(high, n_vars - 1, words, mask, memo))
        ) & mask
        memo[key] = out
    return out


def _isop(lower: int, upper: int, n_vars: int, total_vars: int) -> Tuple[List[Cube], int]:
    """Minato-Morreale recursion on the interval [lower, upper].

    ``lower`` is the set that must be covered, ``upper`` the set that may be
    covered; both are bit vectors over ``2**total_vars`` positions but only
    the low ``2**n_vars`` bits of the *sub*problem are meaningful at each
    recursion level.  Returns (cover, bits actually covered).
    """
    if lower == 0:
        return [], 0
    size = 1 << n_vars
    full = (1 << size) - 1
    if upper & full == full:
        return [()], full
    if n_vars == 0:
        # lower != 0 and upper != full is impossible since lower <= upper.
        return [()], 1
    half = size // 2
    half_mask = (1 << half) - 1
    var = n_vars - 1

    l0, l1 = lower & half_mask, (lower >> half) & half_mask
    u0, u1 = upper & half_mask, (upper >> half) & half_mask

    # Cubes that must contain the negative literal of `var`.
    cover0, covered0 = _isop(l0 & ~u1 & half_mask, u0, var, total_vars)
    # Cubes that must contain the positive literal.
    cover1, covered1 = _isop(l1 & ~u0 & half_mask, u1, var, total_vars)
    # What remains must be covered by cubes independent of `var`.
    rest_l = (l0 & ~covered0 & half_mask) | (l1 & ~covered1 & half_mask)
    cover2, covered2 = _isop(rest_l, u0 & u1, var, total_vars)

    cover = (
        [cube + ((var, False),) for cube in cover0]
        + [cube + ((var, True),) for cube in cover1]
        + cover2
    )
    covered = (covered0 | covered2) | ((covered1 | covered2) << half)
    return cover, covered


def cube_to_tt(cube: Cube, n_vars: int) -> TruthTable:
    """Truth table of a single cube over ``n_vars`` inputs."""
    table = TruthTable.const1(n_vars)
    for var, phase in cube:
        lit = TruthTable.variable(var, n_vars)
        table = table & lit if phase else table & ~lit
    return table


def sop_to_tt(cubes: Sequence[Cube], n_vars: int) -> TruthTable:
    """Truth table of a sum of cubes."""
    table = TruthTable.const0(n_vars)
    for cube in cubes:
        table = table | cube_to_tt(cube, n_vars)
    return table
