"""NPN canonicalisation of small Boolean functions.

Two functions are NPN-equivalent when one becomes the other under some
input Negation, input Permutation and output Negation.  Gate libraries
are naturally organised by NPN class (all bracketings/phases of the same
class share mapping behaviour), and the canonical form gives a cheap
library fingerprint: :func:`npn_classes` reports how many genuinely
different functions a library offers — e.g. the 44-3 replica's hundreds
of gates collapse to far fewer classes, quantifying its redundancy.

The enumeration is exhaustive (``2^n * n! * 2`` transforms), intended for
the n <= 6 functions that appear as library gates.  Each call runs the
search afresh; there is no memo.  The returned transform is the search's
first-found one achieving the canonical table, checkable with
:func:`apply_transform`: ``apply_transform(t, f) == canonical``.
"""

from __future__ import annotations

from itertools import permutations
from typing import Dict, Iterable, List, NamedTuple, Tuple

from repro.network.functions import TruthTable, negate_inputs_bits, permute_bits

__all__ = [
    "NPNTransform",
    "apply_transform",
    "npn_canonical",
    "npn_classes",
    "npn_equivalent",
]

_MAX_VARS = 6


class NPNTransform(NamedTuple):
    """The transform mapping a function onto its canonical form.

    canonical(x_0..x_{n-1}) =
        output_negate XOR f(y_0..y_{n-1}) where
        y_i = x_{perm[i]} XOR input_negations bit i
    (the convention pinned by a per-minterm oracle in the tests).
    """

    perm: Tuple[int, ...]
    input_negations: int
    output_negate: bool


def _apply(tt: TruthTable, perm: Tuple[int, ...], neg: int, out_neg: bool) -> int:
    """Bits of the transformed function (see :class:`NPNTransform`).

    Packed formulation: transformed[a] = tt[m(a) ^ neg] with
    ``m(a)_i = a_{perm[i]}``, i.e. input negation then word permutation,
    byte-identical to per-minterm evaluation (pinned by a scalar
    reference in the differential tests).
    """
    n = tt.n_vars
    bits = permute_bits(negate_inputs_bits(tt.bits, neg, n), perm, n)
    if out_neg:
        bits ^= (1 << (1 << n)) - 1
    return bits


# ----------------------------------------------------------------------
# Transforms and canonicalisation
# ----------------------------------------------------------------------


def apply_transform(transform: NPNTransform, tt: TruthTable) -> TruthTable:
    """The image of ``tt`` under ``transform`` (see :class:`NPNTransform`)."""
    return TruthTable(
        tt.n_vars,
        _apply(
            tt, transform.perm, transform.input_negations,
            transform.output_negate,
        ),
    )


def npn_canonical(tt: TruthTable) -> Tuple[TruthTable, NPNTransform]:
    """The lexicographically-smallest NPN representative of ``tt``.

    Returns the canonical table and the first transform of the
    exhaustive ``2^n * n! * 2`` search achieving it.
    """
    n = tt.n_vars
    if n > _MAX_VARS:
        raise ValueError(f"NPN canonicalisation limited to {_MAX_VARS} inputs")
    best_bits = None
    best: NPNTransform | None = None
    for perm in permutations(range(n)):
        for neg in range(1 << n):
            for out_neg in (False, True):
                bits = _apply(tt, perm, neg, out_neg)
                if best_bits is None or bits < best_bits:
                    best_bits = bits
                    best = NPNTransform(perm, neg, out_neg)
    assert best is not None and best_bits is not None
    return TruthTable(n, best_bits), best


def npn_equivalent(a: TruthTable, b: TruthTable) -> bool:
    """True when the functions are NPN-equivalent (same input count)."""
    if a.n_vars != b.n_vars:
        return False
    return npn_canonical(a)[0] == npn_canonical(b)[0]


def npn_classes(tables: Iterable[TruthTable]) -> Dict[TruthTable, List[int]]:
    """Group functions by NPN class.

    Returns canonical table -> indices of the inputs belonging to it.
    """
    classes: Dict[TruthTable, List[int]] = {}
    for index, tt in enumerate(tables):
        canonical, _ = npn_canonical(tt)
        classes.setdefault(canonical, []).append(index)
    return classes
