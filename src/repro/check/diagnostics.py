"""Diagnostics framework for the static verification subsystem.

Every problem the :mod:`repro.check` passes can find has a *stable code*
(``N###`` netlist, ``L###`` library, ``C###`` certificate), a fixed
severity, and an optional :class:`~repro.errors.SourceLoc`.  Codes are
append-only: once published in ``docs/CHECKING.md`` a code never changes
meaning, so scripts and CI gates can match on them.

A pass returns a :class:`CheckReport` — an ordered collection of
:class:`Diagnostic` records with severity filters, stable text formatting,
and CLI exit-code policy (:meth:`CheckReport.exit_code`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import SourceLoc

__all__ = [
    "Severity",
    "SourceLoc",
    "CodeInfo",
    "CODES",
    "Diagnostic",
    "CheckReport",
]


class Severity(enum.IntEnum):
    """Diagnostic severity; comparisons follow escalation order."""

    INFO = 0
    WARNING = 1
    ERROR = 2

    def label(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class CodeInfo:
    """Catalog entry for one diagnostic code."""

    code: str
    severity: Severity
    title: str


def _catalog(entries: List[Tuple[str, Severity, str]]) -> Dict[str, CodeInfo]:
    out: Dict[str, CodeInfo] = {}
    for code, severity, title in entries:
        if code in out:
            raise ValueError(f"duplicate diagnostic code {code!r}")
        out[code] = CodeInfo(code, severity, title)
    return out


#: The complete, append-only code catalog (see docs/CHECKING.md).
CODES: Dict[str, CodeInfo] = _catalog(
    [
        # ---------------- netlist / subject-graph lints (N###) --------
        ("N000", Severity.ERROR, "BLIF parse error"),
        ("N001", Severity.ERROR, "combinational cycle"),
        ("N002", Severity.ERROR, "dangling fanin reference"),
        ("N003", Severity.ERROR, "undriven primary output"),
        ("N004", Severity.WARNING, "unreachable logic node"),
        ("N005", Severity.WARNING, "duplicate primary output"),
        ("N006", Severity.ERROR, "undefined latch input"),
        ("N007", Severity.WARNING, "vacuous fanin (function ignores input)"),
        ("N008", Severity.INFO, "constant-function node with inputs"),
        ("N009", Severity.WARNING, "latch-only feedback loop"),
        ("N020", Severity.ERROR, "subject fanout list inconsistent with fanins"),
        ("N021", Severity.ERROR, "subject node order not topological"),
        ("N022", Severity.ERROR, "subject PO driver not in graph"),
        ("N023", Severity.WARNING, "structurally duplicate subject nodes"),
        ("N024", Severity.WARNING, "unreachable subject node"),
        # ---------------- library lints (L###) ------------------------
        ("L000", Severity.ERROR, "genlib parse error"),
        ("L001", Severity.ERROR, "library has no inverter"),
        ("L002", Severity.ERROR, "library has no 2-input NAND"),
        ("L003", Severity.ERROR, "pattern does not implement gate function"),
        ("L004", Severity.WARNING, "NPN-duplicate cell"),
        ("L005", Severity.WARNING, "area-delay dominated cell"),
        ("L006", Severity.WARNING, "non-positive cell area"),
        ("L007", Severity.ERROR, "negative pin block delay"),
        ("L008", Severity.WARNING, "negative load coefficient"),
        ("L009", Severity.INFO, "cell unusable for covering (constant/buffer)"),
        ("L010", Severity.WARNING, "zero-pin cell (empty support)"),
        ("L011", Severity.WARNING, "non-positive pin max load"),
        # ---------------- mapping certificates (C###) -----------------
        ("C001", Severity.ERROR, "primary output not covered"),
        ("C002", Severity.ERROR, "cover illegal: selected match not instantiated"),
        ("C003", Severity.ERROR, "selected match violates its match class"),
        ("C004", Severity.ERROR, "arrival label inconsistent with matches"),
        ("C005", Severity.ERROR, "mapped netlist not equivalent to subject"),
        ("C006", Severity.ERROR, "reported delay differs from labeling bound"),
        ("C007", Severity.ERROR, "mapped netlist structurally broken"),
        ("C008", Severity.ERROR, "no match selected at covered node"),
        ("C009", Severity.WARNING, "reported area differs from netlist area"),
        ("C010", Severity.WARNING, "netlist gate outside the certified cover"),
        ("C011", Severity.ERROR, "recovered cover misses its delay target"),
        # ---------------- match-verification primitives (C1##) --------
        ("C101", Severity.ERROR, "pattern node unbound"),
        ("C102", Severity.ERROR, "pattern edge not preserved"),
        ("C103", Severity.ERROR, "fanin multiset mismatch"),
        ("C104", Severity.ERROR, "mapping not one-to-one"),
        ("C105", Severity.ERROR, "out-degree mismatch (exact match)"),
        ("C106", Severity.ERROR, "root binding mismatch"),
        # ---------------- differential fuzzing oracles (F###) ---------
        ("F001", Severity.ERROR, "DAG cover slower than tree cover"),
        ("F002", Severity.ERROR, "mapped netlist not equivalent to source"),
        ("F003", Severity.ERROR, "packed and scalar engines disagree"),
        ("F004", Severity.ERROR, "mapping certificate rejected"),
        ("F005", Severity.ERROR, "a random cover beats the optimal label"),
        ("F006", Severity.ERROR, "mapper raised an unexpected exception"),
        ("F007", Severity.ERROR, "generated network fails structural lint"),
        ("F008", Severity.WARNING, "shrinker could not preserve the failure"),
        # F009 (structural vs cut matching engine) is retired with the
        # cut engine; the code stays listed so it is never reused.
        ("F009", Severity.ERROR, "retired: structural and cut matching engines disagree"),
        ("F010", Severity.ERROR, "area recovery or multimap violates its contract"),
        ("F011", Severity.ERROR, "incremental (eco) remap differs from from-scratch"),
        # ---------------- eco patch certification (E###) ---------------
        ("E001", Severity.ERROR, "spliced match structurally invalid in edited subject"),
        ("E002", Severity.ERROR, "remapped (dirty-region) match structurally invalid"),
        ("E003", Severity.ERROR, "arrival label inconsistent at patched cover node"),
        ("E004", Severity.ERROR, "primary output missing from patched cover"),
        ("E005", Severity.ERROR, "eco run metadata diverges from base mapping"),
        # ---------------- source static analysis (S###) ----------------
        ("S000", Severity.ERROR, "source file does not parse"),
        ("S101", Severity.ERROR, "module-level random API call (unseeded)"),
        ("S102", Severity.ERROR, "wall-clock time source in library code"),
        ("S103", Severity.WARNING, "order-sensitive iteration over an unordered set"),
        ("S104", Severity.ERROR, "direct os.environ access outside repro.env"),
        ("S201", Severity.ERROR, "unpicklable callable handed to the worker pool"),
        ("S202", Severity.WARNING, "worker-reachable write to a mutable module global"),
        ("S301", Severity.WARNING, "broad exception handler swallows silently"),
        ("S302", Severity.WARNING, "assert used for runtime validation"),
    ]
)


@dataclass(frozen=True)
class Diagnostic:
    """One located, coded finding of a check pass.

    Attributes:
        code: stable catalog code (``N###``/``L###``/``C###``).
        message: human-readable description of this occurrence.
        severity: from the catalog (kept on the record for filtering).
        loc: source location, when the finding maps to a textual input.
        obj: the circuit/library object concerned (node, gate, PO name).
    """

    code: str
    message: str
    severity: Severity
    loc: Optional[SourceLoc] = None
    obj: Optional[str] = None

    def format(self) -> str:
        where = f"{self.loc}: " if self.loc is not None and self.loc.is_known() else ""
        what = f" [{self.obj}]" if self.obj else ""
        return f"{self.code} {self.severity.label():7s} {where}{self.message}{what}"

    def __str__(self) -> str:
        return self.format()


@dataclass
class CheckReport:
    """Ordered diagnostics from one or more passes.

    ``meta`` carries non-diagnostic run metadata (e.g. the simulation
    vector count and seed a certificate's equivalence stage used) so
    runs are reproducible; it never affects :meth:`format`, severities
    or exit codes.
    """

    diagnostics: List[Diagnostic] = field(default_factory=list)
    meta: Dict[str, object] = field(default_factory=dict)

    def add(
        self,
        code: str,
        message: str,
        loc: Optional[SourceLoc] = None,
        obj: Optional[str] = None,
    ) -> Diagnostic:
        """Append a diagnostic; severity comes from the code catalog."""
        info = CODES.get(code)
        if info is None:
            raise KeyError(f"unknown diagnostic code {code!r}")
        diag = Diagnostic(code, message, info.severity, loc=loc, obj=obj)
        self.diagnostics.append(diag)
        return diag

    def extend(self, other: "CheckReport") -> "CheckReport":
        self.diagnostics.extend(other.diagnostics)
        return self

    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def by_severity(self, severity: Severity) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is severity]

    def by_code(self, code: str) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.code == code]

    def errors(self) -> List[Diagnostic]:
        return self.by_severity(Severity.ERROR)

    def warnings(self) -> List[Diagnostic]:
        return self.by_severity(Severity.WARNING)

    @property
    def has_errors(self) -> bool:
        return any(d.severity is Severity.ERROR for d in self.diagnostics)

    def max_severity(self) -> Optional[Severity]:
        if not self.diagnostics:
            return None
        return max(d.severity for d in self.diagnostics)

    def counts(self) -> Dict[str, int]:
        out = {"error": 0, "warning": 0, "info": 0}
        for diag in self.diagnostics:
            out[diag.severity.label()] += 1
        return out

    def exit_code(self, strict: bool = False) -> int:
        """CLI policy: 1 on errors (or, with ``strict``, warnings too)."""
        worst = self.max_severity()
        if worst is None:
            return 0
        if worst is Severity.ERROR:
            return 1
        if strict and worst is Severity.WARNING:
            return 1
        return 0

    def format(self, min_severity: Severity = Severity.INFO) -> str:
        lines = [
            d.format() for d in self.diagnostics if d.severity >= min_severity
        ]
        return "\n".join(lines)

    def summary(self) -> str:
        counts = self.counts()
        return (
            f"{counts['error']} error(s), {counts['warning']} warning(s), "
            f"{counts['info']} info"
        )

    def __repr__(self) -> str:
        return f"CheckReport({self.summary()})"
