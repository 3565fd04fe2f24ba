"""BLIF (Berkeley Logic Interchange Format) reader and writer.

Supports the subset SIS-era tools exchange: ``.model``, ``.inputs``,
``.outputs``, ``.names`` with PLA-style single-output covers, ``.latch``
(with optional initial value; clock specifications are ignored), and
``.end``.  Covers may be given as on-set (output value ``1``) or off-set
(``0``) rows; ``-`` is a don't-care input literal.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.errors import NetworkError, ParseError
from repro.network.bnet import BooleanNetwork, INIT_UNKNOWN
from repro.network.functions import MAX_VARS, TruthTable, cube_to_tt

__all__ = ["read_blif", "write_blif", "loads_blif", "dumps_blif"]


def _logical_lines(text: str) -> Iterable[Tuple[int, List[str]]]:
    """Yield (line number, tokens) with continuation ('\\') handling."""
    pending: List[str] = []
    pending_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip() and not pending:
            continue
        if line.endswith("\\"):
            if not pending:
                pending_line = lineno
            pending.extend(line[:-1].split())
            continue
        tokens = pending + line.split()
        start = pending_line if pending else lineno
        pending = []
        if tokens:
            yield start, tokens
    if pending:
        yield pending_line, pending


def _cover_to_tt(rows: Sequence[Tuple[str, str]], n_inputs: int, lineno: int) -> TruthTable:
    """Convert PLA rows [(input pattern, output value)] to a truth table."""
    if not rows:
        # ".names x" with no rows is constant 0 by BLIF convention.
        return TruthTable.const0(n_inputs)
    out_values = {value for _, value in rows}
    if out_values - {"0", "1"}:
        raise ParseError(f"bad output value in cover: {out_values}", lineno)
    if len(out_values) > 1:
        raise ParseError("cover mixes on-set and off-set rows", lineno)
    table = TruthTable.const0(n_inputs)
    for pattern, _ in rows:
        if len(pattern) != n_inputs:
            raise ParseError(
                f"cover row {pattern!r} has {len(pattern)} literals, "
                f"expected {n_inputs}",
                lineno,
            )
        cube = []
        for idx, ch in enumerate(pattern):
            if ch == "1":
                cube.append((idx, True))
            elif ch == "0":
                cube.append((idx, False))
            elif ch != "-":
                raise ParseError(f"bad literal {ch!r} in cover row", lineno)
        table = table | cube_to_tt(tuple(cube), n_inputs)
    if out_values == {"0"}:
        table = ~table
    return table


def loads_blif(
    text: str, name_hint: str = "blif", filename: Optional[str] = None
) -> BooleanNetwork:
    """Parse BLIF text into a :class:`BooleanNetwork`.

    ``filename`` (when given) is attached to every :class:`ParseError`
    alongside the line number and, where sensible, the offending token.
    Structural problems hit during construction (duplicate signals,
    dangling references found by ``net.check()``) are reported as located
    parse errors too, never as bare tracebacks.
    """
    net = BooleanNetwork(name_hint)
    outputs: List[str] = []
    pending_names: Tuple[int, List[str]] | None = None
    pending_rows: List[Tuple[str, str]] = []
    saw_model = False

    def err(
        message: str, lineno: Optional[int], token: Optional[str] = None
    ) -> ParseError:
        return ParseError(message, line=lineno, file=filename, token=token)

    def flush_names() -> None:
        nonlocal pending_names, pending_rows
        if pending_names is None:
            return
        lineno, signals = pending_names
        *fanins, output = signals
        if len(fanins) > MAX_VARS:
            raise err(
                f".names node has {len(fanins)} inputs; node functions are "
                f"truth tables of at most {MAX_VARS} inputs",
                lineno,
                token=output,
            )
        try:
            if len(fanins) == 0:
                if not pending_rows:
                    tt = TruthTable.const0(0)
                else:
                    tt = _cover_to_tt(
                        [("", v) for _, v in pending_rows], 0, lineno
                    )
                net.add_node(output, tt, [])
            else:
                tt = _cover_to_tt(pending_rows, len(fanins), lineno)
                net.add_node(output, tt, fanins)
        except NetworkError as exc:
            raise err(str(exc), lineno, token=output) from exc
        except ParseError as exc:
            if exc.file is None and filename is not None:
                raise err(exc.bare_message, exc.line or lineno,
                          token=exc.token) from exc
            raise
        pending_names = None
        pending_rows = []

    for lineno, tokens in _logical_lines(text):
        head = tokens[0]
        if head.startswith("."):
            if head != ".names":
                flush_names()
            if head == ".model":
                if saw_model:
                    raise err("multiple .model sections unsupported", lineno,
                              token=" ".join(tokens))
                saw_model = True
                if len(tokens) > 1:
                    net.name = tokens[1]
            elif head == ".inputs":
                for sig in tokens[1:]:
                    try:
                        net.add_pi(sig)
                    except NetworkError as exc:
                        raise err(str(exc), lineno, token=sig) from exc
            elif head == ".outputs":
                outputs.extend(tokens[1:])
            elif head == ".names":
                flush_names()
                if len(tokens) < 2:
                    raise err(".names needs at least an output", lineno)
                pending_names = (lineno, tokens[1:])
            elif head == ".latch":
                if len(tokens) < 3:
                    raise err(".latch needs input and output", lineno)
                inp, out = tokens[1], tokens[2]
                init = INIT_UNKNOWN
                if tokens[-1] in ("0", "1", "2", "3"):
                    init = int(tokens[-1])
                try:
                    net.add_latch(inp, out, init)
                except NetworkError as exc:
                    raise err(str(exc), lineno, token=out) from exc
            elif head == ".end":
                break
            elif head in (".exdc", ".clock", ".wire_load_slope", ".default_input_arrival"):
                continue  # harmless extensions we ignore
            else:
                raise err(f"unsupported BLIF construct {head!r}", lineno, token=head)
        else:
            if pending_names is None:
                raise err(f"unexpected tokens {tokens!r}", lineno, token=tokens[0])
            if len(tokens) == 1:
                # Zero-input cover row: just the output value.
                pending_rows.append(("", tokens[0]))
            elif len(tokens) == 2:
                pending_rows.append((tokens[0], tokens[1]))
            else:
                raise err(f"bad cover row {tokens!r}", lineno, token=" ".join(tokens))

    flush_names()
    for sig in outputs:
        net.add_po(sig)
    try:
        net.check()
    except NetworkError as exc:
        raise err(str(exc), None) from exc
    return net


def read_blif(path: Union[str, os.PathLike]) -> BooleanNetwork:
    """Read a BLIF file from disk."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return loads_blif(
        text,
        name_hint=os.path.splitext(os.path.basename(path))[0],
        filename=os.fspath(path),
    )


def dumps_blif(net: BooleanNetwork) -> str:
    """Serialise a network to BLIF text (on-set covers via ISOP)."""
    lines: List[str] = [f".model {net.name}"]
    if net.pis:
        lines.append(".inputs " + " ".join(net.pis))
    if net.pos:
        lines.append(".outputs " + " ".join(net.pos))
    for latch in net.latches:
        lines.append(f".latch {latch.input} {latch.output} {latch.init}")
    for node in net.topological_order():
        lines.append(".names " + " ".join(list(node.fanins) + [node.name]))
        n = len(node.fanins)
        cubes = node.tt.isop()
        if node.tt.is_const1():
            lines.append("1" if n == 0 else "-" * n + " 1")
        else:
            for cube in cubes:
                row = ["-"] * n
                for var, phase in cube:
                    row[var] = "1" if phase else "0"
                lines.append("".join(row) + " 1" if n else "1")
    lines.append(".end")
    return "\n".join(lines) + "\n"


def write_blif(net: BooleanNetwork, path: Union[str, os.PathLike]) -> None:
    """Write a network to a BLIF file."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps_blif(net))
