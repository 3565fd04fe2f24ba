"""Multiprocessing worker-safety lints (``S2##``).

``S201``  an unpicklable callable handed to a process-dispatch point:
          a ``lambda``, a function nested inside another function (a
          closure), or a bound instance attribute (``self.method``)
          passed as the ``factory`` of
          :func:`repro.perf.stream.stream_jobs` or as a callable inside
          its ``factory_args`` tuple (the ``setup`` that
          ``_task_bundle_factory`` runs in every worker), the
          ``target=`` of a ``Process``, or the callable of a
          ``pool.map``-family call.  Only module-level callables
          survive pickling into a spawned worker — a closure happens to
          work under the fork start method and then breaks on platforms
          that spawn, which is exactly the class of latent bug a
          static check must catch.

``S202``  a write to a *mutable module-level global* from a function
          reachable from the worker entry points of
          :mod:`repro.perf.parallel`.  Worker-side writes to module
          state fork-diverge silently: each process mutates its own
          copy, the parent never sees it, and the same code running on
          the serial path *does* mutate the shared module — the
          serial/parallel byte-equality the batch layer promises then
          depends on nobody reading that state.  Reachability is a
          best-effort static call graph: module-level functions only,
          names resolved through each module's imports, walked from
          ``_worker_main``/``_init_worker``/``_run_task`` and from
          every callable passed as a factory/setup/target at a
          dispatch point; a function that reads a module-level
          dispatch table (a dict of module functions) reaches every
          function in it.  Intentional per-process state (the worker's
          own ``_STATE``, process-local counters that are explicitly
          merged) carries an inline ``# repro: allow[S202]`` with its
          justification.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.check.source.model import (
    Finding,
    ModuleInfo,
    local_bindings,
    root_name,
)

__all__ = ["check_package", "ENTRY_POINTS"]

#: Hard-coded worker entry points (module-qualified); dispatch-point
#: ``setup=``/``target=`` arguments found in the tree are added to
#: these at analysis time.
ENTRY_POINTS: Tuple[str, ...] = (
    "repro.perf.parallel._worker_main",
    "repro.perf.parallel._init_worker",
    "repro.perf.parallel._run_task",
)

#: Methods that mutate their receiver in place.
_MUTATORS = {
    "add", "append", "appendleft", "clear", "discard", "extend", "insert",
    "pop", "popitem", "remove", "setdefault", "update",
}

#: ``pool.<method>`` names whose first argument crosses into workers.
_POOL_METHODS = {"map", "imap", "imap_unordered", "starmap", "apply_async"}


@dataclass
class _FunctionRecord:
    """Static summary of one module-level function."""

    qualname: str
    node: ast.AST
    calls: Set[str] = field(default_factory=set)
    writes: List[Tuple[str, str, int, int]] = field(default_factory=list)
    # (global name, description, line, col)


def _is_immutable_value(node: Optional[ast.expr]) -> bool:
    """Conservative: literals and tuples/frozensets of literals only."""
    if node is None:
        return True
    if isinstance(node, ast.Constant):
        return True
    if isinstance(node, ast.UnaryOp):
        return _is_immutable_value(node.operand)
    if isinstance(node, ast.BinOp):
        return _is_immutable_value(node.left) and _is_immutable_value(node.right)
    if isinstance(node, ast.Tuple):
        return all(_is_immutable_value(el) for el in node.elts)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("frozenset", "tuple") and all(
            _is_immutable_value(arg) for arg in node.args
        )
    if isinstance(node, (ast.Name, ast.Attribute, ast.Lambda)):
        return True  # aliases and callables: rebinding is what matters
    return False


def _module_assignments(
    info: ModuleInfo,
) -> Iterator[Tuple[List[str], Optional[ast.expr]]]:
    """``(target names, value)`` of every module-level assignment."""
    for stmt in info.tree.body:
        if isinstance(stmt, ast.Assign):
            yield [t.id for t in stmt.targets if isinstance(t, ast.Name)], stmt.value
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            yield [stmt.target.id], stmt.value


def _mutable_globals(info: ModuleInfo) -> Set[str]:
    names: Set[str] = set()
    for targets, value in _module_assignments(info):
        if not _is_immutable_value(value):
            names.update(targets)
    return names


def _resolve(info: ModuleInfo, func: ast.expr,
             local_functions: Set[str]) -> Optional[str]:
    """Resolve a callable expression to a dotted target, best effort."""
    if isinstance(func, ast.Name):
        if func.id in local_functions:
            return f"{info.module}.{func.id}"
        imported = info.imported_names.get(func.id)
        if imported is not None:
            return f"{imported[0]}.{imported[1]}"
        return None
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        target = info.module_aliases.get(func.value.id)
        if target is not None:
            return f"{target}.{func.attr}"
    return None


def check_package(
    infos: Sequence[ModuleInfo],
) -> Dict[str, List[Finding]]:
    """Run both worker-safety lints over the whole analyzed tree.

    Returns findings grouped by each module's ``rel`` path (the
    package-wide call graph means a finding in one file can be caused
    by a dispatch point in another).
    """
    functions: Dict[str, _FunctionRecord] = {}
    findings_by_module: Dict[str, List[Finding]] = {
        info.rel: [] for info in infos
    }
    entrypoints: Set[str] = set(ENTRY_POINTS)

    for info in infos:
        _scan_module(info, functions, entrypoints, findings_by_module[info.rel])

    reachable = _walk(functions, entrypoints)
    for qualname in sorted(reachable):
        record = functions.get(qualname)
        if record is None:
            continue
        for name, how, line, col in record.writes:
            rel = _module_rel(infos, qualname)
            if rel is None:
                continue
            findings_by_module[rel].append(Finding(
                "S202",
                f"{how} mutates module-level {name!r} in a function "
                "reachable from the worker entry points; worker copies "
                "fork-diverge from the parent silently",
                line, col, obj=qualname.rsplit(".", 1)[-1],
            ))
    return findings_by_module


def _module_rel(infos: Sequence[ModuleInfo], qualname: str) -> Optional[str]:
    module = qualname.rsplit(".", 1)[0]
    for info in infos:
        if info.module == module:
            return info.rel
    return None


def _walk(functions: Dict[str, _FunctionRecord],
          entrypoints: Set[str]) -> Set[str]:
    seen: Set[str] = set()
    frontier = [name for name in sorted(entrypoints) if name in functions]
    while frontier:
        qualname = frontier.pop()
        if qualname in seen:
            continue
        seen.add(qualname)
        record = functions[qualname]
        for callee in sorted(record.calls):
            if callee in functions and callee not in seen:
                frontier.append(callee)
    return seen


def _scan_module(
    info: ModuleInfo,
    functions: Dict[str, _FunctionRecord],
    entrypoints: Set[str],
    findings: List[Finding],
) -> None:
    mutable = _mutable_globals(info)
    local_functions = {
        stmt.name
        for stmt in info.tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    local_classes = {
        stmt.name for stmt in info.tree.body if isinstance(stmt, ast.ClassDef)
    }
    # Module-level dispatch tables: name -> the module functions listed.
    tables: Dict[str, Set[str]] = {
        name: {
            f"{info.module}.{entry.id}" for entry in value.values
            if isinstance(entry, ast.Name) and entry.id in local_functions
        }
        for names, value in _module_assignments(info)
        if isinstance(value, ast.Dict)
        for name in names
    }

    def classify_callable(expr: ast.expr,
                          enclosing: List[ast.AST]) -> Optional[str]:
        """A human-readable problem description, or None when safe."""
        if isinstance(expr, ast.Lambda):
            return "a lambda cannot be pickled into a spawned worker"
        if isinstance(expr, ast.Name):
            for func in enclosing:
                nested = {
                    sub.name
                    for sub in ast.walk(func)
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and sub is not func
                }
                if expr.id in nested:
                    return (
                        f"nested function {expr.id!r} is a closure; only "
                        "module-level callables are picklable"
                    )
            return None
        if isinstance(expr, ast.Attribute):
            root = root_name(expr)
            if root is None:
                return "a computed callable cannot be verified picklable"
            if root in info.module_aliases or root in local_classes:
                return None
            return (
                f"bound attribute {ast.unparse(expr)!r} is not a "
                "module-level callable; it will not pickle into a "
                "spawned worker"
            )
        return None

    def argument(node: ast.Call, position: int,
                 keyword: str) -> Optional[ast.expr]:
        for kw in node.keywords:
            if kw.arg == keyword:
                return kw.value
        return node.args[position] if len(node.args) > position else None

    def dispatch_callables(node: ast.Call) -> List[ast.expr]:
        """The callable arguments of a dispatch point, if this is one."""
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None
        )
        if name == "stream_jobs":
            found = [argument(node, 1, "factory")]
            factory_args = argument(node, 2, "factory_args")
            if isinstance(factory_args, ast.Tuple):
                # Data arguments are names too; only lambdas and plain
                # names can be callables handed on to the workers.
                found.extend(
                    el for el in factory_args.elts
                    if isinstance(el, (ast.Lambda, ast.Name))
                )
            return [expr for expr in found if expr is not None]
        if name == "Process":
            target = argument(node, 1, "target")
            return [target] if target is not None else []
        if (
            isinstance(func, ast.Attribute)
            and name in _POOL_METHODS
            and node.args
        ):
            return [node.args[0]]
        return []

    def scan(node: ast.AST, record: Optional[_FunctionRecord],
             enclosing: List[ast.AST]) -> None:
        if (
            record is not None
            and isinstance(node, ast.Name)
            and node.id in tables
            and node.id not in local_bindings(record.node)
        ):
            record.calls.update(tables[node.id])
        if isinstance(node, ast.Call):
            for callable_arg in dispatch_callables(node):
                problem = classify_callable(callable_arg, enclosing)
                if problem is not None:
                    findings.append(Finding(
                        "S201", problem,
                        callable_arg.lineno, callable_arg.col_offset,
                    ))
                else:
                    resolved = _resolve(info, callable_arg, local_functions)
                    if resolved is not None:
                        entrypoints.add(resolved)
            if record is not None:
                resolved = _resolve(info, node.func, local_functions)
                if resolved is not None:
                    record.calls.add(resolved)
                # A mutator method on a module global is a write.
                if isinstance(node.func, ast.Attribute):
                    root = root_name(node.func)
                    if (
                        root in mutable
                        and node.func.attr in _MUTATORS
                        and root not in local_bindings(record.node)
                    ):
                        record.writes.append((
                            root, f".{node.func.attr}()",
                            node.lineno, node.col_offset,
                        ))
        elif record is not None and isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if isinstance(target, (ast.Subscript, ast.Attribute)):
                    root = root_name(target)
                    if (
                        root in mutable
                        and root not in local_bindings(record.node)
                    ):
                        record.writes.append((
                            root, "assignment",
                            target.lineno, target.col_offset,
                        ))
        elif record is not None and isinstance(node, ast.Global):
            declared = set(node.names)
            for sub in ast.walk(record.node):
                if isinstance(sub, (ast.Assign, ast.AugAssign)):
                    subtargets = (
                        sub.targets if isinstance(sub, ast.Assign)
                        else [sub.target]
                    )
                    for target in subtargets:
                        if (
                            isinstance(target, ast.Name)
                            and target.id in declared
                        ):
                            record.writes.append((
                                target.id, "global rebinding",
                                target.lineno, target.col_offset,
                            ))
        next_enclosing = enclosing
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            next_enclosing = enclosing + [node]
        for child in ast.iter_child_nodes(node):
            scan(child, record, next_enclosing)

    # Module-level statements outside any function (dispatch points can
    # appear there too; writes there run at import time and are fine).
    for stmt in info.tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            record = _FunctionRecord(f"{info.module}.{stmt.name}", stmt)
            functions[record.qualname] = record
            scan(stmt, record, [stmt])
        else:
            scan(stmt, None, [])
