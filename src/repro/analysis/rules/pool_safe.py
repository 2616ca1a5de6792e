"""POOL-SAFE: no module-level mutable state written from worker code.

``scenarios/runner.py`` fans run points out over a fork-based process
pool.  Any function reachable from a pool worker that *writes*
module-level mutable state is a hazard twice over:

* under fork, each worker mutates its own copy-on-write clone, so the
  parent silently never sees the write (stale caches, lost metrics);
* under spawn — or if the code is ever run threaded — the same write
  becomes a cross-run ordering dependency, the exact class of
  nondeterminism the golden fingerprints exist to catch.

The rule collects module-level names bound to mutable containers
(dict/list/set literals or constructor calls) and flags, from inside
any function or method body:

* subscript stores (``CACHE[key] = value``) and deletes,
* mutating method calls (``append``, ``update``, ``clear``,
  ``setdefault``, ``pop``, ...),
* augmented assignment to the name,
* rebinding via a ``global`` declaration plus assignment.

Per-process memoisation of *deterministic* values is a legitimate
pattern (the schema/database caches) — such sites belong in the
baseline with a justification, so each new cache gets a review instead
of a free pass.
"""

from __future__ import annotations

import ast

from repro.analysis.findings import Finding
from repro.analysis.rules import (
    FileContext,
    FileRule,
    dotted_name,
    enclosing_names,
)

#: Files whose functions run inside fork-pool workers.
POOL_WORKER_PATHS = frozenset(
    {
        "scenarios/runner.py",
    }
)

_MUTATING_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "remove",
        "pop",
        "popitem",
        "clear",
        "update",
        "setdefault",
        "add",
        "discard",
        "sort",
        "reverse",
        "intersection_update",
        "difference_update",
        "symmetric_difference_update",
        "appendleft",
        "extendleft",
    }
)


def _module_mutables(tree: ast.Module) -> set[str]:
    """Module-level names bound to mutable containers."""
    names: set[str] = set()
    for node in tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if value is None:
            continue
        mutable = isinstance(
            value, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
                    ast.SetComp)
        ) or (
            isinstance(value, ast.Call)
            and (dotted_name(value.func) or "").split(".")[-1]
            in ("dict", "list", "set", "defaultdict", "OrderedDict",
                "Counter", "deque", "bytearray")
        )
        if not mutable:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
    return names


class PoolSafeRule(FileRule):
    rule_id = "POOL-SAFE"
    description = (
        "module-level mutable state written from functions reachable by "
        "fork-pool workers"
    )

    def applies_to(self, path: str) -> bool:
        return path in POOL_WORKER_PATHS

    def check_file(self, context: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        scopes = enclosing_names(context.tree)
        module_mutables = _module_mutables(context.tree)
        if not module_mutables:
            return findings

        def emit(node: ast.AST, name: str, how: str) -> None:
            scope = scopes.get(node, "<module>")
            findings.append(
                Finding(
                    path=context.path,
                    line=node.lineno,
                    col=node.col_offset + 1,
                    rule=self.rule_id,
                    message=(
                        f"{how} on module-level mutable {name!r} from "
                        f"{scope}(); fork-pool workers each mutate a "
                        "private copy — pass state explicitly or baseline "
                        "with a justification"
                    ),
                    detail=f"{scope}: {how} {name}",
                )
            )

        def base_name(expr: ast.expr) -> str | None:
            """Peel subscripts/attributes down to the root Name."""
            while isinstance(expr, (ast.Subscript, ast.Attribute)):
                expr = expr.value
            if isinstance(expr, ast.Name):
                return expr.id
            return None

        #: Names shadowed by local (non-global) bindings, per scope — a
        #: local ``cache = {}`` must not trip the module-name check.
        global_decls: dict[str, set[str]] = {}
        local_binds: dict[str, set[str]] = {}
        for node in ast.walk(context.tree):
            scope = scopes.get(node, "<module>")
            if isinstance(node, ast.Global):
                global_decls.setdefault(scope, set()).update(node.names)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        local_binds.setdefault(scope, set()).add(target.id)
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                if isinstance(node.target, ast.Name):
                    local_binds.setdefault(scope, set()).add(node.target.id)

        def refers_to_module(name: str, scope: str) -> bool:
            if scope == "<module>":
                return False  # import-time initialisation is fine
            if name not in module_mutables:
                return False
            if name in global_decls.get(scope, set()):
                return True
            # A plain local assignment shadows the module name only if
            # it is a *rebinding*; subscript/method writes don't bind.
            return name not in local_binds.get(scope, set())

        for node in ast.walk(context.tree):
            scope = scopes.get(node, "<module>")
            if scope == "<module>":
                continue
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if isinstance(target, ast.Subscript):
                        name = base_name(target)
                        if name and refers_to_module(name, scope):
                            emit(node, name, "subscript store")
                    elif isinstance(target, ast.Name) and isinstance(
                        node, ast.AugAssign
                    ):
                        if target.id in module_mutables and target.id in (
                            global_decls.get(scope, set())
                        ):
                            emit(node, target.id, "augmented assignment")
                    elif isinstance(target, ast.Name) and target.id in (
                        global_decls.get(scope, set())
                    ):
                        if target.id in module_mutables:
                            emit(node, target.id, "global rebind")
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if isinstance(target, ast.Subscript):
                        name = base_name(target)
                        if name and refers_to_module(name, scope):
                            emit(node, name, "subscript delete")
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                if node.func.attr in _MUTATING_METHODS:
                    name = base_name(node.func.value)
                    if name and refers_to_module(name, scope):
                        emit(node, name, f".{node.func.attr}()")
        return findings
