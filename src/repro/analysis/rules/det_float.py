"""DET-FLOAT: float accumulation must be exact or pinned.

Float addition is not associative: ``sum()`` and ``acc += x`` loops give
answers that depend on operand order and on how a refactor regroups the
fold, which is exactly how PR 6's sharding work produced fingerprints
that differed at the last ulp.  The repo's remedy is ``ExactSum``
(Shewchuk error-free partials, order-independent) in ``sim/metrics.py``,
with ``math.fsum``/``statistics.fmean`` acceptable at pinned reference
sites.

Checks, scoped to the accumulation-heavy modules where a drifting fold
reaches a fingerprint:

* ``sum(...)`` whose argument is not obviously integer-valued — use
  ``ExactSum`` or ``math.fsum``;
* ``acc += expr`` inside a loop, same int-escape hatch;
* ``statistics.mean`` anywhere in the package — it is not ``fsum``-based
  on all versions; the repo standard is ``statistics.fmean`` (pinned by
  test to equal ``fsum(x)/len(x)`` bit-for-bit).

``sum()`` over clearly-integer data (``len()`` results, int literals)
is skipped; for host-side diagnostics (wall-clock totals that never
feed a fingerprint) suppress with a reason.
"""

from __future__ import annotations

import ast

from repro.analysis.findings import Finding
from repro.analysis.rules import (
    FileContext,
    FileRule,
    call_name,
    dotted_name,
    enclosing_names,
    is_int_like,
)

#: Modules where float folds can reach a fingerprint.  Deliberately a
#: file list, not a prefix: most of the package does no accumulation,
#: and a repo-wide ``sum()`` ban would drown signal in noise.
FLOAT_FOLD_PATHS = frozenset(
    {
        "sim/metrics.py",
        "sim/simulator.py",
        "scenarios/runner.py",
    }
)


def _comprehension_is_int(node: ast.expr) -> bool:
    """True for generator/list arguments whose element expr is int-like."""
    if isinstance(node, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
        return is_int_like(node.elt)
    if isinstance(node, (ast.List, ast.Tuple)):
        return all(is_int_like(elt) for elt in node.elts)
    return is_int_like(node)


class DetFloatRule(FileRule):
    rule_id = "DET-FLOAT"
    description = (
        "raw sum()/+= float accumulation where ExactSum/math.fsum is "
        "required; statistics.mean instead of fmean"
    )

    def applies_to(self, path: str) -> bool:
        return path in FLOAT_FOLD_PATHS or path.endswith(".py")

    def check_file(self, context: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        scopes = enclosing_names(context.tree)
        fold_scope = context.path in FLOAT_FOLD_PATHS

        def emit(node: ast.AST, message: str, detail: str) -> None:
            findings.append(
                Finding(
                    path=context.path,
                    line=node.lineno,
                    col=node.col_offset + 1,
                    rule=self.rule_id,
                    message=message,
                    detail=f"{scopes.get(node, '<module>')}: {detail}",
                )
            )

        #: AugAssign nodes that sit inside a loop body.
        in_loop: set[ast.AST] = set()

        def mark_loops(node: ast.AST, inside: bool) -> None:
            for child in ast.iter_child_nodes(node):
                child_inside = inside or isinstance(
                    node, (ast.For, ast.AsyncFor, ast.While)
                )
                if child_inside:
                    in_loop.add(child)
                # A nested def restarts the loop context.
                if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
                ):
                    mark_loops(child, False)
                else:
                    mark_loops(child, child_inside)

        mark_loops(context.tree, False)

        for node in ast.walk(context.tree):
            if isinstance(node, ast.ImportFrom):
                if node.module == "statistics" and any(
                    alias.name == "mean" for alias in node.names
                ):
                    emit(
                        node,
                        "'from statistics import mean'; use fmean "
                        "(pinned == fsum/len)",
                        "import statistics.mean",
                    )
            elif isinstance(node, ast.Call):
                name = dotted_name(node.func) or ""
                if name == "statistics.mean":
                    emit(
                        node,
                        "statistics.mean is not exact-sum based on "
                        "all versions; use statistics.fmean (pinned "
                        "== fsum/len)",
                        "statistics.mean",
                    )
                if fold_scope and call_name(node) == "sum" and node.args:
                    if not _comprehension_is_int(node.args[0]):
                        emit(
                            node,
                            "raw sum() float fold; use ExactSum or "
                            "math.fsum (or suppress for host-side "
                            "diagnostics that never feed a fingerprint)",
                            "raw sum() fold",
                        )
            elif (
                fold_scope
                and isinstance(node, ast.AugAssign)
                and isinstance(node.op, ast.Add)
                and node in in_loop
                and not is_int_like(node.value)
            ):
                target = dotted_name(node.target) or "<target>"
                emit(
                    node,
                    f"'{target} +=' accumulation in a loop; use ExactSum "
                    "(or suppress if provably integer/off-fingerprint)",
                    f"loop += into {target}",
                )
        return findings
