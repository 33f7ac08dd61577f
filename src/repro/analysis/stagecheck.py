"""Stage message API conformance (paper §5).

The staged-table message API threads the *caller* through every message
so receivers can key shadow/edge state per ``(caller, receiver)`` edge
(multi-parent stages, the sanitizer's per-edge shadows).  Passing the
caller positionally is how historical bugs slipped in — a route handed
where a stage was expected reads fine at the call site and explodes two
stages downstream.  The API therefore makes ``caller`` keyword-only,
and this checker enforces the convention statically:

* a call to ``add_routes``/``delete_routes``/``lookup_route`` with more
  than one positional argument, or to ``replace_route`` with more than
  two, is passing ``caller`` positionally (STG001);
* a ``def`` of one of those methods that declares ``caller`` as a
  positional parameter re-opens the hole for every caller (STG001).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Checker, Finding, ModuleInfo, ProjectIndex

#: message name -> number of route/net positional operands it takes
_MESSAGE_ARITY = {
    "lookup_route": 1,
    "add_routes": 1,
    "delete_routes": 1,
    "replace_route": 2,
}


class StageMessageChecker(Checker):
    name = "stage-message"
    rules = ("STG001",)

    def check(self, module: ModuleInfo, project: ProjectIndex
              ) -> Iterator[Finding]:
        path = str(module.path)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(path, node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_def(path, node)

    def _check_call(self, path: str, node: ast.Call) -> Iterator[Finding]:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        arity = _MESSAGE_ARITY.get(func.attr)
        if arity is None:
            return
        if len(node.args) > arity and not any(
                isinstance(arg, ast.Starred) for arg in node.args):
            yield Finding(
                path, node.lineno, "STG001",
                f"{func.attr}() called with {len(node.args)} positional "
                f"arguments; 'caller' must be passed by keyword "
                f"(caller=...)")

    def _check_def(self, path: str, node: ast.AST) -> Iterator[Finding]:
        arity = _MESSAGE_ARITY.get(node.name)
        if arity is None:
            return
        positional = [a.arg for a in node.args.posonlyargs + node.args.args]
        if "caller" in positional:
            yield Finding(
                path, node.lineno, "STG001",
                f"{node.name}() declares 'caller' as a positional "
                f"parameter; the stage message API requires it "
                f"keyword-only (*, caller=None)")
