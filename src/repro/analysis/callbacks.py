"""Stale-callback safety for deferred work (paper §4).

    "the state of the system may change between the initiation of a
    request and its completion ... callbacks must be written carefully
    so that they check that the state they are about to act on is still
    valid."

The repo's own idioms are the reference: ``kill.py`` re-checks listener
identity at delivery time, ``txqueue`` completions consult the pending
call's ``done`` flag, the RIB's deferred resync starts with ``if not
self.running: return``.  This checker makes the discipline mandatory: a
callback handed to ``loop.call_soon``/``loop.call_later`` that captures
process state (references ``self``) must contain — directly, or in a
method it immediately calls — a liveness or generation guard.

The guard heuristic is deliberately broad (any read of a
liveness-flavoured attribute such as ``running``/``alive``/``done``/
``state``/``generation``, or an identity comparison): the goal is to
catch callbacks written with *no* staleness story at all, not to prove
the guard correct.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional

from repro.analysis.core import (
    Checker,
    Finding,
    ModuleInfo,
    ProjectIndex,
    enclosing_class,
    enclosing_function,
    walk_with_scopes,
)
from repro.analysis.sites import sites_of

_DEFER_METHODS = {"call_soon": 0, "call_later": 1}

#: identifier fragments that signal a liveness/generation/state check
_GUARD_RE = re.compile(
    r"running|alive|done|completed|closed|cancelled|stopped|dead|down"
    r"|state|generation|_gen\b|token|epoch|scheduled|pending|inflight",
)


class CallbackSafetyChecker(Checker):
    name = "callback-safety"
    rules = ("CB001",)

    def check(self, module: ModuleInfo, project: ProjectIndex
              ) -> Iterator[Finding]:
        if module.logical[:1] == ("eventloop",):
            return
        path = str(module.path)
        scopes = sites_of(module).scopes
        for node, ancestry in walk_with_scopes(module.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _DEFER_METHODS):
                continue
            cb_index = _DEFER_METHODS[node.func.attr]
            if len(node.args) <= cb_index:
                continue
            callback = node.args[cb_index]
            fn = enclosing_function(ancestry)
            cls = enclosing_class(ancestry)
            local_defs = scopes[fn].defs if fn is not None else {}
            verdict = _callback_guarded(callback, local_defs, cls, project)
            if verdict is False:
                yield Finding(
                    path, node.lineno, "CB001",
                    f"callback deferred via {node.func.attr}() captures "
                    "process state with no liveness/generation guard; the "
                    "process may be gone when it fires (see DESIGN.md "
                    "\"Static guarantees\")")


def _callback_guarded(callback: ast.AST, local_defs: Dict[str, ast.AST],
                      cls: Optional[ast.ClassDef],
                      project: ProjectIndex) -> Optional[bool]:
    """True = guarded, False = unguarded self-capture, None = not in scope."""
    bodies = _callback_bodies(callback, local_defs, cls, project)
    if bodies is None:
        return None
    captures_self = any(_references_self(body) for body in bodies)
    if not captures_self:
        return None
    direct = list(bodies)
    for body in direct:
        if _has_guard(body):
            return True
    # One level of indirection: scan the bodies of self-methods the
    # callback invokes (e.g. ``lambda: self._retry_fire(call)``).
    if cls is not None:
        for body in direct:
            for called in _self_method_calls(body):
                target, __ = project.find_method(cls, called)
                if target is not None and _has_guard(target):
                    return True
    return False


def _callback_bodies(callback: ast.AST, local_defs: Dict[str, ast.AST],
                     cls: Optional[ast.ClassDef],
                     project: ProjectIndex) -> Optional[List[ast.AST]]:
    """The AST bodies the deferred callback will execute, if resolvable."""
    if isinstance(callback, ast.Lambda):
        return [callback]
    if isinstance(callback, ast.Attribute):
        # self.method / obj.method passed bound
        if isinstance(callback.value, ast.Name) \
                and callback.value.id == "self" and cls is not None:
            target, __ = project.find_method(cls, callback.attr)
            return [target] if target is not None else None
        return None
    if isinstance(callback, ast.Name):
        target = local_defs.get(callback.id)
        return [target] if target is not None else None
    if isinstance(callback, ast.Call):
        # functools.partial(self.method, ...) and friends
        func = callback.func
        partial_like = (
            (isinstance(func, ast.Name) and func.id == "partial")
            or (isinstance(func, ast.Attribute) and func.attr == "partial"))
        if partial_like and callback.args:
            return _callback_bodies(callback.args[0], local_defs, cls,
                                    project)
        return None
    return None


def _references_self(body: ast.AST) -> bool:
    return any(isinstance(node, ast.Name) and node.id == "self"
               for node in ast.walk(body))


def _guardish(name: str) -> bool:
    # "up" only as the whole identifier: the substring would match
    # "update"/"group"; the full word (link.up, peer.up) is a guard.
    return bool(_GUARD_RE.search(name)) or name == "up"


def _has_guard(body: ast.AST) -> bool:
    for node in ast.walk(body):
        if isinstance(node, ast.Attribute) and _guardish(node.attr):
            return True
        if isinstance(node, ast.Name) and _guardish(node.id):
            return True
        if isinstance(node, ast.Compare) and any(
                isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops):
            return True
    return False


def _self_method_calls(body: ast.AST) -> Iterator[str]:
    for node in ast.walk(body):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "self"):
            yield node.func.attr
