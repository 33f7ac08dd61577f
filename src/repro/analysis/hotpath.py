"""Hot-path cost analyzer: the static twin of the fig13 benchmark.

ROADMAP open item 1 wants a 1M-route full feed at >=100k routes/sec,
which the per-route hot path can lose one allocation at a time.  This
pass makes that cost a *checked* property (the paper's xrlc philosophy,
section 6.1, applied to performance): it derives the **hot-path function
set** interprocedurally and runs allocation/complexity rules over every
function in it.

Hot-set derivation
------------------

Roots, then transitive closure over a name-based call graph:

* the **batched stage entry points** — every definition of the stage
  message surface (``add_routes``/``delete_routes`` and their singular
  twins, ``originate_batch``/``withdraw_batch``) on any class in the
  process/core packages; a route crosses several of these per hop;
* the **XRL dispatch surface** — every ``xrl_*`` handler, the whole
  ``repro.xrl`` package (frame codec, router, transports), the transmit
  queue, and the event loop's turn dispatcher (every XRL and deferred
  stage batch is dispatched from a loop turn);
* ``FibBackend.apply`` — the dataplane sink each batch drains into;
* the **feed entry point** — ``update_received`` on any class: where a
  peer's UPDATE enters the stages, upstream of every batched message it
  causes (the fanout reader callbacks downstream of it are reached
  through the callback aliases).

Call edges are resolved CHA-style by name: ``self.m()`` and ``x.m()``
reach every project definition of ``m``; bare calls reach module-level
functions; instantiation reaches ``__init__``; a function *reference*
passed as an argument (callback registration: ``call_soon(self._pump)``,
``on_reply=...``) is an edge too.  Callback attributes are resolved one
constructor deep: ``self._emit_batch = emit_batch`` inside a class whose
call sites pass ``self._emit_fea4`` makes ``self._emit_batch(...)`` reach
``_emit_fea4``.
Over-approximation is deliberate — a too-large hot set costs a few extra
warnings; a too-small one misses regressions (and fails the dynamic
agreement test in ``benchmarks/test_fig13_route_flow.py``, which asserts
this set covers >=80% of sampling-profile frames of the real flow).

Cost rules (HOT001-HOT006)
--------------------------

Over every hot function:

* HOT001 (error) — singular-call fallback inside a loop where a batch
  API exists (``t.add_route`` per route where ``add_routes`` is defined;
  likewise an ``Xrl`` naming ``add_route4`` built per iteration where an
  ``xrl_add_routes4`` handler is bound);
* HOT002 (error) — per-item dict/list construction or ``Xrl``/``XrlArgs``
  chains inside a per-route loop (what PR 4's coalescing eliminated);
* HOT003 (warning) — class instantiated in a hot loop without
  ``__slots__`` (a per-route ``__dict__`` allocation);
* HOT004 (warning) — attribute chain >=2 deep re-resolved inside a loop
  body (hoist it to a local before the loop);
* HOT005 (warning) — eager string formatting passed to a logging/trace
  sink on the hot path (guard on ``.enabled`` or format lazily);
* HOT006 (error) — nested iteration over a table or batch inside
  per-route processing (quadratic batch handling).

``# repro: allow[HOT...]`` suppressions apply as for every other rule.
The ``--hot-report``/``--hot-dot`` CLI flags export the hot set with
per-function static cost annotations as byte-stable JSON (schema
``repro.hotpath/1``) and Graphviz dot.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.core import (
    Finding,
    ModuleInfo,
    ProjectChecker,
    ProjectIndex,
)

SCHEMA = "repro.hotpath/1"

#: tooling/harness packages that are never part of the router hot path
EXEMPT_PACKAGES = frozenset({
    "analysis", "sanitizer", "obs", "experiments", "simnet",
})

#: singular message -> its batched counterpart (HOT001's pair table)
BATCH_COUNTERPARTS = {
    "add_route": "add_routes",
    "delete_route": "delete_routes",
    "originate": "originate_batch",
    "withdraw": "withdraw_batch",
    "withdraw_if_present": "withdraw_batch",
    "add_entry4": "add_entries4",
    "add_entry6": "add_entries6",
    "delete_entry4": "delete_entries4",
    "delete_entry6": "delete_entries6",
    "add_route4": "add_routes4",
    "delete_route4": "delete_routes4",
    "enqueue": "enqueue_batch",
    "call": "call_batch",
    "add": "add_batch",
    "delete": "delete_batch",
}

#: pair-table entries generic enough to collide with builtins (set.add,
#: list.append neighbours); they only fire on receivers whose attribute
#: name marks them as route-flow machinery.
_GENERIC_SINGULARS = frozenset({"add", "delete", "call"})
_FLOW_RECEIVERS = frozenset({
    "driver", "flow", "txq", "sender", "backend",
})

#: names that mark an iterable as "a batch of routes" (per-route loops)
BATCHY_NAMES = frozenset({
    "routes", "nets", "entries", "ops", "prefixes", "batch",
    "updates", "withdrawals", "nlri", "helds", "removed",
})

#: iterator-producing methods that mark an inner loop as a table scan
_SCAN_METHODS = frozenset({"items", "values", "keys", "iterator", "entries"})

#: attribute sinks treated as logging/trace emission (HOT005)
LOG_SINKS = frozenset({"log", "debug", "info", "warning", "error", "trace",
                       "record"})

#: stage message surface whose definitions root the hot set
STAGE_ENTRY_POINTS = frozenset({
    "add_routes", "delete_routes", "add_route", "delete_route",
    "replace_route", "originate", "originate_batch",
    "withdraw", "withdraw_batch",
})

#: where a peer's UPDATE enters the stages: the feed's real entry point,
#: upstream of every batched stage message it causes
FEED_ENTRY_POINTS = frozenset({"update_received"})

#: modules rooted wholesale: the XRL frame/dispatch machinery, the
#: transmit queue, and the event-loop turn dispatcher all run per
#: message, so every definition in them is hot by construction.
_DISPATCH_PACKAGES = frozenset({"xrl", "eventloop"})
_DISPATCH_MODULES = frozenset({("core", "txqueue")})

_RULE_SEVERITY = {
    "HOT001": "error",
    "HOT002": "error",
    "HOT003": "warning",
    "HOT004": "warning",
    "HOT005": "warning",
    "HOT006": "error",
}


def _rel_path(module: ModuleInfo) -> str:
    return "/".join(module.logical) + ".py"


def _is_exempt(module: ModuleInfo) -> bool:
    return module.package in EXEMPT_PACKAGES


@dataclass
class HotFunction:
    """One function in the project universe, plus its static cost facts."""

    key: str                      # "rib/merge.py:MergeStage.add_routes"
    rel: str                      # "rib/merge.py"
    qualname: str                 # matches CPython's co_qualname
    name: str
    line: int
    module: ModuleInfo
    node: ast.AST                 # FunctionDef | AsyncFunctionDef
    class_name: Optional[str]
    #: names this function calls (attribute names and bare names)
    calls: Set[str] = field(default_factory=set)
    #: project class names this function instantiates
    instantiations: Set[str] = field(default_factory=set)
    #: function names referenced without being called (callbacks)
    refs: Set[str] = field(default_factory=set)
    #: keys of directly nested function definitions
    nested: List[str] = field(default_factory=list)
    #: param names, in order, 'self' excluded
    params: Tuple[str, ...] = ()
    #: static cost annotations, filled for hot members
    loops: int = 0
    loop_depth: int = 0
    batchy_loops: int = 0
    findings: List[Finding] = field(default_factory=list)


class HotPathGraph:
    """The derived hot set plus its internal call edges and findings."""

    def __init__(self) -> None:
        self.functions: Dict[str, HotFunction] = {}
        self.roots: Dict[str, str] = {}      # key -> root family
        self.hot: Dict[str, HotFunction] = {}
        self.edges: Dict[str, Set[str]] = {}  # hot key -> hot callee keys
        self.findings: List[Finding] = []
        #: (rel, qualname) pairs for fast profile-frame matching
        self._frame_keys: Set[Tuple[str, str]] = set()

    # -- dynamic-agreement support ----------------------------------------
    def covers_frame(self, filename: str, qualname: str) -> bool:
        """Is the runtime frame (co_filename, co_qualname) in the hot set?"""
        rel = repro_relative(filename)
        if rel is None:
            return False
        return (rel, qualname) in self._frame_keys

    # -- exports -----------------------------------------------------------
    def to_json_dict(self) -> dict:
        hot = {}
        for key in sorted(self.hot):
            fn = self.hot[key]
            hot[key] = {
                "path": fn.rel,
                "qualname": fn.qualname,
                "line": fn.line,
                "root": self.roots.get(key),
                "loops": fn.loops,
                "loop_depth": fn.loop_depth,
                "batchy_loops": fn.batchy_loops,
                "instantiates": sorted(fn.instantiations),
                "findings": sorted({f.rule for f in fn.findings}),
                "calls": sorted(self.edges.get(key, ())),
            }
        rules: Dict[str, int] = {}
        for finding in self.findings:
            rules[finding.rule] = rules.get(finding.rule, 0) + 1
        return {
            "schema": SCHEMA,
            "roots": {key: family for key, family
                      in sorted(self.roots.items())},
            "hot": hot,
            "stats": {
                "functions": len(self.functions),
                "hot_functions": len(self.hot),
                "edges": sum(len(v) for v in self.edges.values()),
                "findings_by_rule": rules,
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    def to_dot(self) -> str:
        lines = ["digraph hotpath {", "  rankdir=LR;",
                 '  node [shape=box, fontsize=9];']
        for key in sorted(self.hot):
            fn = self.hot[key]
            family = self.roots.get(key)
            shape = ' style="filled", fillcolor="lightyellow",' \
                if family else ""
            label = f"{fn.rel}\\n{fn.qualname}"
            if family:
                label += f"\\n[{family}]"
            badges = sorted({f.rule for f in fn.findings})
            if badges:
                label += "\\n" + ",".join(badges)
            lines.append(f'  "{key}" [{shape} label="{label}"];')
        for key in sorted(self.edges):
            for callee in sorted(self.edges[key]):
                lines.append(f'  "{key}" -> "{callee}";')
        lines.append("}")
        return "\n".join(lines) + "\n"


def repro_relative(filename: str) -> Optional[str]:
    """Map an absolute co_filename to its repro-relative path, or None."""
    parts = filename.replace("\\", "/").split("/")
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            return "/".join(parts[index + 1:])
    return None


# -- universe construction ---------------------------------------------------

def _qualname(ancestry: Sequence[ast.AST], node: ast.AST) -> str:
    parts: List[str] = []
    for ancestor in ancestry:
        if isinstance(ancestor, ast.ClassDef):
            parts.append(ancestor.name)
        elif isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
            parts.append(ancestor.name)
            parts.append("<locals>")
    parts.append(node.name)  # type: ignore[attr-defined]
    return ".".join(parts)


def _funcref_name(node: ast.AST) -> Optional[str]:
    """The function name a bare reference points at, if any."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


class _Universe:
    """Every function/class in the non-exempt modules, plus alias facts."""

    def __init__(self, modules: Sequence[ModuleInfo]):
        self.modules = [m for m in modules if not _is_exempt(m)]
        self.fn_by_name: Dict[str, List[HotFunction]] = {}
        self.fn_by_key: Dict[str, HotFunction] = {}
        self.classes: Dict[str, List[Tuple[ModuleInfo, ast.ClassDef]]] = {}
        #: class name -> __init__ HotFunction (first definition wins)
        self.init_of: Dict[str, HotFunction] = {}
        #: attribute name -> function names it can hold (callback aliases)
        self.aliases: Dict[str, Set[str]] = {}
        self._index()
        self._resolve_aliases()

    def _index(self) -> None:
        for module in self.modules:
            for node, ancestry in _walk_with_ancestry(module.tree):
                if isinstance(node, ast.ClassDef):
                    self.classes.setdefault(node.name, []).append(
                        (module, node))
                if not isinstance(node, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                    continue
                cls = None
                for ancestor in reversed(ancestry):
                    if isinstance(ancestor, ast.ClassDef):
                        cls = ancestor
                        break
                    if isinstance(ancestor, (ast.FunctionDef,
                                             ast.AsyncFunctionDef)):
                        break
                qual = _qualname(ancestry, node)
                rel = _rel_path(module)
                fn = HotFunction(
                    key=f"{rel}:{qual}", rel=rel, qualname=qual,
                    name=node.name, line=node.lineno, module=module,
                    node=node, class_name=cls.name if cls else None,
                )
                args = node.args
                names = [a.arg for a in (args.posonlyargs + args.args)]
                if names and names[0] in ("self", "cls"):
                    names = names[1:]
                fn.params = tuple(names)
                self.fn_by_key[fn.key] = fn
                self.fn_by_name.setdefault(node.name, []).append(fn)
        for name, entries in self.classes.items():
            for module, cls in entries:
                for member in cls.body:
                    if isinstance(member, (ast.FunctionDef,
                                           ast.AsyncFunctionDef)) \
                            and member.name == "__init__":
                        rel = _rel_path(module)
                        key = f"{rel}:{_init_qualname(cls)}"
                        init = self.fn_by_key.get(key)
                        if init is not None and name not in self.init_of:
                            self.init_of[name] = init
        for fn in self.fn_by_key.values():
            self._collect_calls(fn)

    def _collect_calls(self, fn: HotFunction) -> None:
        """Fill calls/instantiations/refs/nested for one function."""
        for node, ancestry in _walk_with_ancestry(fn.node):
            if node is fn.node:
                continue
            # Stay inside this function: nested defs are their own nodes.
            owner = _enclosing_def(ancestry)
            if owner is not fn.node:
                continue
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested_qual = f"{fn.qualname}.<locals>.{node.name}"
                fn.nested.append(f"{fn.rel}:{nested_qual}")
                continue
            if isinstance(node, ast.Call):
                callee = _funcref_name(node.func)
                if callee is not None:
                    if callee in self.classes:
                        fn.instantiations.add(callee)
                    else:
                        fn.calls.add(callee)
                for arg in list(node.args) + [kw.value for kw in
                                              node.keywords]:
                    ref = _funcref_name(arg)
                    if ref is not None and ref in self.fn_by_name:
                        fn.refs.add(ref)

    def _resolve_aliases(self) -> None:
        """One-constructor-deep callback aliasing (see module docstring).

        Variables: ``("param", fn_name, param)`` and ``("attr", name)``.
        Constants flow from function references at call sites through
        parameter bindings into ``self.X = param`` assignments; a short
        fixpoint handles wrappers forwarding a callback one more level.
        """
        consts: Dict[Tuple, Set[str]] = {}
        links: Dict[Tuple, Set[Tuple]] = {}

        def bind(callee: HotFunction, call: ast.Call,
                 caller: HotFunction) -> None:
            positional = list(call.args)
            for index, param in enumerate(callee.params):
                arg = positional[index] if index < len(positional) else None
                if arg is None:
                    for kw in call.keywords:
                        if kw.arg == param:
                            arg = kw.value
                            break
                if arg is None:
                    continue
                target = ("param", callee.name, param)
                ref = _funcref_name(arg)
                if isinstance(arg, ast.Name) and arg.id in caller.params:
                    links.setdefault(("param", caller.name, arg.id),
                                     set()).add(target)
                elif ref is not None and ref in self.fn_by_name:
                    consts.setdefault(target, set()).add(ref)

        for fn in self.fn_by_key.values():
            for node, ancestry in _walk_with_ancestry(fn.node):
                if _enclosing_def(ancestry) is not fn.node:
                    continue
                if isinstance(node, ast.Call):
                    callee_name = _funcref_name(node.func)
                    if callee_name is None:
                        continue
                    if callee_name in self.classes:
                        init = self.init_of.get(callee_name)
                        if init is not None:
                            bind(init, node, fn)
                    else:
                        for callee in self.fn_by_name.get(callee_name, ()):
                            bind(callee, node, fn)
                elif isinstance(node, ast.Assign):
                    for target in node.targets:
                        if not (isinstance(target, ast.Attribute)
                                and isinstance(target.value, ast.Name)
                                and target.value.id == "self"):
                            continue
                        var = ("attr", target.attr)
                        ref = _funcref_name(node.value)
                        if isinstance(node.value, ast.Name) \
                                and node.value.id in fn.params:
                            links.setdefault(
                                ("param", fn.name, node.value.id),
                                set()).add(var)
                        elif ref is not None and ref in self.fn_by_name:
                            consts.setdefault(var, set()).add(ref)
        for _ in range(10):
            changed = False
            for source, targets in links.items():
                names = consts.get(source)
                if not names:
                    continue
                for target in targets:
                    bucket = consts.setdefault(target, set())
                    before = len(bucket)
                    bucket.update(names)
                    changed = changed or len(bucket) != before
            if not changed:
                break
        for var, names in consts.items():
            if var[0] == "attr":
                self.aliases.setdefault(var[1], set()).update(names)

    # -- edge resolution ---------------------------------------------------
    def callees(self, fn: HotFunction) -> Set[str]:
        keys: Set[str] = set(fn.nested)
        names: Set[str] = set()
        for called in fn.calls:
            names.add(called)
            names.update(self.aliases.get(called, ()))
        names.update(fn.refs)
        for name in names:
            for target in self.fn_by_name.get(name, ()):
                keys.add(target.key)
        for cls_name in fn.instantiations:
            init = self.init_of.get(cls_name)
            if init is not None:
                keys.add(init.key)
        return keys


def _init_qualname(cls: ast.ClassDef) -> str:
    # __init__ qualnames are only computed for top-level classes; nested
    # classes would need the full ancestry, which _index already builds
    # for fn_by_key, so a miss here simply skips the alias shortcut.
    return f"{cls.name}.__init__"


def _walk_with_ancestry(root: ast.AST):
    stack: List[ast.AST] = []

    def visit(node: ast.AST):
        yield node, tuple(stack)
        stack.append(node)
        for child in ast.iter_child_nodes(node):
            yield from visit(child)
        stack.pop()

    yield from visit(root)


def _enclosing_def(ancestry: Sequence[ast.AST]) -> Optional[ast.AST]:
    for node in reversed(ancestry):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return node
    return None


# -- root selection ----------------------------------------------------------

def _root_family(fn: HotFunction) -> Optional[str]:
    module = fn.module
    if fn.class_name is not None and fn.name in STAGE_ENTRY_POINTS:
        return "stage-entry"
    if fn.class_name is not None and fn.name in FEED_ENTRY_POINTS:
        return "feed-entry"
    if fn.name.startswith("xrl_"):
        return "xrl-dispatch"
    if module.package in _DISPATCH_PACKAGES \
            or module.logical in _DISPATCH_MODULES:
        return "xrl-dispatch"
    if fn.name == "apply" and fn.class_name is not None \
            and module.logical and module.logical[0] == "fea":
        return "fib-backend"
    return None


# -- cost-rule scanning ------------------------------------------------------

class _SlotsCache:
    """Memoised "instances of this class carry no __dict__" facts."""

    def __init__(self, universe: _Universe):
        self.universe = universe
        self._cache: Dict[str, bool] = {}

    def has_slots(self, name: str, _seen: Optional[Set[str]] = None) -> bool:
        cached = self._cache.get(name)
        if cached is not None:
            return cached
        seen = _seen or set()
        if name in seen:
            return True
        seen.add(name)
        entries = self.universe.classes.get(name)
        if not entries:
            # Unresolvable (imported/builtin): assume fine, do not warn.
            return True
        __, cls = entries[0]
        if any((base_name := _funcref_name(base)) is not None
               and base_name.endswith(("Enum", "Flag"))
               for base in cls.bases):
            # Enum "instantiation" is a member lookup, not an allocation.
            self._cache[name] = True
            return True
        slotted = any(
            isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__slots__"
                for t in stmt.targets)
            for stmt in cls.body
        )
        result = slotted
        if slotted:
            for base in cls.bases:
                base_name = _funcref_name(base)
                if base_name is None or base_name == "object":
                    continue
                if base_name in self.universe.classes \
                        and not self.has_slots(base_name, seen):
                    result = False
                    break
        self._cache[name] = result
        return result

    def is_exception(self, name: str) -> bool:
        if name.endswith(("Error", "Exception", "Warning")):
            return True
        entries = self.universe.classes.get(name)
        if not entries:
            return False
        __, cls = entries[0]
        return any(
            (base_name := _funcref_name(base)) is not None
            and (base_name.endswith(("Error", "Exception", "Warning"))
                 or self.is_exception(base_name))
            for base in cls.bases
        )


def _attr_chain(node: ast.Attribute) -> Optional[Tuple[str, ...]]:
    """("self", "next_table", "add_routes") for self.next_table.add_routes."""
    parts: List[str] = []
    current: ast.AST = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return tuple(reversed(parts))
    return None


def _names_in(node: ast.AST) -> Set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _batchy_iter(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        return node.id in BATCHY_NAMES
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in (
                "zip", "enumerate", "sorted", "list", "reversed", "tuple"):
            return any(_batchy_iter(arg) for arg in node.args)
    return False


def _scan_like(node: ast.AST) -> bool:
    """Does this iterable look like a table or batch scan (HOT006)?"""
    if isinstance(node, ast.Name):
        return node.id in BATCHY_NAMES
    if isinstance(node, ast.Attribute):
        chain = _attr_chain(node)
        return chain is not None and chain[0] == "self"
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in _SCAN_METHODS:
            return _scan_like(func.value) or isinstance(func.value, ast.Name)
        if isinstance(func, ast.Name) and func.id in (
                "sorted", "list", "tuple", "reversed"):
            return any(_scan_like(arg) for arg in node.args)
    return False


def _eager_format(node: ast.AST) -> bool:
    if isinstance(node, ast.JoinedStr):
        return True
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Mod, ast.Add)):
        return _eager_format(node.left) or _eager_format(node.right)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
            and node.func.attr == "format":
        return True
    return False


@dataclass
class _Loop:
    node: ast.AST
    batchy: bool
    targets: Set[str]


class _FunctionScanner:
    """Run the HOT cost rules over one hot function's body."""

    def __init__(self, fn: HotFunction, universe: _Universe,
                 slots: _SlotsCache):
        self.fn = fn
        self.universe = universe
        self.slots = slots
        self.path = str(fn.module.path)
        self.findings: List[Finding] = []
        self.loops: List[_Loop] = []
        self.loop_count = 0
        self.max_depth = 0
        self.batchy_count = 0
        self._flagged_chains: Set[Tuple[str, ...]] = set()
        self._flagged_classes: Set[str] = set()
        self._enabled_guard = 0
        self._in_raise = 0

    def emit(self, line: int, rule: str, message: str) -> None:
        self.findings.append(Finding(
            self.path, line, rule, message,
            severity=_RULE_SEVERITY[rule]))

    # -- helpers -----------------------------------------------------------
    def _loop_targets(self) -> Set[str]:
        names: Set[str] = set()
        for loop in self.loops:
            names.update(loop.targets)
        return names

    def _in_loop(self) -> bool:
        return bool(self.loops)

    def _in_batchy_loop(self) -> bool:
        return any(loop.batchy for loop in self.loops)

    # -- walk --------------------------------------------------------------
    def run(self) -> None:
        for stmt in self.fn.node.body:  # type: ignore[attr-defined]
            self.visit(stmt)
        self.fn.loops = self.loop_count
        self.fn.loop_depth = self.max_depth
        self.fn.batchy_loops = self.batchy_count
        self.fn.findings = list(self.findings)

    def visit(self, node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return  # nested defs are scanned as their own hot functions
        handler = getattr(self, f"_visit_{type(node).__name__}", None)
        if handler is not None:
            handler(node)
            return
        for child in ast.iter_child_nodes(node):
            self.visit(child)

    def _visit_For(self, node: ast.For) -> None:
        batchy = _batchy_iter(node.iter)
        self._check_hot006(node)
        self.visit(node.iter)
        self._push_loop(node, batchy, _names_in(node.target))
        for stmt in node.body + node.orelse:
            self.visit(stmt)
        self.loops.pop()

    _visit_AsyncFor = _visit_For

    def _visit_While(self, node: ast.While) -> None:
        self.visit(node.test)
        self._push_loop(node, False, set())
        for stmt in node.body + node.orelse:
            self.visit(stmt)
        self.loops.pop()

    def _push_loop(self, node: ast.AST, batchy: bool,
                   targets: Set[str]) -> None:
        self.loops.append(_Loop(node, batchy, targets))
        self.loop_count += 1
        self.max_depth = max(self.max_depth, len(self.loops))
        if batchy:
            self.batchy_count += 1

    def _visit_If(self, node: ast.If) -> None:
        guard = any(
            (isinstance(n, ast.Attribute) and n.attr == "enabled")
            or (isinstance(n, ast.Name) and n.id == "enabled")
            for n in ast.walk(node.test))
        self.visit(node.test)
        if guard:
            self._enabled_guard += 1
        for stmt in node.body:
            self.visit(stmt)
        if guard:
            self._enabled_guard -= 1
        for stmt in node.orelse:
            self.visit(stmt)

    def _visit_Raise(self, node: ast.Raise) -> None:
        self._in_raise += 1
        for child in ast.iter_child_nodes(node):
            self.visit(child)
        self._in_raise -= 1

    def _visit_Call(self, node: ast.Call) -> None:
        name = _funcref_name(node.func)
        if name is not None:
            self._check_hot001(node, name)
            self._check_hot001_wire(node, name)
            self._check_hot002_call(node, name)
            self._check_hot003(node, name)
            self._check_hot005(node, name)
        for child in ast.iter_child_nodes(node):
            self.visit(child)

    def _visit_Dict(self, node: ast.Dict) -> None:
        if node.keys and self._in_batchy_loop():
            self.emit(node.lineno, "HOT002",
                      "per-route dict construction inside a batch loop — "
                      "hoist or vectorize it")
        for child in ast.iter_child_nodes(node):
            self.visit(child)

    def _visit_List(self, node: ast.List) -> None:
        if node.elts and self._in_batchy_loop() \
                and isinstance(node.ctx, ast.Load):
            self.emit(node.lineno, "HOT002",
                      "per-route list construction inside a batch loop — "
                      "build the batch once outside the loop")
        for child in ast.iter_child_nodes(node):
            self.visit(child)

    _visit_Set = _visit_List  # same shape: a per-item container display

    def _visit_Attribute(self, node: ast.Attribute) -> None:
        self._check_hot004(node)
        for child in ast.iter_child_nodes(node):
            self.visit(child)

    def _visit_ListComp(self, node: ast.ListComp) -> None:
        self._visit_comp(node, [node.elt])

    def _visit_SetComp(self, node: ast.SetComp) -> None:
        self._visit_comp(node, [node.elt])

    def _visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._visit_comp(node, [node.elt])

    def _visit_DictComp(self, node: ast.DictComp) -> None:
        self._visit_comp(node, [node.key, node.value])

    def _visit_comp(self, node: ast.AST, elts: List[ast.AST]) -> None:
        # A comprehension is a loop for allocation purposes (HOT003) but
        # is itself the vectorized idiom, so HOT001/002/004 skip it.
        generators = node.generators  # type: ignore[attr-defined]
        targets: Set[str] = set()
        for gen in generators:
            self.visit(gen.iter)
            targets.update(_names_in(gen.target))
        batchy = any(_batchy_iter(gen.iter) for gen in generators)
        self._push_loop(node, batchy, targets)
        saved, self.loops[-1].batchy = self.loops[-1].batchy, False
        for gen in generators:
            for cond in gen.ifs:
                self.visit(cond)
        for elt in elts:
            self._scan_comp_elt(elt)
        self.loops.pop()
        del saved

    def _scan_comp_elt(self, node: ast.AST) -> None:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                name = _funcref_name(sub.func)
                if name is not None:
                    self._check_hot003(sub, name)

    # -- the rules ---------------------------------------------------------
    def _check_hot001(self, node: ast.Call, name: str) -> None:
        if not self._in_loop():
            return
        counterpart = BATCH_COUNTERPARTS.get(name)
        if counterpart is None \
                or counterpart not in self.universe.fn_by_name:
            return
        func = node.func
        if isinstance(func, ast.Name):
            receiver: Optional[Tuple[str, ...]] = None
        else:
            assert isinstance(func, ast.Attribute)
            chain = _attr_chain(func)
            if chain is not None and len(chain) == 2 and chain[0] == "self":
                # self.add_route(...) inside add_routes IS the batch API
                # decomposing itself — the one legitimate singular loop.
                return
            if isinstance(func.value, ast.Call) \
                    and isinstance(func.value.func, ast.Name) \
                    and func.value.func.id == "super":
                return  # super().add_route(...): same self-decomposition
            receiver = chain[:-1] if chain else None
        if name in _GENERIC_SINGULARS:
            # Too generic to trust bare: only fire on known flow machinery
            # receivers (self.driver.add, self.txq.enqueue, flow.submit).
            if receiver is None or not (set(receiver) & _FLOW_RECEIVERS):
                return
        where = ".".join(receiver) if receiver else name
        self.emit(node.lineno, "HOT001",
                  f"per-route {name}() on {where!r} inside a loop — "
                  f"the batched {counterpart}() exists; send one batch")

    def _check_hot001_wire(self, node: ast.Call, name: str) -> None:
        """The same defect spelled as a wire method: an ``Xrl`` naming a
        singular method, built per iteration, where a handler for the
        vectorized counterpart is bound somewhere in the tree."""
        if name != "Xrl" or not self._in_loop():
            return
        for arg in node.args:
            for sub in ast.walk(arg):
                if not (isinstance(sub, ast.Constant)
                        and isinstance(sub.value, str)):
                    continue
                counterpart = BATCH_COUNTERPARTS.get(sub.value)
                if counterpart is not None \
                        and "xrl_" + counterpart in self.universe.fn_by_name:
                    self.emit(node.lineno, "HOT001",
                              f"per-route {sub.value} XRL built inside a "
                              f"loop — the vectorized {counterpart} "
                              "exists; send one XRL per stretch")

    def _check_hot002_call(self, node: ast.Call, name: str) -> None:
        if name in ("Xrl", "XrlArgs") and self._in_batchy_loop():
            self.emit(node.lineno, "HOT002",
                      f"per-route {name}(...) construction inside a batch "
                      "loop — build one vectorized XRL per segment "
                      "(PR 4's coalescing contract)")

    def _check_hot003(self, node: ast.Call, name: str) -> None:
        if not self._in_loop() or self._in_raise:
            return
        if name not in self.universe.classes or name in self._flagged_classes:
            return
        if self.slots.is_exception(name):
            return
        if not self.slots.has_slots(name):
            self._flagged_classes.add(name)
            self.emit(node.lineno, "HOT003",
                      f"{name} instantiated on the hot path but defines no "
                      "__slots__ — every instance pays a __dict__")

    def _check_hot004(self, node: ast.Attribute) -> None:
        if not self._in_loop() or not isinstance(node.ctx, ast.Load):
            return
        chain = _attr_chain(node)
        if chain is None or len(chain) < 3:  # base + >=2 attribute hops
            return
        if chain[0] in self._loop_targets() or chain in self._flagged_chains:
            return
        self._flagged_chains.add(chain)
        # Flag only the outermost chain; mark sub-chains as seen so
        # a.b.c does not also report a.b.
        for end in range(3, len(chain)):
            self._flagged_chains.add(chain[:end])
        self.emit(node.lineno, "HOT004",
                  f"attribute chain {'.'.join(chain)} re-resolved every "
                  "iteration — hoist it to a local before the loop")

    def _check_hot005(self, node: ast.Call, name: str) -> None:
        if name not in LOG_SINKS or self._enabled_guard:
            return
        if not isinstance(node.func, ast.Attribute):
            return
        if any(_eager_format(arg) for arg in node.args):
            self.emit(node.lineno, "HOT005",
                      f"eagerly formatted string passed to .{name}() on the "
                      "hot path — it is built even when the sink is "
                      "disabled; guard on .enabled or format lazily")

    def _check_hot006(self, node: ast.For) -> None:
        if not self._in_batchy_loop():
            return
        if not _scan_like(node.iter):
            return
        if _names_in(node.iter) & self._loop_targets():
            return  # per-item sub-iteration is linear, not quadratic
        self.emit(node.lineno, "HOT006",
                  "nested table/batch iteration inside per-route "
                  "processing — quadratic batch handling; restructure "
                  "to one pass")


# -- public entry points -----------------------------------------------------

def build_hotpath(modules: Sequence[ModuleInfo]) -> HotPathGraph:
    """Derive the hot set over *modules* and run the cost rules on it."""
    graph = HotPathGraph()
    universe = _Universe(modules)
    graph.functions = dict(universe.fn_by_key)
    for fn in universe.fn_by_key.values():
        family = _root_family(fn)
        if family is not None:
            graph.roots[fn.key] = family
    # BFS closure over the call graph.
    pending = sorted(graph.roots)
    hot: Dict[str, HotFunction] = {}
    while pending:
        key = pending.pop()
        if key in hot:
            continue
        fn = universe.fn_by_key.get(key)
        if fn is None:
            continue
        hot[key] = fn
        for callee in universe.callees(fn):
            if callee not in hot:
                pending.append(callee)
    graph.hot = hot
    for key, fn in hot.items():
        graph.edges[key] = {callee for callee in universe.callees(fn)
                            if callee in hot}
    slots = _SlotsCache(universe)
    findings: List[Finding] = []
    for key in sorted(hot):
        scanner = _FunctionScanner(hot[key], universe, slots)
        scanner.run()
        findings.extend(scanner.findings)
    graph.findings = findings
    graph._frame_keys = {(fn.rel, fn.qualname) for fn in hot.values()}
    return graph


def check_hotpath(graph: HotPathGraph) -> List[Finding]:
    return list(graph.findings)


class HotPathChecker(ProjectChecker):
    """Project hook: derive the hot set, run HOT001-HOT006 over it."""

    name = "hotpath"
    rules = ("HOT001", "HOT002", "HOT003", "HOT004", "HOT005", "HOT006")

    def __init__(self) -> None:
        self.last_graph: Optional[HotPathGraph] = None

    def check_project(self, modules: Sequence[ModuleInfo],
                      project: ProjectIndex) -> Iterable[Finding]:
        graph = build_hotpath(modules)
        self.last_graph = graph
        return check_hotpath(graph)
