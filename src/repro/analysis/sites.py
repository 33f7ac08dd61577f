"""The one walk of a module: every fact a rule reads, collected once.

Everything the XRL rules need to know about a source file is a *site*:

* a :class:`SendSite` — a call of a sender declared at module level
  (``_ADD_ROUTE4 = RIB_IDL.sender("add_route4", ...)``, then
  ``_ADD_ROUTE4(target, ...)`` or ``(_ADD_ROUTE4 if c else
  _REPLACE_ROUTE4)(target, ...)``), a declaration of which no call
  resolves (it stands for every call the walk cannot see, as an unsent
  site), or a textual ``call_xrl`` / ``Xrl.from_text`` literal.  The
  interface and method are the declaration's, checked by
  :class:`~repro.xrl.idl.XrlSender` when its module is imported;
* a :class:`BindSite` — a ``bind(X_IDL, impl)`` registration (direct,
  ``X_IDL.bind(router, impl)``, or through a local alias of the bound
  method) or a ``register_raw_method("iface/ver/method", ...)``;
* a :class:`DynamicSite` — a send the graph cannot attribute: an
  ``Xrl`` built by hand, a sender whose method is not a constant, a
  textual XRL that is not a literal.

The other rules read the rest of what the same walk records: the
module's ``repro`` imports (ISO), every call with its enclosing function
and class (DET, CB, STG, BKD), every class (the class index) and a
:class:`Scope` per function — what it assigns, rebinds, reads,
defines and names, indexed by name — so every "what was this
name assigned" or "does this callback check liveness" question is a
dictionary lookup rather than another walk.  :func:`sites_of` walks the
module once and keeps the result on the
:class:`~repro.analysis.core.ModuleInfo`, so it lives and dies with the
cached parse; nothing else in the package traverses a tree.

Sites hold module-local facts only.  What needs another module (a
handler inherited from a base class, a ``self._on_reply`` callback
defined on one) is kept as an unresolved reference — ``BindSite.impl``,
``SendSite.reply_method`` — for the rules to resolve through the
:class:`ProjectIndex` on every run.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union

from repro.analysis.core import Finding, ModuleInfo
from repro.xrl.error import XrlError
from repro.xrl.types import XrlAtomType
from repro.xrl.xrl import Xrl

#: ``(atom name, IDL type tag)``; the tag is None where the source does
#: not say (the untyped ``atom``/``has`` readers)
Atom = Tuple[str, Optional[str]]

#: XrlArgs reader method -> IDL type tag
_GETTERS: Dict[str, Optional[str]] = {
    **{f"get_{t.value}": t.value for t in XrlAtomType},
    "atom": None, "has": None,
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)
_FUNCTIONS = _DEFS + (ast.Lambda,)


@lru_cache(maxsize=None)
def load_catalogue() -> Tuple[Dict[str, object], Dict[str, object]]:
    """The IDL catalogue plus the ``*_IDL`` constant-name map."""
    import repro.interfaces as interfaces
    from repro.xrl.idl import XrlInterface

    constants = {
        name: value for name, value in vars(interfaces).items()
        if name.endswith("_IDL") and isinstance(value, XrlInterface)
    }
    return interfaces.catalogue(), constants


# ---------------------------------------------------------------------------
# the records
# ---------------------------------------------------------------------------

@dataclass
class SendSite:
    """One statically attributed XRL send construction."""

    package: str
    site: str                      # "rib/rib.py:253" (logical, stable)
    line: int
    path: str                      # real path, for findings
    interface: str                 # "rib/1.0"
    #: every method name the site may send, with the line that spells it
    method_lines: Tuple[Tuple[str, int], ...]
    via: str                       # sender | declaration | textual
    target: Optional[str] = None   # literal target, when constant
    sync: bool = False
    #: a send call was matched to this construction (or it sends itself)
    sent: bool = True
    iface_line: int = 0
    #: caller-side reply reads: (atom name, getter type or None)
    reads: List[Atom] = field(default_factory=list)
    #: a ``self.<method>`` reply callback: (enclosing class, method name)
    reply_method: Optional[Tuple[ast.ClassDef, str]] = None

    @property
    def methods(self) -> Tuple[str, ...]:
        return tuple(sorted({name for name, _line in self.method_lines}))


@dataclass
class BindSite:
    """One handler registration."""

    package: str
    site: str
    line: int
    path: str
    interface: str
    iface_line: int
    methods: Optional[Tuple[str, ...]] = None   # None = the whole interface
    #: the implementing class: its node when it is the enclosing class, its
    #: name when the class index has to find it, None when unresolvable
    impl: Union[ast.ClassDef, str, None] = None


@dataclass
class DynamicSite:
    """A send the graph cannot attribute to an interface and method."""

    package: str
    site: str


class Scope:
    """What one function binds and reads, by name, indexed during the walk.

    A nested function's facts are folded into every function that
    encloses it when the walk leaves it, so a lookup sees what
    ``ast.walk(fn)`` would.
    """

    __slots__ = ("assigns", "rebinds", "reads", "defs", "names", "attrs",
                 "self_calls", "identity")

    def __init__(self, fn: Optional[ast.AST] = None) -> None:
        #: name -> its ``name = v`` / ``name: T = v`` statements
        self.assigns: Dict[str, List[ast.stmt]] = {}
        #: name -> every line that binds it, tuple unpacking included
        self.rebinds: Dict[str, List[int]] = {}
        #: name -> ``name.get_*("atom")`` reads as (line, atom, getter type)
        self.reads: Dict[str, List[Tuple[int, str, Optional[str]]]] = {}
        #: name -> the ``def`` of that name (nested, or the function itself)
        self.defs: Dict[str, ast.AST] = {}
        #: every ``Name`` id and every attribute name that appears
        self.names: Set[str] = set()
        self.attrs: Set[str] = set()
        #: ``self.<method>(...)`` calls, by method name
        self.self_calls: Set[str] = set()
        #: an ``is`` / ``is not`` comparison appears
        self.identity = False
        if isinstance(fn, _DEFS):
            self.defs[fn.name] = fn

    def absorb(self, inner: "Scope") -> None:
        """Fold a nested function's facts into this one's."""
        for mine, theirs in ((self.assigns, inner.assigns),
                             (self.rebinds, inner.rebinds),
                             (self.reads, inner.reads)):
            for name, entries in theirs.items():
                mine.setdefault(name, []).extend(entries)
        for name, node in inner.defs.items():
            self.defs.setdefault(name, node)
        self.names |= inner.names
        self.attrs |= inner.attrs
        self.self_calls |= inner.self_calls
        self.identity = self.identity or inner.identity

    def assignment(self, name: str, before_line: int) -> Optional[ast.stmt]:
        """The latest assignment to *name* strictly before *before_line*."""
        best: Optional[ast.stmt] = None
        for stmt in self.assigns.get(name, ()):
            if stmt.lineno < before_line and (
                    best is None or stmt.lineno > best.lineno):
                best = stmt
        return best

    def reads_of(self, var: str,
                 after_line: Optional[int] = None) -> List[Atom]:
        """Atoms read off *var*: all of them, or those between its binding
        at *after_line* and the next one."""
        reads = self.reads.get(var, ())
        if after_line is None:
            return [(atom, getter) for _line, atom, getter in reads]
        end = min((line for line in self.rebinds.get(var, ())
                   if line > after_line), default=None)
        return [(atom, getter) for line, atom, getter in reads
                if line > after_line and (end is None or line < end)]


_NO_SCOPE = Scope()     # module-level code: nothing resolves

#: ``(call, enclosing function or None, enclosing class or None)``
CallSite = Tuple[ast.Call, Optional[ast.AST], Optional[ast.ClassDef]]


@dataclass
class ModuleSites:
    """Everything the one walk learned about one module."""

    scopes: Dict[ast.AST, Scope] = field(default_factory=dict)
    sends: List[SendSite] = field(default_factory=list)
    binds: List[BindSite] = field(default_factory=list)
    dynamic: List[DynamicSite] = field(default_factory=list)
    #: calls too malformed to become a site (XRL006, unknown IDL constant)
    errors: List[Finding] = field(default_factory=list)
    #: XRL target names this module's package answers to
    router_classes: List[str] = field(default_factory=list)
    #: a ``send_sync`` of an Xrl that was built somewhere else
    deferred_sync: bool = False
    #: every call, in walk order
    calls: List[CallSite] = field(default_factory=list)
    #: every class defined in the file, nested ones included
    classes: List[ast.ClassDef] = field(default_factory=list)
    #: ``(package under repro, line)`` of each import of a repro package,
    #: ``import_module("repro.x")`` included
    imports: List[Tuple[str, int]] = field(default_factory=list)


def sites_of(module: ModuleInfo) -> ModuleSites:
    """The module's facts, walked on first use and kept on the module."""
    if module.sites is None:
        module.sites = _Scan(module).run()
    return module.sites


def callback_reads(scopes: Mapping[ast.AST, Scope], fn: ast.AST,
                   skip: int = 0) -> List[Atom]:
    """What reply callback *fn* reads off its XrlArgs (second) parameter."""
    params = [a.arg for a in fn.args.args][skip:]
    return scopes[fn].reads_of(params[1]) if len(params) >= 2 else []


class ProjectIndex:
    """Cross-module lookups over every module's facts: classes by simple
    name (a handler or callback may be inherited from another file) and
    every function's :class:`Scope`."""

    def __init__(self, modules: Sequence[ModuleInfo]):
        self.classes: Dict[str, List[ast.ClassDef]] = {}
        self.scopes: Dict[ast.AST, Scope] = {}
        for module in modules:
            sites = sites_of(module)
            for node in sites.classes:
                self.classes.setdefault(node.name, []).append(node)
            self.scopes.update(sites.scopes)

    def class_def(self, name: Optional[str]) -> Optional[ast.ClassDef]:
        entries = self.classes.get(name)
        return entries[0] if entries else None

    def find_method(self, cls: ast.ClassDef, *names: str,
                    _seen: Optional[Set[str]] = None) -> Optional[ast.AST]:
        """The first of *names* defined on *cls* or a resolvable base."""
        seen = _seen if _seen is not None else set()
        if cls.name in seen:
            return None
        seen.add(cls.name)
        # Mirror XrlInterface.bind's preference order: the first of *names*
        # wins (``xrl_m`` before the bare ``m`` fallback), not body order.
        defined = {node.name: node for node in cls.body
                   if isinstance(node, _DEFS)}
        for name in names:
            if name in defined:
                return defined[name]
        for base in cls.bases:
            base_def = self.class_def(simple_name(base))
            if base_def is not None:
                found = self.find_method(base_def, *names, _seen=seen)
                if found is not None:
                    return found
        return None

    def subclasses(self, base: str) -> Set[str]:
        """Names of the classes deriving from *base*, at any depth."""
        found: Set[str] = set()
        frontier = {base}
        while frontier:
            frontier = {name for name, nodes in self.classes.items()
                        if name not in found
                        and any(simple_name(b) in frontier
                                for node in nodes for b in node.bases)}
            found |= frontier
        return found


# ---------------------------------------------------------------------------
# the recognisers
# ---------------------------------------------------------------------------

def _const_str(node: Optional[ast.AST]) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def simple_name(node: ast.AST) -> Optional[str]:
    """``name`` for ``name`` and ``x.name``, else None."""
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def _callee_name(call: ast.Call) -> Optional[str]:
    return simple_name(call.func)


def _is_self_attr(node: ast.AST) -> bool:
    return (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "self")


def _called(node: ast.AST) -> Optional[str]:
    """``f(...)`` / ``x.f(...)`` -> "f"."""
    return _callee_name(node) if isinstance(node, ast.Call) else None


def _interface_named(node: ast.AST) -> Optional[Tuple[str, Optional[str]]]:
    """``(label, fullname)`` when *node* names an interface, else None.

    An ``X_IDL`` constant (fullname None when :mod:`repro.interfaces` has
    no such constant) or an ``interface("iface/ver")`` call.
    """
    name = node.id if isinstance(node, ast.Name) else (
        node.attr if isinstance(node, ast.Attribute) else None)
    if name is not None and name.endswith("_IDL"):
        iface = load_catalogue()[1].get(name)
        return name, (iface.fullname if iface is not None else None)
    if _called(node) == "interface":
        return "interface(...)", _const_str(node.args[0]) if node.args else None
    return None


def _textual_xrl(call: ast.Call) -> Optional[Tuple[Optional[ast.AST], bool]]:
    """``(text node, sends)`` for ``call_xrl(router, text)`` (which sends)
    and ``Xrl.from_text(text)`` (which only constructs)."""
    func = call.func
    if _callee_name(call) in ("call_xrl", "call_xrl_checked"):
        return (call.args[1] if len(call.args) > 1 else None), True
    if (isinstance(func, ast.Attribute) and func.attr == "from_text"
            and isinstance(func.value, ast.Name) and func.value.id == "Xrl"):
        return (call.args[0] if call.args else None), False
    return None


def _bind_interface(call: ast.Call, scope: Scope
                    ) -> Optional[Tuple[ast.AST, Optional[ast.AST]]]:
    """``(interface node, implementation node)`` of a bind registration.

    ``router.bind(X_IDL, impl)``, ``X_IDL.bind(router, impl)``, helper
    wrappers like ``XorpProcess.bind``, and one level of local aliasing —
    ``register = router.bind; register(X_IDL, self)``.
    """
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr == "bind":
        receiver = func.value
    elif isinstance(func, ast.Name):
        stmt = scope.assignment(func.id, call.lineno)
        if stmt is None or not (isinstance(stmt.value, ast.Attribute)
                                and stmt.value.attr == "bind"):
            return None
        receiver = stmt.value.value
    else:
        return None
    if _interface_named(receiver) is not None:
        return receiver, (call.args[1] if len(call.args) > 1 else None)
    for index, arg in enumerate(call.args):
        if _interface_named(arg) is not None:
            return arg, (call.args[index + 1]
                         if index + 1 < len(call.args) else None)
    return None


# ---------------------------------------------------------------------------
# the walk
# ---------------------------------------------------------------------------

_SENDS = ("send", "send_sync", "enqueue")

#: nodes the walk records nothing of and that have no children to visit
_LEAVES = frozenset({ast.Load, ast.Store, ast.Del, ast.Constant})


def _repro_package(dotted: Optional[str]) -> Optional[str]:
    """``"repro.bgp.peer"`` -> ``"bgp"``; None outside ``repro``."""
    parts = (dotted or "").split(".")
    return parts[1] if parts[0] == "repro" and len(parts) > 1 else None


class _Scan:
    """One walk of one module; a second pass over the calls it found."""

    def __init__(self, module: ModuleInfo) -> None:
        self.module = module
        self.package = module.package or "repro"
        self.path = str(module.path)
        self.out = ModuleSites()
        self.scopes = self.out.scopes
        #: the functions (defs and lambdas) and classes around the node
        self.functions: List[ast.AST] = []
        self.classes: List[ast.ClassDef] = []
        #: the innermost function's scope; at module level a scope that
        #: collects and is never consulted
        self.scope = Scope()
        #: class -> attribute -> the values ``self.<attribute>`` is given
        self.class_attrs: Dict[ast.ClassDef, Dict[str, List[ast.AST]]] = {}
        #: call -> the single target its result is assigned to
        self.result_target: Dict[ast.Call, ast.AST] = {}
        #: module-level name -> the call whose result it is bound to
        self.module_calls: Dict[str, ast.Call] = {}
        #: ``X_IDL.sender(...)`` call -> the site it is when no call of
        #: the sender resolves
        self.declarations: Dict[ast.Call, SendSite] = {}
        #: the declarations some call of which resolved
        self.called: Set[ast.Call] = set()
        #: what a call builds: the sites a send of its result sends
        self.constructions: Dict[ast.Call, List[SendSite]] = {}

    def run(self) -> ModuleSites:
        self._visit(self.module.tree)
        for call, fn, cls in self.out.calls:
            self._sender_call(call)
            self._hand_built(call, cls)
            self._textual(call)
            self._bind(call, self.scopes.get(fn, _NO_SCOPE), cls)
            self._raw_registration(call)
            if (_callee_name(call) == "create_router"
                    and isinstance(call.func, ast.Attribute) and call.args
                    and _const_str(call.args[0]) is not None):
                self.out.router_classes.append(call.args[0].value)
        self.out.sends.extend(site for call, site in self.declarations.items()
                              if call not in self.called)
        for call, fn, cls in self.out.calls:
            if (isinstance(call.func, ast.Attribute) and call.args
                    and call.func.attr in _SENDS):
                self._attach_send(call, self.scopes.get(fn, _NO_SCOPE), cls)
        return self.out

    # -- the walk ------------------------------------------------------------
    def _visit(self, node: ast.AST) -> None:
        kind = type(node)
        if kind in _FUNCTIONS:
            self._function(node)
            return
        if kind is ast.ClassDef:
            self._class(node)
            return
        scope = self.scope
        if kind is ast.Name:
            scope.names.add(node.id)
            return                      # its one child is its context
        if kind is ast.Attribute:
            scope.attrs.add(node.attr)
        elif kind is ast.Call:
            self._index_call(node)
        elif kind is ast.Assign or kind is ast.AnnAssign:
            self._index_binding(node)
        elif kind is ast.Compare:
            scope.identity = scope.identity or any(
                isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
        elif kind is ast.Import:
            for alias in node.names:
                package = _repro_package(alias.name)
                if package is not None:
                    self.out.imports.append((package, node.lineno))
        elif kind is ast.ImportFrom:
            package = _repro_package(node.module) if node.level == 0 \
                else None
            if package is not None:
                self.out.imports.append((package, node.lineno))
        for child in ast.iter_child_nodes(node):
            if type(child) not in _LEAVES:
                self._visit(child)

    def _function(self, fn: ast.AST) -> None:
        outer = self.scope
        scope = self.scopes[fn] = Scope(fn)
        if isinstance(fn, _DEFS):
            outer.defs.setdefault(fn.name, fn)
        self.functions.append(fn)
        self.scope = scope
        for child in ast.iter_child_nodes(fn):
            self._visit(child)
        self.scope = outer
        self.functions.pop()
        outer.absorb(scope)

    def _class(self, cls: ast.ClassDef) -> None:
        self.out.classes.append(cls)
        for stmt in cls.body:
            if (isinstance(stmt, ast.Assign)
                    and _const_str(stmt.value) is not None
                    and any(isinstance(t, ast.Name) and t.id == "process_name"
                            for t in stmt.targets)):
                self.out.router_classes.append(stmt.value.value)
        self.classes.append(cls)
        for child in ast.iter_child_nodes(cls):
            self._visit(child)
        self.classes.pop()

    def _index_binding(self, stmt: ast.stmt) -> None:
        if stmt.value is None:                  # a bare ``name: T``
            return
        targets = stmt.targets if isinstance(stmt, ast.Assign) \
            else [stmt.target]
        if len(targets) == 1 and isinstance(stmt.value, ast.Call):
            self.result_target[stmt.value] = targets[0]
            if isinstance(targets[0], ast.Name) and not self.functions \
                    and not self.classes:
                self.module_calls[targets[0].id] = stmt.value
        scope = self.scope
        for target in targets:
            if isinstance(target, ast.Name):
                scope.assigns.setdefault(target.id, []).append(stmt)
            elif _is_self_attr(target):
                for cls in self.classes:
                    self.class_attrs.setdefault(cls, {}).setdefault(
                        target.attr, []).append(stmt.value)
            names = target.elts if isinstance(target, ast.Tuple) else [target]
            for name in names:
                if isinstance(name, ast.Name):
                    scope.rebinds.setdefault(name.id, []).append(stmt.lineno)

    def _index_call(self, call: ast.Call) -> None:
        func = call.func
        scope = self.scope
        self.out.calls.append((call, self.functions[-1] if self.functions
                               else None,
                               self.classes[-1] if self.classes else None))
        if isinstance(func, ast.Attribute):
            if isinstance(func.value, ast.Name):
                var, attr = func.value.id, func.attr
                if attr in _GETTERS and call.args \
                        and _const_str(call.args[0]) is not None:
                    scope.reads.setdefault(var, []).append(
                        (call.lineno, call.args[0].value, _GETTERS[attr]))
                if var == "self":
                    scope.self_calls.add(attr)
            if func.attr == "sender":
                self._declaration(call)
        if _callee_name(call) == "import_module" and call.args:
            package = _repro_package(_const_str(call.args[0]))
            if package is not None:
                self.out.imports.append((package, call.lineno))

    # -- send sites ----------------------------------------------------------
    def _site(self, line: int) -> str:
        return "/".join(self.module.logical) + f".py:{line}"

    def _send_site(self, line: int, interface: str,
                   method_lines: List[Tuple[str, int]], via: str,
                   **fields: object) -> SendSite:
        return SendSite(self.package, self._site(line), line, self.path,
                        interface, tuple(method_lines), via, **fields)

    def _dynamic(self, call: ast.Call) -> None:
        self.out.dynamic.append(DynamicSite(self.package,
                                            self._site(call.lineno)))

    def _declaration(self, call: ast.Call) -> None:
        """``X_IDL.sender("method", ...)``: unsent until a call of it
        resolves."""
        named = _interface_named(call.func.value)
        if named is None or named[1] is None:
            return                  # not an interface, or no import at all
        method = _const_str(call.args[0]) if call.args else None
        if method is None:
            self._dynamic(call)
            return
        self.declarations[call] = self._send_site(
            call.lineno, named[1], [(method, call.args[0].lineno)],
            "declaration", sent=False, iface_line=call.lineno)

    def _sender_call(self, call: ast.Call) -> None:
        """``NAME(target, ...)``, ``(A if c else B)(target, ...)``: a send
        of each named module-level sender's method."""
        func = call.func
        sites = []
        for name in ((func.body, func.orelse) if isinstance(func, ast.IfExp)
                     else (func,)):
            declared = self.module_calls.get(name.id) \
                if isinstance(name, ast.Name) else None
            if declared not in self.declarations:
                continue
            self.called.add(declared)
            site = replace(self.declarations[declared], via="sender",
                           line=call.lineno, site=self._site(call.lineno),
                           target=_const_str(call.args[0]) if call.args
                           else None, reads=[])
            self.out.sends.append(site)
            sites.append(site)
        if sites:
            self.constructions[call] = sites

    def _hand_built(self, call: ast.Call, cls: Optional[ast.ClassDef]) -> None:
        """An ``Xrl`` built by hand is a send the graph cannot attribute;
        the one :class:`~repro.xrl.idl.XrlSender` builds is every
        declaration's."""
        if isinstance(call.func, ast.Name) and call.func.id == "Xrl" \
                and (cls is None or cls.name != "XrlSender"):
            self._dynamic(call)

    def _textual(self, call: ast.Call) -> None:
        textual = _textual_xrl(call)
        if textual is None:
            return
        text_node, sends = textual
        text = _const_str(text_node)
        if text is None:
            # The CLI's ``call <xrl>`` facility: this package can emit
            # any XRL at runtime, and the graph export says so.
            if sends:
                self._dynamic(call)
            return
        line = text_node.lineno
        try:
            xrl = Xrl.from_text(text)
        except XrlError as exc:
            self.out.errors.append(Finding(self.path, line, "XRL006",
                                           f"bad XRL literal: {exc}"))
            return
        site = self._send_site(
            call.lineno, f"{xrl.interface}/{xrl.version}",
            [(xrl.method, line)], "textual", target=xrl.target, sync=sends,
            sent=sends, iface_line=line)
        self.out.sends.append(site)
        if not sends:
            self.constructions[call] = [site]

    def _reply_reads(self, site: SendSite, callback: Optional[ast.AST],
                     scope: Scope, cls: Optional[ast.ClassDef]) -> None:
        """Record what the reply callback reads off its XrlArgs.

        Inline lambdas and one-level local ``def``\\ s resolve here;
        ``self._cb`` is left for the class index; anything else
        (forwarded parameters, partials) stays unresolved — conservative,
        so PRO003 never guesses.
        """
        target = callback if isinstance(callback, ast.Lambda) else (
            scope.defs.get(callback.id) if isinstance(callback, ast.Name)
            else None)
        if target is not None:
            site.reads.extend(callback_reads(self.scopes, target))
        elif callback is not None and _is_self_attr(callback) \
                and cls is not None:
            site.reply_method = (cls, callback.attr)

    def _attach_send(self, call: ast.Call, scope: Scope,
                     cls: Optional[ast.ClassDef]) -> None:
        """Match a send call to the construction of what it sends."""
        sent = call.args[0]
        if isinstance(sent, ast.Name):
            stmt = scope.assignment(sent.id, call.lineno)
            sent = stmt.value if stmt is not None else None
        sites = self.constructions.get(sent)
        attr = call.func.attr
        if sites is None:
            self.out.deferred_sync |= attr == "send_sync"
            return
        for site in sites:
            site.sent = True
            if attr == "send_sync":
                site.sync = True
                reply = self.result_target.get(call)
                if isinstance(reply, ast.Tuple) and len(reply.elts) == 2 \
                        and isinstance(reply.elts[1], ast.Name) \
                        and not reply.elts[1].id.startswith("_"):
                    site.reads.extend(scope.reads_of(reply.elts[1].id,
                                                     call.lineno))
                continue
            callback = call.args[1] if attr == "send" and len(call.args) > 1 \
                else None
            for keyword in call.keywords:
                if keyword.arg in ("callback", "on_reply"):
                    callback = keyword.value
            self._reply_reads(site, callback, scope, cls)

    # -- bind sites ----------------------------------------------------------
    def _bind(self, call: ast.Call, scope: Scope,
              cls: Optional[ast.ClassDef]) -> None:
        bound = _bind_interface(call, scope)
        if bound is None:
            return
        iface_node, impl_node = bound
        label, fullname = _interface_named(iface_node)
        if fullname is None:
            self.out.errors.append(Finding(
                self.path, iface_node.lineno, "XRL001",
                f"interface constant {label!r} is not in the "
                f"repro.interfaces catalogue"))
            return
        impl: Union[ast.ClassDef, str, None] = None
        if impl_node is None or (isinstance(impl_node, ast.Constant)
                                 and impl_node.value is None):
            impl = cls
        elif isinstance(impl_node, ast.Name):
            if impl_node.id == "self":
                impl = cls
            else:
                stmt = scope.assignment(impl_node.id, call.lineno)
                impl = _called(stmt.value) if stmt is not None else None
        elif _is_self_attr(impl_node) and cls is not None:
            values = self.class_attrs.get(cls, {}).get(impl_node.attr, [])
            impl = next(filter(None, map(_called, values)), None)
        self.out.binds.append(BindSite(
            self.package, self._site(call.lineno), call.lineno, self.path,
            fullname, iface_node.lineno, impl=impl))

    def _raw_registration(self, call: ast.Call) -> None:
        if not (isinstance(call.func, ast.Attribute) and call.args
                and call.func.attr == "register_raw_method"):
            return
        method_path = _const_str(call.args[0])
        if method_path is None:
            return
        parts = method_path.split("/")
        if len(parts) != 3:
            self.out.errors.append(Finding(
                self.path, call.args[0].lineno, "XRL006",
                f"malformed method path {method_path!r} "
                "(want interface/version/method)"))
            return
        self.out.binds.append(BindSite(
            self.package, self._site(call.lineno), call.lineno, self.path,
            f"{parts[0]}/{parts[1]}", call.args[0].lineno,
            methods=(parts[2],)))
