"""The XRL site model: one walk per module, every XRL-relevant call typed.

Everything the XRL rules need to know about a source file is a *site*:

* a :class:`SendSite` — an ``Xrl(target, "iface", "ver", "method", args)``
  construction, a proxy call on an ``X_IDL.client(...)`` stub, a textual
  ``call_xrl`` / ``Xrl.from_text`` literal, or a call to a one-level
  helper wrapper (a function that builds and sends an Xrl from its own
  parameters, like ``Cli._sync``);
* a :class:`BindSite` — a ``bind(X_IDL, impl)`` registration (direct,
  ``X_IDL.bind(router, impl)``, or through a local alias of the bound
  method) or a ``register_raw_method("iface/ver/method", ...)``;
* a :class:`DynamicSite` — a send whose interface is not a constant.

:func:`sites_of` produces them in a single walk of the module and keeps
the result on the :class:`~repro.analysis.core.ModuleInfo`, so it lives
and dies with the cached parse.  The walk also builds a :class:`Scope`
per function — what the function assigns, rebinds, mutates and reads,
indexed by name — and every "what was this name assigned" question is a
dictionary lookup in it rather than another walk of the function.

Sites hold module-local facts only.  What needs another module (a
handler inherited from a base class, a ``self._on_reply`` callback
defined on one) is kept as an unresolved reference — ``BindSite.impl``,
``SendSite.reply_method`` — for the rules to resolve through the class
index on every run.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Mapping, Optional, Tuple, Union

from repro.analysis.core import (
    Finding,
    ModuleInfo,
    enclosing_class,
    enclosing_function,
    walk_with_scopes,
)
from repro.xrl.error import XrlError
from repro.xrl.types import XrlAtomType
from repro.xrl.xrl import Xrl

#: ``(atom name, IDL type tag)``; the tag is None where the source does
#: not say (stub keywords, the untyped ``atom``/``has`` readers)
Atom = Tuple[str, Optional[str]]

#: XrlArgs builder / reader method -> IDL type tag
_ADDERS: Dict[str, str] = {f"add_{t.value}": t.value for t in XrlAtomType}
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
    via: str                       # ctor | stub | textual | wrapper
    target: Optional[str] = None   # literal target, when constant
    sync: bool = False
    #: a send call was matched to this construction (or it sends itself)
    sent: bool = True
    #: the argument atoms, when the build chain resolves statically
    atoms: Optional[Tuple[Atom, ...]] = None
    iface_line: int = 0
    args_line: int = 0
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
    """A send whose interface cannot be resolved statically."""

    package: str
    site: str
    line: int
    path: str
    reason: str


class Scope:
    """What one function binds and reads, by name, indexed during the walk.

    A nested function's statements are indexed under every function that
    encloses it too, so a lookup sees what ``ast.walk(fn)`` would.
    """

    __slots__ = ("assigns", "rebinds", "adds", "reads", "defs")

    def __init__(self, fn: Optional[ast.AST] = None) -> None:
        #: name -> its ``name = v`` / ``name: T = v`` statements
        self.assigns: Dict[str, List[ast.stmt]] = {}
        #: name -> every line that binds it, tuple unpacking included
        self.rebinds: Dict[str, List[int]] = {}
        #: name -> lines of ``name.add*(...)`` calls
        self.adds: Dict[str, List[int]] = {}
        #: name -> ``name.get_*("atom")`` reads as (line, atom, getter type)
        self.reads: Dict[str, List[Tuple[int, str, Optional[str]]]] = {}
        #: name -> the ``def`` of that name (nested, or the function itself)
        self.defs: Dict[str, ast.AST] = {}
        if isinstance(fn, _DEFS):
            self.defs[fn.name] = fn

    def assignment(self, name: str, before_line: int) -> Optional[ast.stmt]:
        """The latest assignment to *name* strictly before *before_line*."""
        best: Optional[ast.stmt] = None
        for stmt in self.assigns.get(name, ()):
            if stmt.lineno < before_line and (
                    best is None or stmt.lineno > best.lineno):
                best = stmt
        return best

    def str_values(self, node: Optional[ast.AST],
                   before_line: int) -> List[Tuple[str, int]]:
        """The string constants *node* may evaluate to, each with its line.

        Follows ``"a" if c else "b"`` and names through their closest
        preceding assignment; empty when unresolvable.
        """
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return [(node.value, node.lineno)]
        if isinstance(node, ast.IfExp):
            return (self.str_values(node.body, before_line)
                    + self.str_values(node.orelse, before_line))
        if isinstance(node, ast.Name):
            stmt = self.assignment(node.id, before_line)
            if stmt is not None:
                return self.str_values(stmt.value, stmt.lineno)
        return []

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


@dataclass
class ModuleSites:
    """Everything :func:`sites_of` learned about one module."""

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


def sites_of(module: ModuleInfo) -> ModuleSites:
    """The module's sites, scanned on first use and kept on the module."""
    if module.sites is None:
        module.sites = _Scan(module).run()
    return module.sites


def callback_reads(scopes: Mapping[ast.AST, Scope], fn: ast.AST,
                   skip: int = 0) -> List[Atom]:
    """What reply callback *fn* reads off its XrlArgs (second) parameter."""
    params = [a.arg for a in fn.args.args][skip:]
    return scopes[fn].reads_of(params[1]) if len(params) >= 2 else []


# ---------------------------------------------------------------------------
# the recognisers
# ---------------------------------------------------------------------------

def _const_str(node: Optional[ast.AST]) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _callee_name(call: ast.Call) -> Optional[str]:
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    return func.id if isinstance(func, ast.Name) else None


def _is_self_attr(node: ast.AST) -> bool:
    return (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "self")


def _constructed_class(node: ast.AST) -> Optional[str]:
    """``Name(...)`` -> "Name"."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id
    return None


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
    if _constructed_class(node) == "interface":
        return "interface(...)", _const_str(node.args[0]) if node.args else None
    return None


def _stub_interface(node: ast.AST) -> Optional[Tuple[str, Optional[str]]]:
    """``X_IDL.client(router, target)`` -> (fullname, literal target)."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "client"):
        return None
    named = _interface_named(node.func.value)
    if named is None or named[1] not in load_catalogue()[0]:
        return None
    return named[1], _const_str(node.args[1]) if len(node.args) > 1 else None


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


def _arg_chain(node: ast.AST) -> Optional[Tuple[Atom, ...]]:
    """``XrlArgs().add_txt("a", x).add_u32("b", y)`` -> atoms, else None."""
    atoms: List[Atom] = []
    while _constructed_class(node) != "XrlArgs":
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute) and node.args):
            return None
        attr, first = node.func.attr, node.args[0]
        if attr in _ADDERS and _const_str(first) is not None:
            atoms.append((_const_str(first), _ADDERS[attr]))
        elif (attr == "add" and _constructed_class(first) == "XrlAtom"
              and len(first.args) >= 2
              and _const_str(first.args[0]) is not None
              and isinstance(first.args[1], ast.Attribute)
              and first.args[1].attr in XrlAtomType.__members__):
            atoms.append((_const_str(first.args[0]),
                          XrlAtomType[first.args[1].attr].value))
        else:
            return None
        node = node.func.value
    if node.args or node.keywords:
        return None
    return tuple(reversed(atoms))


@dataclass
class _Wrapper:
    """A function whose body builds-and-sends an Xrl from its parameters."""

    params: Tuple[str, ...]            # ordered, including a leading self
    roles: Dict[str, int]              # param name -> Xrl ctor position 0..3
    sync: bool = False
    returns_args: bool = False         # returns the send_sync reply XrlArgs


# ---------------------------------------------------------------------------
# the walk
# ---------------------------------------------------------------------------

class _Scan:
    """One walk of one module; a second pass over the calls it found."""

    def __init__(self, module: ModuleInfo) -> None:
        self.module = module
        self.package = module.package or "repro"
        self.path = str(module.path)
        self.out = ModuleSites()
        self.scopes = self.out.scopes
        #: class -> attribute -> the values ``self.<attribute>`` is given
        self.class_attrs: Dict[ast.ClassDef, Dict[str, List[ast.AST]]] = {}
        self.calls: List[Tuple[ast.Call, Optional[ast.AST],
                               Optional[ast.ClassDef]]] = []
        #: call -> the single target its result is assigned to
        self.result_target: Dict[ast.Call, ast.AST] = {}
        self.wrapper_roles: Dict[ast.AST, Dict[str, int]] = {}
        self.wrappers: Dict[str, _Wrapper] = {}
        self.constructions: Dict[ast.Call, SendSite] = {}

    def run(self) -> ModuleSites:
        for node, ancestry in walk_with_scopes(self.module.tree):
            if isinstance(node, ast.Call):
                self._index_call(node, ancestry)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                self._index_binding(node, ancestry)
            elif isinstance(node, _FUNCTIONS):
                self.scopes[node] = Scope(node)
                if isinstance(node, _DEFS):
                    for scope in self._scopes_around(ancestry):
                        scope.defs.setdefault(node.name, node)
            elif isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    if (isinstance(stmt, ast.Assign)
                            and _const_str(stmt.value) is not None
                            and any(isinstance(t, ast.Name)
                                    and t.id == "process_name"
                                    for t in stmt.targets)):
                        self.out.router_classes.append(stmt.value.value)
        for fn, roles in self.wrapper_roles.items():
            self._wrapper(fn, roles)
        for call, fn, cls in self.calls:
            scope = self.scopes.get(fn, _NO_SCOPE)
            self._construction(call, fn, scope)
            self._textual(call)
            self._stub_call(call, scope, cls)
            self._wrapper_call(call, scope)
            self._bind(call, scope, cls)
            self._raw_registration(call)
            if (_callee_name(call) == "create_router"
                    and isinstance(call.func, ast.Attribute) and call.args
                    and _const_str(call.args[0]) is not None):
                self.out.router_classes.append(call.args[0].value)
        for call, fn, cls in self.calls:
            if (isinstance(call.func, ast.Attribute) and call.args
                    and call.func.attr in ("send", "send_sync", "enqueue")):
                self._attach_send(call, self.scopes.get(fn, _NO_SCOPE), cls)
        return self.out

    def _scopes_around(self, ancestry: List[ast.AST]) -> List[Scope]:
        return [self.scopes[node] for node in ancestry
                if isinstance(node, _FUNCTIONS)]

    # -- indexing ----------------------------------------------------------
    def _index_binding(self, stmt: ast.stmt, ancestry: List[ast.AST]) -> None:
        if stmt.value is None:                  # a bare ``name: T``
            return
        targets = stmt.targets if isinstance(stmt, ast.Assign) \
            else [stmt.target]
        if len(targets) == 1 and isinstance(stmt.value, ast.Call):
            self.result_target[stmt.value] = targets[0]
        scopes = self._scopes_around(ancestry)
        for target in targets:
            if isinstance(target, ast.Name):
                for scope in scopes:
                    scope.assigns.setdefault(target.id, []).append(stmt)
            elif _is_self_attr(target):
                for node in ancestry:
                    if isinstance(node, ast.ClassDef):
                        self.class_attrs.setdefault(node, {}).setdefault(
                            target.attr, []).append(stmt.value)
            names = target.elts if isinstance(target, ast.Tuple) else [target]
            for name in names:
                if isinstance(name, ast.Name):
                    for scope in scopes:
                        scope.rebinds.setdefault(name.id, []).append(
                            stmt.lineno)

    def _index_call(self, call: ast.Call, ancestry: List[ast.AST]) -> None:
        func = call.func
        fn = enclosing_function(ancestry)
        self.calls.append((call, fn, enclosing_class(ancestry)))
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            var, attr = func.value.id, func.attr
            if attr.startswith("add"):
                for scope in self._scopes_around(ancestry):
                    scope.adds.setdefault(var, []).append(call.lineno)
            elif attr in _GETTERS and call.args \
                    and _const_str(call.args[0]) is not None:
                for scope in self._scopes_around(ancestry):
                    scope.reads.setdefault(var, []).append(
                        (call.lineno, call.args[0].value, _GETTERS[attr]))
        elif (isinstance(func, ast.Name) and func.id == "Xrl"
              and len(call.args) >= 4
              and all(isinstance(a, ast.Name) for a in call.args[1:4])):
            # Interface, version and method all come from parameters of an
            # enclosing def: that def is a candidate helper wrapper.
            for outer in ancestry:
                if not isinstance(outer, _DEFS) or outer in self.wrapper_roles:
                    continue
                params = [a.arg for a in outer.args.args]
                roles = {a.id: position
                         for position, a in enumerate(call.args[:4])
                         if isinstance(a, ast.Name) and a.id in params}
                if all(position in roles.values() for position in (1, 2, 3)):
                    self.wrapper_roles[outer] = roles

    def _wrapper(self, fn: ast.AST, roles: Dict[str, int]) -> None:
        """Keep *fn* as a wrapper if its body also sends what it builds."""
        wrapper = _Wrapper(tuple(a.arg for a in fn.args.args), roles)
        sends = False
        reply_vars, returned = set(), set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute):
                attr = node.func.attr
                sends = sends or attr in ("send", "send_sync", "enqueue")
                if attr == "send_sync":
                    wrapper.sync = True
                    target = self.result_target.get(node)
                    if isinstance(target, ast.Tuple) and len(target.elts) == 2 \
                            and isinstance(target.elts[1], ast.Name):
                        reply_vars.add(target.elts[1].id)
            elif isinstance(node, ast.Return) \
                    and isinstance(node.value, ast.Name):
                returned.add(node.value.id)
        if sends:
            wrapper.returns_args = bool(reply_vars & returned)
            self.wrappers[fn.name] = wrapper

    # -- send sites ----------------------------------------------------------
    def _site(self, line: int) -> str:
        return "/".join(self.module.logical) + f".py:{line}"

    def _send_site(self, call: ast.Call, interface: str,
                   method_lines: List[Tuple[str, int]], via: str,
                   **fields: object) -> SendSite:
        site = SendSite(self.package, self._site(call.lineno), call.lineno,
                        self.path, interface, tuple(method_lines), via,
                        **fields)
        self.out.sends.append(site)
        return site

    def _dynamic(self, call: ast.Call, reason: str) -> None:
        self.out.dynamic.append(DynamicSite(
            self.package, self._site(call.lineno), call.lineno, self.path,
            reason))

    def _construction(self, call: ast.Call, fn: Optional[ast.AST],
                      scope: Scope) -> None:
        if not (_constructed_class(call) == "Xrl" and len(call.args) >= 4):
            return
        iface, version = _const_str(call.args[1]), _const_str(call.args[2])
        if iface is None or version is None:
            # A wrapper's internal constructor is represented by its
            # resolved call sites, not as a dynamic send of its own.
            if not (isinstance(fn, _DEFS) and fn.name in self.wrappers):
                self._dynamic(call, "Xrl constructed from a non-constant "
                                    "interface/version")
            return
        args_node = call.args[4] if len(call.args) >= 5 else None
        for keyword in call.keywords:
            if keyword.arg == "args":
                args_node = keyword.value
        atoms: Optional[Tuple[Atom, ...]] = ()
        if args_node is not None:
            atoms = _arg_chain(args_node)
            if atoms is None and isinstance(args_node, ast.Name):
                stmt = scope.assignment(args_node.id, call.lineno)
                if stmt is not None and all(
                        line == stmt.lineno     # else mutated after the build
                        for line in scope.adds.get(args_node.id, ())):
                    atoms = _arg_chain(stmt.value)
        self.constructions[call] = self._send_site(
            call, f"{iface}/{version}",
            scope.str_values(call.args[3], call.lineno), "ctor",
            target=_const_str(call.args[0]), sent=False, atoms=atoms,
            iface_line=call.args[1].lineno,
            args_line=(args_node or call).lineno)

    def _textual(self, call: ast.Call) -> None:
        textual = _textual_xrl(call)
        if textual is None:
            return
        text_node, sends = textual
        text = _const_str(text_node)
        if text is None:
            # The CLI's ``call <xrl>`` facility: this package can emit any
            # XRL at runtime; the dynamic/static subset check treats the
            # package's otherwise-unmatched runtime edges as explained.
            if sends:
                self._dynamic(call, "textual XRL built from dynamic text")
            return
        line = text_node.lineno
        try:
            xrl = Xrl.from_text(text)
        except XrlError as exc:
            self.out.errors.append(Finding(self.path, line, "XRL006",
                                           f"bad XRL literal: {exc}"))
            return
        site = self._send_site(
            call, f"{xrl.interface}/{xrl.version}", [(xrl.method, line)],
            "textual", target=xrl.target, sync=sends, sent=sends,
            atoms=tuple((atom.name, atom.type.value) for atom in xrl.args),
            iface_line=line, args_line=line)
        if not sends:
            self.constructions[call] = site

    def _stub_call(self, call: ast.Call, scope: Scope,
                   cls: Optional[ast.ClassDef]) -> None:
        """``stub = X_IDL.client(...); stub.method(cb, name=...)``."""
        if not isinstance(call.func, ast.Attribute):
            return
        receiver = call.func.value
        values: List[ast.AST] = []
        if isinstance(receiver, ast.Name):
            stmt = scope.assignment(receiver.id, call.lineno)
            values = [stmt.value] if stmt is not None else []
        elif _is_self_attr(receiver) and cls is not None:
            values = self.class_attrs.get(cls, {}).get(receiver.attr, [])
        stub = next(filter(None, map(_stub_interface, values)), None)
        if stub is None:
            return
        named = call.keywords and all(k.arg is not None for k in call.keywords)
        site = self._send_site(
            call, stub[0], [(call.func.attr, call.lineno)], "stub",
            target=stub[1], iface_line=call.lineno, args_line=call.lineno,
            atoms=(tuple((k.arg, None) for k in call.keywords)
                   if named else None))
        self._reply_reads(site, call.args[0] if call.args else None,
                          scope, cls)

    def _wrapper_call(self, call: ast.Call, scope: Scope) -> None:
        wrapper = self.wrappers.get(_callee_name(call))
        if wrapper is None:
            return
        params = list(wrapper.params)
        if params and params[0] == "self" \
                and isinstance(call.func, ast.Attribute):
            params = params[1:]
        by_param: Dict[str, ast.AST] = dict(zip(params, call.args))
        by_param.update({k.arg: k.value for k in call.keywords
                         if k.arg is not None})
        by_role = {position: by_param.get(param)
                   for param, position in wrapper.roles.items()}
        iface, version = _const_str(by_role[1]), _const_str(by_role[2])
        if iface is None or version is None:
            return
        site = self._send_site(
            call, f"{iface}/{version}",
            scope.str_values(by_role[3], call.lineno), "wrapper",
            target=_const_str(by_role.get(0)), sync=wrapper.sync,
            iface_line=call.lineno, args_line=call.lineno)
        reply = self.result_target.get(call)
        if wrapper.returns_args and isinstance(reply, ast.Name):
            site.reads.extend(scope.reads_of(reply.id, call.lineno))

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
        site = self.constructions.get(sent)
        attr = call.func.attr
        if site is None:
            self.out.deferred_sync |= attr == "send_sync"
            return
        site.sent = True
        if attr == "send_sync":
            site.sync = True
            reply = self.result_target.get(call)
            if isinstance(reply, ast.Tuple) and len(reply.elts) == 2 \
                    and isinstance(reply.elts[1], ast.Name) \
                    and not reply.elts[1].id.startswith("_"):
                site.reads.extend(scope.reads_of(reply.elts[1].id,
                                                 call.lineno))
            return
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
                impl = _constructed_class(stmt.value) if stmt is not None \
                    else None
        elif _is_self_attr(impl_node) and cls is not None:
            values = self.class_attrs.get(cls, {}).get(impl_node.attr, [])
            impl = next(filter(None, map(_constructed_class, values)), None)
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
