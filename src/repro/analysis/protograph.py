"""The whole-system XRL protocol graph (interprocedural analysis).

The per-module checkers in :mod:`repro.analysis.xrlcheck` prove each
call site and each ``bind()`` well-formed *in isolation*.  This pass
proves the protocol surface is **closed** across the whole tree, the
property the paper's multi-process split rests on (§4, §6.1): every XRL
someone sends is handled by some process, no synchronous request cycle
can deadlock two single-threaded event loops, and reply schemas match
what callers actually read.

It attributes every send construction (``Xrl(...)`` constructors, client
stubs, textual ``call_xrl`` literals, and one level of helper wrappers
like ``Cli._sync``) and every registration (``bind()``,
``register_raw_method``) to its owning process package, joins them
through the :mod:`repro.interfaces` catalogue, and materialises the
process-interaction graph.  Rules on that graph:

* ``PRO001`` — send with no handler bound in any process (error);
* ``PRO002`` — synchronous request edge on an inter-process request
  cycle: a deadlock once each process is a real OS subprocess — the
  static gate for ROADMAP item 2 (error);
* ``PRO003`` — caller reads a reply atom the handler's IDL reply spec
  never produces, or reads it with the wrong typed getter (error);
* ``PRO004`` — handler bound but never sent to from anywhere (warning);
* ``PRO005`` — multiple versions of one interface live at once (warning);
* ``PRO006`` — declared reply atom no caller anywhere reads (info).

The graph itself is exported as byte-stable JSON (``--graph-out``) and
Graphviz dot (``--graph-dot``); :mod:`repro.sanitizer.protocheck` checks
runtime-observed trace edges against it (dynamic ⊆ static agreement).
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.analysis.core import (
    Finding,
    ModuleInfo,
    ProjectChecker,
    ProjectIndex,
    closest_assignment,
    enclosing_class as _enclosing_class,
    enclosing_function as _enclosing_function,
    resolve_str_values,
    walk_with_scopes as _walk_with_scopes,
)
from repro.analysis.isolation import HARNESS_PACKAGES, PROCESS_PACKAGES
from repro.analysis.xrlcheck import (
    _const_str,
    _is_idl_name,
    _is_interface_call,
    load_catalogue,
    resolve_bind_attr,
)

#: XrlArgs reader method -> IDL type tag (None = untyped access)
GETTER_TYPES: Dict[str, Optional[str]] = {
    "get_i32": "i32", "get_u32": "u32", "get_i64": "i64", "get_u64": "u64",
    "get_txt": "txt", "get_bool": "bool", "get_ipv4": "ipv4",
    "get_ipv6": "ipv6", "get_ipv4net": "ipv4net", "get_ipv6net": "ipv6net",
    "get_mac": "mac", "get_binary": "binary", "get_list": "list",
    "atom": None, "has": None,
}


# ---------------------------------------------------------------------------
# graph model
# ---------------------------------------------------------------------------

@dataclass
class SendSite:
    """One statically attributed XRL send construction."""

    package: str
    site: str                      # "rib/rib.py:253" (logical, stable)
    line: int
    path: str                      # real path, for findings
    interface: str                 # "rib/1.0"
    methods: Tuple[str, ...]       # resolved method names (may be empty)
    sync: bool = False
    via: str = "ctor"              # ctor | stub | textual | wrapper
    target: Optional[str] = None   # literal target, when constant
    #: caller-side reply reads: (atom-name, getter-type-or-None)
    reads: List[Tuple[str, Optional[str]]] = field(default_factory=list)
    #: a send call was matched to this construction
    sent: bool = False


@dataclass
class BindSite:
    """One handler registration."""

    package: str
    site: str
    line: int
    path: str
    interface: str
    methods: Optional[Tuple[str, ...]] = None   # None = the whole interface


@dataclass
class DynamicSite:
    """A send whose interface cannot be resolved statically."""

    package: str
    site: str
    line: int
    path: str
    reason: str


@dataclass
class Edge:
    """Aggregated inter-package request edge."""

    src: str
    dst: str
    interface: str
    sync: bool
    methods: Set[str] = field(default_factory=set)
    sites: Set[str] = field(default_factory=set)


class ProtocolGraph:
    """Everything the interprocedural pass learned about the XRL surface."""

    def __init__(self, catalogue: Dict[str, object]):
        self.catalogue = catalogue
        self.packages: Dict[str, str] = {}      # name -> kind
        self.send_sites: List[SendSite] = []
        self.bind_sites: List[BindSite] = []
        self.dynamic_sites: List[DynamicSite] = []
        self.edges: Dict[Tuple[str, str, str, bool], Edge] = {}
        self.class_map: Dict[str, str] = {}     # router class name -> package
        #: packages with a ``send_sync`` of an Xrl built somewhere else
        self.deferred_sync: Set[str] = set()
        self.consumed_atoms: Set[str] = set()   # every atom name read anywhere

    # -- derived views ----------------------------------------------------
    def binders(self, fullname: str) -> List[BindSite]:
        return [b for b in self.bind_sites if b.interface == fullname]

    def bound_methods(self, fullname: str) -> Optional[Set[str]]:
        """Methods handled for *fullname*; None when nothing binds it."""
        binders = self.binders(fullname)
        if not binders:
            return None
        methods: Set[str] = set()
        iface = self.catalogue.get(fullname)
        for bind in binders:
            if bind.methods is None:
                if iface is not None:
                    methods.update(iface.methods)
            else:
                methods.update(bind.methods)
        return methods

    def sent_methods(self, fullname: str) -> Set[str]:
        methods: Set[str] = set()
        for site in self.send_sites:
            if site.interface == fullname:
                methods.update(site.methods)
        return methods

    def add_edge(self, src: str, dst: str, interface: str, sync: bool,
                 methods: Iterable[str], site: str) -> None:
        key = (src, dst, interface, sync)
        edge = self.edges.get(key)
        if edge is None:
            edge = self.edges[key] = Edge(src, dst, interface, sync)
        edge.methods.update(methods)
        edge.sites.add(site)

    # -- exports ----------------------------------------------------------
    def to_json_dict(self) -> dict:
        interfaces: Dict[str, dict] = {}
        used = ({s.interface for s in self.send_sites}
                | {b.interface for b in self.bind_sites})
        for fullname in sorted(used):
            bound = self.bound_methods(fullname)
            interfaces[fullname] = {
                "binders": sorted({b.package for b in self.binders(fullname)}),
                "senders": sorted({s.package for s in self.send_sites
                                   if s.interface == fullname}),
                "sent_methods": sorted(self.sent_methods(fullname)),
                "bound_methods": sorted(bound) if bound is not None else [],
                "in_catalogue": fullname in self.catalogue,
            }
        dynamic: Dict[str, List[str]] = {}
        for site in self.dynamic_sites:
            dynamic.setdefault(site.package, []).append(site.site)
        return {
            "schema": "repro.protograph/1",
            "packages": {name: {"kind": kind}
                         for name, kind in sorted(self.packages.items())},
            "interfaces": interfaces,
            "edges": [
                {
                    "from": e.src, "to": e.dst, "interface": e.interface,
                    "sync": e.sync, "methods": sorted(e.methods),
                    "sites": sorted(e.sites),
                }
                for e in sorted(self.edges.values(),
                                key=lambda e: (e.src, e.dst, e.interface,
                                               e.sync))
            ],
            "send_sites": [
                {
                    "package": s.package, "site": s.site,
                    "interface": s.interface, "methods": sorted(s.methods),
                    "sync": s.sync, "via": s.via, "target": s.target,
                    "reads": sorted({a for a, _t in s.reads}),
                }
                for s in sorted(self.send_sites,
                                key=lambda s: (s.site, s.line, s.interface))
            ],
            "bind_sites": [
                {
                    "package": b.package, "site": b.site,
                    "interface": b.interface,
                    "methods": (sorted(b.methods)
                                if b.methods is not None else "*"),
                }
                for b in sorted(self.bind_sites,
                                key=lambda b: (b.site, b.line, b.interface))
            ],
            "dynamic_senders": {pkg: sorted(sites)
                                for pkg, sites in sorted(dynamic.items())},
            "router_classes": dict(sorted(self.class_map.items())),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    def to_dot(self) -> str:
        shapes = {"process": "box", "harness": "ellipse", "shared": "folder"}
        lines = [
            "digraph protograph {",
            "  rankdir=LR;",
            '  node [fontname="Helvetica", fontsize=11];',
            '  edge [fontname="Helvetica", fontsize=9];',
        ]
        used = {e.src for e in self.edges.values()} \
            | {e.dst for e in self.edges.values()}
        for name in sorted(used):
            kind = self.packages.get(name, "shared")
            lines.append(f'  "{name}" [shape={shapes[kind]}];')
        for edge in sorted(self.edges.values(),
                           key=lambda e: (e.src, e.dst, e.interface, e.sync)):
            style = ', color="red", penwidth=2.0' if edge.sync else ""
            label = edge.interface + (" (sync)" if edge.sync else "")
            lines.append(f'  "{edge.src}" -> "{edge.dst}" '
                         f'[label="{label}"{style}];')
        lines.append("}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# helper-wrapper recognition (one level: rtrmgr._call, cli._sync, ...)
# ---------------------------------------------------------------------------

@dataclass
class _Wrapper:
    """A function whose body builds-and-sends an Xrl from its parameters."""

    name: str
    params: Tuple[str, ...]            # ordered, including a leading self
    roles: Dict[str, int]              # param name -> Xrl ctor position 0..3
    sync: bool
    returns_args: bool                 # returns the send_sync reply XrlArgs


def _find_wrappers(tree: ast.Module) -> Dict[str, _Wrapper]:
    wrappers: Dict[str, _Wrapper] = {}
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        params = tuple(a.arg for a in fn.args.args)
        roles: Dict[str, int] = {}
        for node in ast.walk(fn):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "Xrl" and len(node.args) >= 4):
                continue
            candidate: Dict[str, int] = {}
            for position in (1, 2, 3):
                arg = node.args[position]
                if isinstance(arg, ast.Name) and arg.id in params:
                    candidate[arg.id] = position
            if len(candidate) == 3:
                if isinstance(node.args[0], ast.Name) \
                        and node.args[0].id in params:
                    candidate[node.args[0].id] = 0
                roles = candidate
                break
        if not roles:
            continue
        sync = any(isinstance(n, ast.Call)
                   and isinstance(n.func, ast.Attribute)
                   and n.func.attr == "send_sync"
                   for n in ast.walk(fn))
        if not sync and not any(
                isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                and n.func.attr in ("send", "enqueue") for n in ast.walk(fn)):
            continue
        returns_args = False
        reply_vars: Set[str] = set()
        for node in ast.walk(fn):
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Tuple)
                    and len(node.targets[0].elts) == 2
                    and all(isinstance(e, ast.Name)
                            for e in node.targets[0].elts)
                    and isinstance(node.value, ast.Call)
                    and isinstance(node.value.func, ast.Attribute)
                    and node.value.func.attr == "send_sync"):
                reply_vars.add(node.targets[0].elts[1].id)
        for node in ast.walk(fn):
            if (isinstance(node, ast.Return)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in reply_vars):
                returns_args = True
        wrappers[fn.name] = _Wrapper(fn.name, params, roles, sync,
                                     returns_args)
    return wrappers


# ---------------------------------------------------------------------------
# reply-read extraction
# ---------------------------------------------------------------------------

def _getter_reads(subtree: ast.AST, var: str
                  ) -> List[Tuple[str, Optional[str]]]:
    """Every ``var.get_*("name")`` style read inside *subtree*."""
    reads: List[Tuple[str, Optional[str]]] = []
    for node in ast.walk(subtree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in GETTER_TYPES
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == var
                and node.args):
            name = _const_str(node.args[0])
            if name is not None:
                reads.append((name, GETTER_TYPES[node.func.attr]))
    return reads


def _window_reads(fn: ast.AST, var: str,
                  start_line: int) -> List[Tuple[str, Optional[str]]]:
    """Reads of *var* between its assignment at *start_line* and the next."""
    assign_lines = sorted(
        node.lineno for node in ast.walk(fn)
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == var
                or (isinstance(t, ast.Tuple)
                    and any(isinstance(e, ast.Name) and e.id == var
                            for e in t.elts))
                for t in node.targets))
    end_line = None
    for line in assign_lines:
        if line > start_line:
            end_line = line
            break
    reads: List[Tuple[str, Optional[str]]] = []
    for node in ast.walk(fn):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in GETTER_TYPES
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == var
                and node.args
                and node.lineno > start_line
                and (end_line is None or node.lineno < end_line)):
            name = _const_str(node.args[0])
            if name is not None:
                reads.append((name, GETTER_TYPES[node.func.attr]))
    return reads


def _callback_reads(cb: Optional[ast.AST], fn: Optional[ast.AST],
                    cls: Optional[ast.ClassDef], project: ProjectIndex
                    ) -> List[Tuple[str, Optional[str]]]:
    """Reads a reply callback performs on its XrlArgs parameter.

    Resolves inline lambdas, one-level local ``def``\\ s, and ``self._cb``
    methods; anything else (forwarded parameters, partials) is left
    unresolved — conservative, so PRO003 never guesses.
    """
    if cb is None:
        return []
    if isinstance(cb, ast.Lambda):
        params = [a.arg for a in cb.args.args]
        if len(params) >= 2:
            return _getter_reads(cb.body, params[1])
        return []
    target_def: Optional[ast.AST] = None
    skip_self = 0
    if isinstance(cb, ast.Name) and fn is not None:
        for node in ast.walk(fn):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node.name == cb.id:
                target_def = node
                break
    elif isinstance(cb, ast.Attribute) and isinstance(cb.value, ast.Name) \
            and cb.value.id == "self" and cls is not None:
        target_def, _complete = project.find_method(cls, cb.attr)
        skip_self = 1
    if target_def is None:
        return []
    params = [a.arg for a in target_def.args.args][skip_self:]
    if len(params) >= 2:
        return _getter_reads(target_def, params[1])
    return []


# ---------------------------------------------------------------------------
# collection
# ---------------------------------------------------------------------------

def _package_of(module: ModuleInfo) -> str:
    # Top-level modules (repro/interfaces.py, repro/__init__.py) belong
    # to the shared package root rather than a package of their own.
    return module.package or "repro"


def _package_kind(package: str) -> str:
    if package in PROCESS_PACKAGES:
        return "process"
    if package in HARNESS_PACKAGES:
        return "harness"
    return "shared"


def _logical_site(module: ModuleInfo, line: int) -> str:
    return "/".join(module.logical) + f".py:{line}"


class _Collector:
    """One pass over one module, feeding the graph."""

    def __init__(self, graph: ProtocolGraph, project: ProjectIndex,
                 idl_constants: Dict[str, object]):
        self.graph = graph
        self.project = project
        self.idl_constants = idl_constants

    def collect(self, module: ModuleInfo) -> None:
        graph = self.graph
        package = _package_of(module)
        graph.packages.setdefault(package, _package_kind(package))
        wrappers = _find_wrappers(module.tree)
        ctors: Dict[int, SendSite] = {}
        pending_sends: List[Tuple[ast.Call, Optional[ast.AST],
                                  Optional[ast.ClassDef],
                                  List[ast.AST]]] = []

        for node, ancestry in _walk_with_scopes(module.tree):
            if isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    if (isinstance(stmt, ast.Assign)
                            and any(isinstance(t, ast.Name)
                                    and t.id == "process_name"
                                    for t in stmt.targets)):
                        name = _const_str(stmt.value)
                        if name is not None:
                            self._map_class(name, package)
            if not isinstance(node, ast.Call):
                continue
            fn = _enclosing_function(ancestry)
            cls = _enclosing_class(ancestry)
            # global read inventory (feeds PRO006)
            if (isinstance(node.func, ast.Attribute)
                    and node.func.attr in GETTER_TYPES and node.args):
                name = _const_str(node.args[0])
                if name is not None:
                    graph.consumed_atoms.add(name)
            if (isinstance(node.func, ast.Attribute)
                    and node.func.attr == "create_router" and node.args):
                name = _const_str(node.args[0])
                if name is not None:
                    self._map_class(name, package)
            self._collect_ctor(module, package, node, fn, ctors, wrappers)
            self._collect_bind(module, package, node, fn)
            self._collect_raw(module, package, node)
            self._collect_textual(module, package, node)
            self._collect_stub(module, package, node, fn, cls)
            self._collect_wrapper_call(module, package, node, fn, wrappers)
            if (isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("send", "send_sync", "enqueue")
                    and node.args):
                pending_sends.append((node, fn, cls, list(ancestry)))

        for call, fn, cls, ancestry in pending_sends:
            if not self._attach_send(call, fn, cls, ancestry, ctors) \
                    and call.func.attr == "send_sync":
                graph.deferred_sync.add(package)
        graph.send_sites.extend(ctors.values())

    def _map_class(self, name: str, package: str) -> None:
        existing = self.graph.class_map.get(name)
        if existing is not None and existing != package:
            self.graph.class_map[name] = "?"       # ambiguous: never narrow
        else:
            self.graph.class_map[name] = package

    # -- Xrl(...) constructors --------------------------------------------
    def _collect_ctor(self, module: ModuleInfo, package: str, call: ast.Call,
                      fn: Optional[ast.AST], ctors: Dict[int, SendSite],
                      wrappers: Dict[str, _Wrapper]) -> None:
        if not (isinstance(call.func, ast.Name) and call.func.id == "Xrl"
                and len(call.args) >= 4):
            return
        iface = _const_str(call.args[1])
        version = _const_str(call.args[2])
        if iface is None or version is None:
            # A wrapper's internal constructor is represented by its
            # resolved call sites, not as a dynamic send of its own.
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and fn.name in wrappers:
                return
            self.graph.dynamic_sites.append(DynamicSite(
                package, _logical_site(module, call.lineno), call.lineno,
                str(module.path),
                "Xrl constructed from a non-constant interface/version"))
            return
        methods = tuple(sorted({m for m, _line in resolve_str_values(
            call.args[3], fn, call.lineno)}))
        ctors[id(call)] = SendSite(
            package=package, site=_logical_site(module, call.lineno),
            line=call.lineno, path=str(module.path),
            interface=f"{iface}/{version}", methods=methods,
            target=_const_str(call.args[0]))

    # -- send attachment (sync flag + reply reads) ------------------------
    def _attach_send(self, call: ast.Call, fn: Optional[ast.AST],
                     cls: Optional[ast.ClassDef], ancestry: List[ast.AST],
                     ctors: Dict[int, SendSite]) -> bool:
        """Match a send call to the constructor of what it sends."""
        xrl_node: Optional[ast.AST] = call.args[0]
        site = ctors.get(id(xrl_node))
        if site is None and isinstance(xrl_node, ast.Name) \
                and fn is not None:
            assign = closest_assignment(fn, xrl_node.id, call.lineno)
            if assign is not None:
                site = ctors.get(id(assign.value))
        if site is None:
            return False
        site.sent = True
        attr = call.func.attr  # type: ignore[union-attr]
        if attr == "send_sync":
            site.sync = True
            for node in reversed(ancestry):
                if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                        and isinstance(node.targets[0], ast.Tuple) \
                        and len(node.targets[0].elts) == 2 \
                        and isinstance(node.targets[0].elts[1], ast.Name):
                    reply_var = node.targets[0].elts[1].id
                    if fn is not None and not reply_var.startswith("_"):
                        site.reads.extend(
                            _window_reads(fn, reply_var, node.lineno))
                    break
            return True
        callback: Optional[ast.AST] = None
        if attr == "send" and len(call.args) > 1:
            callback = call.args[1]
        for keyword in call.keywords:
            if keyword.arg in ("callback", "on_reply"):
                callback = keyword.value
        site.reads.extend(_callback_reads(callback, fn, cls, self.project))
        return True

    # -- bind(...) registrations ------------------------------------------
    def _collect_bind(self, module: ModuleInfo, package: str, call: ast.Call,
                      fn: Optional[ast.AST]) -> None:
        bind_attr = resolve_bind_attr(call, fn)
        if bind_attr is None:
            return
        iface_node: Optional[ast.AST] = None
        if _is_idl_name(bind_attr.value) is not None:
            iface_node = bind_attr.value
        else:
            for arg in call.args:
                if _is_idl_name(arg) is not None or _is_interface_call(arg):
                    iface_node = arg
                    break
        if iface_node is None:
            return
        fullname = self._idl_fullname(iface_node)
        if fullname is None:
            return
        self.graph.bind_sites.append(BindSite(
            package=package, site=_logical_site(module, call.lineno),
            line=call.lineno, path=str(module.path), interface=fullname))

    def _idl_fullname(self, node: ast.AST) -> Optional[str]:
        name = _is_idl_name(node)
        if name is not None:
            iface = self.idl_constants.get(name)
            return iface.fullname if iface is not None else None
        if _is_interface_call(node) and node.args:
            return _const_str(node.args[0])
        return None

    # -- raw registrations -------------------------------------------------
    def _collect_raw(self, module: ModuleInfo, package: str,
                     call: ast.Call) -> None:
        if not (isinstance(call.func, ast.Attribute)
                and call.func.attr == "register_raw_method" and call.args):
            return
        method_path = _const_str(call.args[0])
        if method_path is None:
            return
        parts = method_path.split("/")
        if len(parts) != 3:
            return
        self.graph.bind_sites.append(BindSite(
            package=package, site=_logical_site(module, call.lineno),
            line=call.lineno, path=str(module.path),
            interface=f"{parts[0]}/{parts[1]}", methods=(parts[2],)))

    # -- textual XRLs ------------------------------------------------------
    def _collect_textual(self, module: ModuleInfo, package: str,
                         call: ast.Call) -> None:
        is_call_xrl = (
            (isinstance(call.func, ast.Name)
             and call.func.id in ("call_xrl", "call_xrl_checked"))
            or (isinstance(call.func, ast.Attribute)
                and call.func.attr in ("call_xrl", "call_xrl_checked")))
        if not is_call_xrl:
            return
        text_node = call.args[1] if len(call.args) > 1 else None
        text = _const_str(text_node)
        if text is None:
            # The CLI's ``call <xrl>`` facility: this package can emit any
            # XRL at runtime; the dynamic/static subset check treats the
            # package's otherwise-unmatched runtime edges as explained.
            self.graph.dynamic_sites.append(DynamicSite(
                package, _logical_site(module, call.lineno), call.lineno,
                str(module.path), "textual XRL built from dynamic text"))
            return
        from repro.xrl.error import XrlError
        from repro.xrl.xrl import Xrl
        try:
            xrl = Xrl.from_text(text)
        except XrlError:
            return     # XRL006's job
        self.graph.send_sites.append(SendSite(
            package=package, site=_logical_site(module, call.lineno),
            line=call.lineno, path=str(module.path),
            interface=f"{xrl.interface}/{xrl.version}",
            methods=(xrl.method,), sync=True, via="textual",
            target=xrl.target))

    # -- client stubs ------------------------------------------------------
    def _collect_stub(self, module: ModuleInfo, package: str, call: ast.Call,
                      fn: Optional[ast.AST],
                      cls: Optional[ast.ClassDef]) -> None:
        if not isinstance(call.func, ast.Attribute):
            return
        receiver = call.func.value
        iface = None
        target: Optional[str] = None
        if isinstance(receiver, ast.Name) and fn is not None:
            assign = closest_assignment(fn, receiver.id, call.lineno)
            if assign is not None:
                iface, target = self._client_interface(assign.value)
        elif isinstance(receiver, ast.Attribute) \
                and isinstance(receiver.value, ast.Name) \
                and receiver.value.id == "self" and cls is not None:
            for stmt in ast.walk(cls):
                if (isinstance(stmt, ast.Assign)
                        and any(isinstance(t, ast.Attribute)
                                and isinstance(t.value, ast.Name)
                                and t.value.id == "self"
                                and t.attr == receiver.attr
                                for t in stmt.targets)):
                    iface, target = self._client_interface(stmt.value)
                    if iface is not None:
                        break
        if iface is None or call.func.attr not in iface.methods:
            return
        site = SendSite(
            package=package, site=_logical_site(module, call.lineno),
            line=call.lineno, path=str(module.path),
            interface=iface.fullname, methods=(call.func.attr,),
            via="stub", target=target)
        callback = call.args[0] if call.args else None
        site.reads.extend(_callback_reads(callback, fn, cls, self.project))
        self.graph.send_sites.append(site)

    def _client_interface(self, node: ast.AST):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "client"):
            fullname = self._idl_fullname(node.func.value)
            iface = (self.graph.catalogue.get(fullname)
                     if fullname is not None else None)
            target = (_const_str(node.args[1])
                      if len(node.args) > 1 else None)
            return iface, target
        return None, None

    # -- helper wrappers ---------------------------------------------------
    def _collect_wrapper_call(self, module: ModuleInfo, package: str,
                              call: ast.Call, fn: Optional[ast.AST],
                              wrappers: Dict[str, _Wrapper]) -> None:
        if isinstance(call.func, ast.Attribute):
            wrapper = wrappers.get(call.func.attr)
        elif isinstance(call.func, ast.Name):
            wrapper = wrappers.get(call.func.id)
        else:
            wrapper = None
        if wrapper is None:
            return
        params = list(wrapper.params)
        if params and params[0] == "self" \
                and isinstance(call.func, ast.Attribute):
            params = params[1:]
        by_param: Dict[str, ast.AST] = dict(zip(params, call.args))
        for keyword in call.keywords:
            if keyword.arg is not None:
                by_param[keyword.arg] = keyword.value
        values: Dict[int, Optional[str]] = {}
        method_node: Optional[ast.AST] = None
        for param, position in wrapper.roles.items():
            node = by_param.get(param)
            if position == 3:
                method_node = node
            else:
                values[position] = _const_str(node) if node is not None \
                    else None
        iface, version = values.get(1), values.get(2)
        if iface is None or version is None:
            return
        methods = tuple(sorted({m for m, _line in resolve_str_values(
            method_node, fn, call.lineno)})) if method_node is not None \
            else ()
        site = SendSite(
            package=package, site=_logical_site(module, call.lineno),
            line=call.lineno, path=str(module.path),
            interface=f"{iface}/{version}", methods=methods,
            sync=wrapper.sync, via="wrapper", target=values.get(0))
        if wrapper.returns_args and fn is not None:
            for node in ast.walk(fn):
                if (isinstance(node, ast.Assign)
                        and node.lineno == call.lineno
                        and len(node.targets) == 1
                        and isinstance(node.targets[0], ast.Name)):
                    site.reads.extend(_window_reads(
                        fn, node.targets[0].id, node.lineno))
        self.graph.send_sites.append(site)


def build_protocol_graph(modules: Sequence[ModuleInfo],
                         project: Optional[ProjectIndex] = None
                         ) -> ProtocolGraph:
    """Collect the whole-tree protocol graph from parsed modules."""
    catalogue, idl_constants = load_catalogue()
    graph = ProtocolGraph(catalogue)
    if project is None:
        project = ProjectIndex(modules)
    collector = _Collector(graph, project, idl_constants)
    for module in modules:
        collector.collect(module)
    # Ambiguous class names must never narrow an edge.
    graph.class_map = {name: pkg for name, pkg in graph.class_map.items()
                       if pkg != "?"}
    for site in graph.send_sites:
        # An Xrl built in one place and sent in another (the rtrmgr's
        # translation): if its package sends such Xrls synchronously it
        # may be this one, and for PRO002 "may block" is what counts.
        if site.via == "ctor" and not site.sent \
                and site.package in graph.deferred_sync:
            site.sync = True
        binders = {b.package for b in graph.binders(site.interface)}
        if not binders:
            continue
        if site.target is not None:
            narrowed = graph.class_map.get(site.target)
            if narrowed in binders:
                binders = {narrowed}
        for dst in binders:
            graph.add_edge(site.package, dst, site.interface, site.sync,
                           site.methods, site.site)
    return graph


# ---------------------------------------------------------------------------
# rules
# ---------------------------------------------------------------------------

def _strongly_connected(nodes: Set[str],
                        adjacency: Dict[str, Set[str]]) -> Dict[str, int]:
    """Node -> SCC id (iterative Tarjan)."""
    index: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    scc_of: Dict[str, int] = {}
    counter = [0]
    scc_counter = [0]

    for root in sorted(nodes):
        if root in index:
            continue
        work: List[Tuple[str, Iterator[str]]] = [
            (root, iter(sorted(adjacency.get(root, ()))))]
        index[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, children = work[-1]
            advanced = False
            for child in children:
                if child not in index:
                    index[child] = lowlink[child] = counter[0]
                    counter[0] += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(sorted(
                        adjacency.get(child, ())))))
                    advanced = True
                    break
                if child in on_stack:
                    lowlink[node] = min(lowlink[node], index[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    scc_of[member] = scc_counter[0]
                    if member == node:
                        break
                scc_counter[0] += 1
    return scc_of


def _shortest_path(src: str, dst: str, adjacency: Dict[str, Set[str]],
                   allowed: Set[str]) -> Optional[List[str]]:
    """BFS path src -> dst through *allowed* nodes."""
    frontier = [[src]]
    seen = {src}
    while frontier:
        next_frontier: List[List[str]] = []
        for path in frontier:
            for child in sorted(adjacency.get(path[-1], ())):
                if child == dst:
                    return path + [child]
                if child in seen or child not in allowed:
                    continue
                seen.add(child)
                next_frontier.append(path + [child])
        frontier = next_frontier
    return None


def check_protocol_graph(graph: ProtocolGraph) -> List[Finding]:
    """Run PRO001–PRO006 over a built graph."""
    findings: List[Finding] = []
    catalogue = graph.catalogue
    sorted_sends = sorted(graph.send_sites, key=lambda s: (s.site, s.line))
    sorted_binds = sorted(graph.bind_sites, key=lambda b: (b.site, b.line))

    # PRO001: unresolvable sends.
    for site in sorted_sends:
        iface = catalogue.get(site.interface)
        if iface is None:
            continue                       # XRL001's job
        bound = graph.bound_methods(site.interface)
        if bound is None:
            findings.append(Finding(
                site.path, site.line, "PRO001",
                f"{site.package} sends {site.interface} but no process "
                f"binds that interface — unresolvable at runtime"))
            continue
        missing = [m for m in site.methods
                   if m in iface.methods and m not in bound]
        if missing:
            findings.append(Finding(
                site.path, site.line, "PRO001",
                f"{site.package} sends {site.interface}/"
                f"{','.join(missing)} but no registration handles "
                f"{'it' if len(missing) == 1 else 'them'} "
                f"— unresolvable at runtime"))

    # PRO002: synchronous edges on inter-process request cycles.
    adjacency: Dict[str, Set[str]] = {}
    nodes: Set[str] = set()
    for edge in graph.edges.values():
        if edge.src == edge.dst:
            continue
        adjacency.setdefault(edge.src, set()).add(edge.dst)
        nodes.update((edge.src, edge.dst))
    scc_of = _strongly_connected(nodes, adjacency)
    for edge in sorted(graph.edges.values(),
                       key=lambda e: (e.src, e.dst, e.interface)):
        if not edge.sync or edge.src == edge.dst:
            continue
        if scc_of.get(edge.src) is None \
                or scc_of.get(edge.src) != scc_of.get(edge.dst):
            continue
        members = {n for n, s in scc_of.items() if s == scc_of[edge.src]}
        back = _shortest_path(edge.dst, edge.src, adjacency, members)
        cycle = " -> ".join([edge.src] + (back or [edge.dst, edge.src]))
        first_site = sorted(edge.sites)[0]
        anchor = _site_for(graph, first_site)
        findings.append(Finding(
            anchor[0], anchor[1], "PRO002",
            f"synchronous {edge.interface} request {edge.src} -> "
            f"{edge.dst} lies on the request cycle {cycle}; once each "
            f"process is a real OS subprocess with one event loop, both "
            f"ends block forever (gates the multi-process split)"))

    # PRO003: reply reads the IDL never produces (or mistyped getters).
    for site in sorted_sends:
        iface = catalogue.get(site.interface)
        if iface is None or not site.reads:
            continue
        known = [m for m in site.methods if m in iface.methods]
        if not known or len(known) != len(site.methods):
            continue
        declared: Dict[str, Set[str]] = {}
        for method in known:
            for atom, atom_type in iface.methods[method].signature[1]:
                declared.setdefault(atom, set()).add(atom_type)
        label = f"{site.interface}/{'|'.join(known)}"
        reported: Set[Tuple[str, Optional[str]]] = set()
        for atom, getter_type in site.reads:
            if (atom, getter_type) in reported:
                continue
            reported.add((atom, getter_type))
            if atom not in declared:
                returns = ",".join(sorted(declared)) or "<none>"
                findings.append(Finding(
                    site.path, site.line, "PRO003",
                    f"caller reads reply atom {atom!r} which {label} "
                    f"never produces (declared returns: {returns})"))
            elif getter_type is not None \
                    and getter_type not in declared[atom]:
                findings.append(Finding(
                    site.path, site.line, "PRO003",
                    f"caller reads reply atom {atom!r} as {getter_type} "
                    f"but {label} declares it "
                    f"{','.join(sorted(declared[atom]))}"))

    # PRO004: bound-but-never-sent handlers (warning).
    unresolved_ifaces = {s.interface for s in graph.send_sites
                        if not s.methods}
    seen_dead: Set[Tuple[str, str]] = set()
    for bind in sorted_binds:
        if bind.interface in unresolved_ifaces:
            continue
        iface = catalogue.get(bind.interface)
        if iface is None:
            continue
        sent = graph.sent_methods(bind.interface)
        bound = (set(iface.methods) if bind.methods is None
                 else set(bind.methods))
        for method in sorted(bound - sent):
            if (bind.interface, method) in seen_dead:
                continue
            seen_dead.add((bind.interface, method))
            findings.append(Finding(
                bind.path, bind.line, "PRO004",
                f"handler {bind.interface}/{method} is bound but nothing "
                f"in the tree sends it (dead protocol surface)",
                severity="warning"))

    # PRO005: multiple live versions of one interface (warning).
    live: Dict[str, Dict[str, Tuple[str, int]]] = {}
    for site in sorted_sends:
        name, _slash, version = site.interface.partition("/")
        live.setdefault(name, {}).setdefault(version,
                                             (site.path, site.line))
    for bind in sorted_binds:
        name, _slash, version = bind.interface.partition("/")
        live.setdefault(name, {}).setdefault(version,
                                             (bind.path, bind.line))
    for name in sorted(live):
        versions = live[name]
        if len(versions) < 2:
            continue
        first = min(versions.values())
        findings.append(Finding(
            first[0], first[1], "PRO005",
            f"interface {name!r} is live in multiple versions "
            f"simultaneously: {', '.join(sorted(versions))}",
            severity="warning"))

    # PRO006: declared reply atoms nobody reads (info).
    seen_unread: Set[Tuple[str, str, str]] = set()
    for site in sorted_sends:
        iface = catalogue.get(site.interface)
        if iface is None:
            continue
        for method in sorted(site.methods):
            if method not in iface.methods:
                continue
            for atom, _atom_type in iface.methods[method].signature[1]:
                key = (site.interface, method, atom)
                if key in seen_unread or atom in graph.consumed_atoms:
                    continue
                seen_unread.add(key)
                findings.append(Finding(
                    site.path, site.line, "PRO006",
                    f"reply atom {atom!r} of {site.interface}/{method} is "
                    f"never read by any caller", severity="info"))
    return findings


def _site_for(graph: ProtocolGraph, logical_site: str) -> Tuple[str, int]:
    """Map a logical site string back to (real path, line) for findings."""
    for site in graph.send_sites:
        if site.site == logical_site:
            return site.path, site.line
    path, _colon, line = logical_site.rpartition(":")
    return path, int(line or 0)


class ProtocolGraphChecker(ProjectChecker):
    """The runner-facing wrapper: build the graph, run the PRO rules."""

    name = "protocol-graph"
    rules = ("PRO001", "PRO002", "PRO003", "PRO004", "PRO005", "PRO006")

    def __init__(self) -> None:
        self.last_graph: Optional[ProtocolGraph] = None

    def check_project(self, modules: Sequence[ModuleInfo],
                      project: ProjectIndex) -> Iterable[Finding]:
        graph = build_protocol_graph(modules, project)
        self.last_graph = graph
        return check_protocol_graph(graph)
