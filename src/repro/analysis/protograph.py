"""The whole-system XRL protocol graph (interprocedural analysis).

The rules in :mod:`repro.analysis.xrlcheck` prove each send site and
each ``bind()`` well-formed *in isolation*.  This pass proves the
protocol surface is **closed** across the whole tree, the property the
paper's multi-process split rests on (§4, §6.1): every XRL someone sends
is handled by some process, no synchronous request cycle can deadlock
two single-threaded event loops, and reply schemas match what callers
actually read.

It takes every module's sites (:mod:`repro.analysis.sites`: ``Xrl(...)``
constructors, client stubs, textual ``call_xrl`` literals, one level of
helper wrappers like ``Cli._sync``, ``bind()`` and
``register_raw_method``), each attributed to its owning process package,
joins them through the :mod:`repro.interfaces` catalogue, and
materialises the process-interaction graph.  Rules on that graph:

* ``PRO001`` — send with no handler bound in any process;
* ``PRO002`` — synchronous request edge on an inter-process request
  cycle: a deadlock once each process is a real OS subprocess;
* ``PRO003`` — caller reads a reply atom the handler's IDL reply spec
  never produces, or reads it with the wrong typed getter.

The graph itself is exported as byte-stable JSON (``--graph-out``) and
Graphviz dot (``--graph-dot``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.core import Finding, ModuleInfo
from repro.analysis.rules import HARNESS_PACKAGES, PROCESS_PACKAGES
from repro.analysis.sites import (
    BindSite,
    DynamicSite,
    ProjectIndex,
    SendSite,
    callback_reads,
    load_catalogue,
    sites_of,
)


# ---------------------------------------------------------------------------
# graph model
# ---------------------------------------------------------------------------

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
# construction
# ---------------------------------------------------------------------------

def _package_kind(package: str) -> str:
    if package in PROCESS_PACKAGES:
        return "process"
    if package in HARNESS_PACKAGES:
        return "harness"
    return "shared"


def build_protocol_graph(modules: Sequence[ModuleInfo],
                         project: Optional[ProjectIndex] = None
                         ) -> ProtocolGraph:
    """Join every module's sites into the whole-tree protocol graph."""
    graph = ProtocolGraph(load_catalogue()[0])
    if project is None:
        project = ProjectIndex(modules)
    sends: List[SendSite] = []
    #: packages that ``send_sync`` an Xrl built somewhere else
    deferred_sync: Set[str] = set()
    ambiguous: Set[str] = set()
    for module in modules:
        sites = sites_of(module)
        package = module.package or "repro"
        graph.packages.setdefault(package, _package_kind(package))
        sends.extend(sites.sends)
        graph.bind_sites.extend(sites.binds)
        graph.dynamic_sites.extend(sites.dynamic)
        if sites.deferred_sync:
            deferred_sync.add(package)
        for name in sites.router_classes:
            if graph.class_map.setdefault(name, package) != package:
                ambiguous.add(name)     # must never narrow an edge
    for name in ambiguous:
        del graph.class_map[name]
    for site in sends:
        # Sites are cached with their module: what only this run knows
        # goes on a copy.  An Xrl built in one place and sent in another
        # (the rtrmgr's translation): if its package sends such Xrls
        # synchronously it may be this one, and for PRO002 "may block" is
        # what counts.  A ``self._on_reply`` callback may be inherited.
        sync = site.sync or (not site.sent and site.package in deferred_sync)
        reads = site.reads
        if site.reply_method is not None:
            handler = project.find_method(*site.reply_method)
            if handler is not None:
                reads = reads + callback_reads(project.scopes, handler,
                                               skip=1)
        if sync != site.sync or reads is not site.reads:
            site = replace(site, sync=sync, reads=reads)
        graph.send_sites.append(site)
        binders = {b.package for b in graph.binders(site.interface)}
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

def _shortest_path(src: str, dst: str, adjacency: Dict[str, Set[str]]
                   ) -> Optional[List[str]]:
    """BFS path src -> dst, children tried in sorted order."""
    frontier = [[src]]
    seen = {src}
    while frontier:
        next_frontier: List[List[str]] = []
        for path in frontier:
            for child in sorted(adjacency.get(path[-1], ())):
                if child == dst:
                    return path + [child]
                if child in seen:
                    continue
                seen.add(child)
                next_frontier.append(path + [child])
        frontier = next_frontier
    return None


def check_protocol_graph(graph: ProtocolGraph) -> List[Finding]:
    """Run PRO001–PRO003 over a built graph."""
    findings: List[Finding] = []
    catalogue = graph.catalogue
    sorted_sends = sorted(graph.send_sites, key=lambda s: (s.site, s.line))

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
    # An edge src -> dst is on a cycle exactly when dst reaches src.
    adjacency: Dict[str, Set[str]] = {}
    for edge in graph.edges.values():
        if edge.src != edge.dst:
            adjacency.setdefault(edge.src, set()).add(edge.dst)
    for edge in sorted(graph.edges.values(),
                       key=lambda e: (e.src, e.dst, e.interface)):
        if not edge.sync or edge.src == edge.dst:
            continue
        back = _shortest_path(edge.dst, edge.src, adjacency)
        if back is None:
            continue
        cycle = " -> ".join([edge.src] + back)
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
    return findings


def _site_for(graph: ProtocolGraph, logical_site: str) -> Tuple[str, int]:
    """Map a logical site string back to (real path, line) for findings."""
    for site in graph.send_sites:
        if site.site == logical_site:
            return site.path, site.line
    path, _colon, line = logical_site.rpartition(":")
    return path, int(line or 0)
