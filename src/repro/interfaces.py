"""The XRL interface catalogue — this stack's equivalent of XORP's ``xrl/interfaces/*.xif``.

Every inter-process API in the system is declared here in IDL form and
parsed once at import.  Keeping the catalogue central does two things the
paper cares about: the APIs used by our own protocols are *exactly* the
APIs available to third-party extensions ("Protocols such as BGP and RIP
are not special in the XORP design — they use APIs equally available to
all"), and every boundary is visible in one place for review.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.xrl.error import XrlError, XrlErrorCode
from repro.xrl.idl import XrlInterface, parse_idl
from repro.xrl.types import XrlAtom, XrlAtomType

IDL_TEXT = """
/* ---- Routing Information Base ------------------------------------- */

interface rib/1.0 {
    add_igp_table4 ? protocol:txt;
    add_egp_table4 ? protocol:txt;
    add_igp_table6 ? protocol:txt;
    add_egp_table6 ? protocol:txt;

    flush_table4   ? protocol:txt;

    add_route4     ? protocol:txt & net:ipv4net & nexthop:ipv4 & metric:u32 & policytags:list;
    replace_route4 ? protocol:txt & net:ipv4net & nexthop:ipv4 & metric:u32 & policytags:list;
    delete_route4  ? protocol:txt & net:ipv4net;
    /* Vectorized route stream: one XRL per burst of one protocol's
       routes.  The lists are parallel (nets[i] via nexthops[i] at
       metrics[i]); unequal lengths or a wrong inner type are BAD_ARGS
       and nothing is applied.  add_routes4 is an upsert, like
       replace_route4: a prefix the protocol already filed is replaced
       in place.  delete_routes4 skips prefixes the protocol does not
       hold.  Both are therefore idempotent under a RetryPolicy. */
    add_routes4    ? protocol:txt & nets:list & nexthops:list & metrics:list;
    delete_routes4 ? protocol:txt & nets:list;
    add_route6     ? protocol:txt & net:ipv6net & nexthop:ipv6 & metric:u32 & policytags:list;
    replace_route6 ? protocol:txt & net:ipv6net & nexthop:ipv6 & metric:u32 & policytags:list;
    delete_route6  ? protocol:txt & net:ipv6net;

    lookup_route_by_dest4 ? addr:ipv4
        -> resolves:bool & net:ipv4net & nexthop:ipv4 & metric:u32 & admin_distance:u32 & protocol:txt;

    register_interest4 ? target:txt & addr:ipv4
        -> resolves:bool & net:ipv4net & subnet:ipv4net & nexthop:ipv4 & metric:u32 & admin_distance:u32;
    deregister_interest4 ? target:txt & subnet:ipv4net;

    redist_enable4  ? target:txt & from_protocol:txt;
    redist_disable4 ? target:txt & from_protocol:txt;

    get_protocol_admin_distance ? protocol:txt -> admin_distance:u32;
}

/* Notifications the RIB sends to components that registered interest
   (paper 5.2.1: "the RIB will send a 'cache invalidated' message for the
   relevant subnet, and BGP can re-query the RIB"). */
interface rib_client/0.1 {
    route_info_invalid4 ? subnet:ipv4net;
}

/* Route redistribution feed (RIB -> routing protocol). */
interface redist4/0.1 {
    redist_add_route4    ? net:ipv4net & nexthop:ipv4 & metric:u32 & admin_distance:u32 & protocol:txt & policytags:list;
    redist_delete_route4 ? net:ipv4net & protocol:txt;
}

/* ---- Forwarding Engine Abstraction --------------------------------- */

interface fea_fib/1.0 {
    /* Every mutating call replies with the dataplane pressure signal:
       queued = operations submitted to the backend but not yet acked,
       congested = the driver's watermark latch.  The RIB's flow
       controller reads these to pace its redistribution stream. */
    add_entry4    ? net:ipv4net & nexthop:ipv4 & ifname:txt -> queued:u32 & congested:bool;
    delete_entry4 ? net:ipv4net -> queued:u32 & congested:bool;
    lookup_entry4 ? addr:ipv4 -> resolves:bool & net:ipv4net & nexthop:ipv4 & ifname:txt;
    add_entry6    ? net:ipv6net & nexthop:ipv6 & ifname:txt -> queued:u32 & congested:bool;
    delete_entry6 ? net:ipv6net -> queued:u32 & congested:bool;
    /* Vectorized entry points: one XRL per route segment.  The lists
       are parallel (nets[i] goes via nexthops[i] on ifnames[i]);
       semantically identical to N singular calls, in order.  Unequal
       lengths or a wrong inner type are BAD_ARGS, nothing applied. */
    add_entries4    ? nets:list & nexthops:list & ifnames:list -> queued:u32 & congested:bool;
    delete_entries4 ? nets:list -> queued:u32 & congested:bool;
    add_entries6    ? nets:list & nexthops:list & ifnames:list -> queued:u32 & congested:bool;
    delete_entries6 ? nets:list -> queued:u32 & congested:bool;
    /* Dataplane management: which backend is attached, how it feels,
       and an operator-triggered shadow-vs-dump reconciliation pass. */
    get_backend_status -> backend:txt & healthy:bool & state:txt;
    get_queue_status   -> queued:u32 & congested:bool;
    reconcile          -> adds:u32 & deletes:u32;
}

interface fea_ifmgr/1.0 {
    /* Idempotent for an identical interface (a replayed configuration);
       COMMAND_FAILED when the name exists with another address. */
    create_interface ? ifname:txt & addr:ipv4 & prefix_len:u32;
    get_interfaces -> ifnames:txt;
    get_interface_addr4 ? ifname:txt -> addr:ipv4 & prefix_len:u32;
    set_interface_enabled ? ifname:txt & enabled:bool;
    get_interface_enabled ? ifname:txt -> enabled:bool;
}

/* Privileged network access relayed through the FEA (paper 7: "rather
   than sending UDP packets directly, RIP sends and receives packets
   using XRL calls to the FEA"). */
interface fea_rawpkt4/1.0 {
    open_udp    ? creator:txt & ifname:txt & port:u32;
    close_udp   ? creator:txt & ifname:txt & port:u32;
    send_udp    ? ifname:txt & dst:ipv4 & port:u32 & payload:binary;
}

/* Packets delivered back to the protocol that opened the socket. */
interface fea_rawpkt_client4/1.0 {
    recv_udp ? ifname:txt & src:ipv4 & port:u32 & payload:binary;
}

/* ---- Multicast FEA additions ---------------------------------------- */

interface fea_mfib/1.0 {
    add_mfc4    ? source:ipv4 & group:ipv4 & iif:txt & oifs:txt;
    delete_mfc4 ? source:ipv4 & group:ipv4;
}

/* ---- BGP ------------------------------------------------------------- */

interface bgp/1.0 {
    set_local_as   ? as:u32;
    get_local_as   -> as:u32;
    set_bgp_id     ? id:ipv4;
    add_peer       ? peer:ipv4 & as:u32 & next_hop:ipv4 & holdtime:u32;
    delete_peer    ? peer:ipv4;
    enable_peer    ? peer:ipv4;
    disable_peer   ? peer:ipv4;
    originate_route4 ? net:ipv4net & next_hop:ipv4 & unicast:bool;
    withdraw_route4  ? net:ipv4net;
    get_peer_list  -> peers:txt;
    get_route_count -> count:u32;
}

/* ---- RIP -------------------------------------------------------------- */

interface rip/1.0 {
    add_rip_address    ? ifname:txt & addr:ipv4;
    remove_rip_address ? ifname:txt & addr:ipv4;
    set_cost           ? ifname:txt & cost:u32;
    set_authentication ? ifname:txt & password:txt;
    get_counters       ? ifname:txt -> packets_in:u32 & packets_out:u32 & bad_packets:u32;
    add_static_route   ? net:ipv4net & nexthop:ipv4 & cost:u32;
}

/* ---- OSPF -------------------------------------------------------------- */

interface ospf/0.1 {
    add_ospf_interface ? ifname:txt & addr:ipv4 & prefix_len:u32 & cost:u32;
    get_neighbors  -> neighbors:txt;
    get_lsdb       -> lsdb:txt;
    get_router_id  -> id:ipv4;
}

/* ---- Static routes ---------------------------------------------------- */

interface static_routes/0.1 {
    add_route4    ? net:ipv4net & nexthop:ipv4 & metric:u32;
    delete_route4 ? net:ipv4net;
}

/* ---- Policy ------------------------------------------------------------ */

interface policy/0.1 {
    configure_filter ? filter_id:u32 & policy_source:txt;
    reset_filter     ? filter_id:u32;
}

/* ---- PIM-SM / IGMP ------------------------------------------------------ */

interface mld6igmp/0.1 {
    add_membership4    ? ifname:txt & group:ipv4;
    delete_membership4 ? ifname:txt & group:ipv4;
    list_memberships4  ? ifname:txt -> groups:txt;
}

interface mld6igmp_client/0.1 {
    membership_change4 ? ifname:txt & group:ipv4 & joined:bool;
}

interface pim/0.1 {
    set_rp ? group_prefix:ipv4net & rp:ipv4;
    join_group4  ? ifname:txt & group:ipv4;
    leave_group4 ? ifname:txt & group:ipv4;
}

/* ---- Router manager ------------------------------------------------------ */

interface rtrmgr/1.0 {
    get_config    -> config:txt;
    get_modules   -> modules:txt;
}

/* Common target housekeeping, implemented by every process. */
interface common/0.1 {
    get_target_name -> name:txt;
    get_version     -> version:txt;
    get_status      -> status:txt;
    shutdown;
}

/* ---- Profiling (paper 8.1: "XORP provides a profiling facility") ------- */

interface profile/1.0 {
    enable      ? pname:txt;
    disable     ? pname:txt;
    clear       ? pname:txt;
    list        -> pnames:txt;
    get_entries ? pname:txt -> entries:txt;
}

/* ---- Finder (paper 6.3: "addressable through XRLs, just as any other
   XORP component").  The first four methods answer anyone; the rest
   belong to a *session*, the connection the request arrived on, which
   alone may speak for what it registered (ACCESS_DENIED otherwise) and
   whose end deregisters it.  families/addresses are parallel lists of
   txt, methods a list of method paths. */

interface finder/1.0 {
    resolve_xrl ? xrl:txt -> resolved:txt;
    get_target_list -> targets:txt;
    get_class_instances ? class_name:txt -> instances:txt;
    target_exists ? target:txt -> exists:bool;

    /* The component is born with its whole method list, under the
       instance name and access key it picked itself. */
    register_target ? class_name:txt & instance_name:txt & singleton:bool & key:txt & families:list & addresses:list & methods:list;
    add_methods       ? instance_name:txt & methods:list;
    deregister_target ? instance_name:txt;
    /* caller is a component of the calling session; its ACL applies. */
    resolve ? caller:txt & target:txt & method_path:txt
        -> resolved_method:txt & families:list & addresses:list & target_class:txt;
    watch   ? class_name:txt;
    unwatch ? class_name:txt;
    /* Answered once the session has events (a client keeps one parked).
       kinds[i] is birth or death, of instances[i] of watched class
       classes[i], or invalidate: forget resolutions of classes[i]. */
    next_events -> kinds:list & classes:list & instances:list;
}

/* ---- Observability (the repro.obs scrape surface) ---------------------
   Every process binds metrics/1.0, so an external collector can scrape
   counters/gauges/histograms over XRLs the same way the paper makes
   profiling externally scriptable (8.1).  trace/1.0 exposes the causal
   route tracer's reconstructed span trees wherever a harness binds it. */

interface metrics/1.0 {
    list_metrics -> names:txt;
    get_metric   ? name:txt -> kind:txt & value:txt;
    get_metrics  -> report:txt;
}

interface trace/1.0 {
    list_traces -> trace_ids:txt;
    get_spans   ? trace_id:u32 -> spans:txt;
}

/* ---- Benchmark scaffolding (paper 8.2 XRL performance runs).  The
   ``noargs`` endpoint is served raw (unchecked) so scaling runs can vary
   the atom count without redeclaring a method per payload size. */

interface bench/1.0 {
    noargs;
}
"""

_CATALOGUE = parse_idl(IDL_TEXT)


def interface(fullname: str) -> XrlInterface:
    """Fetch an interface from the catalogue by ``name/version``."""
    return _CATALOGUE[fullname]


def catalogue() -> Dict[str, XrlInterface]:
    """The full interface catalogue, keyed by ``name/version``.

    This is the machine-readable view tooling builds on: the
    ``repro.analysis`` conformance checker cross-checks every XRL call
    site and handler registration in the tree against exactly this
    mapping, the way XORP's ``xrlc`` checked stubs against the ``.xif``
    files at build time.
    """
    return dict(_CATALOGUE)


def describe_catalogue() -> Dict[str, Dict[str, Dict[str, Tuple[Tuple[str, str], ...]]]]:
    """Plain-data rendering of the catalogue (no repro.xrl objects)."""
    return {name: iface.describe() for name, iface in _CATALOGUE.items()}


def request_spec(fullname: str, method: str) -> Tuple[Tuple[str, str], ...]:
    """``((atom, idl-type), ...)`` a caller must send for *method*.

    Raises ``KeyError`` for unknown interfaces or methods — tooling that
    wants a soft miss should pre-check with :func:`catalogue`.
    """
    return tuple(_CATALOGUE[fullname].methods[method].signature[0])


def reply_spec(fullname: str, method: str) -> Tuple[Tuple[str, str], ...]:
    """``((atom, idl-type), ...)`` the handler's reply carries for *method*.

    This is what the protocol-graph conformance pass (PRO003 in
    ``repro.analysis.protograph``) checks caller-side reads against.
    """
    return tuple(_CATALOGUE[fullname].methods[method].signature[1])


def reply_atom_types(fullname: str, method: str) -> Dict[str, str]:
    """Reply atoms of *method* as ``{atom-name: idl-type}``."""
    return dict(reply_spec(fullname, method))


def versions_by_name() -> Dict[str, Tuple[str, ...]]:
    """Interface name -> every version the catalogue declares, sorted."""
    grouped: Dict[str, list] = {}
    for iface in _CATALOGUE.values():
        grouped.setdefault(iface.name, []).append(iface.version)
    return {name: tuple(sorted(versions))
            for name, versions in grouped.items()}


def parallel_values(method: str, *columns) -> List[List[Any]]:
    """Unpack the parallel ``list`` atoms of a vectorized method.

    Each column is ``(atoms, XrlAtomType)``.  The IDL types them only as
    ``list``, so the handler checks what the catalogue's comment
    promises: every list the same length, every inner atom of the
    declared type — otherwise ``BAD_ARGS`` before anything is applied
    (zipping would silently drop the tail).  Returns the bare values,
    one list per column.
    """
    length = len(columns[0][0])
    values = []
    for atoms, atom_type in columns:
        column = [atom.value for atom in atoms if atom.type is atom_type]
        if len(atoms) != length or len(column) != length:
            raise XrlError(
                XrlErrorCode.BAD_ARGS,
                f"{method}: parallel lists need {length} "
                f"{atom_type.value} atoms each, got {len(column)} "
                f"of {len(atoms)}")
        values.append(column)
    return values


def txt_atoms(name: str, values) -> List[XrlAtom]:
    """A column of strings as the payload of a ``list`` atom."""
    return [XrlAtom(name, XrlAtomType.TXT, value) for value in values]


def txt_values(method: str, *columns) -> List[List[str]]:
    """:func:`parallel_values` of ``list`` atoms that all hold ``txt``."""
    return parallel_values(
        method, *((atoms, XrlAtomType.TXT) for atoms in columns))


RIB_IDL = interface("rib/1.0")
RIB_CLIENT_IDL = interface("rib_client/0.1")
REDIST4_IDL = interface("redist4/0.1")
FEA_FIB_IDL = interface("fea_fib/1.0")
FEA_IFMGR_IDL = interface("fea_ifmgr/1.0")
FEA_RAWPKT4_IDL = interface("fea_rawpkt4/1.0")
FEA_RAWPKT_CLIENT4_IDL = interface("fea_rawpkt_client4/1.0")
FEA_MFIB_IDL = interface("fea_mfib/1.0")
BGP_IDL = interface("bgp/1.0")
RIP_IDL = interface("rip/1.0")
OSPF_IDL = interface("ospf/0.1")
STATIC_ROUTES_IDL = interface("static_routes/0.1")
POLICY_IDL = interface("policy/0.1")
MLD6IGMP_IDL = interface("mld6igmp/0.1")
MLD6IGMP_CLIENT_IDL = interface("mld6igmp_client/0.1")
PIM_IDL = interface("pim/0.1")
RTRMGR_IDL = interface("rtrmgr/1.0")
COMMON_IDL = interface("common/0.1")
PROFILER_IDL = interface("profile/1.0")
FINDER_IDL = interface("finder/1.0")
METRICS_IDL = interface("metrics/1.0")
TRACE_IDL = interface("trace/1.0")
