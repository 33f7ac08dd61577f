"""Configuration → XRLs: a commit as a pure function of two trees.

:func:`translate` maps ``(old tree, new tree)`` to the ordered list of
XRLs that takes the managed processes from the first configuration to
the second.  It reads nothing but the two trees — the processes share
nothing with the manager (paper §4), so there is nothing else it could
read — with one exception the paper's own design has too: RIP and OSPF
are configured per interface *name* and need the interface's address,
which comes from the ``interfaces`` subtree when the interface is
configured there and otherwise from *ifaddr*, the manager's
``fea_ifmgr/1.0 get_interface_addr4`` query.

Everything the manager does with configuration is this one function:

* ``commit`` sends ``translate(committed, candidate)``;
* restarting module *M* sends ``translate(empty, committed)`` filtered
  to the XRLs whose target is *M* — which re-enables redistribution in a
  reborn RIB and re-files connected routes there by construction.

It chains the module specs' translators; one may address any module
(RIP's redistribution goes to the RIB), so a restart filters them all.
"""

from __future__ import annotations

from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

from repro.net import IPNet, IPv4
from repro.rtrmgr.config_tree import CommitError, ConfigTree
from repro.xrl import XrlArgs
from repro.xrl.xrl import Xrl

#: ``ifaddr(ifname)`` -> (address, prefix length), or raises CommitError
IfAddr = Callable[[str], Tuple[IPv4, int]]
#: one module's share of a translation: ``(old, new, ifaddr)`` -> XRLs
Translator = Callable[[ConfigTree, ConfigTree, IfAddr], Iterator[Xrl]]

INTERFACE = ("interfaces", "interface")
BGP = ("protocols", "bgp")
RIP = ("protocols", "rip")
OSPF_INTERFACE = ("protocols", "ospf", "interface")
STATIC_ROUTE = ("protocols", "static", "route")
PIM_RP = ("protocols", "pim", "rp")


def translate(old: ConfigTree, new: ConfigTree, ifaddr: IfAddr,
              specs: Iterable) -> List[Xrl]:
    """The XRLs, in sending order, that turn configuration *old* into *new*:
    each module spec's translator's, in declaration order."""
    return [xrl for spec in specs if spec.translator is not None
            for xrl in spec.translator(old, new, ifaddr)]


def _rows(tree: ConfigTree, path: Sequence[str], leaves: Sequence[str] = (),
          mandatory: Sequence[str] = ()) -> Dict[str, tuple]:
    """``{key text: (key, leaf value, ...)}`` over the instances of the tag
    node at *path*, in key order; an unset leaf reads as its template
    default, or None — which a *mandatory* one may not be."""
    rows = {}
    for node in tree.tag_instances(list(path)):
        key = node.tag_value
        values = [tree.get_value([*path, str(key), leaf]) for leaf in leaves]
        for leaf, value in zip(leaves, values):
            if value is None and leaf in mandatory:
                raise CommitError(f"{path[-1]} {key}: {leaf} is mandatory")
        rows[str(key)] = (key, *values)
    return rows


def _diff(old: ConfigTree, new: ConfigTree, path: Sequence[str],
          leaves: Sequence[str] = (), mandatory: Sequence[str] = ()
          ) -> Tuple[List[tuple], List[tuple]]:
    """``(gone, come)``: the rows to take away and the rows to put in
    place.  A row whose leaves changed is in both — removed, then added."""
    was = _rows(old, path, leaves)
    now = _rows(new, path, leaves, mandatory)
    return ([row for key, row in was.items() if now.get(key) != row],
            [row for key, row in now.items() if was.get(key) != row])


def _address(tree: ConfigTree, ifname: str, ifaddr: IfAddr
             ) -> Tuple[IPv4, int]:
    base = [*INTERFACE, ifname]
    addr = tree.get_value(base + ["address"])
    if addr is None:
        return ifaddr(ifname)
    return addr, tree.get_value(base + ["prefix-length"])


def _connected(addr: IPv4, prefix_len: int) -> Xrl:
    """The interface's subnet into the RIB, filed as the FEA's owner would."""
    return Xrl("rib", "rib", "1.0", "add_route4",
               XrlArgs().add_txt("protocol", "connected")
               .add_ipv4net("net", IPNet(addr, prefix_len))
               .add_ipv4("nexthop", IPv4(0)).add_u32("metric", 0)
               .add_list("policytags", []))


def _interfaces(old: ConfigTree, new: ConfigTree, ifaddr: IfAddr
                ) -> Iterator[Xrl]:
    # fea_ifmgr/1.0 can create an interface, not delete one or move it:
    # a removed one has no XRL to become, and a changed address is the
    # FEA's to refuse (COMMAND_FAILED).
    had = _rows(old, INTERFACE, ("address", "prefix-length"))
    for ifname, addr, prefix_len, enabled in _diff(
            old, new, INTERFACE, ("address", "prefix-length", "enabled"))[1]:
        # An interface without an address is one the FEA already has.
        created = addr is not None \
            and had.get(ifname) != (ifname, addr, prefix_len)
        if created:
            yield Xrl("fea", "fea_ifmgr", "1.0", "create_interface",
                      XrlArgs().add_txt("ifname", ifname).add_ipv4("addr", addr)
                      .add_u32("prefix_len", prefix_len))
        yield Xrl("fea", "fea_ifmgr", "1.0", "set_interface_enabled",
                  XrlArgs().add_txt("ifname", ifname)
                  .add_bool("enabled", enabled))
        if created:
            yield _connected(addr, prefix_len)


def _policy_source(tree: ConfigTree, direction: str) -> Optional[str]:
    name = tree.get_value([*BGP, direction])
    if name is None:
        return None
    if not tree.exists(["policy", "statement", name]):
        raise CommitError(f"policy statement {name!r} not defined")
    return tree.get_value(["policy", "statement", name, "source"])


def _bgp(old: ConfigTree, new: ConfigTree, ifaddr: IfAddr) -> Iterator[Xrl]:
    # Policies first: they affect routes from new peers.
    for direction, filter_id in (("import-policy", 1), ("export-policy", 4)):
        source = _policy_source(new, direction)
        if source is not None and source != _policy_source(old, direction):
            yield Xrl("bgp", "policy", "0.1", "configure_filter",
                      XrlArgs().add_u32("filter_id", filter_id)
                      .add_txt("policy_source", source))
    peer = (*BGP, "peer")
    gone, come = _diff(old, new, peer, ("as", "local-ip", "holdtime"),
                       mandatory=("as", "local-ip"))
    for addr, *__ in gone:
        yield Xrl("bgp", "bgp", "1.0", "delete_peer",
                  XrlArgs().add_ipv4("peer", addr))
    for addr, peer_as, local_ip, holdtime in come:
        yield Xrl("bgp", "bgp", "1.0", "add_peer",
                  XrlArgs().add_ipv4("peer", addr).add_u32("as", peer_as)
                  .add_ipv4("next_hop", local_ip)
                  .add_u32("holdtime", holdtime))
    born = {str(addr) for addr, *__ in come}     # a peer is born disabled
    was_enabled = _rows(old, peer, ("enabled",))
    for key, (addr, enabled) in _rows(new, peer, ("enabled",)).items():
        if enabled != (False if key in born else was_enabled[key][1]):
            yield Xrl("bgp", "bgp", "1.0",
                      "enable_peer" if enabled else "disable_peer",
                      XrlArgs().add_ipv4("peer", addr))
    gone, come = _diff(old, new, (*BGP, "network"), ("next-hop",),
                       mandatory=("next-hop",))
    for net, __ in gone:
        yield Xrl("bgp", "bgp", "1.0", "withdraw_route4",
                  XrlArgs().add_ipv4net("net", net))
    for net, nexthop in come:
        yield Xrl("bgp", "bgp", "1.0", "originate_route4",
                  XrlArgs().add_ipv4net("net", net)
                  .add_ipv4("next_hop", nexthop).add_bool("unicast", True))


def _static(old: ConfigTree, new: ConfigTree, ifaddr: IfAddr) -> Iterator[Xrl]:
    gone, come = _diff(old, new, STATIC_ROUTE, ("next-hop", "metric"),
                       mandatory=("next-hop",))
    kept = {net for net, *__ in come}     # add_route4 replaces a held prefix
    for net, *__ in gone:
        if net not in kept:
            yield Xrl("static_routes", "static_routes", "0.1", "delete_route4",
                      XrlArgs().add_ipv4net("net", net))
    for net, nexthop, metric in come:
        yield Xrl("static_routes", "static_routes", "0.1", "add_route4",
                  XrlArgs().add_ipv4net("net", net)
                  .add_ipv4("nexthop", nexthop).add_u32("metric", metric))


def _rip(old: ConfigTree, new: ConfigTree, ifaddr: IfAddr) -> Iterator[Xrl]:
    port = (*RIP, "interface")
    gone, come = _diff(old, new, port)
    for ifname, in gone:
        yield Xrl("rip", "rip", "1.0", "remove_rip_address",
                  XrlArgs().add_txt("ifname", ifname)
                  .add_ipv4("addr", _address(old, ifname, ifaddr)[0]))
    for ifname, in come:
        yield Xrl("rip", "rip", "1.0", "add_rip_address",
                  XrlArgs().add_txt("ifname", ifname)
                  .add_ipv4("addr", _address(new, ifname, ifaddr)[0]))
    for ifname, cost in _diff(old, new, port, ("cost",))[1]:
        yield Xrl("rip", "rip", "1.0", "set_cost",
                  XrlArgs().add_txt("ifname", ifname).add_u32("cost", cost))
    gone, come = _diff(old, new, (*RIP, "redistribute"))
    for protocol, in gone:
        yield Xrl("rib", "rib", "1.0", "redist_disable4",
                  XrlArgs().add_txt("target", "rip")
                  .add_txt("from_protocol", protocol))
    for protocol, in come:
        yield Xrl("rib", "rib", "1.0", "redist_enable4",
                  XrlArgs().add_txt("target", "rip")
                  .add_txt("from_protocol", protocol))


def _ospf(old: ConfigTree, new: ConfigTree, ifaddr: IfAddr) -> Iterator[Xrl]:
    # ospf/0.1 can add an interface and no more: a removed one, or a
    # changed cost, has no XRL to become.
    known = _rows(old, OSPF_INTERFACE)
    for ifname, cost in _rows(new, OSPF_INTERFACE, ("cost",)).values():
        if ifname not in known:
            addr, prefix_len = _address(new, ifname, ifaddr)
            yield Xrl("ospf", "ospf", "0.1", "add_ospf_interface",
                      XrlArgs().add_txt("ifname", ifname).add_ipv4("addr", addr)
                      .add_u32("prefix_len", prefix_len).add_u32("cost", cost))


def _pim(old: ConfigTree, new: ConfigTree, ifaddr: IfAddr) -> Iterator[Xrl]:
    for prefix, rp_addr in _diff(old, new, PIM_RP, ("address",),
                                 mandatory=("address",))[1]:
        yield Xrl("pim", "pim", "0.1", "set_rp",
                  XrlArgs().add_ipv4net("group_prefix", prefix)
                  .add_ipv4("rp", rp_addr))
