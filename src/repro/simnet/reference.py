"""The reference router: what a quiet router's tables must hold.

After quiescence the FIB is a pure function of the live announcements.
This module is that function, written with dictionaries only — no
stages, XRLs, tries or batching — so a test can feed one schedule to the
real FEA + RIB + BGP and to this model and compare what each ends with
(``tests/test_reference_router.py``).  Its tables follow sdx-parallel's
input / local / output split: per-peer RIB-in, BGP's ``loc_rib()``, the
RIB's protocol tables and the ``winners()`` the FIB is made of; a peer
going down withdraws everything it announced.  Its rules are its own:

* BGP's decision order: highest local-pref, shortest AS path, lowest
  origin, lowest MED (compared across neighbour ASes), EBGP over IBGP,
  lowest IGP metric to the nexthop, lowest BGP ID, lowest peer address;
* a BGP nexthop resolves iff a RIB winner covers it, and its IGP metric
  is that winner's metric;
* an external route is usable iff an internal winner covers its
  nexthop, and the lowest (admin distance, metric, protocol) wins.

Only value types are imported: a ranking, preference, trie or stage
borrowed from the router would be a bug both sides share (CI checks).
No BGP prefix may cover a nexthop — the schedules keep them apart — so
recursive resolution is asserted absent rather than modelled.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import Callable, Dict, Iterable, NamedTuple, Optional, Tuple

from repro.bgp.attributes import PathAttributeList
from repro.net import IPNet, IPv4
from repro.rib.route import ADMIN_DISTANCES

INTERNAL = ("connected", "static", "rip", "ospf")
EXTERNAL = ("ebgp", "ibgp")
DEFAULT_LOCAL_PREF = 100

#: an import policy: (net, attributes, peer address) -> attributes, or
#: None to reject the route
Policy = Callable[[IPNet, PathAttributeList, IPv4],
                  Optional[PathAttributeList]]
#: (admin distance, metric, protocol, nexthop): sorts best first
_Candidate = Tuple[int, int, str, IPv4]


class Peer(NamedTuple):
    addr: IPv4
    asn: int
    ibgp: bool
    bgp_id: IPv4 = IPv4(0)


class ReferenceRouter:
    """One router's BGP decision and RIB merge, recomputed on demand."""

    def __init__(self, local_as: int, peers: Iterable[Peer]):
        self.local_as = local_as
        self.peers = {peer.addr: peer for peer in peers}
        #: per peer: net -> attributes as announced
        self.adj_in: Dict[IPv4, Dict[IPNet, PathAttributeList]] = {
            addr: {} for addr in self.peers}
        self.policy: Optional[Policy] = None
        #: per protocol: net -> (nexthop, metric), the routes given to the
        #: RIB directly (an IGP's, or a BGP feed without BGP in front)
        self.tables: Dict[str, Dict[IPNet, Tuple[IPv4, int]]] = {
            protocol: {} for protocol in INTERNAL + EXTERNAL}

    # -- inputs ---------------------------------------------------------------
    def announce(self, peer: IPv4, net: IPNet,
                 attributes: PathAttributeList) -> None:
        """A new route, or the peer's replacement for one it announced."""
        self.adj_in[peer][net] = attributes

    def withdraw(self, peer: IPv4, net: IPNet) -> None:
        self.adj_in[peer].pop(net, None)

    def peer_down(self, peer: IPv4) -> None:
        self.adj_in[peer].clear()

    def set_policy(self, policy: Optional[Policy]) -> None:
        self.policy = policy

    def add_route(self, protocol: str, net: IPNet, nexthop: IPv4,
                  metric: int) -> None:
        self.tables[protocol][net] = (nexthop, metric)

    def delete_route(self, protocol: str, net: IPNet) -> None:
        self.tables[protocol].pop(net, None)

    # -- the RIB's internal side, which every nexthop resolves through -------
    def _internal(self) -> Dict[IPNet, _Candidate]:
        best: Dict[IPNet, _Candidate] = {}
        for protocol in INTERNAL:
            for net, (nexthop, metric) in self.tables[protocol].items():
                candidate = (ADMIN_DISTANCES[protocol], metric, protocol,
                             nexthop)
                if net not in best or candidate < best[net]:
                    best[net] = candidate
        return best

    def _resolve(self, internal: Dict[IPNet, _Candidate],
                 nexthop: IPv4) -> Optional[_Candidate]:
        """The longest internal winner covering *nexthop*, or None."""
        for net in self._external_nets():
            assert not net.contains_addr(nexthop), (
                f"{net} covers nexthop {nexthop}: recursive resolution is "
                "not modelled")
        covers = [net for net in internal if net.contains_addr(nexthop)]
        if not covers:
            return None
        return internal[max(covers, key=lambda net: net.prefix_len)]

    def _external_nets(self):
        for table in self.adj_in.values():
            yield from table
        for protocol in EXTERNAL:
            yield from self.tables[protocol]

    # -- BGP ------------------------------------------------------------------
    def _import(self, peer: Peer, net: IPNet,
                attributes: PathAttributeList) -> Optional[PathAttributeList]:
        """The import filter bank: AS-path loop, policy, default local-pref."""
        if not peer.ibgp and attributes.as_path.contains(self.local_as):
            return None
        if self.policy is not None:
            attributes = self.policy(net, attributes, peer.addr)
            if attributes is None:
                return None
        if attributes.local_pref is None:
            attributes = attributes.replace(local_pref=DEFAULT_LOCAL_PREF)
        return attributes

    def loc_rib(self) -> Dict[IPNet, Tuple[IPv4, PathAttributeList, int]]:
        """BGP's winner per net: (peer address, attributes after import,
        IGP metric), among routes whose nexthop resolves."""
        # A peer's routes share a few nexthops: resolve each once.
        resolve = lru_cache(None)(partial(self._resolve, self._internal()))
        best: Dict[IPNet, tuple] = {}
        for addr, table in self.adj_in.items():
            peer = self.peers[addr]
            for net, announced in table.items():
                attributes = self._import(peer, net, announced)
                if attributes is None:
                    continue
                cover = resolve(attributes.nexthop)
                if cover is None:
                    continue
                igp_metric = cover[1]
                rank = (-attributes.local_pref,
                        attributes.as_path.path_length(),
                        int(attributes.origin),
                        attributes.med or 0,
                        peer.ibgp,
                        igp_metric,
                        peer.bgp_id.to_int(),
                        addr.to_int())
                if net not in best or rank < best[net][0]:
                    best[net] = (rank, (addr, attributes, igp_metric))
        return {net: entry for net, (__, entry) in best.items()}

    # -- the RIB --------------------------------------------------------------
    def rib_tables(self) -> Dict[str, Dict[IPNet, Tuple[IPv4, int]]]:
        """The RIB's ebgp and ibgp tables: net -> (nexthop, metric)."""
        tables = {protocol: dict(self.tables[protocol])
                  for protocol in EXTERNAL}
        for net, (addr, attributes, metric) in self.loc_rib().items():
            protocol = "ibgp" if self.peers[addr].ibgp else "ebgp"
            tables[protocol][net] = (attributes.nexthop, metric)
        return tables

    def winners(self) -> Dict[IPNet, Tuple[str, IPv4, int]]:
        """The RIB's final winner per net: (protocol, nexthop, metric)."""
        internal = self._internal()
        resolve = lru_cache(None)(partial(self._resolve, internal))
        best = dict(internal)
        for protocol, table in self.rib_tables().items():
            for net, (nexthop, metric) in table.items():
                if resolve(nexthop) is None:
                    continue  # held: nothing internal reaches the nexthop
                candidate = (ADMIN_DISTANCES[protocol], metric, protocol,
                             nexthop)
                if net not in best or candidate < best[net]:
                    best[net] = candidate
        return {net: (protocol, nexthop, metric)
                for net, (__, metric, protocol, nexthop) in best.items()}

    def fib(self) -> Dict[IPNet, IPv4]:
        return {net: nexthop
                for net, (__, nexthop, __) in self.winners().items()}

    def redist(self, protocol: str) -> Dict[IPNet, Tuple[str, int]]:
        """What a redistribution target for *protocol* must hold:
        net -> (protocol, metric) of each winner *protocol* owns."""
        return {net: (owner, metric)
                for net, (owner, __, metric) in self.winners().items()
                if owner == protocol}
