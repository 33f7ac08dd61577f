"""Interest registration — paper §5.2.1 and Figure 8.

    "when BGP asks the RIB about a specific address, the RIB informs BGP
    about the address range for which the same answer applies. ... the RIB
    computes the largest enclosing subnet that is not overlayed by a more
    specific route and tells BGP that its answer is valid for this subset
    of addresses only.  Should the situation change at any later stage,
    the RIB will send a 'cache invalidated' message for the relevant
    subnet."

Because no valid-subnet ever overlaps another, clients can cache answers
in balanced trees / sorted arrays for fast lookup (see
:class:`repro.bgp.nexthop.NexthopCache`).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.core.stages import BatchStage, RouteTableStage
from repro.net import IPNet
from repro.trie import RouteTrie

#: invalidation callback: (client_name, valid_subnet)
InvalidateCallback = Callable[[str, IPNet], None]


class Registration:
    """One registered valid-subnet and the clients depending on it."""

    __slots__ = ("subnet", "clients", "covering_net")

    def __init__(self, subnet: IPNet, covering_net: Optional[IPNet]):
        self.subnet = subnet
        self.clients: Set[str] = set()
        #: the route prefix that produced the answer (None = "no route")
        self.covering_net = covering_net


class RegisterStage(BatchStage):
    """Tracks winners, answers interest registrations, fires invalidations."""

    def __init__(self, name: str, bits: int = 32,
                 invalidate_cb: Optional[InvalidateCallback] = None):
        super().__init__(name)
        self.bits = bits
        self.winners = RouteTrie(bits)
        self.registrations = RouteTrie(bits)
        self.invalidate_cb = invalidate_cb

    # -- registration (called via the rib/1.0 XRL interface) ----------------
    def register_interest(self, client: str,
                          addr) -> Tuple[IPNet, Optional[Any]]:
        """Register *client*'s interest in *addr*.

        Returns ``(valid_subnet, route-or-None)``: the answer and the
        subnet of addresses for which the same answer applies.
        """
        match = self.winners.best_match(addr)
        covering_net = match[0] if match is not None else None
        subnet = self._valid_subnet(addr, covering_net)
        existing = self.registrations.exact(subnet)
        if existing is None:
            existing = Registration(subnet, covering_net)
            self.registrations.insert(subnet, existing)
        existing.clients.add(client)
        return subnet, (match[1] if match is not None else None)

    def deregister_interest(self, client: str, subnet: IPNet) -> bool:
        entry = self.registrations.exact(subnet)
        if entry is None:
            return False
        entry.clients.discard(client)
        if not entry.clients:
            self.registrations.discard(subnet)
        return True

    def _valid_subnet(self, addr, covering_net: Optional[IPNet]) -> IPNet:
        """The largest enclosing subnet not overlaid by a more specific route.

        Start from the matched prefix (or the default prefix when there is
        no route at all) and repeatedly halve towards *addr* while any
        more-specific route overlaps the candidate subnet.
        """
        if covering_net is not None:
            subnet = covering_net
            floor_len = covering_net.prefix_len
        else:
            subnet = IPNet(type(addr).zero(), 0)
            floor_len = -1
        while subnet.prefix_len < self.bits:
            if not self._overlaid(subnet, floor_len):
                return subnet
            subnet = subnet.half_containing(addr)
        return subnet

    def _overlaid(self, subnet: IPNet, floor_len: int) -> bool:
        """Any route strictly more specific than *floor_len* inside *subnet*?"""
        for net, __ in self.winners.covered(subnet):
            if net.prefix_len > floor_len:
                return True
        return False

    # -- invalidation on route churn ---------------------------------------
    def _invalidate_overlapping(self, net: IPNet) -> None:
        victims: List[Registration] = [
            entry for __, entry in self.registrations.covered(net)
        ]
        for reg_net, entry in self.registrations.covering(net):
            if entry not in victims:
                victims.append(entry)
        discard = self.registrations.discard
        for entry in victims:
            discard(entry.subnet)
            if self.invalidate_cb is not None:
                for client in sorted(entry.clients):
                    self.invalidate_cb(client, entry.subnet)

    # -- message handling -----------------------------------------------------
    def add_routes(self, routes: List[Any], *,
                   caller: Optional[RouteTableStage] = None) -> None:
        insert = self.winners.insert
        for route in routes:
            insert(route.net, route)
            self._invalidate_overlapping(route.net)
        if self.next_table is not None:
            self.next_table.add_routes(routes, caller=self)

    def delete_routes(self, routes: List[Any], *,
                      caller: Optional[RouteTableStage] = None) -> None:
        discard = self.winners.discard
        for route in routes:
            discard(route.net)
            self._invalidate_overlapping(route.net)
        if self.next_table is not None:
            self.next_table.delete_routes(routes, caller=self)

    def replace_route(self, old_route: Any, new_route: Any, *,
                      caller: Optional[RouteTableStage] = None) -> None:
        self.winners.insert(new_route.net, new_route)
        self._invalidate_overlapping(new_route.net)
        super().replace_route(old_route, new_route, caller=caller)

    def lookup_route(self, net: IPNet, *,
                     caller: Optional[RouteTableStage] = None) -> Any:
        return self.winners.exact(net)

    def lookup_by_dest(self, addr) -> Optional[Any]:
        """Longest-prefix-match over current winners (rib lookup XRL)."""
        match = self.winners.best_match(addr)
        return match[1] if match is not None else None
