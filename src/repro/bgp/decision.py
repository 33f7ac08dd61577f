"""The BGP decision process stage (paper §5.1.1).

    "XORP thus further decomposes the Decision Process into Nexthop
    Resolvers, a simple Decision Process, and a Fanout Queue."

By the time routes reach this stage they are annotated with nexthop
resolvability and IGP metric, so best-path selection is a pure function.
Alternative routes stay stored in the PeerIn stages; "the Decision Process
must be able to look up alternative routes via calls upstream through the
pipeline", which is exactly what happens on withdrawals.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.stages import RouteTableStage
from repro.net import IPNet, IPv4


class PeerInfo:
    """Decision-relevant facts about one peering."""

    __slots__ = ("peer_id", "is_ibgp", "bgp_id", "peer_addr")

    def __init__(self, peer_id: str, is_ibgp: bool, bgp_id: IPv4,
                 peer_addr: IPv4):
        self.peer_id = peer_id
        self.is_ibgp = is_ibgp
        self.bgp_id = bgp_id
        self.peer_addr = peer_addr


DEFAULT_LOCAL_PREF = 100


def route_ranking_key(route: Any, peer: PeerInfo) -> Tuple:
    """Comparable key: *larger* is better.

    Implements the standard best-path order: local-pref, AS-path length,
    origin, MED, EBGP-over-IBGP, IGP metric to nexthop, then lowest BGP ID
    and peer address as the final tiebreaks.  (MED is compared across all
    neighbour ASes — the "always-compare-med" policy — which keeps the
    order total; see DESIGN.md.)
    """
    attrs = route.attributes
    local_pref = (attrs.local_pref if attrs.local_pref is not None
                  else DEFAULT_LOCAL_PREF)
    med = attrs.med if attrs.med is not None else 0
    igp_metric = route.igp_metric if route.igp_metric is not None else 0
    return (
        local_pref,
        -attrs.as_path.path_length(),
        -int(attrs.origin),
        -med,
        not peer.is_ibgp,
        -igp_metric,
        -peer.bgp_id.to_int(),
        -peer.peer_addr.to_int(),
    )


class DecisionStage(RouteTableStage):
    """Chooses the best route per prefix across all peer branches."""

    def __init__(self, name: str,
                 peer_info_fn: Callable[[str], PeerInfo]):
        super().__init__(name)
        self.branches: List[RouteTableStage] = []
        self.peer_info = peer_info_fn
        #: current winner per prefix, BGP's one per-winner table: the
        #: fanout's dumps and the export re-filter walk a snapshot of it
        self.winners: Dict[IPNet, Any] = {}

    def add_branch(self, branch: RouteTableStage) -> None:
        self.branches.append(branch)
        branch.next_table = self

    def remove_branch(self, branch: RouteTableStage) -> None:
        if branch in self.branches:
            self.branches.remove(branch)

    # -- selection ------------------------------------------------------------
    def _eligible(self, route: Any) -> bool:
        """Paper: "The BGP protocol requires that the next hop is
        resolvable for a route to be used."
        """
        return bool(route.resolvable)

    def _better(self, a: Any, b: Any) -> Any:
        key_a = route_ranking_key(a, self.peer_info(a.peer_id))
        key_b = route_ranking_key(b, self.peer_info(b.peer_id))
        return a if key_a >= key_b else b

    def _elect(self, net: IPNet, exclude: Optional[RouteTableStage] = None
               ) -> Optional[Any]:
        """Query every branch upstream for its route to *net*; pick best."""
        best = None
        for branch in self.branches:
            if branch is exclude:
                continue
            candidate = branch.lookup_route(net, caller=self)
            if candidate is None or not self._eligible(candidate):
                continue
            best = candidate if best is None else self._better(best, candidate)
        return best

    # -- stage messages ----------------------------------------------------
    def add_routes(self, routes: List[Any], *,
                   caller: Optional[RouteTableStage] = None) -> None:
        # A peering burst is mostly fresh winners: coalesce those into
        # one downstream batch; displacements flush and go out as a
        # replace, keeping the per-prefix event order of the routes sent
        # one at a time.  ``setdefault`` inserts the route or hands back
        # the incumbent.
        setdefault = self.winners.setdefault
        next_table = self.next_table
        fresh: List[Any] = []
        for route in routes:
            if not self._eligible(route):
                continue
            incumbent = setdefault(route.net, route)
            if incumbent is route:
                fresh.append(route)
            elif self._better(route, incumbent) is route:
                if fresh:
                    next_table.add_routes(fresh, caller=self)
                    fresh = []
                self.winners[route.net] = route
                next_table.replace_route(incumbent, route, caller=self)
        if fresh:
            next_table.add_routes(fresh, caller=self)

    def delete_routes(self, routes: List[Any], *,
                      caller: Optional[RouteTableStage] = None) -> None:
        # Deletes of losing alternatives vanish (identity comparison is
        # right: the winner *is* the annotated object the branch
        # forwarded); deleted winners without a surviving alternative
        # coalesce into one downstream batch, and re-elections flush the
        # segment and emit their replace.
        winners = self.winners
        next_table = self.next_table
        gone: List[Any] = []
        for route in routes:
            net = route.net
            if winners.get(net) is not route:
                continue
            replacement = self._elect(net, exclude=caller)
            if replacement is None:
                del winners[net]
                gone.append(route)
                continue
            if gone:
                next_table.delete_routes(gone, caller=self)
                gone = []
            winners[net] = replacement
            next_table.replace_route(route, replacement, caller=self)
        if gone:
            next_table.delete_routes(gone, caller=self)

    def replace_route(self, old_route: Any, new_route: Any, *,
                      caller: Optional[RouteTableStage] = None) -> None:
        net = new_route.net
        incumbent = self.winners.get(net)
        if incumbent is old_route:
            # The winner's own branch revised it: re-run the election with
            # the new version against all other branches.
            winner = self._elect(net, exclude=caller)
            if self._eligible(new_route):
                winner = (new_route if winner is None
                          else self._better(winner, new_route))
            if winner is None:
                del self.winners[net]
                self.next_table.delete_routes([incumbent], caller=self)
                return
            self.winners[net] = winner
            self.next_table.replace_route(incumbent, winner, caller=self)
            return
        # Another branch revised a non-winning route: treat as an add
        # (it may now beat the incumbent).
        self.add_routes([new_route], caller=caller)

    def lookup_route(self, net: IPNet, *,
                     caller: Optional[RouteTableStage] = None) -> Any:
        """Downstream consumers see only winners (consistency rule 2)."""
        return self.winners.get(net)

    @property
    def route_count(self) -> int:
        return len(self.winners)
