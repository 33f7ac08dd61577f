"""The ExtInt stage: compose external routes with internal routes.

    "... an ExtInt Stage, which composes a set of external routes with a
    set of internal routes."  (paper §5.2, Figure 7)

Figure 7 draws ExtInt with **two** upstream sides — the external (EGP)
merge chain and the internal (IGP) merge chain — and that structure is
load-bearing: an external route with the best administrative distance may
still be *unusable* because its nexthop does not resolve through any
internal route, in which case the internal alternative must win.  A
single merged chain would swallow that alternative before ExtInt could
see it (a bug our property tests caught in an earlier design).

The stage mirrors each side's winners, gates external candidates on
nexthop resolvability through the internal side, picks the final winner
by administrative preference, and keeps downstream consistent as routes
and resolvability change.
"""

from __future__ import annotations

from itertools import groupby
from operator import itemgetter
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core.stages import RouteTableStage
from repro.net import IPNet
from repro.rib.route import preferred
from repro.trie import RouteTrie


class ExtIntStage(RouteTableStage):
    def __init__(self, name: str, bits: int = 32):
        super().__init__(name)
        self.bits = bits
        #: internal-side winners by prefix (the resolution substrate: the
        #: one table here that answers longest-match questions)
        self.internal = RouteTrie(bits)
        #: external-side winners by prefix (announced only if resolvable)
        self.external: Dict[IPNet, Any] = {}
        #: everything announced downstream (consistency rule 2 source)
        self.announced: Dict[IPNet, Any] = {}
        #: nexthop address -> set of external prefixes using it
        self._nexthop_index: Dict[Any, Set[IPNet]] = {}
        #: what the message being handled emits, flushed when it is done
        self._emissions: List[Tuple[str, Any, Any]] = []

    # -- helpers ------------------------------------------------------------
    def _resolves(self, route: Any) -> bool:
        return self.internal.best_match(route.nexthop) is not None

    @property
    def unresolved(self) -> Dict[IPNet, Any]:
        """External routes currently held for lack of a resolvable nexthop."""
        return {net: route for net, route in self.external.items()
                if not self._resolves(route)}

    def _index_add(self, route: Any) -> None:
        nets = self._nexthop_index.get(route.nexthop)
        if nets is None:
            self._nexthop_index[route.nexthop] = {route.net}
        else:
            nets.add(route.net)

    def _index_remove(self, route: Any) -> None:
        nets = self._nexthop_index.get(route.nexthop)
        if nets is not None:
            nets.discard(route.net)
            if not nets:
                del self._nexthop_index[route.nexthop]

    # -- emission (collected per message, then flushed) ---------------------
    def _flush_emissions(self, emissions: List[Tuple[str, Any, Any]]) -> None:
        """Replay buffered emissions in order, each run of same-op adds or
        deletes as one downstream batch."""
        next_table = self.next_table
        if next_table is None:
            return
        for op, run in groupby(emissions, key=itemgetter(0)):
            if op == "replace":
                for __, route, old_route in run:
                    next_table.replace_route(old_route, route, caller=self)
            elif op == "add":
                next_table.add_routes([r for __, r, __ in run], caller=self)
            else:
                next_table.delete_routes([r for __, r, __ in run], caller=self)

    # -- winner computation -------------------------------------------------
    def _reevaluate(self, net: IPNet) -> None:
        external = self.external.get(net)
        if external is not None and not self._resolves(external):
            external = None  # unusable: the internal alternative may win
        internal = self.internal.exact(net)
        winner = preferred(external, internal)
        current = self.announced.get(net)
        if winner is None:
            if current is not None:
                del self.announced[net]
                self._emissions.append(("delete", current, None))
            return
        if current is None:
            self.announced[net] = winner
            self._emissions.append(("add", winner, None))
        elif current is not winner:
            self.announced[net] = winner
            self._emissions.append(("replace", winner, current))

    def _reevaluate_externals_for(self, changed_net: IPNet) -> None:
        """Internal routing under *changed_net* changed: resolvability of
        any external nexthop inside it may have flipped."""
        affected = [
            nexthop for nexthop in self._nexthop_index
            if changed_net.contains_addr(nexthop)
        ]
        index_get = self._nexthop_index.get
        for nexthop in affected:
            for net in list(index_get(nexthop, ())):
                self._reevaluate(net)

    # -- message handling (routes classify themselves via is_external) --------
    def _add_one(self, route: Any) -> None:
        if route.is_external:
            self.external[route.net] = route
            self._index_add(route)
            self._reevaluate(route.net)
        else:
            self.internal.insert(route.net, route)
            self._reevaluate(route.net)
            self._reevaluate_externals_for(route.net)

    def _delete_one(self, route: Any) -> None:
        if route.is_external:
            self.external.pop(route.net, None)
            self._index_remove(route)
            self._reevaluate(route.net)
        else:
            self.internal.discard(route.net)
            self._reevaluate(route.net)
            self._reevaluate_externals_for(route.net)

    def _replace_one(self, pair: Tuple[Any, Any]) -> None:
        old_route, new_route = pair
        if old_route.is_external != new_route.is_external:
            # Cannot happen with split ext/int sides, but stay safe.
            self._delete_one(old_route)
        elif old_route.is_external:
            self._index_remove(old_route)
        self._add_one(new_route)

    def add_routes(self, routes: List[Any], *,
                   caller: Optional[RouteTableStage] = None) -> None:
        self._collect(self._add_one, routes)

    def delete_routes(self, routes: List[Any], *,
                      caller: Optional[RouteTableStage] = None) -> None:
        self._collect(self._delete_one, routes)

    def replace_route(self, old_route: Any, new_route: Any, *,
                      caller: Optional[RouteTableStage] = None) -> None:
        self._collect(self._replace_one, [(old_route, new_route)])

    def _collect(self, per_item: Any, items: List[Any]) -> None:
        """Run *per_item* over the message with its emissions collected,
        then flush them as segment-grouped downstream batches."""
        try:
            for item in items:
                per_item(item)
        finally:
            emissions, self._emissions = self._emissions, []
        self._flush_emissions(emissions)

    def lookup_route(self, net: IPNet, *,
                     caller: Optional[RouteTableStage] = None) -> Any:
        return self.announced.get(net)
